"""Golden key ranges per index strategy.

The kernel identity tests (``test_curves_range_kernels.py``) compare
curve-value ranges; they do not see the step from curve values to the
byte bounds the store scans (period prefix, shard fan-out, inclusive
end).  This file pins that step: for every strategy and a fixed set of
windows, the number of key ranges and (the first 64 bits of) a SHA-256
over their concatenated ``start``/``end`` bytes.  The table was
generated before the integer kernels landed (running this file as a
script prints it), so it holds on both sides of that change.
"""

import hashlib

import pytest

from repro.curves import STQuery, TimePeriod, strategy_from_name
from repro.geometry import Envelope

DAY = 86400.0
T0 = 17800 * DAY            # 2018-09-26T00:00:00Z, a period boundary
KM = 0.009                  # ~1 km in degrees (the k-NN cell side)


def _box(lng, lat, width, height=None):
    return Envelope(lng, lat, lng + width,
                    lat + (width if height is None else height))


WORLD = Envelope(-180.0, -90.0, 180.0, 90.0)

#: name -> (envelope, t_min, t_max)
WINDOWS = {
    "knn_cell_beijing": (_box(116.397, 39.908, KM), T0, T0 + DAY - 1),
    "knn_cell_south_west": (_box(-58.381, -34.604, KM), T0, T0 + DAY - 1),
    "knn_cell_on_origin": (_box(-KM / 2, -KM / 2, KM), T0, T0 + DAY - 1),
    "knn_cell_antimeridian": (_box(180.0 - KM, 66.0, KM), T0,
                              T0 + DAY - 1),
    "knn_cell_quartered": (_box(116.25, 39.75, 0.0078125), T0,
                           T0 + DAY - 1),
    "point": (_box(116.4, 39.9, 0.0), T0 + 100.0, T0 + 100.0),
    "3km_1h": (_box(116.30, 39.85, 3 * KM), T0 + 8 * 3600, T0 + 9 * 3600),
    "3km_1day": (_box(116.30, 39.85, 3 * KM), T0, T0 + DAY - 1),
    "3km_over_midnight": (_box(116.30, 39.85, 3 * KM), T0 + 23 * 3600,
                          T0 + 25 * 3600),
    "3km_3days": (_box(116.30, 39.85, 3 * KM), T0 + 3600,
                  T0 + 3 * DAY - 3600),
    "3km_10days": (_box(116.30, 39.85, 3 * KM), T0, T0 + 10 * DAY - 1),
    "3km_40days": (_box(116.30, 39.85, 3 * KM), T0, T0 + 40 * DAY - 1),
    "30km_1week": (_box(116.20, 39.75, 30 * KM), T0, T0 + 7 * DAY - 1),
    "district_1s": (_box(116.20, 39.75, 0.2, 0.1), T0 + 1.0, T0 + 2.0),
    "thin_lng_slab": (_box(110.0, 39.9, 12.0, KM / 10), T0,
                      T0 + DAY - 1),
    "thin_lat_slab": (_box(116.4, 20.0, KM / 10, 25.0), T0, T0 + DAY - 1),
    "hemisphere_east": (Envelope(0.0, -90.0, 180.0, 90.0), T0,
                        T0 + DAY - 1),
    "world_1day": (WORLD, T0, T0 + DAY - 1),
    "world_1year": (WORLD, T0, T0 + 365 * DAY),
    "before_epoch": (_box(116.30, 39.85, 3 * KM), -2 * DAY, -DAY / 2),
    "inverted_time": (_box(116.30, 39.85, 3 * KM), T0 + DAY, T0),
}

STRATEGIES = ("z2", "z2t", "z3", "xz2", "xz2t", "xz3")

#: A second configuration, pinned as one digest per strategy over all
#: windows: fewer shards, a budget small enough for the per-period
#: floor of 8 to bind, year-long periods.
SMALL = dict(period=TimePeriod.YEAR, num_shards=2, max_ranges=24)


def _digest(ranges) -> str:
    sha = hashlib.sha256()
    for kr in ranges:
        sha.update(kr.start)
        sha.update(kr.end)
    return sha.hexdigest()[:16]


def _default_ranges(strategy_name, window):
    envelope, t_min, t_max = WINDOWS[window]
    return strategy_from_name(strategy_name).ranges(
        STQuery(envelope, t_min, t_max))


def _small_digest(strategy_name):
    strategy = strategy_from_name(strategy_name, **SMALL)
    counts, sha = [], hashlib.sha256()
    for envelope, t_min, t_max in WINDOWS.values():
        ranges = strategy.ranges(STQuery(envelope, t_min, t_max))
        counts.append(len(ranges))
        sha.update(_digest(ranges).encode())
    return counts, sha.hexdigest()[:16]


# GOLDEN-BEGIN
GOLDEN = {
    'z2': {
        'knn_cell_beijing': (240, '743e1822f01063c1'),
        'knn_cell_south_west': (188, 'e0ec818fe048ae79'),
        'knn_cell_on_origin': (32, '3b4cd1a30f9d98e5'),
        'knn_cell_antimeridian': (460, 'a1560de750604032'),
        'knn_cell_quartered': (260, '5d5577b152f376f8'),
        'point': (4, 'b479f1c8d4c666be'),
        '3km_1h': (364, '67038f7537ae1455'),
        '3km_1day': (364, '67038f7537ae1455'),
        '3km_over_midnight': (364, '67038f7537ae1455'),
        '3km_3days': (364, '67038f7537ae1455'),
        '3km_10days': (364, '67038f7537ae1455'),
        '3km_40days': (364, '67038f7537ae1455'),
        '30km_1week': (148, '592ba7c7b88868f0'),
        'district_1s': (252, '42a68e441dbadcd3'),
        'thin_lng_slab': (500, '5ab50863e9a39c9a'),
        'thin_lat_slab': (924, '0aacf1c8a7ef2e3b'),
        'hemisphere_east': (8, 'adb0589b69d14fcf'),
        'world_1day': (4, '6b644f114cdc5dd6'),
        'world_1year': (4, '6b644f114cdc5dd6'),
        'before_epoch': (364, '67038f7537ae1455'),
        'inverted_time': (0, 'e3b0c44298fc1c14'),
    },
    'z2t': {
        'knn_cell_beijing': (240, '14ba86975c4d2789'),
        'knn_cell_south_west': (188, 'e850bd297690d8b2'),
        'knn_cell_on_origin': (32, 'b2215df1884a879a'),
        'knn_cell_antimeridian': (460, 'e1d8039cc16afaad'),
        'knn_cell_quartered': (260, '402b2d7422b2474a'),
        'point': (4, '8961a082cc5b09bc'),
        '3km_1h': (364, '0a3c01e8f42042c9'),
        '3km_1day': (364, '0a3c01e8f42042c9'),
        '3km_over_midnight': (400, 'c1d246fff4c87a71'),
        '3km_3days': (480, '89230c89f933010f'),
        '3km_10days': (680, '00366c6ae95f8b1c'),
        '3km_40days': (480, 'fcd2d66bea51c4bd'),
        '30km_1week': (224, 'dd77f8064013fc98'),
        'district_1s': (252, 'c9e7cd0873456bcc'),
        'thin_lng_slab': (500, '3866e0a70dbfb57e'),
        'thin_lat_slab': (924, 'e77bfbbf2127e34f'),
        'hemisphere_east': (8, '036d1419e7b6a541'),
        'world_1day': (4, 'ec614037e9f1e3f3'),
        'world_1year': (1464, '7fe6424151d95ba8'),
        'before_epoch': (400, '0a40af7c43d6b3b9'),
        'inverted_time': (0, 'e3b0c44298fc1c14'),
    },
    'z3': {
        'knn_cell_beijing': (76, '7807d755d28c8495'),
        'knn_cell_south_west': (80, '3e6c436dcea63be6'),
        'knn_cell_on_origin': (88, '3b2f31888b47a161'),
        'knn_cell_antimeridian': (84, '212f278a6a345947'),
        'knn_cell_quartered': (76, '7807d755d28c8495'),
        'point': (4, 'ddf004bbeac34c21'),
        '3km_1h': (44, 'e1aedefb6e0c40e1'),
        '3km_1day': (76, '7807d755d28c8495'),
        '3km_over_midnight': (140, '536ca04c87eed4ce'),
        '3km_3days': (228, '00ef09987f23a4c6'),
        '3km_10days': (640, '12fb59865ec527c8'),
        '3km_40days': (960, '82f290300bf0e913'),
        '30km_1week': (532, 'a1a1b1e868d95a11'),
        'district_1s': (36, '98f981d198b83677'),
        'thin_lng_slab': (76, '2bfd55e474fe4c6a'),
        'thin_lat_slab': (104, 'ff1692e00001dcc4'),
        'hemisphere_east': (16, '0f7e4d3e2cca134f'),
        'world_1day': (4, '3fbfb4e9d5685e64'),
        'world_1year': (1468, '00e0a47250f589ec'),
        'before_epoch': (132, '41ce57c3cfea55af'),
        'inverted_time': (0, 'e3b0c44298fc1c14'),
    },
    'xz2': {
        'knn_cell_beijing': (144, '86051f4caee0ba04'),
        'knn_cell_south_west': (124, 'b47cb0c710501aa6'),
        'knn_cell_on_origin': (216, '0a6773b142cd27ba'),
        'knn_cell_antimeridian': (140, '3b01a6f943f642df'),
        'knn_cell_quartered': (144, 'e13f39c43cc6df5d'),
        'point': (144, 'f4d63e60f591acb1'),
        '3km_1h': (136, '369ed56027ad368e'),
        '3km_1day': (136, '369ed56027ad368e'),
        '3km_over_midnight': (136, '369ed56027ad368e'),
        '3km_3days': (136, '369ed56027ad368e'),
        '3km_10days': (136, '369ed56027ad368e'),
        '3km_40days': (136, '369ed56027ad368e'),
        '30km_1week': (196, '5fd68e91af626956'),
        'district_1s': (172, '99f4bedc43733895'),
        'thin_lng_slab': (396, 'ab607362a368f1ba'),
        'thin_lat_slab': (472, 'a2dace08d5bc2ee5'),
        'hemisphere_east': (144, '1355075c76f74c43'),
        'world_1day': (4, '5f7a506a02db8f8a'),
        'world_1year': (4, '5f7a506a02db8f8a'),
        'before_epoch': (136, '369ed56027ad368e'),
        'inverted_time': (0, 'e3b0c44298fc1c14'),
    },
    'xz2t': {
        'knn_cell_beijing': (288, 'c7aa57a81b0ee5e9'),
        'knn_cell_south_west': (248, 'd8be0d150dc5b0a4'),
        'knn_cell_on_origin': (432, 'bcd602f318dfd7d4'),
        'knn_cell_antimeridian': (280, 'de298c7c270208bd'),
        'knn_cell_quartered': (288, 'd63cfc1458ad7130'),
        'point': (288, 'ca3beca813cfed7d'),
        '3km_1h': (272, 'd0d4fa1e6190f4fb'),
        '3km_1day': (272, 'd0d4fa1e6190f4fb'),
        '3km_over_midnight': (408, 'dcb5112a3c62eed8'),
        '3km_3days': (544, '2656b4dca3f2bd72'),
        '3km_10days': (440, '909f0fe7f44bc7cb'),
        '3km_40days': (328, 'e3483f9e3fb4509b'),
        '30km_1week': (736, '57f70cfcc441da32'),
        'district_1s': (344, 'e0bd985978a9f087'),
        'thin_lng_slab': (504, '138125dd131bb09e'),
        'thin_lat_slab': (528, '21a5ce770ef3ff5d'),
        'hemisphere_east': (152, '523a61a0c6e1723c'),
        'world_1day': (8, '3450b01753127c05'),
        'world_1year': (1468, '8306087a611f7cc4'),
        'before_epoch': (408, '4916aa1ec1e0d4e9'),
        'inverted_time': (0, 'e3b0c44298fc1c14'),
    },
    'xz3': {
        'knn_cell_beijing': (40, 'd1efe635e9126236'),
        'knn_cell_south_west': (60, '0434722f49a2a2a5'),
        'knn_cell_on_origin': (68, 'a3b2e9f52101f183'),
        'knn_cell_antimeridian': (32, 'b1351eee372add29'),
        'knn_cell_quartered': (40, 'd1efe635e9126236'),
        'point': (40, '7d8062683c9253fe'),
        '3km_1h': (40, '38e1fcf926168f44'),
        '3km_1day': (40, 'd1efe635e9126236'),
        '3km_over_midnight': (56, '7741c00d53b71cf5'),
        '3km_3days': (88, 'a06821cbba9ce874'),
        '3km_10days': (212, '75b7d30654557e31'),
        '3km_40days': (164, '8a2a780b294306f5'),
        '30km_1week': (184, '3370d4f5b96df5e2'),
        'district_1s': (40, '7d8062683c9253fe'),
        'thin_lng_slab': (40, 'd1efe635e9126236'),
        'thin_lat_slab': (56, '2241b407f2da9dd8'),
        'hemisphere_east': (20, '09b38d932483cf30'),
        'world_1day': (20, '09b38d932483cf30'),
        'world_1year': (1468, '3141e7541584b15d'),
        'before_epoch': (64, 'eecf7a920d0f12d4'),
        'inverted_time': (0, 'e3b0c44298fc1c14'),
    },
}
GOLDEN_SMALL = {
    'z2': (
        [12, 6, 16, 10, 20, 2, 28, 28, 28, 28, 28, 28, 16, 14, 28, 46,
         4, 2, 2, 28, 0],
        '63fb789c764e752f'),
    'z2t': (
        [12, 6, 16, 10, 20, 2, 28, 28, 28, 28, 28, 28, 16, 14, 28, 46,
         4, 2, 4, 28, 0],
        '8fce3fa2258558e3'),
    'z3': (
        [30, 34, 8, 32, 26, 2, 26, 36, 22, 38, 26, 20, 16, 18, 24, 36,
         16, 12, 6, 34, 0],
        '38d8c60710bafaac'),
    'xz2': (
        [20, 18, 16, 20, 20, 20, 20, 20, 20, 20, 20, 20, 20, 20, 24,
         24, 4, 2, 2, 20, 0],
        'abb222695288cdfd'),
    'xz2t': (
        [20, 20, 16, 12, 20, 20, 20, 20, 20, 20, 20, 20, 20, 20, 20,
         28, 4, 4, 6, 20, 0],
        '31435ad96477073d'),
    'xz3': (
        [8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 6, 8, 0],
        '02dfe641720bd9d5'),
}
# GOLDEN-END


@pytest.mark.parametrize("window", list(WINDOWS))
@pytest.mark.parametrize("strategy_name", STRATEGIES)
def test_default_strategy_key_ranges_are_pinned(strategy_name, window):
    ranges = _default_ranges(strategy_name, window)
    assert (len(ranges), _digest(ranges)) == GOLDEN[strategy_name][window]


@pytest.mark.parametrize("strategy_name", STRATEGIES)
def test_small_budget_year_period_key_ranges_are_pinned(strategy_name):
    assert _small_digest(strategy_name) == GOLDEN_SMALL[strategy_name]


def test_pinned_windows_exercise_the_planner():
    """The table is not vacuous: the k-NN cell spends the whole budget,
    multi-period windows fan out per period, the empty window is empty."""
    assert GOLDEN["z2"]["thin_lat_slab"][0] > 4 * 200
    assert GOLDEN["z2t"]["3km_10days"][0] > GOLDEN["z2t"]["3km_1day"][0]
    assert all(GOLDEN[s]["inverted_time"][0] == 0 for s in STRATEGIES)


if __name__ == "__main__":
    print("GOLDEN = {")
    for name in STRATEGIES:
        print(f"    {name!r}: {{")
        for window in WINDOWS:
            ranges = _default_ranges(name, window)
            print(f"        {window!r}: ({len(ranges)}, "
                  f"{_digest(ranges)!r}),")
        print("    },")
    print("}")
    print("GOLDEN_SMALL = {")
    for name in STRATEGIES:
        counts, digest = _small_digest(name)
        print(f"    {name!r}: (\n        {counts!r},\n"
              f"        {digest!r}),")
    print("}")
