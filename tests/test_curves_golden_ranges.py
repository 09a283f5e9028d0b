"""Golden key ranges per index strategy.

The kernel identity tests (``test_curves_range_kernels.py``) compare
curve-value ranges; they do not see the step from curve values to the
byte bounds the store scans (period prefix, shard fan-out, inclusive
end).  This file pins that step: for every strategy and a fixed set of
windows, the number of key ranges and (the first 64 bits of) a SHA-256
over their concatenated ``start``/``end`` bytes.  The table was
generated before the integer kernels landed (running this file as a
script prints it), so it holds on both sides of that change.  The
``xz2``/``xz2t`` digests were regenerated once, deliberately, when
their key body became ``code:u32 | MBR signature`` (same range counts,
same codes — ``test_curves_range_kernels.py`` checks the code half
against the reference walk); the other four are the original ones.

The write side is pinned too: ``GOLDEN_KEYS`` holds ``strategy.key()``
of a fixed set of records, in hex, so a change to what gets *stored*
cannot hide behind range bounds that still cover it.
"""

import hashlib
import struct

import pytest

from repro.curves import (
    IndexedRecord,
    STQuery,
    TimePeriod,
    strategy_from_name,
)
from repro.geometry import Envelope, LineString, Point, Polygon

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


#: name -> record.  Point strategies key the point ones; the XZ
#: strategies key them all (a point is a zero-extent MBR).
RECORDS = {
    "point_beijing": IndexedRecord(
        "p1", Point(116.397, 39.908), T0 + 100.0, T0 + 100.0),
    "point_south_west": IndexedRecord(
        "p2", Point(-58.381, -34.604), T0 + DAY - 1, T0 + DAY - 1),
    "point_before_epoch": IndexedRecord(
        "p3", Point(0.0, 0.0), -1.5 * DAY, -1.5 * DAY),
    "point_world_corner": IndexedRecord(
        "p4", Point(180.0, 90.0), T0, T0),
    "trip_3km": IndexedRecord(
        "t1", LineString([(116.30, 39.85), (116.31, 39.87),
                          (116.327, 39.86)]), T0 + 8 * 3600, T0 + 9 * 3600),
    "trip_over_midnight": IndexedRecord(
        "t2", LineString([(116.25, 39.75), (116.2578125, 39.7578125)]),
        T0 + 23 * 3600, T0 + 25 * 3600),
    "trip_60h": IndexedRecord(
        "t3", LineString([(121.47, 31.23), (121.52, 31.20)]),
        T0 + 10 * 3600, T0 + 70 * 3600),
    "fence_district": IndexedRecord(
        "f1", Polygon([(116.2, 39.75), (116.4, 39.75), (116.4, 39.85),
                       (116.2, 39.85)]), T0, T0 + 7 * DAY),
    "span_hemispheres": IndexedRecord(
        "s1", LineString([(-120.0, -45.0), (150.0, 60.0)]), T0, T0 + 60.0),
}
POINT_STRATEGIES = ("z2", "z2t", "z3")


def _golden_key(strategy_name, record_name) -> str:
    return strategy_from_name(strategy_name).key(
        RECORDS[record_name]).hex()


def _keyed_records(strategy_name):
    return [name for name, record in RECORDS.items()
            if strategy_name not in POINT_STRATEGIES
            or record.geometry.is_point()]


def _digest(ranges) -> str:
    # ``stop[:-1]`` is the inclusive end the digests were pinned on:
    # bounds are half-open, one 0x00 past it.
    sha = hashlib.sha256()
    for start, stop in ranges:
        sha.update(start)
        sha.update(stop[:-1])
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
        'knn_cell_beijing': (144, '357b2c04bb682910'),
        'knn_cell_south_west': (124, '4224cca51b3d75f0'),
        'knn_cell_on_origin': (216, '41b38b9f06b98d9c'),
        'knn_cell_antimeridian': (140, '9a64bc2d44e2d0a4'),
        'knn_cell_quartered': (144, 'ffefa98f965ec2ca'),
        'point': (144, 'fc79b5c4a019c1df'),
        '3km_1h': (136, '2cfa3ffb005abf24'),
        '3km_1day': (136, '2cfa3ffb005abf24'),
        '3km_over_midnight': (136, '2cfa3ffb005abf24'),
        '3km_3days': (136, '2cfa3ffb005abf24'),
        '3km_10days': (136, '2cfa3ffb005abf24'),
        '3km_40days': (136, '2cfa3ffb005abf24'),
        '30km_1week': (196, '04a2e0cb1cd6da2b'),
        'district_1s': (172, '8f291768de807314'),
        'thin_lng_slab': (396, '9e5c3423fdea1493'),
        'thin_lat_slab': (472, 'b682faec99fefc3f'),
        'hemisphere_east': (144, '4f335fcaba42e429'),
        'world_1day': (4, 'a8c546db54579936'),
        'world_1year': (4, 'a8c546db54579936'),
        'before_epoch': (136, '2cfa3ffb005abf24'),
        'inverted_time': (0, 'e3b0c44298fc1c14'),
    },
    'xz2t': {
        'knn_cell_beijing': (288, '8f972f3506f08502'),
        'knn_cell_south_west': (248, '6b3a6bc82f146e37'),
        'knn_cell_on_origin': (432, '28f7d50e64fc2615'),
        'knn_cell_antimeridian': (280, '1da4a6106469d84a'),
        'knn_cell_quartered': (288, 'f08f02533aa552e3'),
        'point': (288, '18e882e32c6ce6e1'),
        '3km_1h': (272, '5ade602f34b4d31e'),
        '3km_1day': (272, '5ade602f34b4d31e'),
        '3km_over_midnight': (408, '4a17eef51a36549c'),
        '3km_3days': (544, 'c488adb6e8468521'),
        '3km_10days': (440, '7b86fa6da7dc98de'),
        '3km_40days': (328, '4d2e20214b35391c'),
        '30km_1week': (736, '8b2f5b0eb4b9804c'),
        'district_1s': (344, '1644091133da851f'),
        'thin_lng_slab': (504, 'b9fda12d8ff4d753'),
        'thin_lat_slab': (528, '195dbd4a04fd0213'),
        'hemisphere_east': (152, 'c114e8f83c141ae7'),
        'world_1day': (8, '41b79c58a41bd71a'),
        'world_1year': (1468, '0751333cb422f451'),
        'before_epoch': (408, '6619d15f26ba5ed9'),
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
        '91a1348e3bf2c0f1'),
    'xz2t': (
        [20, 20, 16, 12, 20, 20, 20, 20, 20, 20, 20, 20, 20, 20, 20,
         28, 4, 4, 6, 20, 0],
        '045fdebfc4d8015a'),
    'xz3': (
        [8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 6, 8, 0],
        '02dfe641720bd9d5'),
}
GOLDEN_KEYS = {
    'z2': {
        'point_beijing':
            '0336e13c06453ec6d6007031',
        'point_south_west':
            '010c6f2d7480c08b6b007032',
        'point_before_epoch':
            '033000000000000000007033',
        'point_world_corner':
            '003fffffffffffffff007034',
    },
    'z2t': {
        'point_beijing':
            '038000458836e13c06453ec6d6007031',
        'point_south_west':
            '01800045880c6f2d7480c08b6b007032',
        'point_before_epoch':
            '037ffffffe3000000000000000007033',
        'point_world_corner':
            '00800045883fffffffffffffff007034',
    },
    'z3': {
        'point_beijing':
            '0380004588329a043e043aca67007031',
        'point_south_west':
            '01800045884f2efe6f6fb3013c007032',
        'point_before_epoch':
            '037ffffffe7000000000000000007033',
        'point_world_corner':
            '008000458836db6db6db6db6db007034',
    },
    'xz2': {
        'point_beijing':
            '030124b1462b102b10007031',
        'point_south_west':
            '01004250f760486048007032',
        'point_before_epoch':
            '030100000b00000000007033',
        'point_world_corner':
            '000155555480807f7f007034',
        'trip_3km':
            '030124b1171e6745a1007431',
        'trip_over_midnight':
            '010124b10c5544605b007432',
        'trip_60h':
            '03012245a3077c50d3007433',
        'fence_district':
            '000124b10b062297b3006631',
        'span_hemispheres':
            '00000000012a40ead5007331',
    },
    'xz2t': {
        'point_beijing':
            '03800045880124b1462b102b10007031',
        'point_south_west':
            '0180004588004250f760486048007032',
        'point_before_epoch':
            '037ffffffe0100000b00000000007033',
        'point_world_corner':
            '00800045880155555480807f7f007034',
        'trip_3km':
            '03800045880124b1171e6745a1007431',
        'trip_over_midnight':
            '01800045880124b10c5544605b007432',
        'trip_60h':
            '0380004588012245a3077c50d3007433',
        'fence_district':
            '00800045880124b10b062297b3006631',
        'span_hemispheres':
            '0080004588000000012a40ead5007331',
    },
    'xz3': {
        'point_beijing':
            '0380004588000000000073a934007031',
        'point_south_west':
            '01800045880000000000b4fdb4007032',
        'point_before_epoch':
            '037ffffffe0000000001000007007033',
        'point_world_corner':
            '008000458800000000007d6348007034',
        'trip_3km':
            '03800045880000000000863b70007431',
        'trip_over_midnight':
            '018000458800000000011acdb8007432',
        'trip_60h':
            '038000458800000000006db6dc007433',
        'fence_district':
            '008000458800000000006db6dc006631',
        'span_hemispheres':
            '00800045880000000000000001007331',
    },
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


@pytest.mark.parametrize("strategy_name", STRATEGIES)
def test_written_keys_are_pinned(strategy_name):
    assert {name: _golden_key(strategy_name, name)
            for name in _keyed_records(strategy_name)} \
        == GOLDEN_KEYS[strategy_name]


def test_pinned_xz2_keys_are_code_then_signature():
    """The code half is the curve's own sequence code (what the old
    ``>Q`` body held), ``xz2t`` is a period prefix on the same body."""
    curve = strategy_from_name("xz2").curve
    for name, record in RECORDS.items():
        key = bytes.fromhex(GOLDEN_KEYS["xz2"][name])
        code, *signature = struct.unpack_from(">IBBBB", key, 1)
        envelope = record.geometry.envelope
        assert code == curve.index(envelope)
        assert tuple(signature) == curve.signature(envelope, code)
        assert GOLDEN_KEYS["xz2t"][name][10:26] == key[1:9].hex()


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
    print("GOLDEN_KEYS = {")
    for name in STRATEGIES:
        print(f"    {name!r}: {{")
        for record_name in _keyed_records(name):
            print(f"        {record_name!r}:\n"
                  f"            {_golden_key(name, record_name)!r},")
        print("    },")
    print("}")
