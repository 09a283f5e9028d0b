"""The envelope rides in the key: XZ2/XZ2T bodies are ``code:u32`` then
the record's MBR signature, and a scan rejects on it inside the region.

What is pinned here: the signature is the oracle's (exact rationals) and
never smaller than the MBR; the code half of every range bound is the
reference walk's; the store counts what it rejects and hands over only
the rest; and — through ``JustEngine`` on plain, pre-split, salted and
replicated tables — the rows that reach ``decode_row`` always include
every row whose MBR meets the window, and the answer is what the exact
test gives on every stored row.  Upserts and deletes leave no key of the old MBR behind.
"""

import struct
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import all_rows, on_the_stored_grid
from oracles import (
    xz2_element_reference,
    xz2_signature_reference,
    xz_ranges_reference,
)
from repro import JustEngine
from repro.core.plugins import TrajectoryPlugin
from repro.curves import (
    IndexedRecord,
    STQuery,
    TimePeriod,
    XZ2Strategy,
    XZ2TStrategy,
    strategy_from_name,
)
from repro.curves.timeperiod import period_bins_covering
from repro.curves.xz import XZ2Curve
from repro.errors import IndexError_
from repro.geometry import Envelope, Polygon
from repro.kvstore import KVStore, ScanSpec, SyncPolicy
from repro.resilience import RequestContext
from repro.trajectory.model import STSeries, Trajectory

DAY = 86400.0
T0 = 17800 * DAY            # a period boundary
BODY = struct.Struct(">IBBBB")


# -- generators ---------------------------------------------------------------

def _coordinates(half_span: float):
    """One axis: city-scale values, values on the XZ grid lines of some
    level (cell and element boundaries), the edges of the world."""
    def on_grid(level_and_index):
        level, index = level_and_index
        cells = 1 << level
        return -half_span + 2 * half_span * min(index, cells) / cells
    grid = st.tuples(st.integers(0, 12), st.integers(0, 1 << 12)) \
        .map(on_grid)
    city = st.floats(0.0, 0.6).map(
        lambda d: (116.0 if half_span == 180.0 else 39.6) + d)
    edges = st.sampled_from([-half_span, 0.0, half_span])
    anywhere = st.floats(-half_span, half_span)
    return st.one_of(city, city, grid, edges, anywhere)


lngs = _coordinates(180.0)
lats = _coordinates(90.0)
corners = st.tuples(lngs, lats)


@st.composite
def envelopes(draw):
    """MBRs: points, zero-width and zero-height slabs, city-sized boxes
    and boxes spanning hemispheres (an element at level 0)."""
    x, y = draw(corners)
    kind = draw(st.sampled_from(["point", "slab", "small", "any"]))
    if kind == "point":
        return Envelope(x, y, x, y)
    if kind == "small":
        w, h = draw(st.floats(0.0, 0.08)), draw(st.floats(0.0, 0.08))
        return Envelope(x, y, min(180.0, x + w), min(90.0, y + h))
    x2, y2 = draw(corners)
    if kind == "slab":
        if draw(st.booleans()):
            x2 = x
        else:
            y2 = y
    return Envelope(min(x, x2), min(y, y2), max(x, x2), max(y, y2))


@st.composite
def paths(draw):
    """``(lng, lat)`` lists: a point, a zero-width segment, a short walk
    through a city, a line between far corners."""
    x, y = draw(corners)
    kind = draw(st.sampled_from(["point", "zero_width", "walk", "far"]))
    if kind == "point":
        return [(x, y)]
    if kind == "zero_width":
        return [(x, y), (x, draw(lats))]
    if kind == "far":
        return [(x, y)] + draw(st.lists(corners, min_size=1, max_size=3))
    steps = draw(st.lists(st.tuples(st.floats(-0.03, 0.03),
                                    st.floats(-0.03, 0.03)),
                          min_size=1, max_size=5))
    path = [(x, y)]
    for dx, dy in steps:
        x = min(180.0, max(-180.0, x + dx))
        y = min(90.0, max(-90.0, y + dy))
        path.append((x, y))
    return path


spans = st.tuples(st.floats(-DAY, 4 * DAY),
                  st.floats(0.0, 30 * 3600.0)).map(
    lambda s: (T0 + s[0], T0 + s[0] + s[1]))


def _meets(a: tuple, b: tuple) -> bool:
    """Closed rectangles ``(min_x, min_y, max_x, max_y)`` share a point."""
    return not (a[0] > b[2] or a[2] < b[0] or a[1] > b[3] or a[3] < b[1])


# -- the signature ---------------------------------------------------------------

class TestSignature:
    @given(envelope=envelopes(), g=st.integers(1, 15))
    @settings(max_examples=300, deadline=None)
    def test_element_and_signature_are_the_oracles(self, envelope, g):
        curve = XZ2Curve(g)
        code = curve.index(envelope)
        level, ix, iy = curve.element(code)
        assert (level, Fraction(ix, 1 << level), Fraction(iy, 1 << level)) \
            == xz2_element_reference(g, code)
        mins, maxs = curve._normalize(envelope)
        assert curve.signature(envelope, code) == \
            xz2_signature_reference(g, code, mins, maxs)

    @given(envelope=envelopes(), window=envelopes(), g=st.integers(1, 15))
    @settings(max_examples=500, deadline=None)
    def test_test_is_the_quantized_box_against_the_window(
            self, envelope, window, g):
        """Exactly "the box the bytes spell out meets the window" —
        hence never False for an MBR that does."""
        curve = XZ2Curve(g)
        code = curve.index(envelope)
        signature = curve.signature(envelope, code)
        verdict = curve.signature_test(window)(code, *signature)
        if envelope.intersects(window):
            assert verdict

        level, x, y = xz2_element_reference(g, code)
        unit = Fraction(2, 2 ** level) / 256
        (wx_lo, wy_lo), (wx_hi, wy_hi) = (
            [Fraction(v) for v in corner]
            for corner in curve._normalize(window))
        min_x, min_y, max_x, max_y = signature
        # A saturated byte is no bound at all.
        expected = (
            (min_x == 0 or x + min_x * unit <= wx_hi)
            and (min_y == 0 or y + min_y * unit <= wy_hi)
            and (max_x == 255 or x + (max_x + 1) * unit >= wx_lo)
            and (max_y == 255 or y + (max_y + 1) * unit >= wy_lo))
        assert verdict == expected

    def test_an_mbr_well_inside_its_element_is_told_from_its_neighbours(
            self):
        curve = XZ2Curve(12)
        trip = Envelope(116.30, 39.85, 116.31, 39.86)
        code = curve.index(trip)
        signature = curve.signature(trip, code)
        # ~1 km boxes: one on the trip, one a few km east of it but
        # inside the same enlarged element.
        on_it = Envelope(116.305, 39.855, 116.315, 39.865)
        beside = Envelope(116.34, 39.855, 116.35, 39.865)
        # The code ranges of both windows reach the trip: an index
        # false positive for the second, which only the signature sees.
        for window in (on_it, beside):
            assert any(lo <= code <= hi for lo, hi in curve.ranges(window))
        assert curve.signature_test(on_it)(code, *signature)
        assert not curve.signature_test(beside)(code, *signature)

    def test_windows_beyond_the_world_and_unbounded(self):
        curve = XZ2Curve(12)
        trip = Envelope(116.30, 39.85, 116.31, 39.86)
        code = curve.index(trip)
        signature = curve.signature(trip, code)
        for window, expected in [
                (Envelope(-500.0, -300.0, 500.0, 300.0), True),
                (Envelope(100.0, 0.0, float("inf"), 45.0), True),
                (Envelope(float("-inf"), -1e308, 0.0, 1e308), False),
                (Envelope(200.0, 0.0, 300.0, 10.0), False)]:
            assert curve.signature_test(window)(code, *signature) \
                is expected

    @pytest.mark.parametrize("cls", [XZ2Strategy, XZ2TStrategy])
    def test_the_code_must_fit_32_bits(self, cls):
        assert cls(g=15).curve.max_code() < 1 << 32
        with pytest.raises(IndexError_, match="g must be <= 15"):
            cls(g=16)


# -- the key layout -----------------------------------------------------------

class TestKeyLayout:
    @given(envelope=envelopes(), g=st.integers(1, 12),
           max_ranges=st.sampled_from([1, 4, 9, 32, 2000]),
           span=spans)
    @settings(max_examples=200, deadline=None)
    def test_range_bounds_are_the_reference_codes(self, envelope, g,
                                                  max_ranges, span):
        """Upper four body bytes: the reference walk's codes, untouched.
        Lower four: every signature of the first / last code."""
        q_lo, q_hi = XZ2Curve._normalize(envelope)

        def codes(strategy, ranges, offset):
            assert all(start[offset + 4:] == b"\x00" * 4
                       and stop[offset + 4:] == b"\xff" * 5 + b"\x00"
                       for start, stop in ranges)
            return [(int.from_bytes(start[offset:offset + 4], "big"),
                     int.from_bytes(stop[offset:offset + 4], "big"))
                    for start, stop in ranges]

        xz2 = XZ2Strategy(g=g, num_shards=1, max_ranges=max_ranges)
        assert codes(xz2, xz2.ranges(STQuery(envelope)), 1) == \
            xz_ranges_reference(g, q_lo, q_hi, max_ranges)

        xz2t = XZ2TStrategy(g=g, num_shards=1, max_ranges=max_ranges)
        ranges = xz2t.ranges(STQuery(envelope, *span))
        bins = period_bins_covering(*span, TimePeriod.DAY)
        bins = range(bins.start - 1, bins.stop)
        per_bin = xz_ranges_reference(
            g, q_lo, q_hi, max(8, max_ranges // len(bins)))
        assert codes(xz2t, ranges, 5) == per_bin * len(bins)
        assert [start[1:5] for start, _ in ranges[::len(per_bin)]] == \
            [struct.pack(">I", b + (1 << 31)) for b in bins]

    def test_keys_keep_their_length(self):
        record = strategy_record("t1", Envelope(116.3, 39.85, 116.33, 39.9))
        assert len(XZ2Strategy().key(record)) == 1 + 8 + 1 + 2
        assert len(XZ2TStrategy().key(record)) == 1 + 4 + 8 + 1 + 2

    @pytest.mark.parametrize("name", ["z2", "z2t", "z3", "xz3"])
    def test_other_strategies_have_no_key_filter(self, name):
        query = STQuery(Envelope(116.3, 39.85, 116.33, 39.9), T0, T0 + 60)
        assert strategy_from_name(name).key_filter(query) is None

    def test_no_spatial_window_no_filter(self):
        assert XZ2TStrategy().key_filter(STQuery(None, T0, T0 + 60)) is None

    @given(envelope=envelopes(), window=envelopes())
    @settings(max_examples=200, deadline=None)
    def test_filter_reads_the_body_behind_shard_and_period(self, envelope,
                                                           window):
        record = strategy_record("some-fid", envelope)
        for strategy in (XZ2Strategy(), XZ2TStrategy()):
            key = strategy.key(record)
            offset = len(key) - len(b"\x00some-fid") - 8
            code, *signature = BODY.unpack_from(key, offset)
            assert code == strategy.curve.index(envelope)
            assert strategy.key_filter(STQuery(window, T0, T0 + 60))(key) \
                == strategy.curve.signature_test(window)(code, *signature)


def strategy_record(fid, envelope):
    ring = [(envelope.min_lng, envelope.min_lat),
            (envelope.max_lng, envelope.min_lat),
            (envelope.max_lng, envelope.max_lat),
            (envelope.min_lng, envelope.max_lat)]
    return IndexedRecord(fid, Polygon(ring), T0 + 10.0, T0 + 20.0)


# -- the region visit -----------------------------------------------------------

def _even(key: bytes) -> bool:
    return key[-1] % 2 == 0


class TestScanRejectsInsideTheRegion:
    def _table(self, **kwargs):
        store = KVStore(num_servers=3, flush_bytes=256, block_bytes=64)
        table = store.create_table("t", **kwargs)
        for i in range(40):
            table.put(b"k" + bytes([i]), b"v" * 10)
        return store, table

    @pytest.mark.parametrize("kwargs", [{}, {"presplit": 4},
                                        {"salt_buckets": 3}])
    def test_rejected_keys_are_counted_not_returned(self, kwargs):
        store, table = self._table(**kwargs)
        before = store.stats.snapshot()
        pairs = list(table.scan(ScanSpec(key_filter=_even)))
        delta = store.stats.snapshot().delta(before)
        # The filter saw logical keys (no salt byte), in key order.
        assert [key for key, _ in pairs] == \
            [b"k" + bytes([i]) for i in range(0, 40, 2)]
        assert delta.scan_keys_rejected == 20
        stored_key = 2 + ("salt_buckets" in kwargs)
        assert delta.result_bytes == 20 * (stored_key + 10)
        assert delta.scans_started == 1

    def test_batches_count_accepted_rows(self):
        store, table = self._table()
        before = store.stats.snapshot()
        batches = list(table.scan_batches(ScanSpec(key_filter=_even)))
        delta = store.stats.snapshot().delta(before)
        # One list of the 20 accepted keys; the 20 others stay behind.
        assert [len(keys) for keys, _ in batches] == [20]
        assert delta.scan_keys_rejected == 20
        assert delta.result_bytes == 20 * (2 + 10)

    def test_no_filter_rejects_nothing(self):
        store, table = self._table()
        assert len(list(table.scan(ScanSpec.full()))) == 40
        assert store.stats.scan_keys_rejected == 0


# -- through the engine -----------------------------------------------------------

VARIANTS = {
    "plain": ({}, {}, None),
    "presplit": ({}, {"just.presplit": 4}, None),
    "salted": ({}, {"just.presplit": 3, "just.salt_buckets": 3}, None),
    "follower": ({"num_servers": 5, "replication_factor": 3,
                  "wal_policy": SyncPolicy.SYNC}, {}, "follower"),
}


def _build(variant, shapes):
    """An engine holding ``shapes`` twice: as trajectories (the path)
    and as geofences (the path's MBR as a polygon)."""
    engine_kwargs, userdata, read_mode = VARIANTS[variant]
    engine = JustEngine(flush_bytes=2048, **engine_kwargs)
    trips = engine.create_plugin_table("trips", "trajectory", userdata)
    zones = engine.create_plugin_table("zones", "geofence", userdata)
    stored = {}
    for i, (path, (start, end)) in enumerate(shapes):
        step = (end - start) / max(1, len(path) - 1)
        samples = [(x, y, start + j * step)
                   for j, (x, y) in enumerate(path)]
        trip = Trajectory(f"t{i}", "o", STSeries(samples))
        trips.insert_rows([TrajectoryPlugin.row_of(trip)])
        xy = [(x, y) for x, y, _t in on_the_stored_grid(samples)]
        xs, ys = zip(*xy)
        mbr = (min(xs), min(ys), max(xs), max(ys))
        stored[f"t{i}"] = (mbr, trip.start_time, trip.end_time)
        if mbr[:2] == mbr[2:]:
            continue    # a one-point ring does not survive the codec
        zones.insert_rows([{
            "gid": f"z{i}", "name": "n", "category": "c",
            "valid_from": start, "valid_to": end,
            "area": Polygon([(mbr[0], mbr[1]), (mbr[2], mbr[1]),
                             (mbr[2], mbr[3]), (mbr[0], mbr[3])])}])
        stored[f"z{i}"] = (mbr, start, end)
        if i % 2:
            trips.flush()
    if engine.store.replication is not None:
        engine.store.replication.tick()   # followers caught up
    return engine, stored, read_mode


def _decoded_by(table, run):
    """Primary keys of the rows ``run()`` has ``table`` decode."""
    decode, seen = table.codec.decode_row, []
    key = table.schema.primary_key.name

    def spy(data, wanted=None):
        seen.append(decode(data)[key])
        return decode(data, wanted)
    table.codec.decode_row = spy
    try:
        return run(), set(seen)
    finally:
        del table.codec.decode_row


class TestTheFilterNeverLosesARow:
    @pytest.mark.parametrize("variant", list(VARIANTS))
    @given(shapes=st.lists(st.tuples(paths(), spans), min_size=1,
                           max_size=6),
           windows=st.lists(st.tuples(envelopes(), spans), min_size=1,
                            max_size=4))
    @settings(max_examples=150, deadline=None)
    def test_decoded_rows_cover_the_mbr_hits_and_answers_are_exact(
            self, variant, shapes, windows):
        engine, stored, read_mode = _build(variant, shapes)
        for window, (t_lo, t_hi) in windows:
            box = window.as_tuple()
            for table_name, pk in (("trips", "tid"), ("zones", "gid")):
                table = engine.table(table_name)
                mine = {k: v for k, v in stored.items()
                        if k[0] == table_name[0]}
                for temporal in (False, True):
                    def in_time(start, end):
                        return not temporal or \
                            not (end < t_lo or start > t_hi)

                    def run():
                        ctx = RequestContext(read_mode=read_mode)
                        if temporal:
                            return engine.st_range_query(
                                table_name, window, t_lo, t_hi, ctx=ctx)
                        return engine.spatial_range_query(
                            table_name, window, ctx=ctx)
                    result, decoded = _decoded_by(table, run)
                    mbr_hits = {k for k, (mbr, start, end)
                                in mine.items()
                                if _meets(mbr, box) and in_time(start, end)}
                    assert decoded >= mbr_hits
                    # Brute force: the exact test on every stored row,
                    # no index and no key filter in front of it.
                    query = STQuery(window, t_lo, t_hi) if temporal \
                        else STQuery(window)
                    exact = {row[pk] for row in all_rows(table)
                             if table._matches(row, query, "intersects")}
                    assert exact <= mbr_hits
                    assert {row[pk] for row in result.rows} == exact

    def test_both_strategies_by_name_agree_with_the_planner(self):
        engine, stored, _ = _build("salted", [
            ([(116.30, 39.85), (116.31, 39.86)], (T0, T0 + 600.0)),
            ([(116.34, 39.85), (116.35, 39.86)], (T0, T0 + 600.0))])
        table = engine.table("trips")
        query = STQuery(Envelope(116.305, 39.855, 116.315, 39.865),
                        T0, T0 + 60.0)
        before = engine.store.stats.scan_keys_rejected
        for name in ("xz2", "xz2t"):
            rows = table.query(query if name == "xz2t"
                               else STQuery(query.envelope),
                               strategy_name=name)
            assert [row["tid"] for row in rows] == ["t0"]
        # t1 shares t0's element and is turned away on its key, twice.
        assert engine.store.stats.scan_keys_rejected - before == 2


# -- upsert and delete ----------------------------------------------------------

def _index_keys(engine, table_name):
    """Logical keys of both index tables, salt byte stripped."""
    table = engine.table(table_name)
    return {name: sorted(key for key, _ in kv.scan(ScanSpec.full()))
            for name, kv in table._index_tables.items()}


class TestUpsertAndDeleteLeaveNoStaleKey:
    @pytest.mark.parametrize("userdata", [
        {}, {"just.presplit": 3, "just.salt_buckets": 3}])
    def test_a_new_mbr_replaces_the_old_key(self, userdata):
        engine = JustEngine()
        trips = engine.create_plugin_table("trips", "trajectory", userdata)

        def put(path):
            trip = Trajectory("t1", "o", STSeries(
                [(x, y, T0 + 60.0 * i) for i, (x, y) in enumerate(path)]))
            trips.insert_rows([TrajectoryPlugin.row_of(trip)])

        put([(116.30, 39.85), (116.31, 39.86)])
        first = _index_keys(engine, "trips")
        assert all(len(keys) == 1 for keys in first.values())

        # Same element (same code), another signature.
        put([(116.30, 39.85), (116.312, 39.861)])
        second = _index_keys(engine, "trips")
        for name in ("xz2", "xz2t"):
            (old,), (new,) = first[name], second[name]
            offset = len(old) - len(b"\x00t1") - 8
            assert old[:offset + 4] == new[:offset + 4]   # shard, code
            assert old[offset + 4:] != new[offset + 4:]   # signature

        # The row is found where it is and not where it was.
        hit = engine.spatial_range_query(
            "trips", Envelope(116.3115, 39.8605, 116.3125, 39.8615))
        assert [row["tid"] for row in hit.rows] == ["t1"]

        assert trips.delete("t1")
        assert all(keys == [] for keys in
                   _index_keys(engine, "trips").values())

    @given(first=paths(), second=paths())
    @settings(max_examples=100, deadline=None)
    def test_any_two_versions_off_the_stored_grid(self, first, second):
        """Keys come from the series as stored (1e-6 degree ticks), so
        the key an upsert deletes — rebuilt from the decoded row — is
        the key the insert wrote, wherever rounding moves the MBR."""
        engine = JustEngine()
        trips = engine.create_plugin_table("trips", "trajectory")
        for path in (first, second):
            trip = Trajectory("t1", "o", STSeries(
                [(x, y, T0 + i) for i, (x, y) in enumerate(path)]))
            trips.insert_rows([TrajectoryPlugin.row_of(trip)])
            assert all(len(keys) == 1 for keys in
                       _index_keys(engine, "trips").values())
        trips.delete("t1")
        assert all(keys == [] for keys in
                   _index_keys(engine, "trips").values())

    def test_rounding_that_moves_the_signature(self):
        """116.3000004 is stored as 116.300000: the key must say so."""
        stored_key = XZ2Strategy().key(strategy_record(
            "t1", Envelope(116.3, 39.85, 116.31, 39.86)))
        engine = JustEngine()
        trips = engine.create_plugin_table("trips", "trajectory")
        trip = Trajectory("t1", "o", STSeries([
            (116.3000004, 39.8500004, T0), (116.3099996, 39.8599996,
                                            T0 + 60.0)]))
        trips.insert_rows([TrajectoryPlugin.row_of(trip)])
        (key,) = _index_keys(engine, "trips")["xz2"]
        assert key[1:9] == stored_key[1:9]


# -- seeing it from inside ----------------------------------------------------------

class TestObservability:
    def _engine(self):
        engine, _stored, _ = _build("plain", [
            ([(116.30, 39.85), (116.31, 39.86)], (T0, T0 + 600.0)),
            ([(116.34, 39.85), (116.35, 39.86)], (T0, T0 + 600.0))])
        return engine

    SQL = ("SELECT tid FROM trips WHERE st_intersects(gps_list, "
           "st_makeMBR(116.305, 39.855, 116.315, 39.865))")

    def test_metric_is_listed_once_something_was_rejected(self):
        engine = self._engine()
        assert "kvstore.scan_keys_rejected" not in dict(
            engine.metrics.items())
        assert [r["tid"] for r in engine.sql(self.SQL).rows] == ["t0"]
        listed = dict(engine.metrics.items())
        assert listed["kvstore.scan_keys_rejected"].value == 1 \
            == engine.store.stats.scan_keys_rejected

    def test_explain_analyze_shows_rejected_beside_rows(self):
        engine = self._engine()
        rows = engine.sql("EXPLAIN ANALYZE " + self.SQL).rows
        scans = [r for r in rows if "RegionScan[" in r["operator"]]
        assert sum(r["rows"] for r in scans) == 1
        assert [r["operator"].rpartition(" ")[2] for r in scans
                if "rejected=" in r["operator"]] == ["rejected=1"]
        # A scan that rejected nothing says nothing.
        other = engine.sql("EXPLAIN ANALYZE SELECT tid FROM trips "
                           "WHERE tid = 't0'").rows
        assert not any("rejected=" in r["operator"] for r in other)
