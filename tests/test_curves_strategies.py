"""Index strategies: keys, ranges, recall, and the paper's key layouts."""

import random
import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.curves import (
    AttributeStrategy,
    IndexedRecord,
    STQuery,
    TimePeriod,
    XZ2TStrategy,
    XZ3Strategy,
    Z2Strategy,
    Z2TStrategy,
    Z3Strategy,
    strategy_from_name,
)
from repro.curves import strategies
from repro.curves.strategies import shard_of
from repro.curves.xz import XZ2Curve
from repro.errors import IndexError_
from repro.geometry import Envelope, LineString, Point
from repro.kvstore import ScanSpec


def point_record(fid, lng, lat, t=None):
    return IndexedRecord(fid, Point(lng, lat), t, t)


def covered_by(strategy, record, query) -> bool:
    key = strategy.key(record)
    return any(start <= key < stop
               for start, stop in strategy.ranges(query))


class TestKeyLayout:
    def test_z2t_key_is_shard_period_z_fid(self):
        strategy = Z2TStrategy(period=TimePeriod.DAY, num_shards=4)
        record = point_record("42", 116.4, 39.9, t=86400.0 * 10 + 5)
        key = strategy.key(record)
        assert key[0] == shard_of("42", 4)
        period = struct.unpack(">I", key[1:5])[0] - (1 << 31)
        assert period == 10
        assert key.endswith(b"\x0042")

    def test_keys_sort_by_period_within_shard(self):
        strategy = Z2TStrategy(period=TimePeriod.DAY, num_shards=1)
        early = strategy.key(point_record("a", 0, 0, t=0.0))
        later = strategy.key(point_record("a", 0, 0, t=86400.0 * 100))
        assert early < later

    def test_key_depends_only_on_record(self):
        # The update-enabled property: a record's key never depends on
        # other records.
        strategy = Z2TStrategy()
        r = point_record("7", 116.0, 39.8, t=1000.0)
        assert strategy.key(r) == strategy.key(r)

    def test_shard_spread(self):
        strategy = Z2Strategy(num_shards=8)
        shards = {strategy.key(point_record(str(i), 0, 0))[0]
                  for i in range(200)}
        assert len(shards) == 8


class TestSupports:
    def test_z2_supports_spatial_only(self):
        q_s = STQuery(envelope=Envelope(0, 0, 1, 1))
        q_st = STQuery(Envelope(0, 0, 1, 1), 0.0, 10.0)
        assert Z2Strategy().supports(q_s)
        assert Z2Strategy().supports(q_st)  # spatial part serves it
        assert not Z2TStrategy().supports(q_s)
        assert Z2TStrategy().supports(q_st)

    def test_ranges_reject_unsupported(self):
        with pytest.raises(IndexError_):
            Z2TStrategy().ranges(STQuery(envelope=Envelope(0, 0, 1, 1)))

    def test_point_strategies_reject_lines(self):
        line = LineString([(0, 0), (1, 1)])
        record = IndexedRecord("x", line, 0.0, 10.0)
        with pytest.raises(IndexError_):
            Z2Strategy().key(record)
        with pytest.raises(IndexError_):
            Z3Strategy().key(record)

    def test_temporal_strategies_require_time(self):
        with pytest.raises(IndexError_):
            Z2TStrategy().key(point_record("x", 0, 0, t=None))


class TestRecall:
    """Every matching record's key must fall in some query range."""

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_z2t_full_recall(self, seed):
        rng = random.Random(seed)
        strategy = Z2TStrategy(period=TimePeriod.DAY)
        query = STQuery(Envelope(116.1, 39.8, 116.3, 40.0),
                        86400.0, 86400.0 * 3)
        for i in range(50):
            lng = 116.0 + rng.random() * 0.5
            lat = 39.7 + rng.random() * 0.4
            t = rng.random() * 86400.0 * 5
            record = point_record(str(i), lng, lat, t)
            matches = (query.envelope.contains_point(lng, lat)
                       and query.t_min <= t <= query.t_max)
            if matches:
                assert covered_by(strategy, record, query)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_z3_full_recall(self, seed):
        rng = random.Random(seed)
        strategy = Z3Strategy(period=TimePeriod.DAY)
        query = STQuery(Envelope(116.1, 39.8, 116.3, 40.0),
                        10_000.0, 200_000.0)
        for i in range(50):
            lng = 116.0 + rng.random() * 0.5
            lat = 39.7 + rng.random() * 0.4
            t = rng.random() * 86400.0 * 4
            record = point_record(str(i), lng, lat, t)
            if (query.envelope.contains_point(lng, lat)
                    and query.t_min <= t <= query.t_max):
                assert covered_by(strategy, record, query)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_xz2t_full_recall_for_lines(self, seed):
        rng = random.Random(seed)
        strategy = XZ2TStrategy(period=TimePeriod.DAY)
        query = STQuery(Envelope(116.1, 39.8, 116.3, 40.0),
                        86400.0, 86400.0 * 3)
        for i in range(30):
            x = 116.0 + rng.random() * 0.5
            y = 39.7 + rng.random() * 0.4
            line = LineString([(x, y), (x + 0.01, y + 0.01)])
            t0 = rng.random() * 86400.0 * 4
            record = IndexedRecord(str(i), line, t0, t0 + 600.0)
            overlaps = (line.envelope.intersects(query.envelope)
                        and t0 <= query.t_max
                        and t0 + 600.0 >= query.t_min)
            if overlaps:
                assert covered_by(strategy, record, query)

    def test_xz3_lookback_catches_spanning_objects(self):
        strategy = XZ3Strategy(period=TimePeriod.DAY)
        line = LineString([(116.1, 39.9), (116.2, 39.95)])
        # Starts late on day 0, extends into day 1.
        record = IndexedRecord("span", line, 86000.0, 90000.0)
        query = STQuery(Envelope(116.0, 39.8, 116.3, 40.0),
                        87000.0, 95000.0)  # only day 1
        assert covered_by(strategy, record, query)


class TestPerPeriodCover:
    """Z2T and XZ2T scan one spatial cover in every period bin: it is
    computed once per window, not once per bin."""

    @pytest.mark.parametrize("name, bins", [("z2t", 3), ("xz2t", 4)])
    def test_a_three_period_window_computes_one_spatial_cover(
            self, monkeypatch, name, bins):
        calls = []

        def counted(real):
            def call(*args, **kwargs):
                calls.append(args)
                return real(*args, **kwargs)
            return call

        monkeypatch.setattr(strategies, "z2_ranges",
                            counted(strategies.z2_ranges))
        monkeypatch.setattr(XZ2Curve, "ranges", counted(XZ2Curve.ranges))
        strategy = strategy_from_name(name, num_shards=1)
        day = TimePeriod.DAY.seconds
        query = STQuery(Envelope(116.3, 39.9, 116.4, 40.0),
                        0.5 * day, 2.5 * day)  # bins 0, 1 and 2
        ranges = strategy.ranges(query)
        assert len(calls) == 1
        # Every bin the window covers (xz2t: and one look-back bin)
        # holds the same body ranges under its period prefix.
        by_period: dict[bytes, list] = {}
        for start, stop in ranges:
            by_period.setdefault(start[1:5], []).append(
                (start[5:], stop[5:]))
        assert len(by_period) == bins
        assert all(bodies == next(iter(by_period.values()))
                   for bodies in by_period.values())


class TestZ2TRangeEfficiency:
    def test_z2t_scans_fewer_keys_than_z3_for_urban_query(self):
        """The motivating observation of Section IV-B: for a small
        spatial window over a long intra-day time range, Z3's ranges
        cover vastly more key space than Z2T's."""
        z2t = Z2TStrategy(period=TimePeriod.DAY, num_shards=1)
        z3 = Z3Strategy(period=TimePeriod.DAY, num_shards=1)
        # 1km x 1km window, 01:00..13:00 on one day.
        query = STQuery(Envelope(116.30, 39.90, 116.31, 39.91),
                        3600.0, 13 * 3600.0)

        def key_space(strategy):
            total = 0
            for start, stop in strategy.ranges(query):
                z_lo = int.from_bytes(start[5:13], "big")
                z_hi = int.from_bytes(stop[5:13], "big")
                total += z_hi - z_lo + 1
            return total

        assert key_space(z2t) * 100 < key_space(z3)


class TestAttributeStrategy:
    def test_equality_ranges_cover_key(self):
        strategy = AttributeStrategy("name", num_shards=4)
        key = strategy.key_for_value("42", "alice")
        ranges = strategy.ranges_for_value("alice")
        assert any(start <= key < stop for start, stop in ranges)
        other = strategy.ranges_for_value("bob")
        assert not any(start <= key < stop for start, stop in other)

    def test_numeric_order_preserved(self):
        encode = AttributeStrategy.encode_value
        values = [-1e9, -2.5, -1, 0, 0.5, 1, 3.14, 1e9]
        encoded = [encode(v) for v in values]
        assert encoded == sorted(encoded)


def assert_sorted_and_disjoint(ranges):
    """The contract the store's one-pass multi-range scan relies on:
    half-open, non-empty, each stopping at or before the next start."""
    for start, stop in ranges:
        assert start < stop
    for (_, stop), (following, _) in zip(ranges, ranges[1:]):
        assert stop <= following
    # ...which is exactly what the multi-range ScanSpec accepts, as is.
    assert ScanSpec(ranges=ranges).ranges == tuple(ranges)


windows = st.tuples(st.floats(-179.0, 178.0), st.floats(-89.0, 88.0),
                    st.floats(1e-4, 1.0), st.floats(1e-4, 1.0))
periods = st.tuples(st.floats(0.0, 86400.0 * 400),
                    st.floats(1.0, 86400.0 * 9))


class TestRangeContract:
    """``ranges()`` are sorted by start and pairwise disjoint."""

    @pytest.mark.parametrize("name", ["z2", "z3", "z2t", "xz2", "xz3",
                                      "xz2t"])
    @settings(max_examples=60, deadline=None)
    @given(window=windows, period=periods,
           shards=st.integers(1, 5),
           unit=st.sampled_from([TimePeriod.DAY, TimePeriod.WEEK]))
    def test_curve_ranges(self, name, window, period, shards, unit):
        strategy = strategy_from_name(name, period=unit,
                                      num_shards=shards)
        lng, lat, width, height = window
        t_min, duration = period
        query = STQuery(Envelope(lng, lat, lng + width, lat + height),
                        t_min, t_min + duration)
        ranges = strategy.ranges(query)
        assert ranges
        assert_sorted_and_disjoint(ranges)

    @settings(max_examples=60, deadline=None)
    @given(low=st.floats(-1e9, 1e9), text=st.text(max_size=12),
           shards=st.integers(1, 5))
    def test_attribute_ranges(self, low, text, shards):
        strategy = AttributeStrategy("v", num_shards=shards)
        assert_sorted_and_disjoint(strategy.ranges_for_value(low))
        assert_sorted_and_disjoint(strategy.ranges_for_value(text))


class TestFactory:
    def test_names(self):
        assert strategy_from_name("z2").name == "z2"
        assert strategy_from_name("xz2t").name == "xz2t"
        assert strategy_from_name("z3:year").period is TimePeriod.YEAR

    def test_unknown_name(self):
        with pytest.raises(IndexError_):
            strategy_from_name("btree")

    def test_shard_bounds(self):
        with pytest.raises(IndexError_):
            Z2Strategy(num_shards=0)
        with pytest.raises(IndexError_):
            Z2Strategy(num_shards=256)
