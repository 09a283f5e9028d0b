"""Metrics history: tiered retention, window functions, the scraper.

The hypothesis properties pin the two load-bearing guarantees: tier
selection never changes a query's answer relative to recomputing it
from the raw sample stream, and counter resets (failover, restart)
never produce negative rates.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import increase_reference, retained, window_points
from repro.observability.events import EventLog
from repro.observability.history import (
    DEFAULT_TIERS,
    MetricsHistory,
    MetricsScraper,
    Series,
    suffixed_key,
)
from repro.observability.metrics import MetricsRegistry


# -- window functions ---------------------------------------------------------

def _history(points, kind="counter"):
    history = MetricsHistory()
    for ts, value in points:
        history.record_scrape(ts, [("c", kind, value)])
    return history


class TestWindowFunctions:
    def test_increase_is_plain_delta_without_resets(self):
        history = _history([(0.0, 10.0), (1.0, 14.0), (2.0, 20.0)])
        assert history.increase("c", 2.0, 2.0) == 10.0

    def test_increase_counts_post_reset_value_as_growth(self):
        # 10 -> 14 (+4), restart, 3 (+3 from zero): total 7, never -11.
        for kind in ("counter", "gauge"):
            history = _history([(0.0, 10.0), (1.0, 14.0), (2.0, 3.0)],
                               kind)
            assert history.increase("c", 2.0, 2.0) == 7.0

    def test_suffixed_key_inserts_before_labels(self):
        assert suffixed_key("h", "count") == "h_count"
        assert suffixed_key("h{op=scan}", "count") == "h_count{op=scan}"

    def test_time_travel_is_an_error(self):
        history = _history([(5.0, 3.0)])
        with pytest.raises(ValueError):
            history.record_scrape(4.0, [("c", "counter", 4.0)])


# -- tiered series ------------------------------------------------------------

class TestSeries:
    def test_tier_strides_partition_the_stream(self):
        series = Series("s", "counter",
                        tiers=((1, 512), (8, 512), (64, 512)))
        for i in range(100):
            series.record(float(i), float(i))
        assert len(retained(series, 0)) == 100
        assert [ts for ts, _ in retained(series, 1)] == \
            [float(i) for i in range(0, 100, 8)]
        assert [ts for ts, _ in retained(series, 2)] == [0.0, 64.0]

    def test_rings_are_bounded(self):
        series = Series("s", "gauge", tiers=((1, 16), (4, 16)))
        for i in range(1000):
            series.record(float(i), 1.0)
        assert len(retained(series, 0)) == 16
        assert len(retained(series, 1)) == 16

    def test_points_prefers_finest_covering_tier(self):
        series = Series("s", "counter", tiers=((1, 8), (4, 64)))
        for i in range(64):
            series.record(float(i), float(i))
        # Recent window: tier 0 still covers it -> every point.
        recent = window_points(series, start_ms=58.0, end_ms=63.0)
        assert [ts for ts, _ in recent] == [58.0, 59.0, 60.0,
                                            61.0, 62.0, 63.0]
        # Old window: evicted from tier 0, served at stride-4.
        old = window_points(series, start_ms=8.0, end_ms=20.0)
        assert [ts for ts, _ in old] == [8.0, 12.0, 16.0, 20.0]

    def test_baseline_prepends_sample_entering_the_window(self):
        series = Series("s", "counter")
        series.record(0.0, 100.0)
        series.record(1_000.0, 160.0)
        # Window holds one sample; the baseline makes the delta exact.
        assert window_points(series, 500.0, 1_000.0) == [(1_000.0, 160.0)]
        assert window_points(series, 500.0, 1_000.0, baseline=True) == \
            [(0.0, 100.0), (1_000.0, 160.0)]

    def test_history_short_window_increase_sees_growth(self):
        history = MetricsHistory()
        history.record_scrape(0.0, [("c", "counter", 0.0)])
        history.record_scrape(5_000.0, [("c", "counter", 40.0)])
        # 100 ms window holds a single scrape, but the counter grew.
        assert history.increase("c", 100.0, 5_000.0) == 40.0


# -- hypothesis properties ----------------------------------------------------

def _monotone_counter(deltas):
    total, points = 0.0, []
    for i, delta in enumerate(deltas):
        total += delta
        points.append((float(i * 10), total))
    return points


def _select_points(raw, tiers, start_ms, end_ms, baseline):
    """Oracle: recompute tier selection from the raw sample stream."""
    rings = []
    for stride, capacity in tiers:
        ring = [p for i, p in enumerate(raw) if i % stride == 0]
        rings.append(ring[-capacity:])
    chosen = None
    for ring in rings:
        if not ring:
            continue
        if ring[0][0] <= start_ms:
            chosen = ring
            break
        if chosen is None or ring[0][0] < chosen[0][0]:
            chosen = ring
    if chosen is None:
        return []
    selected = [p for p in chosen if start_ms <= p[0] <= end_ms]
    if baseline:
        before = [p for p in chosen if p[0] < start_ms]
        if before:
            selected.insert(0, before[-1])
    return selected


@settings(max_examples=60, deadline=None)
@given(
    deltas=st.lists(st.floats(min_value=0.0, max_value=100.0,
                              allow_nan=False), min_size=2,
                    max_size=120),
    window=st.floats(min_value=10.0, max_value=2_000.0),
)
def test_downsampled_query_equals_raw_recompute(deltas, window):
    """Tiering is transparent: the tiered store answers every window
    query exactly as recomputing the same selection from the raw
    stream would — including windows old enough to fall off tier 0.
    The values are floats, so running totals may differ from the
    reference's pairwise sum in the last bits (``approx``)."""
    tiers = ((1, 16), (4, 32), (16, 64))
    raw = _monotone_counter(deltas)
    history = MetricsHistory(tiers)
    for ts, value in raw:
        history.record_scrape(ts, [("c", "counter", value)])
    now_ms = raw[-1][0]
    expected = increase_reference(_select_points(
        raw, tiers, now_ms - window, now_ms, baseline=True))
    assert history.increase("c", window, now_ms) == \
        pytest.approx(expected)


@settings(max_examples=60, deadline=None)
@given(
    segments=st.lists(
        st.lists(st.floats(min_value=0.0, max_value=50.0,
                           allow_nan=False), min_size=1, max_size=20),
        min_size=1, max_size=5),
    window=st.floats(min_value=10.0, max_value=5_000.0),
)
def test_rate_never_negative_across_counter_resets(segments, window):
    """Each segment is one process lifetime; every boundary is a
    restart that resets the counter to zero.  No window may ever
    report negative growth."""
    history = MetricsHistory()
    ts = 0.0
    for segment in segments:
        total = 0.0
        for delta in segment:
            total += delta
            ts += 25.0
            history.record_scrape(ts, [("c", "counter", total)])
    for now_ms in (ts, ts / 2, window):
        assert history.increase("c", window, now_ms) >= 0.0


# -- the scraper chore --------------------------------------------------------

def _scraper(interval_ms=250.0):
    registry = MetricsRegistry()
    events = EventLog()
    history = MetricsHistory(DEFAULT_TIERS)
    return registry, events, MetricsScraper(
        registry, events, history, interval_ms=interval_ms)


class TestMetricsScraper:
    def test_maybe_tick_is_interval_gated(self):
        registry, events, scraper = _scraper(interval_ms=100.0)
        registry.counter("c").inc()
        assert scraper.maybe_tick()
        assert not scraper.maybe_tick()  # clock has not moved
        events.advance(99.0)
        assert not scraper.maybe_tick()
        events.advance(2.0)
        assert scraper.maybe_tick()
        assert scraper.scrapes == 2

    def test_counters_and_gauges_recorded_with_kind(self):
        registry, events, scraper = _scraper()
        registry.counter("reqs").inc(3)
        registry.gauge("depth").set(7.0)
        scraper.tick()
        series = scraper.history.series
        assert series["reqs"].kind == "counter"
        assert series["depth"].kind == "gauge"
        assert retained(series["reqs"], 0)[-1][1] == 3

    def test_histogram_explodes_into_exact_series(self):
        registry, events, scraper = _scraper()
        histogram = registry.histogram("lat", buckets=(10.0, 100.0))
        for value in (5.0, 50.0, 500.0):
            histogram.observe(value)
        scraper.tick()
        series = scraper.history.series
        assert retained(series["lat_count"], 0)[-1][1] == 3
        assert retained(series["lat_sum"], 0)[-1][1] == 555.0
        assert retained(series["lat_bucket_le_10"], 0)[-1][1] == 1
        assert retained(series["lat_bucket_le_100"], 0)[-1][1] == 2
        assert "lat_p95" in series

    def test_scrape_charges_the_shared_clock(self):
        registry, events, scraper = _scraper()
        registry.counter("c").inc()
        before = events.now_ms
        scraper.tick()
        assert events.now_ms > before
        assert scraper.total_scrape_ms == pytest.approx(
            events.now_ms - before)

    def test_scraper_reports_itself(self):
        registry, events, scraper = _scraper()
        registry.counter("c").inc()
        scraper.tick()
        assert registry.counter("monitor.scrapes").value == 1
        assert registry.gauge("monitor.series").value >= 1


# -- sys.metrics_history rows -------------------------------------------------

class TestHistoryRows:
    def test_rows_carry_adjacent_rate(self):
        history = MetricsHistory()
        history.record_scrape(0.0, [("c", "counter", 0.0)])
        history.record_scrape(2_000.0, [("c", "counter", 10.0)])
        rows = [r for r in history.rows("c") if r["tier"] == 0]
        assert rows[0]["rate_per_s"] is None
        assert rows[1]["rate_per_s"] == pytest.approx(5.0)

    def test_gauge_rows_have_no_rate(self):
        history = MetricsHistory()
        history.record_scrape(0.0, [("g", "gauge", 1.0)])
        history.record_scrape(1_000.0, [("g", "gauge", 2.0)])
        assert all(r["rate_per_s"] is None for r in history.rows("g"))

    def test_rows_filter_by_name_and_start(self):
        history = MetricsHistory()
        for ts in (0.0, 1_000.0, 2_000.0):
            history.record_scrape(ts, [("a", "gauge", ts)])
            history.record_scrape(ts, [("b", "gauge", ts)])
        rows = history.rows("a", start_ms=1_000.0)
        assert {r["name"] for r in rows} == {"a"}
        assert all(r["ts_ms"] >= 1_000.0 for r in rows)

    def test_rows_floor_between_points_keeps_the_predecessor_rate(self):
        history = MetricsHistory()
        for ts, value in ((0.0, 0), (1_000.0, 10), (2_000.0, 30)):
            history.record_scrape(ts, [("c", "counter", value)])
        rows = [r for r in history.rows("c", start_ms=1_500.0)
                if r["tier"] == 0]
        assert [(r["ts_ms"], r["rate_per_s"]) for r in rows] == \
            [(2_000.0, 20.0)]
        assert history.rows("c", start_ms=1_500.0) == [
            r for r in history.rows("c") if r["ts_ms"] >= 1_500.0]
