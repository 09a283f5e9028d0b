"""The monitor's bisecting series and folding histogram, against the walks.

``tests/oracles.py`` keeps the series and histogram code the monitor
ran before its tick stopped growing with uptime: tiers walked point by
point, ``increase`` summed pair by pair, quantiles over a full re-sort.
These properties drive both with the same stream and compare every
answer.  Integer-valued series (every series an SLO reads: statement
and shed counters, histogram ``_count`` and ``_bucket_le_*``) must match
exactly.  A float-valued counter (a histogram ``_sum``, ``*_ms`` totals)
may differ in the last bits, because a running-total difference adds
the same growths in a different order than the pairwise walk.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    HistogramReference,
    SeriesReference,
    increase_reference,
    window_points,
)
from repro.observability.events import EventLog
from repro.observability.history import MetricsHistory, MetricsScraper
from repro.observability.metrics import Counter, Histogram, MetricsRegistry

#: Small tiers, so a few hundred points roll every ring past capacity.
TIERS = ((1, 8), (3, 8), (9, 16))

#: One scrape: how far the clock moved (0 = two scrapes at the same
#: ``now_ms``) and what the counter did (grew, or reset to a small
#: value as after a failover).
_steps = st.lists(
    st.tuples(st.sampled_from([0.0, 0.0, 1.0, 2.5, 10.0, 40.0]),
              st.one_of(st.tuples(st.just("grow"),
                                  st.integers(0, 50)),
                        st.tuples(st.just("reset"),
                                  st.integers(0, 5)))),
    min_size=1, max_size=200)


def _stream(steps, scale=1):
    """``(ts, value)`` points of a reset-prone counter."""
    ts, value, points = 0.0, 0, []
    for dt, (action, amount) in steps:
        ts += dt
        value = value + amount if action == "grow" else amount
        points.append((ts, value * scale))
    return points


def _record(points, kind="counter"):
    history = MetricsHistory(TIERS)
    reference = SeriesReference(TIERS)
    for ts, value in points:
        history.record_scrape(ts, [("c", kind, value)])
        reference.record(ts, value)
    return history, reference


def _windows(points, picks):
    """Window edges on scrape timestamps, between them, and before
    every retained point."""
    stamps = sorted({ts for ts, _ in points})
    edges = stamps + [ts + 0.5 for ts in stamps] + [-100.0, -1.0]
    for start_pick, length in picks:
        start = edges[start_pick % len(edges)]
        yield start, start + length


_picks = st.lists(st.tuples(st.integers(0, 10_000),
                            st.sampled_from([0.0, 0.5, 1.0, 10.0,
                                             60.0, 500.0, 5_000.0])),
                  min_size=1, max_size=12)


@settings(max_examples=150, deadline=None)
@given(steps=_steps, picks=_picks, kind=st.sampled_from(["counter",
                                                         "gauge"]))
def test_integer_series_windows_match_the_walk_exactly(steps, picks,
                                                       kind):
    points = _stream(steps)
    history, reference = _record(points, kind)
    series = history.series.get("c")
    for start, end in _windows(points, picks):
        for baseline in (False, True):
            assert window_points(series, start, end, baseline) == \
                reference.points(start, end, baseline)
        window = reference.points(start, end, baseline=True)
        assert series.increase(start, end) == increase_reference(window)
        assert history.increase("c", end - start, end) == \
            increase_reference(window)


@settings(max_examples=100, deadline=None)
@given(steps=_steps, picks=_picks)
def test_float_counter_windows_match_up_to_summation_order(steps,
                                                           picks):
    """Same stream scaled by 0.1: the windows are the same points,
    the totals agree to rounding (running totals sum in a different
    order than the reference walk)."""
    points = _stream(steps, scale=0.1)
    history, reference = _record(points)
    series = history.series.get("c")
    for start, end in _windows(points, picks):
        assert window_points(series, start, end, True) == \
            reference.points(start, end, True)
        window = reference.points(start, end, baseline=True)
        assert series.increase(start, end) == pytest.approx(
            increase_reference(window), rel=1e-9, abs=1e-9)


@settings(max_examples=100, deadline=None)
@given(steps=_steps, floor=st.integers(0, 10_000),
       kind=st.sampled_from(["counter", "gauge"]),
       scale=st.sampled_from([1, 0.1]))
def test_history_rows_match_the_walk(steps, floor, kind, scale):
    """``sys.metrics_history`` rows, with a ``start_ms`` floor on a
    timestamp, between two, or before them all: the same points and
    bit-identical rates (rows take each rate from its adjacent pair)."""
    points = _stream(steps, scale)
    history, reference = _record(points, kind)
    stamps = sorted({ts for ts, _ in points})
    edges = [None, -1.0] + stamps + [ts + 0.5 for ts in stamps]
    start_ms = edges[floor % len(edges)]
    rows = history.rows("c", start_ms=start_ms)
    expected = reference.rows(kind, start_ms)
    assert [(r["tier"], r["ts_ms"], r["value"], r["rate_per_s"])
            for r in rows] == \
        [(tier, round(ts, 3), value,
          None if rate is None else round(rate, 6))
         for tier, ts, value, rate in expected]


_histogram_ops = st.lists(
    st.one_of(st.tuples(st.just("observe"),
                        st.integers(0, 1_000).map(float)),
              st.tuples(st.just("observe"),
                        st.floats(0.0, 1e6, allow_nan=False)),
              st.tuples(st.just("quantile"),
                        st.sampled_from([0.0, 0.5, 0.95, 0.99, 1.0]))),
    min_size=1, max_size=120)


@settings(max_examples=150, deadline=None)
@given(warmup=st.lists(st.floats(0.0, 1e6, allow_nan=False),
                       min_size=64, max_size=150),
       ops=_histogram_ops,
       reads_every=st.sampled_from([1, 3, 40, 1_000]))
def test_histogram_quantiles_match_a_full_sort(warmup, ops,
                                               reads_every):
    """Through three or more decimations (8 samples: 64 observations
    take the stride to 8), with reads between observations short and
    long apart, so both the ``insort`` and the re-sort fold run, and
    provisional samples are dropped before and after being folded."""
    histogram = Histogram("h", max_samples=8)
    reference = HistogramReference(max_samples=8)
    for i, value in enumerate(warmup):
        histogram.observe(value)
        reference.observe(value)
        if i % reads_every == 0:
            assert histogram.quantile(0.5) == reference.quantile(0.5)
    assert reference.stride >= 8
    for op, arg in ops:
        if op == "observe":
            histogram.observe(arg)
            reference.observe(arg)
        else:
            assert histogram.quantile(arg) == reference.quantile(arg)
    for q in (0.0, 0.25, 0.5, 0.95, 1.0):
        assert histogram.quantile(q) == reference.quantile(q)


@settings(max_examples=40, deadline=None)
@given(values=st.lists(st.floats(0.0, 1e6, allow_nan=False),
                       min_size=1, max_size=400),
       reads_every=st.integers(1, 60))
def test_undecimated_histogram_folds_long_and_short_tails(values,
                                                          reads_every):
    """The default buffer never decimates here; tails longer than the
    ``insort`` limit take the re-sort path."""
    histogram = Histogram("h")
    reference = HistogramReference()
    for i, value in enumerate(values):
        histogram.observe(value)
        reference.observe(value)
        if i % reads_every == 0:
            assert histogram.quantile(0.95) == reference.quantile(0.95)
    assert histogram.quantile(0.5) == reference.quantile(0.5)


# -- one whole scrape against one point at a time ------------------------------

def _exploded_reference(key, histogram):
    """A histogram's ``(name, kind, value)`` series, spelled out."""
    base, brace, labels = key.partition("{")

    def name(suffix):
        return f"{base}_{suffix}{brace}{labels}"

    points = [(name("count"), "counter", histogram.count),
              (name("sum"), "counter", histogram.sum)]
    points += [(name(f"p{round(q * 100)}"), "gauge", histogram.quantile(q))
               for q in (0.5, 0.95, 0.99)]
    points += [(name(f"bucket_le_{bound:g}"), "counter", count)
               for bound, count in histogram.bucket_counts()]
    return points


_scrape_steps = st.lists(
    st.tuples(
        st.sampled_from([0.0, 1.0, 2.5, 40.0]),        # clock advance
        st.integers(0, 3),                              # counter growth
        st.floats(-5.0, 5.0, allow_nan=False),         # gauge value
        st.lists(st.tuples(st.sampled_from(["scan", "get"]),
                           st.floats(0.0, 300.0, allow_nan=False)),
                 max_size=3),                           # observations
        st.sampled_from(["grow", "grow", "grow", "reset"]),
        st.booleans()),                                 # arm the late one
    min_size=30, max_size=60)

#: Every ring rolls within 30 scrapes; capacity 8 lets evicted points
#: gather before they are deleted.
SCRAPE_TIERS = ((1, 8), (2, 8), (3, 8))


@settings(max_examples=40, deadline=None)
@given(steps=_scrape_steps)
def test_a_scrape_records_what_one_point_at_a_time_records(steps):
    """Counters, gauges, a labelled bucketed histogram, an exposed
    counter that resets (a failover re-registration) and a series
    listed only once its ``since`` holds, through tiers small enough to
    roll every ring: after every scrape ``rows()`` equals a
    ``SeriesReference`` per series fed the same points one by one."""
    registry = MetricsRegistry()
    events = EventLog()
    history = MetricsHistory(SCRAPE_TIERS)
    scraper = MetricsScraper(registry, events, history)
    counter = registry.counter("ops", kind="read")
    gauge = registry.gauge("inflight")
    state = {"restarts": 0, "armed": False}
    registry.expose("restarted", lambda: state["restarts"])
    registry.expose("late", lambda: 7 + state["restarts"], kind="gauge",
                    since=lambda: state["armed"])
    references: dict[str, tuple[str, SeriesReference]] = {}
    for dt, grow, level, observations, action, arm in steps:
        events.advance(dt)
        counter.inc(grow)
        gauge.set(level)
        for op, value in observations:
            registry.histogram("lat", buckets=(1.0, 10.0, 100.0),
                               op=op).observe(value)
        state["restarts"] = (state["restarts"] + grow
                             if action == "grow" else grow % 2)
        state["armed"] = state["armed"] or arm
        now = events.now_ms
        expected = []
        for key, metric in registry.items():
            if isinstance(metric, Histogram):
                expected += _exploded_reference(key, metric)
            else:
                kind = "counter" if isinstance(metric, Counter) \
                    else "gauge"
                expected.append((key, kind, metric.value))
        scraper.tick()
        for name, kind, value in expected:
            references.setdefault(
                name, (kind, SeriesReference(SCRAPE_TIERS)))[1].record(
                    now, value)
        assert scraper.series == len(expected)
        assert history.rows() == [
            {"name": name, "kind": kind, "tier": tier,
             "ts_ms": round(ts, 3), "value": value,
             "rate_per_s": None if rate is None else round(rate, 6)}
            for name, (kind, reference) in sorted(references.items())
            for tier, ts, value, rate in reference.rows(kind)]
    assert state["armed"] == ("late" in history.series)
    assert all(len(ring) == 8
               for ring in history.series.get("ops{kind=read}").rings)
