"""Property tests: stream/batch parity and at-least-once delivery.

The two acceptance properties of the streaming layer:

1. For *any* out-of-order event stream whose disorder is bounded by the
   watermark delay, the finalized watermarked window aggregates exactly
   equal a cold batch recomputation over the same events — no late
   drops, no double counting, identical float accumulation order.

2. A quorum failure injected mid-drain loses zero acked events: the
   offset only commits after a successful insert, and idempotent
   upserts absorb redelivery of torn batches.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from repro import Schema  # noqa: E402
from repro.core.engine import JustEngine  # noqa: E402
from repro.core.tables import CommonTable  # noqa: E402
from repro.errors import ReplicationQuorumError  # noqa: E402
from repro.streaming import (  # noqa: E402
    Avg,
    Count,
    TumblingWindows,
    WindowedAggregator,
    batch_aggregate,
)

from conftest import POI_SCHEMA_FIELDS, T0  # noqa: E402


def _aggs():
    return {"n": Count(), "avg": Avg("v")}


events_strategy = st.lists(
    st.tuples(st.sampled_from("abc"),                    # key
              st.floats(min_value=0.0, max_value=500.0,  # event time
                        allow_nan=False, width=32),
              st.integers(min_value=-100, max_value=100)),  # value
    min_size=1, max_size=120)


windows_strategy = st.sampled_from([30.0, 60.0, 97.0]).map(TumblingWindows)


@given(events=events_strategy, windows=windows_strategy,
       batch_size=st.integers(min_value=1, max_value=40),
       data=st.data())
@settings(max_examples=60, deadline=None)
def test_streamed_windows_equal_batch_recompute(events, windows,
                                                batch_size, data):
    """Random disorder + adequate watermark => exact stream/batch parity.

    The watermark delay is set to the stream's actual disorder bound, so
    no event may legally be dropped; finalized rows plus the end-of-
    stream flush must equal the batch recompute *exactly* (same floats).
    """
    rows = [{"k": k, "time": t, "v": v} for k, t, v in events]
    # The disorder actually present in this shuffle order:
    frontier, disorder = -float("inf"), 0.0
    for row in rows:
        frontier = max(frontier, row["time"])
        disorder = max(disorder, frontier - row["time"])

    streamed = WindowedAggregator(windows, _aggs(), key_fields=("k",))
    out = []
    frontier = -float("inf")
    for start in range(0, len(rows), batch_size):
        batch = rows[start:start + batch_size]
        for row in batch:
            streamed.add(row)
        frontier = max(frontier, *(r["time"] for r in batch))
        # Sometimes lag the watermark further behind: finalization
        # timing must never change the result, only its latency.
        extra = data.draw(st.floats(min_value=0.0, max_value=50.0,
                                    allow_nan=False))
        out.extend(streamed.advance(frontier - disorder - extra))
    out.extend(streamed.flush())

    assert streamed.late_dropped == 0
    assert out == batch_aggregate(rows, windows, _aggs(),
                                  key_fields=("k",))


@given(events=events_strategy)
@settings(max_examples=40, deadline=None)
def test_late_events_only_ever_drop_rows_never_corrupt(events):
    """With a zero-delay watermark, late drops are counted, and the
    surviving output still equals a batch recompute over the events
    that were actually accepted."""
    rows = [{"k": k, "time": t, "v": v} for k, t, v in events]
    streamed = WindowedAggregator(TumblingWindows(60.0), _aggs(),
                                  key_fields=("k",))
    out, accepted = [], []
    for row in rows:
        before = streamed.late_dropped
        streamed.add(row)
        if streamed.late_dropped == before:
            accepted.append(row)
        out.extend(streamed.advance(row["time"]))
    out.extend(streamed.flush())
    assert len(accepted) + streamed.late_dropped == len(rows)
    assert out == batch_aggregate(accepted, TumblingWindows(60.0),
                                  _aggs(), key_fields=("k",))


CONFIG = {"fid": "to_int(oid)", "name": "oid",
          "time": "long_to_date_ms(ts)",
          "geom": "lng_lat_to_point(lng, lat)"}


@given(total=st.integers(min_value=1, max_value=60),
       batch_size=st.integers(min_value=1, max_value=20),
       failures=st.sets(st.integers(min_value=1, max_value=12),
                        max_size=4),
       torn=st.integers(min_value=0, max_value=5))
@settings(max_examples=25, deadline=None)
def test_injected_quorum_failures_lose_zero_acked_events(
        total, batch_size, failures, torn):
    """Whatever insert calls fail (even tearing a batch partway), every
    event is eventually loaded exactly once."""
    engine = JustEngine()
    engine.create_table("poi", Schema(list(POI_SCHEMA_FIELDS)))
    topic = engine.create_topic("gps")
    topic.append_many(
        {"oid": str(i), "lng": 116.0 + (i % 50) * 0.01, "lat": 39.9,
         "ts": int((T0 + i) * 1000)} for i in range(total))
    loader = engine.stream_load("gps", "poi", CONFIG,
                                batch_size=batch_size)

    real = CommonTable.insert_rows
    calls = {"n": 0}

    def flaky(table_self, rows, job=None):
        calls["n"] += 1
        if calls["n"] in failures:
            if torn:
                real(table_self, rows[:torn], job)
            raise ReplicationQuorumError("poi", 0, 0, acks=1,
                                         required=2)
        return real(table_self, rows, job)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(CommonTable, "insert_rows", flaky)
        while loader.lag > 0:
            try:
                loader.poll()
            except ReplicationQuorumError:
                continue  # retry: the batch was not acked

    assert loader.offset == total
    assert engine.table("poi").row_count == total
    fids = sorted(r["fid"] for r in engine.sql("SELECT fid FROM poi").rows)
    assert fids == list(range(total))
