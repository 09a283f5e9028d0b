"""The structured cluster event log: typed events, ring semantics,
simulated-clock stamping, and decayed hotness rates."""

import math

import pytest

from repro.errors import ServerOverloadedError
from repro.kvstore import KVStore, SyncPolicy
from repro.observability.events import (
    AdmissionShedEvent,
    BreakerTripEvent,
    CompactionEvent,
    DecayedRate,
    EventLog,
    FailoverEvent,
    FlushEvent,
    SessionExpiredEvent,
    SplitEvent,
)
from repro.resilience import AdmissionController, CircuitBreaker
from repro.service.server import JustServer


def small_store(**kwargs):
    defaults = dict(num_servers=3, flush_bytes=4 * 1024,
                    split_bytes=64 * 1024, block_bytes=1024)
    defaults.update(kwargs)
    return KVStore(**defaults)


# -- the ring -----------------------------------------------------------------

class TestEventLog:
    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            EventLog(capacity=0)

    def test_emit_stamps_seq_and_clock(self):
        log = EventLog()
        log.advance(120.5)
        event = log.emit(FlushEvent(table="t", region_id=3, server=1))
        assert event.seq == 1
        assert event.sim_ms == 120.5
        log.advance(10.0)
        assert log.emit(FlushEvent()).sim_ms == 130.5

    def test_advance_ignores_nonpositive(self):
        log = EventLog()
        log.advance(-5.0)
        log.advance(0.0)
        assert log.now_ms == 0.0

    def test_ring_drops_oldest_first(self):
        log = EventLog(capacity=3)
        for i in range(5):
            log.emit(FlushEvent(region_id=i))
        assert len(log) == 3
        assert [e.seq for e in log.events()] == [3, 4, 5]
        assert [e.region_id for e in log.events()] == [2, 3, 4]

    def test_totals_survive_eviction(self):
        log = EventLog(capacity=2)
        for _ in range(4):
            log.emit(FlushEvent())
        log.emit(CompactionEvent())
        assert log.total_emitted == 5
        assert log.total_by_kind == {"flush": 4, "compaction": 1}

    def test_kind_filter_and_limit(self):
        log = EventLog()
        log.emit(FlushEvent(region_id=1))
        log.emit(CompactionEvent(region_id=2))
        log.emit(FlushEvent(region_id=3))
        assert [e.region_id for e in log.events("flush")] == [1, 3]
        flushes = [r for r in log.rows() if r["kind"] == "flush"]
        assert [r["region_id"] for r in flushes[-1:]] == [3]

    def test_row_projection_has_uniform_columns(self):
        log = EventLog()
        log.emit(FlushEvent(table="t", region_id=1, server=2,
                            bytes_flushed=100, entries=5))
        log.emit(BreakerTripEvent(consecutive_failures=4))
        rows = log.rows()
        assert set(rows[0]) == {"seq", "sim_ms", "kind", "table",
                                "region_id", "server", "detail"}
        assert rows[0]["detail"] == "bytes_flushed=100 entries=5"
        # Events without placement fields render them empty.
        assert rows[1]["table"] == ""
        assert rows[1]["region_id"] is None
        assert rows[1]["detail"] == "consecutive_failures=4"


class TestDecayedRate:
    def test_fresh_reads_have_positive_rate(self):
        rate = DecayedRate(tau_ms=30_000.0)
        rate.record(0.0)
        rate.record(0.0)
        assert rate.rate_per_s(0.0) == pytest.approx(2 / 30.0)

    def test_rate_decays_with_the_clock(self):
        rate = DecayedRate(tau_ms=1000.0)
        rate.record(0.0)
        fresh = rate.rate_per_s(0.0)
        later = rate.rate_per_s(5000.0)
        assert 0.0 < later < fresh
        assert later == pytest.approx(fresh * math.exp(-5.0))

    def test_stalled_clock_does_not_decay(self):
        rate = DecayedRate()
        rate.record(100.0)
        assert rate.rate_per_s(100.0) == rate.rate_per_s(100.0)

    def test_long_idle_gap_decays_to_zero(self):
        # The balancer reads these rates to find cold merge candidates:
        # after a long idle gap even a once-hot region must read ~0.
        rate = DecayedRate(tau_ms=30_000.0)
        for _ in range(100):
            rate.record(0.0)
        assert rate.rate_per_s(0.0) > 3.0
        assert rate.rate_per_s(600_000.0) < 1e-6  # 20 tau later


# -- kvstore emission ---------------------------------------------------------

class TestKvstoreEvents:
    def test_flush_emits_typed_event(self):
        store = small_store()
        table = store.create_table("t")
        for i in range(20):
            table.put(f"{i:04d}".encode(), b"v" * 50)
        table.flush()
        flushes = store.events.events("flush")
        assert len(flushes) == 1
        event = flushes[0]
        assert isinstance(event, FlushEvent)
        assert event.table == "t"
        assert event.entries == 20
        assert event.bytes_flushed > 0
        assert event.server == table.regions()[0].server

    def test_flush_with_wal_checkpoints_in_order(self):
        store = small_store(wal_policy=SyncPolicy.SYNC)
        table = store.create_table("t")
        table.put(b"k", b"v")
        table.flush()
        kinds = [e.kind for e in store.events.events()]
        assert kinds == ["flush", "wal_checkpoint"]
        checkpoint = store.events.events("wal_checkpoint")[0]
        assert checkpoint.seqno > 0

    def test_compaction_event_reports_runs(self):
        store = small_store()
        table = store.create_table("t")
        for batch in range(3):
            for i in range(batch * 10, batch * 10 + 10):
                table.put(f"{i:04d}".encode(), b"v" * 50)
            table.flush()
        table.compact()
        compactions = store.events.events("compaction")
        assert len(compactions) == 1
        event = compactions[0]
        assert isinstance(event, CompactionEvent)
        assert event.runs == 3
        assert event.bytes_after > 0

    def test_split_event_names_daughters(self):
        store = small_store(split_bytes=8 * 1024)
        table = store.create_table("t")
        for i in range(2000):
            table.put(f"{i:04d}".encode(), b"v" * 60)
        assert table.num_regions > 1
        splits = store.events.events("split")
        assert splits
        event = splits[0]
        assert isinstance(event, SplitEvent)
        assert event.left_region_id != event.right_region_id
        assert event.split_key  # hex of the midpoint key

    def test_failover_event_on_crash(self):
        store = small_store(wal_policy=SyncPolicy.SYNC)
        table = store.create_table("t")
        for i in range(50):
            table.put(f"{i:04d}".encode(), b"v" * 50)
        victim = table.regions()[0].server
        store.crash_server(victim)
        failovers = store.events.events("failover")
        assert len(failovers) == 1
        event = failovers[0]
        assert isinstance(event, FailoverEvent)
        assert event.server == victim
        assert event.regions_reassigned >= 1
        assert event.replayed_records > 0

    def test_lifecycle_orders_by_seq(self):
        store = small_store(wal_policy=SyncPolicy.SYNC,
                            split_bytes=16 * 1024)
        table = store.create_table("t")
        # Two flushed runs (under the split threshold), then a compact,
        # then enough load to split, then a crash: the event feed must
        # replay that exact story in seq order.
        for i in range(100):
            table.put(f"{i:04d}".encode(), b"v" * 60)
        table.flush()
        table.compact()
        for i in range(100, 2000):
            table.put(f"{i:04d}".encode(), b"v" * 60)
        assert table.num_regions > 1
        store.crash_server(table.regions()[0].server)
        events = store.events.events()
        seqs = [e.seq for e in events]
        assert seqs == sorted(seqs)
        kinds = [e.kind for e in events]
        for earlier, later in (("flush", "compaction"),
                               ("compaction", "split"),
                               ("split", "failover")):
            assert kinds.index(earlier) < kinds.index(later)

    def test_region_hotness_counters(self):
        store = small_store()
        table = store.create_table("t")
        table.put(b"a", b"1")
        table.put(b"b", b"2")
        table.get(b"a")
        region = table.regions()[0]
        assert region.writes == 2
        assert region.reads == 1
        assert region.read_rate.rate_per_s(store.events.now_ms) > 0
        assert region.write_rate.rate_per_s(store.events.now_ms) > 0


# -- service-layer emission ----------------------------------------------------

class TestServiceEvents:
    def test_admission_shed_emits(self):
        control = AdmissionController(max_in_flight=10, max_per_user=1)
        log = EventLog()
        control.bind_events(log)
        control.acquire("alice")
        with pytest.raises(ServerOverloadedError):
            control.acquire("alice")
        sheds = log.events("admission_shed")
        assert len(sheds) == 1
        assert isinstance(sheds[0], AdmissionShedEvent)
        assert "alice" in sheds[0].scope

    def test_breaker_trip_emits(self):
        now = [0.0]
        breaker = CircuitBreaker(failure_threshold=2,
                                 clock=lambda: now[0])
        log = EventLog()
        breaker.bind_events(log)
        for _ in range(2):
            breaker.before_call()
            breaker.record_failure()
        trips = log.events("breaker_trip")
        assert len(trips) == 1
        assert isinstance(trips[0], BreakerTripEvent)
        assert trips[0].consecutive_failures == 2

    def test_statements_advance_the_clock(self):
        server = JustServer()
        session = server.connect("alice")
        server.execute(session,
                       "CREATE TABLE t (fid integer:primary key, "
                       "v double)")
        server.execute(session, "INSERT INTO t VALUES (1, 1.5)")
        assert server.events.now_ms > 0

    def test_session_expiry_emits(self):
        server = JustServer(session_timeout_s=0.0)
        server.connect("alice")
        fresh = server.connect("bob")
        # Any later statement first expires the stale sessions.
        with pytest.raises(Exception):
            server.execute(fresh, "SHOW TABLES")
        expired = server.events.events("session_expired")
        assert expired
        assert isinstance(expired[0], SessionExpiredEvent)
        assert {e.user for e in expired} >= {"alice"}
