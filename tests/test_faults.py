"""Fault plans, deterministic injection, and client retry behaviour."""

import pytest

from repro.errors import RegionUnavailableError
from repro.faults import CorruptionMode, FaultInjector, FaultPlan, KillServer
from repro.kvstore import KVStore, SyncPolicy
from repro.service.client import JustClient
from repro.service.server import JustServer


def durable_store(**kwargs):
    defaults = dict(num_servers=3, wal_policy=SyncPolicy.SYNC,
                    flush_bytes=4 * 1024, split_bytes=16 * 1024,
                    block_bytes=512)
    defaults.update(kwargs)
    return KVStore(**defaults)


class TestFaultPlan:
    def test_needs_exactly_one_trigger(self):
        with pytest.raises(ValueError):
            KillServer(0)
        with pytest.raises(ValueError):
            KillServer(0, after_ops=5, probability=0.5)

    def test_validates_ranges(self):
        with pytest.raises(ValueError):
            KillServer(0, after_ops=0)
        with pytest.raises(ValueError):
            KillServer(0, probability=1.5)

    def test_corruption_tail_sizes(self):
        assert KillServer(0, after_ops=1).lost_tail_records == 0
        assert KillServer(0, after_ops=1,
                          corruption=CorruptionMode.TORN_TAIL
                          ).lost_tail_records == 1
        assert KillServer(0, after_ops=1,
                          corruption=CorruptionMode.DELAYED_WRITE,
                          delayed_records=7).lost_tail_records == 7

    def test_kill_after_shorthand(self):
        plan = FaultPlan.kill_after(2, 100)
        assert plan.faults[0].server == 2
        assert plan.faults[0].after_ops == 100


class TestFaultInjector:
    def test_kill_after_k_ops_is_exact(self):
        store = durable_store()
        injector = FaultInjector(FaultPlan.kill_after(0, 10)).attach(store)
        table = store.create_table("t")
        for i in range(9):
            table.put(f"k{i}".encode(), b"v")
        assert store.dead_servers == set()
        table.put(b"k9", b"v")  # the 10th op fires the fault
        assert store.dead_servers == {0}
        assert injector.fired[0].after_ops == 10

    def test_reads_do_not_advance_the_op_counter(self):
        store = durable_store()
        FaultInjector(FaultPlan.kill_after(0, 2)).attach(store)
        table = store.create_table("t")
        table.put(b"a", b"1")
        for _ in range(10):
            table.get(b"a")
        assert store.dead_servers == set()
        table.put(b"b", b"2")
        assert store.dead_servers == {0}

    def test_probabilistic_kill_is_seed_deterministic(self):
        def run(seed):
            store = durable_store()
            plan = FaultPlan([KillServer(0, probability=0.02)], seed=seed)
            injector = FaultInjector(plan).attach(store)
            table = store.create_table("t")
            for i in range(500):
                table.put(f"k{i:04d}".encode(), b"v")
            return injector.op_count, frozenset(store.dead_servers)

        assert run(7) == run(7)
        assert run(7) != run(8) or run(7)[1]  # seeds differ or both fired

    def test_fault_against_dead_server_is_dropped(self):
        store = durable_store()
        plan = FaultPlan([KillServer(0, after_ops=1),
                          KillServer(0, after_ops=2)])
        FaultInjector(plan).attach(store)
        table = store.create_table("t")
        table.put(b"a", b"1")
        table.put(b"b", b"2")  # second fault targets an already-dead server
        assert store.dead_servers == {0}

    def test_injector_constructor_wiring(self):
        store = durable_store()
        injector = FaultInjector(FaultPlan.kill_after(1, 1))
        assert injector.attach(store) is injector
        table = store.create_table("t")
        table.put(b"a", b"1")
        assert store.dead_servers == {1}


class TestClientRetry:
    class FlakyServer:
        """Server stub: unavailable for the first N executes."""

        def __init__(self, failures):
            self.failures = failures
            self.calls = 0

        def connect(self, user):
            return "session-1"

        def execute(self, session_id, statement):
            self.calls += 1
            if self.calls <= self.failures:
                raise RegionUnavailableError("t", 1, 0)
            return f"ok after {self.calls}"

        def disconnect(self, session_id):
            pass

    def test_retries_until_region_recovers(self):
        delays = []
        server = self.FlakyServer(failures=2)
        client = JustClient(server, "alice", max_retries=4,
                            backoff_base_ms=10.0, sleep=delays.append)
        assert client.execute_query("SELECT 1") == "ok after 3"
        assert client.retries_attempted == 2
        # Equal jitter draws each delay from [cap/2, cap) where the caps
        # double: 10ms then 20ms (in seconds).
        assert len(delays) == 2
        assert 0.005 <= delays[0] < 0.01
        assert 0.01 <= delays[1] < 0.02

    def test_unjittered_backoff_is_exact(self):
        delays = []
        server = self.FlakyServer(failures=2)
        client = JustClient(server, "alice", max_retries=4,
                            backoff_base_ms=10.0, jitter_seed=None,
                            sleep=delays.append)
        client.execute_query("SELECT 1")
        assert delays == [0.01, 0.02]

    def test_jitter_is_seeded_and_deterministic(self):
        def run(seed):
            delays = []
            client = JustClient(self.FlakyServer(failures=2), "alice",
                                jitter_seed=seed, sleep=delays.append)
            client.execute_query("SELECT 1")
            return delays
        assert run(7) == run(7)
        assert run(7) != run(8)

    def test_backoff_is_capped(self):
        from repro.resilience import CircuitBreaker
        delays = []
        server = self.FlakyServer(failures=6)
        client = JustClient(server, "alice", max_retries=6,
                            backoff_base_ms=10.0, backoff_max_ms=40.0,
                            jitter_seed=None, sleep=delays.append,
                            breaker=CircuitBreaker(failure_threshold=20))
        client.execute_query("SELECT 1")
        # 10, 20, 40, then capped at 40 forever.
        assert delays == [0.01, 0.02, 0.04, 0.04, 0.04, 0.04]

    def test_raises_after_retry_budget(self):
        server = self.FlakyServer(failures=10)
        client = JustClient(server, "alice", max_retries=3,
                            sleep=lambda _s: None)
        with pytest.raises(RegionUnavailableError):
            client.execute_query("SELECT 1")
        assert server.calls == 4  # initial try + 3 retries

    def test_end_to_end_recovery_through_sql(self):
        from repro.core.engine import JustEngine
        server = JustServer(JustEngine(wal_policy=SyncPolicy.SYNC))
        store = server.engine.store
        client = JustClient(server, "alice", max_retries=3,
                            sleep=lambda _s: store.recovering_servers and
                            store.failover(next(iter(
                                store.recovering_servers))))
        client.execute_query(
            "CREATE TABLE t (fid integer:primary key, geom point)")
        client.execute_query(
            "INSERT INTO t VALUES (1, st_makePoint(116.3, 39.9))")
        # Kill every server that hosts table data, deferring failover so
        # the query hits the unavailability window and must retry.
        victims = set()
        for table in store.tables():
            victims |= table.servers_used()
        victim = sorted(victims)[0]
        store.crash_server(victim, defer_failover=True)
        result = client.execute_query("SELECT fid FROM t")
        assert [row["fid"] for row in result.rows] == [1]
        assert client.retries_attempted >= 1
