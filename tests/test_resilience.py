"""Request resilience: deadlines, admission control, circuit breaking,
partial results, and their interplay with sessions and gray faults."""

import pytest

from repro.cluster.simclock import CostModel, SimJob
from repro.errors import (
    CircuitOpenError,
    JustError,
    QueryTimeoutError,
    RegionUnavailableError,
    ServerOverloadedError,
    SessionError,
    error_class_for,
    is_retryable,
    remote_error,
)
from repro.resilience import (
    AdmissionController,
    CircuitBreaker,
    Deadline,
    RequestContext,
    backoff_ms,
)
from repro.scenarios.fixtures import (
    SERVICE_COST_MODEL,
    WORKLOAD_USER,
    resilience_service,
    run_policy_workload,
)
from repro.service.client import JustClient
from repro.service.server import JustServer


QUERY = ("SELECT fid FROM events WHERE geom WITHIN "
         "st_makeMBR(116.05, 39.82, 116.45, 40.08)")


class TestDeadline:
    def test_budget_must_be_positive(self):
        with pytest.raises(ValueError):
            Deadline(0)
        with pytest.raises(ValueError):
            Deadline(-5)

    def test_charge_and_check(self):
        deadline = Deadline(100.0)
        deadline.charge(60.0)
        deadline.check()  # within budget
        assert deadline.remaining_ms == pytest.approx(40.0)
        deadline.charge(50.0)
        with pytest.raises(QueryTimeoutError) as info:
            deadline.check("region scan")
        assert info.value.budget_ms == 100.0
        assert info.value.consumed_ms == pytest.approx(110.0)
        assert info.value.overrun_ms == pytest.approx(10.0)
        assert "region scan" in str(info.value)

    def test_simjob_charges_consume_budget(self):
        """Every simulated charge flows into the bound deadline."""
        ctx = RequestContext(deadline=Deadline(50.0))
        job = SimJob(CostModel(), num_servers=5)
        ctx.bind(job)
        job.charge_fixed("driver", 30.0)
        with pytest.raises(QueryTimeoutError):
            job.charge_fixed("driver", 30.0)
        # Work done is accounted exactly: budget overrun by one charge.
        assert ctx.deadline.consumed_ms == pytest.approx(60.0)

    def test_bind_backcharges_accumulated_cost(self):
        job = SimJob(CostModel(), num_servers=5)
        job.charge_fixed("ingest", 80.0)
        ctx = RequestContext(deadline=Deadline(100.0))
        ctx.bind(job)
        assert ctx.deadline.consumed_ms == pytest.approx(80.0)


class TestBackoff:
    def test_unjittered_caps(self):
        assert backoff_ms(0, 10.0, 500.0) == 10.0
        assert backoff_ms(3, 10.0, 500.0) == 80.0
        assert backoff_ms(9, 10.0, 500.0) == 500.0  # capped

    def test_equal_jitter_bounds(self):
        import random
        rng = random.Random(42)
        for attempt in range(8):
            cap = min(500.0, 10.0 * 2 ** attempt)
            for _ in range(20):
                delay = backoff_ms(attempt, 10.0, 500.0, rng)
                assert cap / 2 <= delay < cap


class TestAdmissionController:
    def test_per_user_bound_sheds(self):
        control = AdmissionController(max_in_flight=10, max_per_user=2)
        control.acquire("alice")
        control.acquire("alice")
        with pytest.raises(ServerOverloadedError) as info:
            control.acquire("alice")
        assert "alice" in str(info.value)
        control.acquire("bob")  # other users unaffected
        control.release("alice")
        control.acquire("alice")  # capacity freed

    def test_global_bound_sheds_when_queue_full(self):
        control = AdmissionController(max_in_flight=1, max_per_user=5,
                                      max_queue=0)
        control.acquire("a")
        with pytest.raises(ServerOverloadedError):
            control.acquire("b")
        assert control.stats()["shed"] == 1

    def test_wait_timeout_sheds(self):
        control = AdmissionController(max_in_flight=1, max_queue=4,
                                      wait_timeout_s=0.0)
        control.acquire("a")
        # With a zero wait budget the queued statement gives up on its
        # first deadline check, without blocking the test.
        with pytest.raises(ServerOverloadedError) as info:
            control.acquire("b")
        assert "timed out" in str(info.value)

    def test_stats_counters(self):
        control = AdmissionController(max_in_flight=4)
        control.acquire("a")
        control.acquire("b")
        stats = control.stats()
        assert stats["in_flight"] == 2
        assert stats["admitted"] == 2
        assert stats["peak_in_flight"] == 2
        control.release("a")
        assert control.stats()["in_flight"] == 1


class TestCircuitBreaker:
    def make(self, **kwargs):
        now = [0.0]
        breaker = CircuitBreaker(clock=lambda: now[0], **kwargs)
        return breaker, now

    def test_opens_after_threshold(self):
        breaker, _now = self.make(failure_threshold=3)
        for _ in range(3):
            breaker.before_call()
            breaker.record_failure()
        assert breaker.state == "open"
        with pytest.raises(CircuitOpenError) as info:
            breaker.before_call()
        assert info.value.retry_after_s > 0
        assert breaker.fast_failures == 1

    def test_half_open_probe_closes_on_success(self):
        breaker, now = self.make(failure_threshold=1,
                                 reset_timeout_s=10.0)
        breaker.record_failure()
        assert breaker.state == "open"
        now[0] = 11.0
        breaker.before_call()  # admitted as the probe
        assert breaker.state == "half_open"
        breaker.record_success()
        assert breaker.state == "closed"
        breaker.before_call()  # flows freely again

    def test_half_open_probe_failure_reopens(self):
        breaker, now = self.make(failure_threshold=1,
                                 reset_timeout_s=10.0)
        breaker.record_failure()
        now[0] = 11.0
        breaker.before_call()
        breaker.record_failure()
        assert breaker.state == "open"
        with pytest.raises(CircuitOpenError):
            breaker.before_call()  # cooldown restarted at t=11

    def test_half_open_limits_probes(self):
        breaker, now = self.make(failure_threshold=1,
                                 reset_timeout_s=10.0,
                                 half_open_probes=1)
        breaker.record_failure()
        now[0] = 20.0
        breaker.before_call()
        with pytest.raises(CircuitOpenError):
            breaker.before_call()  # second concurrent probe refused


class TestTypedWireErrors:
    def test_error_class_for_known_kinds(self):
        assert error_class_for("QueryTimeoutError") is QueryTimeoutError
        assert error_class_for("RegionUnavailableError") \
            is RegionUnavailableError
        assert error_class_for("NoSuchError") is JustError

    def test_remote_error_reconstruction(self):
        exc = remote_error("ServerOverloadedError", "too busy")
        assert isinstance(exc, ServerOverloadedError)
        assert isinstance(exc, JustError)
        assert str(exc) == "too busy"
        assert is_retryable(exc)

    def test_is_retryable(self):
        assert is_retryable(RegionUnavailableError("t", 0, 0))
        assert is_retryable(ServerOverloadedError("global", 9, 8))
        assert not is_retryable(QueryTimeoutError(100.0, 120.0))
        assert not is_retryable(CircuitOpenError(1.0))


class TestDeadlineEndToEnd:
    """Acceptance: SlowServer + 100 ms deadline -> bounded timeout."""

    def test_slow_server_times_out_with_bounded_overrun(self):
        server = resilience_service("slow", latency_ms=30.0)
        sid = server.connect(WORKLOAD_USER)
        with pytest.raises(QueryTimeoutError) as info:
            server.execute(sid, QUERY, timeout_ms=100.0)
        exc = info.value
        assert exc.budget_ms == 100.0
        # Cooperative cancellation: the overrun is bounded by one
        # charge's granularity (one injected latency draw, here
        # latency_ms + jitter_ms < 50 sim-ms), never an unbounded stall.
        assert 0.0 < exc.overrun_ms < 50.0

    def test_without_deadline_statement_completes(self):
        server = resilience_service("slow", latency_ms=30.0)
        sid = server.connect(WORKLOAD_USER)
        result = server.execute(sid, QUERY)
        assert len(result) > 0
        assert result.sim_ms > 100.0  # absorbed the injected latency

    def test_server_default_timeout_applies(self):
        server = resilience_service("slow", latency_ms=30.0)
        server.default_timeout_ms = 100.0
        sid = server.connect(WORKLOAD_USER)
        with pytest.raises(QueryTimeoutError):
            server.execute(sid, QUERY)
        # An explicit client budget overrides the server default.
        assert len(server.execute(sid, QUERY, timeout_ms=1e9)) > 0


class TestPartialResults:
    """Acceptance: deferred failover window -> live rows + skip report."""

    def _crash_data_server(self, server):
        store = server.engine.store
        victims = set()
        for table in store.tables():
            table.flush()  # durable on disk, so failover loses nothing
            victims |= table.servers_used()
        victim = sorted(victims)[0]
        store.crash_server(victim, defer_failover=True)
        return victim

    def test_full_failure_without_partial_mode(self):
        server = resilience_service("none")
        sid = server.connect(WORKLOAD_USER)
        self._crash_data_server(server)
        with pytest.raises(RegionUnavailableError):
            server.execute(sid, QUERY)

    def test_partial_mode_returns_live_rows_and_report(self):
        server = resilience_service("none")
        sid = server.connect(WORKLOAD_USER)
        complete = {r["fid"] for r in server.execute(sid, QUERY).rows}
        victim = self._crash_data_server(server)

        result = server.execute(sid, QUERY, partial_results=True)
        assert result.is_partial
        partial = {r["fid"] for r in result.rows}
        assert partial < complete  # strictly fewer rows, all live
        for skip in result.skipped_regions:
            assert skip["server"] == victim
            assert "unavailable" in skip["reason"]
        # After failover completes, the same statement is whole again.
        server.engine.store.failover(victim)
        healed = server.execute(sid, QUERY, partial_results=True)
        assert not healed.is_partial
        assert {r["fid"] for r in healed.rows} == complete

    def test_partial_mode_skips_intermittent_errors(self):
        server = resilience_service("flaky", probability=1.0)
        sid = server.connect(WORKLOAD_USER)
        result = server.execute(sid, QUERY, partial_results=True)
        assert result.is_partial
        assert any("intermittent" in s["reason"]
                   for s in result.skipped_regions)


class TestAdmissionEndToEnd:
    def test_overload_sheds_and_is_retryable(self):
        server = resilience_service("none")
        server.admission = AdmissionController(max_in_flight=10,
                                               max_per_user=0)
        sid = server.connect(WORKLOAD_USER)
        with pytest.raises(ServerOverloadedError) as info:
            server.execute(sid, QUERY)
        assert is_retryable(info.value)
        assert server.admission_stats()["shed"] == 1

    def test_statements_release_capacity(self):
        server = resilience_service("none")
        sid = server.connect(WORKLOAD_USER)
        for _ in range(3):
            server.execute(sid, QUERY)
        stats = server.admission_stats()
        assert stats["in_flight"] == 0
        assert stats["admitted"] == 3

    def test_failed_statement_releases_capacity(self):
        server = resilience_service("slow")
        sid = server.connect(WORKLOAD_USER)
        with pytest.raises(QueryTimeoutError):
            server.execute(sid, QUERY, timeout_ms=50.0)
        assert server.admission_stats()["in_flight"] == 0


class TestClientResilience:
    def test_breaker_fails_fast_after_retry_storm(self):
        server = resilience_service("flaky")
        now = [0.0]
        client = JustClient(server, WORKLOAD_USER,
                            sleep=lambda _s: None,
                            breaker=CircuitBreaker(
                                failure_threshold=5,
                                reset_timeout_s=30.0,
                                clock=lambda: now[0]))
        with pytest.raises(RegionUnavailableError):
            client.execute_query(QUERY)
        assert client.breaker.state == "open"
        with pytest.raises(CircuitOpenError):
            client.execute_query(QUERY)
        # The fast failure never reached the server's admission control.
        before = server.admission_stats()["admitted"]
        with pytest.raises(CircuitOpenError):
            client.execute_query(QUERY)
        assert server.admission_stats()["admitted"] == before

    def test_breaker_recovers_after_cooldown(self):
        server = resilience_service("none")
        now = [0.0]
        client = JustClient(server, WORKLOAD_USER,
                            sleep=lambda _s: None,
                            breaker=CircuitBreaker(
                                failure_threshold=1,
                                reset_timeout_s=10.0,
                                clock=lambda: now[0]))
        client.breaker.record_failure()  # trip it
        with pytest.raises(CircuitOpenError):
            client.execute_query(QUERY)
        now[0] = 11.0  # cooldown elapsed: half-open probe goes through
        assert len(client.execute_query(QUERY)) > 0
        assert client.breaker.state == "closed"

    def test_server_overload_retried_then_raised(self):
        server = resilience_service("none")
        server.admission = AdmissionController(max_in_flight=10,
                                               max_per_user=0)
        delays = []
        client = JustClient(server, WORKLOAD_USER, max_retries=2,
                            sleep=delays.append)
        with pytest.raises(ServerOverloadedError):
            client.execute_query(QUERY)
        assert len(delays) == 2  # backed off between attempts


class TestSessionExpiryInterplay:
    """Satellite: session lifecycle under the resilient client."""

    def test_expiry_mid_sequence_drops_views_and_reconnects(self):
        server = JustServer(session_timeout_s=10.0)
        client = JustClient(server, "alice")
        client.execute_query("CREATE TABLE t (fid integer:primary key, "
                             "name string, geom point)")
        client.execute_query("CREATE VIEW v AS SELECT fid FROM t")
        assert "alice__v" in server.engine.view_names()
        # The session goes stale while the client still holds it; the
        # next statement reconnects, and expiry has dropped the views.
        server.sessions._sessions[client.session_id].touch(now=-1e9)
        rs = client.execute_query("SHOW VIEWS")
        assert rs.rows == []
        assert "alice__v" not in server.engine.view_names()
        assert client.reconnects == 1

    def test_reconnect_preserves_namespace_isolation(self):
        server = JustServer(session_timeout_s=10.0)
        alice = JustClient(server, "alice")
        bob = JustClient(server, "bob")
        alice.execute_query("CREATE TABLE t (fid integer:primary key, "
                            "geom point)")
        bob.execute_query("CREATE TABLE t (fid integer:primary key, "
                          "geom point)")
        server.sessions._sessions[alice.session_id].touch(now=-1e9)
        # After the transparent reconnect alice still sees only hers.
        assert alice.execute_query("SHOW TABLES").rows == \
            [{"table": "t"}]
        assert server.engine.table_names("alice__") == ["alice__t"]
        assert server.engine.table_names("bob__") == ["bob__t"]

    def test_breaker_state_survives_reconnect(self):
        server = JustServer(session_timeout_s=10.0)
        now = [0.0]
        client = JustClient(server, "alice", sleep=lambda _s: None,
                            breaker=CircuitBreaker(
                                failure_threshold=1,
                                reset_timeout_s=30.0,
                                clock=lambda: now[0]))
        client.breaker.record_failure()  # tripped before the expiry
        server.sessions._sessions[client.session_id].touch(now=-1e9)
        # The breaker gates the call before any reconnect happens: a
        # sick backend is not probed just because the session expired.
        with pytest.raises(CircuitOpenError):
            client.execute_query("SHOW TABLES")
        assert client.reconnects == 0
        now[0] = 31.0
        assert client.execute_query("SHOW TABLES").rows == []
        assert client.reconnects == 1

    def test_session_error_retry_budget_is_bounded(self):
        class AlwaysExpired:
            def __init__(self):
                self.connects = 0

            def connect(self, user):
                self.connects += 1
                return f"s{self.connects}"

            def execute(self, session_id, statement):
                raise SessionError("expired")

        server = AlwaysExpired()
        client = JustClient(server, "alice", max_retries=3,
                            sleep=lambda _s: None)
        with pytest.raises(SessionError):
            client.execute_query("SHOW TABLES")
        # initial connect + one reconnect per retry slot, then raise.
        assert server.connects == 4


class TestWorkloadHarness:
    def test_workload_is_deterministic(self):
        first = run_policy_workload(resilience_service("flaky"),
                                    "partial", queries=8)
        second = run_policy_workload(resilience_service("flaky"),
                                     "partial", queries=8)
        assert first.latencies_ms == second.latencies_ms
        assert first.regions_skipped == second.regions_skipped

    def test_service_cost_model_keeps_budgets_meaningful(self):
        assert SERVICE_COST_MODEL.query_overhead_ms < 100.0
