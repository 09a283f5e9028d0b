"""The JUST server: one shared engine, many isolated users."""

from __future__ import annotations

from collections import deque

from repro.core.engine import JustEngine
from repro.core.systables import SYSTEM_TABLE_SPECS
from repro.observability.events import SessionExpiredEvent
from repro.observability.metrics import DEFAULT_LATENCY_BUCKETS_MS
from repro.observability.profile import QueryProfile
from repro.observability.slowlog import DEFAULT_SLOW_MS, SlowQueryLog
from repro.resilience import AdmissionController, Deadline, RequestContext
from repro.service.session import (
    DEFAULT_SESSION_TIMEOUT_S,
    SessionManager,
    UserSession,
)
from repro.sql.result import ResultSet

#: How many finished statement traces the server keeps for ``/profile``.
PROFILE_CAPACITY = 64


class JustServer:
    """Multi-user facade over a single shared :class:`JustEngine`.

    The shared engine plays the role of the always-on Spark context the
    paper keeps via Spark Job Server: no per-user startup cost.  Every
    statement executes inside the session user's namespace, so users never
    see (or collide with) each other's tables and views.

    Each statement runs under a :class:`~repro.resilience.RequestContext`:
    an optional deadline (client-supplied ``timeout_ms`` or the server's
    ``default_timeout_ms``) cancels runaway statements cooperatively, and
    ``partial_results`` lets degraded scans return live regions' rows plus
    a skipped-region report instead of failing outright.  An
    :class:`~repro.resilience.AdmissionController` bounds concurrent
    statements so an overload sheds load instead of queueing unboundedly.
    """

    def __init__(self, engine: JustEngine | None = None,
                 session_timeout_s: float = DEFAULT_SESSION_TIMEOUT_S,
                 default_timeout_ms: float | None = None,
                 slow_query_ms: float | None = DEFAULT_SLOW_MS):
        self.engine = engine if engine is not None else JustEngine()
        self.sessions = SessionManager(session_timeout_s)
        self.admission = AdmissionController()
        #: Server-side deadline applied when the client sends none
        #: (``None`` disables; like ``hbase.client.operation.timeout``).
        self.default_timeout_ms = default_timeout_ms
        #: Process-wide registry shared with the engine and the store.
        self.metrics = self.engine.metrics
        # Create the statement histogram bucketed up front: cumulative
        # le-buckets are what make windowed latency SLOs exact, and
        # buckets only apply on first creation.
        self.metrics.histogram("server.statement_sim_ms",
                               buckets=DEFAULT_LATENCY_BUCKETS_MS)
        self.metrics.describe("server.statement_sim_ms",
                              "per-statement simulated latency")
        self.metrics.describe("server.statements",
                              "statements executed, by status")
        #: The engine's structured event log; statement latencies advance
        #: its simulated clock, so region hotness decays with real load.
        self.events = self.engine.events
        self.admission.bind_events(self.events)
        #: Statements slower than ``slow_query_ms`` simulated ms land
        #: here with their trace (``None`` disables the log).
        self.slow_query_log = SlowQueryLog(threshold_ms=slow_query_ms)
        self._profiles: deque[QueryProfile] = deque(maxlen=PROFILE_CAPACITY)
        self._expose_series()
        # The engine installs sys.sessions / sys.slow_queries with empty
        # providers; the server owns the live state, so rebind them here.
        providers = {"sys.sessions": self._session_rows,
                     "sys.slow_queries": self._slow_query_rows}
        for name, columns, types, description in SYSTEM_TABLE_SPECS:
            if name in providers:
                self.engine.register_system_table(
                    name, columns, providers[name],
                    description=description, types=types)

    def connect(self, user: str) -> str:
        """Open a session for a user; returns the session id."""
        return self.sessions.create(user).session_id

    def disconnect(self, session_id: str) -> None:
        session = self.sessions.close(session_id)
        if session is not None:
            self._drop_user_views(session)

    def execute(self, session_id: str, statement: str,
                timeout_ms: float | None = None,
                partial_results: bool = False) -> ResultSet:
        """Run one JustQL statement in the session's namespace.

        ``timeout_ms`` is the statement's simulated-time budget
        (falls back to ``default_timeout_ms``); ``partial_results``
        opts in to degraded scans over unavailable regions.  Raises
        :class:`~repro.errors.ServerOverloadedError` when admission
        control sheds the statement.
        """
        self._expire_stale()
        session = self.sessions.get(session_id)
        budget = timeout_ms if timeout_ms is not None \
            else self.default_timeout_ms
        profile = QueryProfile(statement=statement, user=session.user)
        ctx = RequestContext(
            deadline=Deadline(budget) if budget is not None else None,
            partial_results=partial_results, profile=profile)
        self.admission.acquire(session.user)
        status = "error"
        try:
            result = self.engine.sql(statement,
                                     namespace=session.namespace, ctx=ctx)
            status = "ok"
            return result
        finally:
            self.admission.release(session.user)
            self._observe_statement(profile, session.user, statement,
                                    ctx, status)

    def _observe_statement(self, profile: QueryProfile, user: str,
                           statement: str, ctx: RequestContext,
                           status: str) -> None:
        """Record one finished (or failed) statement everywhere at once."""
        job = ctx.job
        sim_ms = job.elapsed_ms if job is not None else 0.0
        if profile.root.sim_ms == 0.0:
            # DDL and failed statements never reach the per-statement
            # finish() call; seal the trace with what the job charged.
            profile.finish(sim_ms)
        self._profiles.append(profile)
        self.metrics.counter("server.statements", status=status).inc()
        # The trace id rides along as the histogram exemplar, so a
        # latency alert can name an offending query.
        self.metrics.histogram("server.statement_sim_ms").observe(
            sim_ms, exemplar=profile.trace_id)
        self.slow_query_log.observe(statement, user, sim_ms, job=job,
                                    profile=profile)
        # Statement latencies are the event log's notion of elapsed time;
        # advancing it here is what makes region hotness rates decay.
        self.events.advance(sim_ms)
        # The monitoring chore: scrape the registry into the metrics
        # history and re-evaluate SLO burn rates on the same clock.
        if self.engine.monitor is not None:
            self.engine.monitor.maybe_tick()
        # The master's balancer chore: with a balancer enabled on the
        # engine, each statement's clock advance may trigger a balance
        # pass (the policy interval gates how often).
        if self.engine.balancer is not None:
            self.engine.balancer.maybe_tick()
        # Likewise the replication anti-entropy chore: heal lagging or
        # rebuilding followers as simulated time passes.
        if self.engine.store.replication is not None:
            self.engine.store.replication.maybe_tick()

    def _expire_stale(self) -> None:
        for session in self.sessions.expire_idle():
            self.events.emit(SessionExpiredEvent(
                user=session.user, session_id=session.session_id,
                idle_s=round(session.idle_seconds(), 3)))
            self._drop_user_views(session)

    def _drop_user_views(self, session: UserSession) -> None:
        """Session death clears the user's cached views (Section IV-D).

        Materialized views survive: they are loader-maintained pipeline
        outputs, not per-session caches.
        """
        for view in self.engine.catalog.list(session.namespace,
                                             kinds=("view",)):
            self.engine.drop_view(view.name)

    # -- administration ------------------------------------------------------
    def admission_stats(self) -> dict:
        """Operational counters from the admission controller."""
        return self.admission.stats()

    # -- observability -------------------------------------------------------
    def _expose_series(self) -> None:
        """Declare the numbers the server's parts keep, read when listed.

        The block-cache hit ratio is derived at read time from the
        store's authoritative counters (hits over touched blocks), so it
        stays correct across flush/compact cycles instead of drifting as
        a sampled value would.
        """
        store, expose = self.engine.store, self.metrics.expose

        def admitted():
            return self.admission.admitted

        def cache_hit_ratio():
            stats = store.stats
            touched = stats.cache_hits + stats.blocks_read
            return stats.cache_hits / touched if touched else 0.0

        expose("admission.admitted", admitted)
        expose("admission.shed", lambda: self.admission.shed)
        expose("admission.in_flight", lambda: self.admission.in_flight,
               kind="gauge", since=admitted)
        for name, read in (
                ("kvstore.cache_hit_ratio", cache_hit_ratio),
                ("kvstore.cache_used_bytes",
                 lambda: sum(store.cache_for(s).used_bytes
                             for s in range(store.num_servers))),
                ("server.slow_queries_logged",
                 lambda: self.slow_query_log.total_logged)):
            expose(name, read, kind="gauge", since=lambda: True)

    def metrics_snapshot(self) -> dict:
        """JSON-safe dump of every listed metric."""
        return self.metrics.snapshot()

    def recent_profiles(self, limit: int | None = None) -> list[QueryProfile]:
        """Most recent statement traces, newest last."""
        profiles = list(self._profiles)
        return profiles if limit is None else profiles[-limit:]

    def slow_queries(self) -> list[dict]:
        """The slow-query log as JSON-safe dicts, oldest first."""
        return self.slow_query_log.as_dicts()

    def _session_rows(self) -> list[dict]:
        return [{"session_id": s.session_id, "user": s.user,
                 "created_at": round(s.created_at, 3),
                 "idle_s": round(s.idle_seconds(), 3)}
                for s in self.sessions.active_sessions()]

    def _slow_query_rows(self) -> list[dict]:
        return [{"seq": e.seq, "user": e.user,
                 "trace_id": e.trace_id,
                 "sim_ms": round(e.sim_ms, 3), "statement": e.statement}
                for e in self.slow_query_log.entries()]
