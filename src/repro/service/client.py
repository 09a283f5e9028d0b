"""The SDK client (Java/Python SDK equivalent).

Usage, matching the paper's snippet::

    client = JustClient(server, user="alice")
    rs = client.execute_query(sql)
    while rs.has_next():
        row = rs.next()
        ...

The client owns one server session and re-connects transparently when the
session times out, so long-lived notebooks keep working.  Statements that
fail on a transient condition — a region mid-failover
(:class:`RegionUnavailableError`) or the server shedding load
(:class:`ServerOverloadedError`) — are retried with capped, jittered
exponential backoff, like an HBase client waiting out a region
reassignment; a circuit breaker fails fast once the server looks sick so
a flapping cluster is not fed a retry storm.
"""

from __future__ import annotations

import random
import time

from repro.errors import SessionError, is_retryable
from repro.resilience import CircuitBreaker, backoff_ms
from repro.service.server import JustServer
from repro.sql.result import ResultSet


class JustClient:
    """A connected SDK client for one user.

    ``max_retries``/``backoff_base_ms``/``backoff_max_ms`` bound the
    retry loop for transient failures; delays are capped exponential
    with equal jitter from a ``jitter_seed``-seeded stream (pass
    ``jitter_seed=None`` to disable jitter and get the bare capped
    schedule).
    ``sleep`` is injectable so tests (and the simulated clock) don't
    wait on the wall clock, and ``clock`` drives the circuit breaker's
    cooldown so tests control time.
    """

    def __init__(self, server: JustServer, user: str,
                 max_retries: int = 4,
                 backoff_base_ms: float = 10.0,
                 backoff_max_ms: float = 500.0,
                 jitter_seed: int | None = 0,
                 sleep=time.sleep,
                 breaker: CircuitBreaker | None = None,
                 clock=time.monotonic):
        self.server = server
        self.user = user
        self.max_retries = max_retries
        self.backoff_base_ms = backoff_base_ms
        self.backoff_max_ms = backoff_max_ms
        self._rng = None if jitter_seed is None \
            else random.Random(jitter_seed)
        self._sleep = sleep
        self.breaker = breaker if breaker is not None \
            else CircuitBreaker(clock=clock)
        # Breaker trips/fast-failures surface on the server's /metrics
        # endpoint next to the faults that caused them.  (A stub server
        # may have neither: tests/test_faults.py::TestClientRetry.)
        breaker = self.breaker
        if getattr(server, "metrics", None) is not None:
            server.metrics.expose("breaker.opened",
                                  lambda: breaker.times_opened)
            server.metrics.expose("breaker.fast_failures",
                                  lambda: breaker.fast_failures)
        if getattr(server, "events", None) is not None:
            breaker.bind_events(server.events)
        self.retries_attempted = 0
        self.reconnects = 0
        self._session_id = server.connect(user)

    @property
    def session_id(self) -> str:
        return self._session_id

    def execute_query(self, statement: str,
                      timeout_ms: float | None = None,
                      partial_results: bool = False) -> ResultSet:
        """Execute one JustQL statement.

        One loop handles every failure mode so faults cannot stack
        unboundedly: a session timeout reconnects and retries the same
        attempt budget; transient server faults back off (capped +
        jittered) and retry; anything else propagates.  The circuit
        breaker gates each attempt and fails fast with
        :class:`~repro.errors.CircuitOpenError` while open.

        ``timeout_ms`` asks the server to bound the statement on the
        simulated clock; ``partial_results`` opts in to degraded scans.
        """
        attempt = 0
        gated = False
        while True:
            if not gated:
                self.breaker.before_call()
                gated = True
            try:
                result = self._execute_once(statement, timeout_ms,
                                            partial_results)
            except SessionError:
                # Session expired server-side: reconnect once per
                # attempt slot and go around — no backoff, the new
                # session is immediately usable.  The replay stays under
                # the same breaker gate (a dead session says nothing
                # about backend health), so a half-open probe slot is
                # neither double-spent nor leaked.
                if attempt >= self.max_retries:
                    self.breaker.abandon_probe()
                    raise
                attempt += 1
                self.reconnects += 1
                self._session_id = self.server.connect(self.user)
                continue
            except Exception as exc:
                if not is_retryable(exc):
                    raise
                self.breaker.record_failure()
                gated = False
                if attempt >= self.max_retries:
                    raise
                self.retries_attempted += 1
                delay_ms = backoff_ms(attempt, self.backoff_base_ms,
                                      self.backoff_max_ms, self._rng)
                attempt += 1
                self._sleep(delay_ms / 1000.0)
                continue
            self.breaker.record_success()
            return result

    def _execute_once(self, statement: str,
                      timeout_ms: float | None,
                      partial_results: bool) -> ResultSet:
        # Resilience kwargs are passed only when set, so stub servers
        # (and older deployments) with the plain two-argument signature
        # keep working.
        kwargs = {}
        if timeout_ms is not None:
            kwargs["timeout_ms"] = timeout_ms
        if partial_results:
            kwargs["partial_results"] = True
        return self.server.execute(self._session_id, statement, **kwargs)

    # The paper's SDKs are Java-flavoured; keep the camelCase spelling too.
    executeQuery = execute_query

    def close(self) -> None:
        self.server.disconnect(self._session_id)

    def __enter__(self) -> "JustClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
