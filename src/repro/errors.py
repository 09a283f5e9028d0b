"""Exception hierarchy for the JUST reproduction.

Every error raised by the engine derives from :class:`JustError` so callers
can catch engine failures without swallowing programming errors.  The
simulated cluster additionally raises :class:`SimulatedOutOfMemoryError` when
a baseline system exceeds its configured memory budget — this models the
out-of-memory failures the paper reports for the Spark-based systems rather
than crashing the host interpreter.
"""

from __future__ import annotations


class JustError(Exception):
    """Base class for all errors raised by the engine."""


class SchemaError(JustError):
    """A table schema is malformed or an operation violates it."""


class CatalogError(JustError):
    """A meta-table operation failed (unknown table, duplicate name, ...)."""


class TableNotFoundError(CatalogError):
    """The referenced table or view does not exist."""

    def __init__(self, name: str):
        super().__init__(f"table or view not found: {name!r}")
        self.name = name


class TableExistsError(CatalogError):
    """A table or view with this name already exists."""

    def __init__(self, name: str):
        super().__init__(f"table or view already exists: {name!r}")
        self.name = name


class ParseError(JustError):
    """A JustQL statement could not be tokenized or parsed."""

    def __init__(self, message: str, position: int | None = None,
                 statement: str | None = None):
        detail = message
        if position is not None and statement is not None:
            snippet = statement[max(0, position - 20):position + 20]
            detail = f"{message} at position {position}: ...{snippet}..."
        super().__init__(detail)
        self.position = position
        self.statement = statement


class AnalysisError(JustError):
    """Semantic analysis of a parsed statement failed."""


class ExecutionError(JustError):
    """A physical plan failed during execution."""


class UnsupportedOperationError(JustError):
    """The operation is valid SQL but not supported by this engine."""


class GeometryError(JustError):
    """Invalid geometry construction or operation."""


class IndexError_(JustError):
    """An index strategy was asked to encode data it cannot handle."""


class RegionUnavailableError(JustError):
    """A key-range region is offline while its server recovers.

    Raised between a region server's crash and the completion of
    failover + WAL replay for its regions.  Clients retry with bounded
    exponential backoff, like an HBase client during region reassignment.
    """

    def __init__(self, table: str, region_id: int, server: int,
                 reason: str | None = None):
        if reason is None:
            reason = (f"region server {server} failed and recovery has "
                      f"not completed")
        super().__init__(
            f"region {region_id} of table {table!r} is unavailable: "
            f"{reason}")
        self.table = table
        self.region_id = region_id
        self.server = server
        self.reason = reason


class ReplicationQuorumError(RegionUnavailableError):
    """A SYNC write could not gather enough replica WAL acknowledgements.

    Raised when too few follower replicas are reachable and live to make
    the write durable on a quorum of copies.  Retryable — the
    anti-entropy chore heals followers and the next attempt may succeed.
    Like any distributed write that times out mid-commit, the outcome is
    indeterminate: the record reached the primary's WAL before the
    quorum check failed, so a retried-then-abandoned write may still
    surface after a failover.
    """

    def __init__(self, table: str, region_id: int, server: int,
                 acks: int, required: int):
        super().__init__(
            table, region_id, server,
            reason=(f"replication quorum not met: {acks}/{required} "
                    f"replica WAL acks"))
        self.acks = acks
        self.required = required


class QueryTimeoutError(JustError):
    """A statement exceeded its deadline and was cooperatively cancelled.

    Deadlines are measured on the simulated clock: every cost charged to
    the statement's job consumes budget, and scan/aggregation loops check
    the remaining budget between units of work, so the overrun is bounded
    by the granularity of a single charge.
    """

    def __init__(self, budget_ms: float, consumed_ms: float,
                 operation: str = ""):
        where = f" during {operation}" if operation else ""
        super().__init__(
            f"deadline of {budget_ms:.1f} ms exceeded{where}: "
            f"{consumed_ms:.1f} sim-ms consumed")
        self.budget_ms = budget_ms
        self.consumed_ms = consumed_ms
        self.operation = operation

    @property
    def overrun_ms(self) -> float:
        return self.consumed_ms - self.budget_ms


class ServerOverloadedError(JustError):
    """The server shed this statement: admission control is at capacity.

    Retryable — capacity frees up as in-flight statements finish, so
    clients back off and retry (and their circuit breaker counts these
    as failures, like HBase's ``RegionTooBusyException``).
    """

    def __init__(self, scope: str, in_flight: int, limit: int):
        super().__init__(
            f"server overloaded ({scope}): {in_flight} statements "
            f"in flight, limit {limit}")
        self.scope = scope
        self.in_flight = in_flight
        self.limit = limit


class CircuitOpenError(JustError):
    """The client's circuit breaker is open: the call failed fast.

    Raised client-side without touching the server after repeated
    retryable failures; ``retry_after_s`` is the cooldown remaining
    before the breaker half-opens and lets a probe through.
    """

    def __init__(self, retry_after_s: float):
        super().__init__(
            f"circuit breaker open; next probe allowed in "
            f"{max(0.0, retry_after_s):.3f} s")
        self.retry_after_s = retry_after_s


class SessionError(JustError):
    """A service-layer session operation failed (expired, unknown user...)."""


class MetricCardinalityError(JustError):
    """A pushed metric name was asked for one label set too many.

    Every label set is a series the scraper records on every tick, so
    an unbounded label value (a statement text, a trace id) would grow
    the monitor's cost and memory without limit; the registry refuses
    the new series instead.
    """

    def __init__(self, name: str, key: str, limit: int):
        super().__init__(
            f"metric {name!r} already has {limit} label sets; "
            f"refusing {key!r}")
        self.name = name
        self.key = key
        self.limit = limit


class SimulatedOutOfMemoryError(JustError):
    """A simulated system exceeded its cluster memory budget.

    The paper reports e.g. "Simba throws an out of memory exception when the
    data size of Traj is 40%"; baselines raise this error under the same
    conditions instead of exhausting host memory.
    """

    def __init__(self, system: str, required_bytes: int, budget_bytes: int):
        super().__init__(
            f"{system}: simulated OOM, requires {required_bytes} bytes "
            f"but the cluster memory budget is {budget_bytes} bytes")
        self.system = system
        self.required_bytes = required_bytes
        self.budget_bytes = budget_bytes


# -- wire-format error mapping ------------------------------------------------

#: Errors a client may safely retry: the condition is transient (a region
#: mid-failover, a server shedding load) rather than a property of the
#: statement itself.
RETRYABLE_ERRORS = ("RegionUnavailableError", "ReplicationQuorumError",
                    "ServerOverloadedError")


def error_class_for(kind: str) -> type[JustError]:
    """The :class:`JustError` subclass named ``kind``, or ``JustError``.

    Used by the HTTP transport to map a wire-level ``kind`` tag back onto
    the typed hierarchy so remote clients can distinguish retryable from
    fatal failures.
    """
    def walk(cls):
        yield cls
        for sub in cls.__subclasses__():
            yield from walk(sub)
    for cls in walk(JustError):
        if cls.__name__ == kind:
            return cls
    return JustError


def remote_error(kind: str, message: str) -> JustError:
    """Reconstruct a typed engine error from its wire representation.

    The instance satisfies ``isinstance`` checks against the hierarchy
    and carries the server's message; constructor-derived attributes
    (e.g. ``RegionUnavailableError.region_id``) are not recovered from
    the wire and are absent on the reconstructed object.
    """
    cls = error_class_for(kind)
    exc = cls.__new__(cls)
    Exception.__init__(exc, message)
    return exc


def is_retryable(exc: BaseException) -> bool:
    """True for transient errors a client should back off and retry."""
    return isinstance(exc, (RegionUnavailableError, ServerOverloadedError))
