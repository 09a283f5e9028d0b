"""Declarative, deterministic fault plans.

A :class:`FaultPlan` describes *what* goes wrong and *when*, decoupled
from the store executing it: kill region server N after the K-th
operation, or with probability p per operation under a fixed seed.  Log
corruption modes model the two classic ways a write-ahead log lies
after a crash: a torn tail (the final record was mid-write) and delayed
writes (the disk cache acknowledged records that never hit the platter).

Beyond fail-stop crashes, a plan can schedule *gray failures* — the
server is up but misbehaving, the production failure mode crash tests
miss: :class:`SlowServer` adds seeded per-operation latency on the
simulated clock (a saturated disk, a GC-pausing JVM), and
:class:`IntermittentError` makes a server's regions fail a seeded
fraction of operations (a flapping network, a half-dead disk).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum


class CorruptionMode(Enum):
    """How the dead server's WAL is damaged beyond the unsynced tail."""

    NONE = "none"
    #: The final record was being written when the server died; recovery
    #: sees a CRC mismatch and treats it as end-of-log.
    TORN_TAIL = "torn_tail"
    #: The disk cache acknowledged the last few syncs without persisting
    #: them, so several "durable" records are missing.
    DELAYED_WRITE = "delayed_write"


@dataclass(frozen=True, slots=True)
class KillServer:
    """Kill one region server, either at a fixed op count or randomly.

    Exactly one of ``after_ops`` (deterministic trigger on the K-th
    store operation) and ``probability`` (per-operation coin flip using
    the plan's seed) must be set.
    """

    server: int
    after_ops: int | None = None
    probability: float | None = None
    corruption: CorruptionMode = CorruptionMode.NONE
    #: Records dropped off the synced log tail under DELAYED_WRITE.
    delayed_records: int = 4
    #: Leave the regions unavailable until an explicit failover call
    #: (clients see RegionUnavailableError in the window).
    defer_failover: bool = False

    def __post_init__(self):
        if (self.after_ops is None) == (self.probability is None):
            raise ValueError(
                "KillServer needs exactly one of after_ops/probability")
        if self.after_ops is not None and self.after_ops < 1:
            raise ValueError("after_ops must be >= 1")
        if self.probability is not None and \
                not 0.0 < self.probability <= 1.0:
            raise ValueError("probability must be in (0, 1]")

    @property
    def lost_tail_records(self) -> int:
        if self.corruption is CorruptionMode.TORN_TAIL:
            return 1
        if self.corruption is CorruptionMode.DELAYED_WRITE:
            return self.delayed_records
        return 0


#: Region-level operations gray faults can target by default.
GRAY_OPS = ("get", "put", "scan")


@dataclass(frozen=True, slots=True)
class SlowServer:
    """Gray failure: every operation on one server pays extra latency.

    An operation is one region visit: a put or get, or one scan
    reaching a region on the server — once per region, however many key
    ranges the scan carries.  The latency is simulated-clock
    milliseconds charged to the active request's deadline/job
    (``latency_ms`` plus a seeded uniform draw from ``[0, jitter_ms)``),
    so a slow server inflates statement tail latency exactly the way a
    saturated region server would.  The fault activates after
    ``after_ops`` region operations and, when ``duration_ops`` is set,
    heals after that many more.
    """

    server: int
    latency_ms: float
    jitter_ms: float = 0.0
    after_ops: int = 0
    duration_ops: int | None = None
    ops: tuple[str, ...] = GRAY_OPS

    def __post_init__(self):
        if self.latency_ms < 0 or self.jitter_ms < 0:
            raise ValueError("latency_ms and jitter_ms must be >= 0")
        if self.after_ops < 0:
            raise ValueError("after_ops must be >= 0")
        if self.duration_ops is not None and self.duration_ops < 1:
            raise ValueError("duration_ops must be >= 1")


@dataclass(frozen=True, slots=True)
class IntermittentError:
    """Gray failure: a server's regions fail a fraction of operations.

    Each targeted operation independently raises
    :class:`~repro.errors.RegionUnavailableError` with ``probability``
    (seeded, deterministic for a fixed op sequence) — a flapping server
    that clients must retry around, back off from, and eventually
    circuit-break on.  Activation window as in :class:`SlowServer`.
    """

    server: int
    probability: float
    after_ops: int = 0
    duration_ops: int | None = None
    ops: tuple[str, ...] = GRAY_OPS

    def __post_init__(self):
        if not 0.0 < self.probability <= 1.0:
            raise ValueError("probability must be in (0, 1]")
        if self.after_ops < 0:
            raise ValueError("after_ops must be >= 0")
        if self.duration_ops is not None and self.duration_ops < 1:
            raise ValueError("duration_ops must be >= 1")


#: Gray-failure fault types (server stays up; behaviour degrades).
GRAY_FAULTS = (SlowServer, IntermittentError)


@dataclass(frozen=True, slots=True)
class PartitionedFollower:
    """WAL shipping to ``server`` is blocked (a network partition).

    Replication traffic *to* the server fails while the server itself
    stays healthy: a sender keeps the records queued (per-replica lag
    grows) and re-ships them once the partition heals.  Activates after
    ``after_ships`` shipped records; with ``duration_ships`` set it
    heals after that many more ship attempts.
    """

    server: int
    after_ships: int = 0
    duration_ships: int | None = None

    def __post_init__(self):
        if self.after_ships < 0:
            raise ValueError("after_ships must be >= 0")
        if self.duration_ships is not None and self.duration_ships < 1:
            raise ValueError("duration_ships must be >= 1")


@dataclass(frozen=True, slots=True)
class LossyShipping:
    """Each WAL record shipped to ``server`` is dropped with
    ``probability`` (seeded).

    A drop during lazy shipping leaves a gap in the follower's stream
    (the sender has moved on), tearing the replica until anti-entropy
    rebuilds it; a drop during a synchronous quorum ship is just a
    failed ack — the sender still holds the record and retries.
    Activation window as in :class:`PartitionedFollower`.
    """

    server: int
    probability: float
    after_ships: int = 0
    duration_ships: int | None = None

    def __post_init__(self):
        if not 0.0 < self.probability <= 1.0:
            raise ValueError("probability must be in (0, 1]")
        if self.after_ships < 0:
            raise ValueError("after_ships must be >= 0")
        if self.duration_ships is not None and self.duration_ships < 1:
            raise ValueError("duration_ships must be >= 1")


#: Replication-link fault types (affect WAL shipping, not the server).
SHIP_FAULTS = (PartitionedFollower, LossyShipping)


@dataclass(frozen=True, slots=True)
class FaultPlan:
    """A seeded schedule of faults for one store's lifetime.

    ``faults`` may mix fail-stop :class:`KillServer` entries with gray
    :class:`SlowServer` / :class:`IntermittentError` entries and
    replication-link :class:`PartitionedFollower` /
    :class:`LossyShipping` entries.
    """

    faults: tuple = ()
    seed: int = 0
    #: Which store operations advance the op counter and can trigger
    #: probabilistic faults ("put" covers deletes too).
    ops: tuple[str, ...] = ("put",)

    def __init__(self, faults=(), seed: int = 0, ops=("put",)):
        object.__setattr__(self, "faults", tuple(faults))
        object.__setattr__(self, "seed", seed)
        object.__setattr__(self, "ops", tuple(ops))

    @classmethod
    def kill_after(cls, server: int, ops: int, **kwargs) -> "FaultPlan":
        """Shorthand: kill ``server`` right after the ``ops``-th write."""
        return cls([KillServer(server, after_ops=ops, **kwargs)])

