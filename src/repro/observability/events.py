"""Structured cluster event log (the HBase master-UI events analogue).

Background work in the engine — flushes, compactions, splits, failovers,
WAL checkpoints — and service-level incidents — breaker trips, admission
sheds, session expiries — used to happen silently.  This module gives
each of them a typed event, stamped with a sequence number and the
cluster's *simulated* clock, collected in a bounded ring:

* :class:`EventLog` — the ring.  One instance per engine, threaded into
  the kvstore and the service layer; ``emit`` stamps, ``events`` /
  ``rows`` read back, ``total_by_kind`` survives ring eviction.
  The log also owns the cluster-wide simulated clock (``now_ms``),
  advanced by the service layer with each statement's simulated cost,
  so event timestamps line up with query latencies.
* The ``*Event`` dataclasses — one per phenomenon, each carrying the
  fields an operator would want on a dashboard, plus a uniform
  :meth:`Event.row` projection feeding the ``sys.events`` system table.
* :class:`DecayedRate` — an exponentially-decayed per-second rate on
  the simulated clock, used for the per-region read/write hotness
  surfaced by ``sys.regions`` (HBase's per-region request counts).
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field, fields

DEFAULT_CAPACITY = 1024


@dataclass
class Event:
    """Base for all cluster events.

    ``seq`` and ``sim_ms`` are stamped by :meth:`EventLog.emit`;
    subclasses set ``kind`` as a plain class attribute and declare their
    payload fields.
    """

    kind = "event"
    seq: int = field(default=0, init=False)
    sim_ms: float = field(default=0.0, init=False)

    #: Fields every event exposes as first-class ``sys.events`` columns
    #: (absent ones render as empty string / None).
    _ROW_FIELDS = ("table", "region_id", "server")

    def row(self) -> dict:
        """The uniform ``sys.events`` row: shared columns + ``detail``."""
        detail = []
        for f in fields(self):
            if f.name in ("seq", "sim_ms") or f.name in self._ROW_FIELDS:
                continue
            detail.append(f"{f.name}={getattr(self, f.name)}")
        return {"seq": self.seq,
                "sim_ms": round(self.sim_ms, 3),
                "kind": self.kind,
                "table": getattr(self, "table", ""),
                "region_id": getattr(self, "region_id", None),
                "server": getattr(self, "server", None),
                "detail": " ".join(detail)}


@dataclass
class FlushEvent(Event):
    """A region flushed its memstore into a new SSTable."""

    kind = "flush"
    table: str = ""
    region_id: int = 0
    server: int = 0
    bytes_flushed: int = 0
    entries: int = 0


@dataclass
class WalCheckpointEvent(Event):
    """A flush checkpointed the region's WAL up to ``seqno``."""

    kind = "wal_checkpoint"
    table: str = ""
    region_id: int = 0
    server: int = 0
    seqno: int = 0


@dataclass
class CompactionEvent(Event):
    """A region merged its SSTable runs into one."""

    kind = "compaction"
    table: str = ""
    region_id: int = 0
    server: int = 0
    runs: int = 0
    read_bytes: int = 0
    bytes_after: int = 0


@dataclass
class SplitEvent(Event):
    """A region split into two daughters at ``split_key``."""

    kind = "split"
    table: str = ""
    region_id: int = 0
    server: int = 0
    left_region_id: int = 0
    right_region_id: int = 0
    split_key: str = ""


@dataclass
class RegionMovedEvent(Event):
    """The balancer moved a region to ``server`` (from ``from_server``).

    The shared ``server`` column reports the *destination* — where the
    region lives after the event — matching ``sys.regions``.
    """

    kind = "region_move"
    table: str = ""
    region_id: int = 0
    server: int = 0
    from_server: int = 0
    bytes_moved: int = 0
    move_ms: float = 0.0


@dataclass
class RegionMergedEvent(Event):
    """Two cold adjacent regions were merged into ``region_id``."""

    kind = "region_merge"
    table: str = ""
    region_id: int = 0
    server: int = 0
    left_region_id: int = 0
    right_region_id: int = 0
    bytes_after: int = 0


@dataclass
class BalancerRunEvent(Event):
    """One balancer loop iteration: what it saw and what it did."""

    kind = "balancer_run"
    run: int = 0
    moves: int = 0
    splits: int = 0
    merges: int = 0
    imbalance_before: float = 0.0
    imbalance_after: float = 0.0


@dataclass
class FailoverEvent(Event):
    """A crashed server's regions were reassigned and WAL-replayed."""

    kind = "failover"
    server: int = 0
    regions_reassigned: int = 0
    replayed_records: int = 0
    discarded_records: int = 0
    recovery_ms: float = 0.0


@dataclass
class ReplicaPromotedEvent(Event):
    """A follower replica was promoted to primary after a crash.

    The shared ``server`` column reports the promoted follower's server —
    where the region's primary lives after the event; ``from_server`` is
    the crashed primary.  ``catchup_records`` is how many surviving
    primary-WAL records the promoted replica had not yet applied and
    replayed during promotion (its replication lag at the crash).
    """

    kind = "replica_promote"
    table: str = ""
    region_id: int = 0
    server: int = 0
    from_server: int = 0
    applied_seqno: int = 0
    catchup_records: int = 0


@dataclass
class ReplicaLagEvent(Event):
    """A follower replica's shipping lag crossed the alert threshold."""

    kind = "replica_lag"
    table: str = ""
    region_id: int = 0
    server: int = 0
    lag_records: int = 0


@dataclass
class ReplicaRebuildEvent(Event):
    """The anti-entropy chore rebuilt a follower from the primary."""

    kind = "replica_rebuild"
    table: str = ""
    region_id: int = 0
    server: int = 0
    records_copied: int = 0


@dataclass
class BreakerTripEvent(Event):
    """A client circuit breaker opened after consecutive failures."""

    kind = "breaker_trip"
    consecutive_failures: int = 0


@dataclass
class AdmissionShedEvent(Event):
    """The admission controller shed a statement instead of queueing."""

    kind = "admission_shed"
    scope: str = ""
    count: int = 0
    limit: int = 0


@dataclass
class SessionExpiredEvent(Event):
    """An idle user session was expired by the server."""

    kind = "session_expired"
    user: str = ""
    session_id: str = ""
    idle_s: float = 0.0


@dataclass
class GeofenceAlertEvent(Event):
    """A streamed object entered or exited an active geofence."""

    kind = "geofence_alert"
    table: str = ""      # the fence plugin table
    alert: str = ""      # "enter" | "exit"
    gid: str = ""
    object_id: str = ""
    lng: float = 0.0
    lat: float = 0.0


@dataclass
class SloBurnEvent(Event):
    """An SLO started burning error budget fast enough to alert on."""

    kind = "slo_burn"
    slo: str = ""
    severity: str = ""       # burn window severity ("page" | "ticket")
    burn_short: float = 0.0  # burn rate over the short window
    burn_long: float = 0.0   # burn rate over the long window
    threshold: float = 0.0   # the window's burn-rate factor


@dataclass
class AlertEvent(Event):
    """An SLO alert changed state (pending → firing → resolved)."""

    kind = "alert"
    slo: str = ""
    severity: str = ""
    state: str = ""          # "firing" | "resolved"
    burn_short: float = 0.0
    burn_long: float = 0.0
    trace_id: str = ""       # exemplar trace of an offending query


class EventLog:
    """Bounded, simulated-clock-stamped ring of typed cluster events.

    Oldest events are dropped first once ``capacity`` is reached;
    ``total_by_kind`` keeps exact lifetime counts regardless.
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._events: deque[Event] = deque(maxlen=capacity)
        self._seq = 0
        #: The cluster-wide simulated clock, in milliseconds.
        self.now_ms = 0.0
        #: Lifetime emit counts per kind (survive ring eviction).
        self.total_by_kind: dict[str, int] = {}

    def advance(self, ms: float) -> None:
        """Advance the simulated clock (e.g. by one statement's cost)."""
        if ms > 0:
            self.now_ms += ms

    def emit(self, event: Event) -> Event:
        """Stamp ``event`` with the next seq + current clock and store it."""
        self._seq += 1
        event.seq = self._seq
        event.sim_ms = self.now_ms
        self._events.append(event)
        self.total_by_kind[event.kind] = \
            self.total_by_kind.get(event.kind, 0) + 1
        return event

    @property
    def total_emitted(self) -> int:
        return self._seq

    def events(self, kind: str | None = None) -> list[Event]:
        if kind is None:
            return list(self._events)
        return [e for e in self._events if e.kind == kind]

    def rows(self) -> list[dict]:
        """``sys.events`` rows, oldest first."""
        return [e.row() for e in self._events]

    def __len__(self) -> int:
        return len(self._events)


class DecayedRate:
    """Exponentially-decayed events-per-second on the simulated clock.

    Each recorded event adds weight 1; weight decays as
    ``exp(-dt / tau_ms)``, so the rate estimate forgets old traffic with
    time constant ``tau_ms``.  With a stalled clock nothing decays —
    a region that was just read keeps a positive rate, which is what the
    ``sys.regions`` hotness columns want.
    """

    __slots__ = ("tau_ms", "weight", "last_ms")

    def __init__(self, tau_ms: float = 30_000.0):
        self.tau_ms = tau_ms
        self.weight = 0.0
        self.last_ms = 0.0

    def _decay_to(self, now_ms: float) -> None:
        dt = now_ms - self.last_ms
        if dt > 0:
            self.weight *= math.exp(-dt / self.tau_ms)
            self.last_ms = now_ms

    def record(self, now_ms: float, amount: float = 1.0) -> None:
        self._decay_to(now_ms)
        self.weight += amount

    def rate_per_s(self, now_ms: float | None = None) -> float:
        if now_ms is not None:
            self._decay_to(now_ms)
        return self.weight / (self.tau_ms / 1000.0)
