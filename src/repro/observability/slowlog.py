"""A bounded slow-query log on the simulated clock.

The service layer records every statement whose simulated latency
crossed a configurable threshold — the MySQL slow-query-log /
HBase ``responseTooSlow`` role.  Entries keep the statement, the user,
the latency breakdown, and (when profiling is on) the statement's trace,
so a slow query can be attributed to a layer without re-running it.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

#: Default threshold: the paper's interactive queries sit well under a
#: second of simulated time; anything slower deserves a log line.
DEFAULT_SLOW_MS = 1000.0
DEFAULT_CAPACITY = 128


@dataclass
class SlowQueryEntry:
    """One over-threshold statement."""

    statement: str
    user: str
    sim_ms: float
    breakdown: dict[str, float] = field(default_factory=dict)
    profile: dict | None = None
    seq: int = 0
    trace_id: str = ""

    def as_dict(self) -> dict:
        out = {"seq": self.seq, "user": self.user,
               "statement": self.statement,
               "trace_id": self.trace_id,
               "sim_ms": round(self.sim_ms, 3),
               "breakdown": {k: round(v, 3)
                             for k, v in self.breakdown.items()}}
        if self.profile is not None:
            out["profile"] = self.profile
        return out


class SlowQueryLog:
    """Ring buffer of slow statements; disabled with ``threshold_ms=None``."""

    def __init__(self, threshold_ms: float | None = DEFAULT_SLOW_MS,
                 capacity: int = DEFAULT_CAPACITY):
        self.threshold_ms = threshold_ms
        self._entries: deque[SlowQueryEntry] = deque(maxlen=capacity)
        self._seq = 0
        #: Total over-threshold statements seen (survives ring eviction).
        self.total_logged = 0

    @property
    def enabled(self) -> bool:
        return self.threshold_ms is not None

    def observe(self, statement: str, user: str, sim_ms: float,
                job=None, profile=None) -> SlowQueryEntry | None:
        """Log the statement when it crossed the threshold.

        ``job`` (its ``breakdown``) and ``profile`` (a ``QueryProfile``)
        are rendered only for a statement that makes an entry.
        """
        if self.threshold_ms is None or sim_ms < self.threshold_ms:
            return None
        self._seq += 1
        self.total_logged += 1
        entry = SlowQueryEntry(
            statement, user, sim_ms,
            dict(job.breakdown) if job is not None else {},
            profile.as_dict() if profile is not None else None,
            seq=self._seq,
            trace_id=profile.trace_id if profile is not None else "")
        self._entries.append(entry)
        return entry

    def entries(self) -> list[SlowQueryEntry]:
        return list(self._entries)

    def as_dicts(self) -> list[dict]:
        return [e.as_dict() for e in self._entries]

    def __len__(self) -> int:
        return len(self._entries)
