"""Per-statement trace profiles (service → SQL operator → region scan).

A :class:`QueryProfile` is attached to the statement's
:class:`~repro.resilience.RequestContext`; instrumentation points open
nested :class:`Span` objects around physical operators while leaf events
(per-region scans) attach to whatever span is current.  The result is an
OpenTelemetry-shaped trace on the simulated clock: every span carries
rows, blocks read, cache hits, and simulated milliseconds, and
``EXPLAIN ANALYZE`` renders the operator spans as an annotated plan
tree.
"""

from __future__ import annotations

import itertools
from contextlib import contextmanager

#: Deterministic OTel-shaped id generators: 128-bit trace ids and
#: 64-bit span ids rendered as fixed-width hex.  A process-local
#: counter (not a PRNG) keeps replays and tests reproducible.
_TRACE_IDS = itertools.count(1)
_SPAN_IDS = itertools.count(1)


def next_trace_id() -> str:
    return f"{next(_TRACE_IDS):032x}"


def next_span_id() -> str:
    return f"{next(_SPAN_IDS):016x}"


class Span:
    """One node of a statement's trace tree.

    ``sim_ms`` and the I/O attributes are *inclusive* of children (a
    scan operator's span covers its region-scan events), matching how
    EXPLAIN ANALYZE tools report operator timings.
    """

    __slots__ = ("name", "kind", "attrs", "sim_ms", "children",
                 "span_id", "parent_id")

    def __init__(self, name: str, kind: str = "span", **attrs):
        self.name = name
        self.kind = kind
        self.attrs = attrs
        self.sim_ms = 0.0
        self.children: list[Span] = []
        self.span_id = next_span_id()
        self.parent_id = ""

    @property
    def rows(self) -> int:
        return self.attrs.get("rows_out", self.attrs.get("rows", 0))

    @property
    def blocks_read(self) -> int:
        return self.attrs.get("blocks_read", 0)

    @property
    def cache_hits(self) -> int:
        return self.attrs.get("cache_hits", 0)

    @property
    def cache_hit_rate(self) -> float | None:
        """Block-cache hit ratio over the blocks this span touched."""
        touched = self.blocks_read + self.cache_hits
        if touched == 0:
            return None
        return self.cache_hits / touched

    def as_dict(self) -> dict:
        out = {"name": self.name, "kind": self.kind,
               "span_id": self.span_id, "parent_id": self.parent_id,
               "sim_ms": round(self.sim_ms, 3)}
        out.update(self.attrs)
        if self.children:
            out["children"] = [c.as_dict() for c in self.children]
        return out

    def walk(self, depth: int = 0):
        yield depth, self
        for child in self.children:
            yield from child.walk(depth + 1)

    def __repr__(self) -> str:
        return f"Span({self.name!r}, {self.sim_ms:.1f} ms, " \
               f"{len(self.children)} children)"


class QueryProfile:
    """The trace of one statement, rooted at the service-layer span."""

    def __init__(self, statement: str = "", user: str = ""):
        self.statement = statement
        self.user = user
        self.trace_id = next_trace_id()
        self.root = Span("statement", kind="service",
                         statement=statement, user=user)
        self._stack: list[Span] = [self.root]

    @property
    def current(self) -> Span:
        return self._stack[-1]

    @contextmanager
    def span(self, name: str, kind: str = "span", **attrs):
        """Open a nested span; instrumentation fills attrs before exit."""
        span = Span(name, kind, **attrs)
        span.parent_id = self.current.span_id
        self.current.children.append(span)
        self._stack.append(span)
        try:
            yield span
        finally:
            self._stack.pop()

    def add_event(self, name: str, kind: str = "event", **attrs) -> Span:
        """Attach a leaf span to the current span without nesting into it.

        Used from generators (the store's region iteration), where a
        ``with``-scoped span would be suspended across ``yield`` and
        could interleave badly with the consumer's own spans.
        """
        span = Span(name, kind, **attrs)
        span.parent_id = self.current.span_id
        self.current.children.append(span)
        return span

    def finish(self, sim_ms: float, rows: int | None = None) -> None:
        """Seal the root span with the statement's totals."""
        self.root.sim_ms = sim_ms
        if rows is not None:
            self.root.attrs["rows"] = rows

    # -- reporting -----------------------------------------------------------
    @property
    def sim_ms(self) -> float:
        return self.root.sim_ms

    def as_dict(self) -> dict:
        return {"statement": self.statement, "user": self.user,
                "trace_id": self.trace_id,
                "sim_ms": round(self.root.sim_ms, 3),
                "trace": self.root.as_dict()}

    def pretty(self) -> str:
        lines = []
        for depth, span in self.root.walk():
            rate = span.cache_hit_rate
            rate_text = "-" if rate is None else f"{rate:.0%}"
            rejected = span.attrs.get("rejected")
            rejected_text = f" rejected={rejected}" if rejected else ""
            lines.append(f"{'  ' * depth}{span.name}  "
                         f"rows={span.rows}{rejected_text} "
                         f"blocks={span.blocks_read} "
                         f"cache={rate_text} sim_ms={span.sim_ms:.2f}")
        return "\n".join(lines)


def analyze_rows(profile: QueryProfile) -> list[dict]:
    """EXPLAIN ANALYZE rows: one per operator/region-scan span.

    Columns mirror what HBase+Spark tooling would report per operator:
    output rows, row batches processed (source batches for a scan, the
    batches backing the output frame for every other operator), HFile
    blocks read from disk, block-cache hits, the hit rate over
    touched blocks, and inclusive simulated milliseconds.  A region
    scan that rejected keys on its scan's ``key_filter`` says how many
    (``rejected=``, beside its ``rows``: the ones that passed).
    """
    rows = []
    for depth, span in profile.root.walk():
        if span.kind not in ("operator", "region_scan"):
            continue
        # Depth relative to the first operator keeps the service span
        # out of the indentation budget.
        rate = span.cache_hit_rate
        name = span.name
        decoded = span.attrs.get("decoded_fields")
        if decoded is not None:  # a table scan: what it materialized
            name += " decoded=" + (
                decoded if decoded == "*" else f"[{', '.join(decoded)}]")
        if span.attrs.get("rejected"):  # keys its key_filter turned away
            name += f" rejected={span.attrs['rejected']}"
        rows.append({
            "operator": "  " * (depth - 1) + name,
            "rows": span.rows,
            "batches": span.attrs.get("batches", 0),
            "blocks_read": span.blocks_read,
            "cache_hits": span.cache_hits,
            "cache_hit_rate": None if rate is None else round(rate, 3),
            "sim_ms": round(span.sim_ms, 3),
        })
    return rows
