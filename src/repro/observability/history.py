"""Metrics time-series history: bounded retention + window queries.

The :class:`MetricsRegistry` is point-in-time; this module adds the
retained dimension a monitoring pipeline needs.  A
:class:`MetricsScraper` chore runs on the simulated clock (the same
``maybe_tick`` pattern as the balancer and replication anti-entropy
chores) and samples every registry series into a :class:`MetricsHistory`
— a per-series ring of ``(sim_ms, value)`` points organised in
**stride-downsampling tiers**: tier 0 keeps every scrape, tier 1 every
8th, tier 2 every 64th, each in its own bounded ring.  Recent history is
dense, old history is sparse, and memory is O(tiers × capacity) per
series no matter how long the cluster runs — the same shape as
Prometheus retention + recording rules or an RRDtool archive set.

The window query, ``increase``, is **counter-reset aware**: a sample
smaller than its predecessor means the process restarted (failover,
promote), and the new value counts as growth from zero instead of
producing a negative rate — Prometheus ``increase()`` semantics.  Its
cost does not grow with uptime: rings are time-ordered, so a window is
found by bisection, and counter rings carry running totals, so it
reads two points.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field

from repro.observability.metrics import Counter, Histogram

#: Default downsampling tiers as ``(stride, capacity)``: a scrape is
#: recorded into every tier whose stride divides its index.  With a
#: 250 sim-ms scrape interval this retains ~2 min of raw points,
#: ~17 min at 2 s resolution and ~2.3 h at 16 s resolution.
DEFAULT_TIERS: tuple[tuple[int, int], ...] = ((1, 512), (8, 512),
                                              (64, 512))


def _growth(prev: float, cur: float) -> float:
    """Reset-aware growth between adjacent samples: a drop is a counter
    reset (restart or failover re-registration), so the post-reset
    value is growth from zero.  Growth before the reset that the
    previous sample had not yet seen is lost, as in Prometheus."""
    delta = cur - prev
    return delta if delta >= 0 else cur


class Ring:
    """One retention tier: the newest ``capacity`` points, as columns.

    ``ts`` never decreases, so a window is two bisections.  A counter
    ring also keeps ``totals`` (unboxed doubles): each point's
    reset-adjusted running total of growth from its tier predecessor,
    so ``increase`` between two retained points is the difference of
    their totals.  Gauge rings keep only ``(ts, value)``.  Evicted
    points stay in the lists until ``capacity // 8 + 1`` of them have
    gathered and are then deleted in one slice, so an append never
    shifts the columns.  Points are appended by :func:`record_points`.
    """

    __slots__ = ("capacity", "first", "ts", "values", "totals")

    def __init__(self, capacity: int, counter: bool):
        self.capacity = capacity
        #: Index of the oldest retained point.
        self.first = 0
        self.ts: list[float] = []
        self.values: list[float] = []
        self.totals: array | None = array("d") if counter else None

    def __len__(self) -> int:
        return len(self.ts) - self.first

    def evict(self) -> None:
        """Retire the oldest retained point (one past ``capacity``)."""
        self.first += 1
        if self.first > self.capacity // 8:
            del self.ts[:self.first], self.values[:self.first]
            if self.totals is not None:
                del self.totals[:self.first]
            self.first = 0

    def increase(self, lo: int, hi: int) -> float:
        """Reset-aware growth from point ``lo`` to point ``hi - 1``."""
        if hi - lo < 2:
            return 0.0
        if self.totals is not None:
            return self.totals[hi - 1] - self.totals[lo]
        total = 0.0  # a gauge ring keeps no totals: walk the window
        values = self.values
        for i in range(lo + 1, hi):
            total += _growth(values[i - 1], values[i])
        return total


@dataclass
class Series:
    """One metric series: tiered :class:`Ring` columns of points."""

    name: str
    kind: str  # "counter" | "gauge"
    tiers: tuple[tuple[int, int], ...] = DEFAULT_TIERS
    rings: list[Ring] = field(default_factory=list)
    samples: int = 0  # total points ever recorded (drives tier strides)
    last_ms: float = -float("inf")
    #: ``(stride, ring)`` per tier.
    strided: tuple[tuple[int, Ring], ...] = field(
        init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.rings:
            self.rings = [Ring(capacity, self.kind == "counter")
                          for _stride, capacity in self.tiers]
        self.strided = tuple((stride, ring) for (stride, _capacity), ring
                             in zip(self.tiers, self.rings))

    def record(self, sim_ms: float, value: float) -> None:
        record_points(sim_ms, ((self, value),))

    def _span(self, start_ms: float | None, end_ms: float | None,
              baseline: bool) -> tuple[Ring | None, int, int]:
        """``(ring, lo, hi)``: the window is ``ring``'s ``[lo, hi)``.

        Tier selection mirrors a Prometheus federation of retention
        tiers: use the densest tier whose retained range still reaches
        back to ``start_ms``; when no tier covers the window, fall back
        to whichever tier reaches furthest back (densest on ties, so a
        young series is always served raw).  With ``baseline`` the
        window starts one point early, at the last one before
        ``start_ms``.
        """
        chosen = None
        for ring in self.rings:
            if ring.first == len(ring.ts):
                continue
            oldest = ring.ts[ring.first]
            if start_ms is not None and oldest <= start_ms:
                chosen = ring
                break
            if chosen is None or oldest < chosen.ts[chosen.first]:
                chosen = ring
        if chosen is None:
            return None, 0, 0
        lo, hi = chosen.first, len(chosen.ts)
        if start_ms is not None:
            lo = bisect_left(chosen.ts, start_ms, lo, hi)
        if end_ms is not None:
            hi = bisect_right(chosen.ts, end_ms, lo, hi)
        if baseline and start_ms is not None and lo > chosen.first:
            lo -= 1
        return chosen, lo, hi

    def increase(self, start_ms: float, end_ms: float) -> float:
        """Reset-aware growth over ``[start_ms, end_ms]``, from the
        baseline point entering the window; never < 0 on a counter."""
        ring, lo, hi = self._span(start_ms, end_ms, baseline=True)
        return ring.increase(lo, hi) if ring is not None else 0.0


def record_points(sim_ms: float, points) -> None:
    """Record ``(series, value)`` points, all taken at ``sim_ms``.

    A point lands in every tier whose stride divides its series' sample
    index.  The ring appends are inline: one scrape is one loop over
    its points, not three calls per point.
    """
    for series, value in points:
        if sim_ms < series.last_ms:
            raise ValueError(f"series {series.name!r}: point at {sim_ms} "
                             f"sim-ms precedes {series.last_ms}")
        series.last_ms = sim_ms
        index = series.samples
        series.samples = index + 1
        for stride, ring in series.strided:
            if index % stride:
                continue
            values = ring.values
            totals = ring.totals
            if totals is not None:
                if totals:
                    delta = value - values[-1]  # _growth, inline
                    totals.append(totals[-1]
                                  + (delta if delta >= 0 else value))
                else:
                    totals.append(0.0)
            ring.ts.append(sim_ms)
            values.append(value)
            if len(values) - ring.first > ring.capacity:
                ring.evict()


class MetricsHistory:
    """All retained series and the windowed ``increase`` query."""

    def __init__(self,
                 tiers: tuple[tuple[int, int], ...] = DEFAULT_TIERS):
        self.tiers = tuple(tiers)
        self.series: dict[str, Series] = {}

    def record_scrape(self, sim_ms: float, points) -> None:
        """Record ``(name, kind, value)`` points, all taken at ``sim_ms``;
        a name seen for the first time starts a series of that kind."""
        series = self.series
        record_points(sim_ms, [
            (series.get(name) or self._add(name, kind), value)
            for name, kind, value in points])

    def _add(self, name: str, kind: str) -> Series:
        series = self.series[name] = Series(name, kind, self.tiers)
        return series

    def names(self, prefix: str = "") -> list[str]:
        return sorted(n for n in self.series if n.startswith(prefix))

    def __len__(self) -> int:
        return len(self.series)

    def increase(self, name: str, window_ms: float,
                 now_ms: float) -> float:
        """Reset-aware growth of ``name`` over the ``window_ms`` ending
        at ``now_ms``.

        It starts from the baseline sample entering the window, so it
        stays exact when the window holds fewer than two scrapes, and it
        costs two bisections at any uptime.
        """
        series = self.series.get(name)
        if series is None:
            return 0.0
        return series.increase(now_ms - window_ms, now_ms)

    def rows(self, name: str | None = None,
             start_ms: float | None = None) -> list[dict]:
        """``sys.metrics_history`` rows: every retained point, per tier.

        ``rate_per_s`` is the reset-aware rate between a point and its
        tier predecessor (NULL for gauges and for each tier's first
        retained point), so plain JustQL ``WHERE``/``GROUP BY`` over
        this table is already a windowed rate query.  ``start_ms``
        drops older points; each ring is entered by bisection.
        """
        out: list[dict] = []
        names = [name] if name is not None else self.names()
        for series_name in names:
            series = self.series.get(series_name)
            if series is None:
                continue
            counter = series.kind == "counter"
            for tier, ring in enumerate(series.rings):
                ts, values = ring.ts, ring.values
                lo = ring.first
                if start_ms is not None:
                    lo = bisect_left(ts, start_ms, lo)
                for i in range(lo, len(ts)):
                    rate = None
                    if counter and i > ring.first:
                        # From the pair itself, not the running totals,
                        # so a float counter's rate is exact too.
                        elapsed_ms = ts[i] - ts[i - 1]
                        rate = (0.0 if elapsed_ms <= 0 else
                                _growth(values[i - 1], values[i])
                                / (elapsed_ms / 1000.0))
                    out.append({"name": series_name,
                                "kind": series.kind, "tier": tier,
                                "ts_ms": round(ts[i], 3),
                                "value": values[i],
                                "rate_per_s":
                                    None if rate is None
                                    else round(rate, 6)})
        return out


def suffixed_key(key: str, suffix: str) -> str:
    """Attach ``_suffix`` to a flattened key's *name*, before labels."""
    base, brace, labels = key.partition("{")
    return f"{base}_{suffix}{brace}{labels}"


#: Modeled simulated cost of one scrape: a fixed part plus one per
#: series recorded.
SCRAPE_BASE_COST_MS = 0.05
SCRAPE_COST_PER_SERIES_MS = 0.002


class MetricsScraper:
    """Simulated-clock chore sampling the registry into the history.

    Runs from ``JustServer._observe_statement`` via :meth:`maybe_tick`,
    like the balancer and anti-entropy chores.  Each scrape walks every
    registry series; histograms are exploded into counter series
    (``_count``, ``_sum``, cumulative ``_bucket_le_*``) and gauge
    series (``_p50``/``_p95``/``_p99``), so the SLO layer can take
    exact windowed increases over latency distributions.  The exploded
    keys are formatted once per histogram, and the whole scrape is
    recorded in one :meth:`MetricsHistory.record_scrape`.

    Scraping is not free in real clusters and is not free here: each
    tick charges a modeled cost (``SCRAPE_BASE_COST_MS`` +
    ``SCRAPE_COST_PER_SERIES_MS`` per recorded series) onto the shared
    simulated clock and accounts it in ``total_scrape_ms`` so the
    benchmark can report monitoring overhead honestly.
    """

    def __init__(self, registry, events, history: MetricsHistory,
                 interval_ms: float = 250.0):
        self.registry = registry
        self.events = events
        self.history = history
        self.interval_ms = interval_ms
        self.scrapes = 0
        self.total_scrape_ms = 0.0
        #: Series recorded by the latest scrape.
        self.series = 0
        self._last_run_ms = -float("inf")
        #: Series keys of each histogram, by registry key.
        self._exploded: dict[str, tuple] = {}

        def scrapes():
            return self.scrapes

        registry.expose("monitor.scrapes", scrapes)
        registry.expose("monitor.scrape_ms", lambda: self.total_scrape_ms)
        registry.expose("monitor.series", lambda: self.series,
                        kind="gauge", since=scrapes)

    def maybe_tick(self) -> bool:
        now = self.events.now_ms
        if now - self._last_run_ms < self.interval_ms:
            return False
        self.tick()
        return True

    def tick(self) -> None:
        now = self.events.now_ms
        self._last_run_ms = now
        points: list[tuple[str, str, float]] = []
        append = points.append
        for key, metric in self.registry.items():
            if not isinstance(metric, Histogram):
                append((key, "counter" if isinstance(metric, Counter)
                        else "gauge", metric.value))
                continue
            # Histogram: explode into exact counters + quantile gauges.
            keys = self._exploded.get(key)
            if keys is None:
                keys = self._exploded[key] = _exploded_keys(key, metric)
            count_key, sum_key, quantile_keys, bucket_keys = keys
            append((count_key, "counter", metric.count))
            append((sum_key, "counter", metric.sum))
            for quantile_key, q in quantile_keys:
                append((quantile_key, "gauge", metric.quantile(q)))
            for bucket_key, (_bound, count) in zip(bucket_keys,
                                                   metric.bucket_counts()):
                append((bucket_key, "counter", count))
        self.history.record_scrape(now, points)
        recorded = len(points)
        cost = SCRAPE_BASE_COST_MS + SCRAPE_COST_PER_SERIES_MS * recorded
        self.scrapes += 1
        self.total_scrape_ms += cost
        self.series = recorded
        self.events.advance(cost)


def _exploded_keys(key: str, histogram: Histogram):
    """A histogram's series keys: ``_count``, ``_sum``, the quantile
    gauges with their quantile, and one ``_bucket_le_*`` per bound."""
    return (suffixed_key(key, "count"), suffixed_key(key, "sum"),
            tuple((suffixed_key(key, name), q)
                  for name, q in (("p50", 0.50), ("p95", 0.95),
                                  ("p99", 0.99))),
            tuple(suffixed_key(key, f"bucket_le_{bound:g}")
                  for bound in histogram.buckets))
