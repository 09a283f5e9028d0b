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

Window queries (:func:`increase`, :func:`rate_per_s`,
:func:`avg_over_time`, …) are **counter-reset aware**: a sample smaller
than its predecessor means the process restarted (failover, promote),
and the new value counts as growth from zero instead of producing a
negative rate — Prometheus ``rate()`` semantics.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from repro.observability.metrics import Counter, Histogram

#: Default downsampling tiers as ``(stride, capacity)``: a scrape is
#: recorded into every tier whose stride divides its index.  With a
#: 250 sim-ms scrape interval this retains ~2 min of raw points,
#: ~17 min at 2 s resolution and ~2.3 h at 16 s resolution.
DEFAULT_TIERS: tuple[tuple[int, int], ...] = ((1, 512), (8, 512),
                                              (64, 512))


# -- window functions over point lists ----------------------------------------

def increase(points: list[tuple[float, float]]) -> float:
    """Total counter growth across ``points``, reset-aware, never < 0.

    A drop between adjacent samples is a counter reset (restart or
    failover re-registration): the post-reset value is growth from
    zero.  Growth before the reset that the previous sample had not yet
    seen is unavoidably lost, exactly as in Prometheus ``increase()``.
    """
    total = 0.0
    for (_, prev), (_, cur) in zip(points, points[1:]):
        delta = cur - prev
        total += delta if delta >= 0 else cur
    return total


def rate_per_s(points: list[tuple[float, float]]) -> float:
    """Reset-aware per-second rate over ``points`` (0 if degenerate)."""
    if len(points) < 2:
        return 0.0
    elapsed_ms = points[-1][0] - points[0][0]
    if elapsed_ms <= 0:
        return 0.0
    return increase(points) / (elapsed_ms / 1000.0)


def avg_over_time(points: list[tuple[float, float]]) -> float:
    return (sum(v for _, v in points) / len(points)) if points else 0.0


def max_over_time(points: list[tuple[float, float]]) -> float:
    return max((v for _, v in points), default=0.0)


def min_over_time(points: list[tuple[float, float]]) -> float:
    return min((v for _, v in points), default=0.0)


def last_over_time(points: list[tuple[float, float]]) -> float:
    return points[-1][1] if points else 0.0


WINDOW_FUNCS = {
    "increase": increase,
    "rate": rate_per_s,
    "avg_over_time": avg_over_time,
    "max_over_time": max_over_time,
    "min_over_time": min_over_time,
    "last_over_time": last_over_time,
}


@dataclass
class Series:
    """One metric series: tiered rings of ``(sim_ms, value)`` points."""

    name: str
    kind: str  # "counter" | "gauge"
    tiers: tuple[tuple[int, int], ...] = DEFAULT_TIERS
    rings: list[deque] = field(default_factory=list)
    samples: int = 0  # total points ever recorded (drives tier strides)

    def __post_init__(self) -> None:
        if not self.rings:
            self.rings = [deque(maxlen=capacity)
                          for _stride, capacity in self.tiers]

    def record(self, sim_ms: float, value: float) -> None:
        index = self.samples
        self.samples += 1
        for (stride, _capacity), ring in zip(self.tiers, self.rings):
            if index % stride == 0:
                ring.append((sim_ms, value))

    def points(self, start_ms: float | None = None,
               end_ms: float | None = None,
               baseline: bool = False) -> list[tuple[float, float]]:
        """Points in ``[start_ms, end_ms]`` from the finest covering tier.

        Tier selection mirrors a Prometheus federation of retention
        tiers: use the densest tier whose retained range still reaches
        back to ``start_ms``; when no tier covers the window, fall back
        to whichever tier reaches furthest back (densest on ties, so a
        young series is always served raw).

        With ``baseline`` the last retained point *before* ``start_ms``
        is prepended.  Counters are step functions sampled at scrapes,
        so ``increase`` over a window is exact only against the value
        the counter held *entering* the window — without the baseline a
        window spanning fewer than two scrapes reads as zero growth,
        which starves short burn-rate windows whenever statements cost
        more simulated time than the window spans.
        """
        chosen = None
        for ring in self.rings:
            if not ring:
                continue
            if start_ms is not None and ring[0][0] <= start_ms:
                chosen = ring
                break
            if chosen is None or ring[0][0] < chosen[0][0]:
                chosen = ring
        if chosen is None:
            return []
        selected = [(ts, value) for ts, value in chosen
                    if (start_ms is None or ts >= start_ms)
                    and (end_ms is None or ts <= end_ms)]
        if baseline and start_ms is not None:
            before = None
            for ts, value in chosen:
                if ts >= start_ms:
                    break
                before = (ts, value)
            if before is not None:
                selected.insert(0, before)
        return selected

    def tier_points(self, tier: int) -> list[tuple[float, float]]:
        return list(self.rings[tier])


class MetricsHistory:
    """All retained series plus the PromQL-flavoured query helpers."""

    def __init__(self,
                 tiers: tuple[tuple[int, int], ...] = DEFAULT_TIERS):
        self.tiers = tuple(tiers)
        self.series: dict[str, Series] = {}

    def record(self, name: str, kind: str, sim_ms: float,
               value: float) -> None:
        series = self.series.get(name)
        if series is None:
            series = Series(name, kind, self.tiers)
            self.series[name] = series
        series.record(sim_ms, value)

    def get(self, name: str) -> Series | None:
        return self.series.get(name)

    def names(self, prefix: str = "") -> list[str]:
        return sorted(n for n in self.series if n.startswith(prefix))

    def __len__(self) -> int:
        return len(self.series)

    def window(self, name: str, start_ms: float | None,
               end_ms: float | None,
               baseline: bool = False) -> list[tuple[float, float]]:
        series = self.series.get(name)
        return (series.points(start_ms, end_ms, baseline=baseline)
                if series else [])

    def query(self, func: str, name: str, window_ms: float,
              now_ms: float) -> float:
        """``func(name[window_ms])`` evaluated at ``now_ms``.

        Counter deltas (``increase``/``rate``) use the baseline sample
        entering the window, so they stay exact when the window holds
        fewer than two scrapes; the ``*_over_time`` aggregations see
        only in-window points.
        """
        return WINDOW_FUNCS[func](
            self.window(name, now_ms - window_ms, now_ms,
                        baseline=func in ("increase", "rate")))

    def rate(self, name: str, window_ms: float, now_ms: float) -> float:
        return self.query("rate", name, window_ms, now_ms)

    def increase(self, name: str, window_ms: float,
                 now_ms: float) -> float:
        return self.query("increase", name, window_ms, now_ms)

    def rows(self, name: str | None = None,
             start_ms: float | None = None) -> list[dict]:
        """``sys.metrics_history`` rows: every retained point, per tier.

        ``rate_per_s`` is the reset-aware rate between a point and its
        tier predecessor (NULL for gauges and for each tier's first
        retained point), so plain JustQL ``WHERE``/``GROUP BY`` over
        this table is already a windowed rate query.
        """
        out: list[dict] = []
        names = [name] if name is not None else self.names()
        for series_name in names:
            series = self.series.get(series_name)
            if series is None:
                continue
            for tier, ring in enumerate(series.rings):
                prev: tuple[float, float] | None = None
                for ts, value in ring:
                    rate = None
                    if series.kind == "counter" and prev is not None:
                        rate = rate_per_s([prev, (ts, value)])
                    prev = (ts, value)
                    if start_ms is not None and ts < start_ms:
                        continue
                    out.append({"name": series_name,
                                "kind": series.kind, "tier": tier,
                                "ts_ms": round(ts, 3), "value": value,
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
    exact windowed increases over latency distributions.

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
        recorded = 0
        for key, metric in self.registry.items():
            recorded += self._scrape_metric(key, metric, now)
        cost = SCRAPE_BASE_COST_MS + SCRAPE_COST_PER_SERIES_MS * recorded
        self.scrapes += 1
        self.total_scrape_ms += cost
        self.series = recorded
        self.events.advance(cost)

    def _scrape_metric(self, key: str, metric, now: float) -> int:
        if not isinstance(metric, Histogram):
            kind = "counter" if isinstance(metric, Counter) else "gauge"
            self.history.record(key, kind, now, metric.value)
            return 1
        # Histogram: explode into exact counters + quantile gauges.
        self.history.record(suffixed_key(key, "count"), "counter", now,
                            metric.count)
        self.history.record(suffixed_key(key, "sum"), "counter", now,
                            metric.sum)
        recorded = 2
        for q in ("p50", "p95", "p99"):
            self.history.record(suffixed_key(key, q), "gauge", now,
                                getattr(metric, q))
            recorded += 1
        for bound, count in metric.bucket_counts():
            self.history.record(
                suffixed_key(key, f"bucket_le_{bound:g}"), "counter",
                now, count)
            recorded += 1
        return recorded
