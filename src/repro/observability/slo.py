"""SLOs, error budgets, and multi-window burn-rate alerting.

The Google-SRE workbook shape, on the simulated clock: an objective
declares a target (e.g. 99.9% of statements OK / under a latency
threshold), the **error budget** is ``1 - target``, and the **burn
rate** is how many times faster than budget-neutral the service is
consuming it (``bad_fraction / (1 - target)``).  Alerts use the
multi-window, multi-burn-rate recipe: a severity fires only when *both*
a long window (evidence the burn is sustained) and a short window
(evidence it is still happening) exceed the severity's burn-rate
factor, which keeps time-to-fire short for fast burns without paging on
blips.  Each (objective, window) pair runs a
pending → firing → resolved state machine emitting typed
:class:`~repro.observability.events.SloBurnEvent` /
:class:`~repro.observability.events.AlertEvent` into the cluster
:class:`~repro.observability.events.EventLog`.

SLIs are computed from the scraped :class:`MetricsHistory` with
counter-reset-aware ``increase()`` — availability from error/total
counters, latency from exact cumulative histogram buckets — never from
unwindowed lifetime quantiles.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from repro.observability.events import AlertEvent, SloBurnEvent
from repro.observability.history import MetricsHistory, suffixed_key
from repro.observability.metrics import Gauge, Histogram


@dataclass(frozen=True)
class BurnWindow:
    """One severity tier of the multi-window burn-rate recipe."""

    severity: str       # "page" | "ticket"
    long_ms: float      # sustained-evidence window
    short_ms: float     # still-happening window
    factor: float       # burn-rate threshold for both windows
    for_ms: float = 0.0  # dwell in pending before firing


def default_windows(base_ms: float = 60_000.0) -> tuple[BurnWindow, ...]:
    """The SRE-workbook 1h/5m @14.4 + 6h/30m @6 table, time-scaled.

    Production burn windows are hours; statements here cost simulated
    milliseconds, so ``base_ms`` plays the role of "one hour" and the
    window ratios (12:1 long:short, 14.4×/6× factors) are preserved.
    """
    return (
        BurnWindow("page", long_ms=base_ms, short_ms=base_ms / 12.0,
                   factor=14.4, for_ms=base_ms / 24.0),
        BurnWindow("ticket", long_ms=6.0 * base_ms,
                   short_ms=base_ms / 2.0, factor=6.0,
                   for_ms=base_ms / 12.0),
    )


@dataclass
class Objective:
    """A declarative SLO over scraped series; subclasses define the SLI."""

    name: str
    target: float  # e.g. 0.999
    windows: tuple[BurnWindow, ...] = ()
    description: str = ""
    #: Window for error-budget accounting (a stand-in for the 30-day
    #: compliance period); defaults to 4× the longest alert window.
    budget_window_ms: float = 0.0

    kind = "objective"

    def __post_init__(self) -> None:
        if not 0.0 < self.target < 1.0:
            raise ValueError(f"target must be in (0, 1): {self.target}")
        if not self.windows:
            self.windows = default_windows()
        if not self.budget_window_ms:
            self.budget_window_ms = 4.0 * max(w.long_ms
                                              for w in self.windows)

    @property
    def budget(self) -> float:
        return 1.0 - self.target

    def bad_fraction(self, history: MetricsHistory, start_ms: float,
                     end_ms: float) -> float | None:
        """SLI bad-event fraction over a window; None = no data."""
        raise NotImplementedError

    def burn_rate(self, history: MetricsHistory, start_ms: float,
                  end_ms: float) -> float | None:
        bad = self.bad_fraction(history, start_ms, end_ms)
        return None if bad is None else bad / self.budget

    def budget_remaining(self, history: MetricsHistory,
                         now_ms: float) -> float:
        """Fraction of the budget-window error budget left (can go < 0)."""
        bad = self.bad_fraction(history, now_ms - self.budget_window_ms,
                                now_ms)
        if bad is None:
            return 1.0
        return 1.0 - bad / self.budget

    def exemplar(self, registry) -> str:
        """Trace id of an offending query, if the SLI can name one."""
        return ""

    @property
    def signal(self) -> str:
        """Human-readable description of the measured series."""
        return ""


@dataclass
class AvailabilityObjective(Objective):
    """Fraction of good events from total/bad counter series.

    ``total_series``/``bad_series`` name scraped history series
    (flattened registry keys); increases are summed across each group,
    so e.g. ``server.statements{status=ok}`` + ``...{status=error}``
    can form the total while errors + sheds form the bad count.
    """

    total_series: tuple[str, ...] = ()
    bad_series: tuple[str, ...] = ()

    kind = "availability"

    def bad_fraction(self, history: MetricsHistory, start_ms: float,
                     end_ms: float) -> float | None:
        total = sum(
            history.increase(name, end_ms - start_ms, end_ms)
            for name in self.total_series)
        if total <= 0:
            return None
        bad = sum(
            history.increase(name, end_ms - start_ms, end_ms)
            for name in self.bad_series)
        return min(1.0, max(0.0, bad / total))

    @property
    def signal(self) -> str:
        return f"bad({','.join(self.bad_series)}) / " \
               f"total({','.join(self.total_series)})"


@dataclass
class LatencyObjective(Objective):
    """Fraction of observations above a histogram bucket threshold.

    Requires the histogram to have been created with a bucket bound at
    exactly ``threshold_ms`` (see ``DEFAULT_LATENCY_BUCKETS_MS``): the
    windowed bad fraction is then *exact* —
    ``increase(count) - increase(bucket_le_threshold)`` — rather than
    an approximation from quantiles.
    """

    metric: str = ""          # flattened histogram key
    threshold_ms: float = 0.0

    kind = "latency"

    @cached_property
    def series_keys(self) -> tuple[str, str]:
        """The scraped ``_count`` and ``_bucket_le_<threshold>`` keys."""
        return (suffixed_key(self.metric, "count"),
                suffixed_key(self.metric,
                             f"bucket_le_{self.threshold_ms:g}"))

    def bad_fraction(self, history: MetricsHistory, start_ms: float,
                     end_ms: float) -> float | None:
        window_ms = end_ms - start_ms
        count_key, good_key = self.series_keys
        total = history.increase(count_key, window_ms, end_ms)
        if total <= 0:
            return None
        good = history.increase(good_key, window_ms, end_ms)
        return min(1.0, max(0.0, (total - good) / total))

    def exemplar(self, registry) -> str:
        if registry is None:
            return ""
        metric = registry._metrics.get(self.metric)
        if not isinstance(metric, Histogram):
            return ""
        exemplar = metric.exemplar_above(self.threshold_ms)
        return str(exemplar) if exemplar is not None else ""

    @property
    def signal(self) -> str:
        return f"{self.metric} > {self.threshold_ms:g} sim-ms"


#: Alert-state ordering for the per-objective "worst state" rollup.
_STATE_RANK = {"ok": 0, "resolved": 1, "pending": 2, "firing": 3}


@dataclass
class AlertState:
    """Live state of one (objective, burn window) alert."""

    slo: str
    window: BurnWindow
    state: str = "ok"
    pending_since_ms: float | None = None
    fired_at_ms: float | None = None
    resolved_at_ms: float | None = None
    burn_short: float = 0.0
    burn_long: float = 0.0
    trace_id: str = ""
    times_fired: int = 0
    updated_ms: float = 0.0

    def row(self) -> dict:
        return {"slo": self.slo, "severity": self.window.severity,
                "state": self.state,
                "burn_short": round(self.burn_short, 3),
                "burn_long": round(self.burn_long, 3),
                "factor": self.window.factor,
                "short_ms": self.window.short_ms,
                "long_ms": self.window.long_ms,
                "pending_since_ms": self.pending_since_ms,
                "fired_at_ms": self.fired_at_ms,
                "times_fired": self.times_fired,
                "trace_id": self.trace_id,
                "updated_ms": round(self.updated_ms, 3)}


class SloManager:
    """Evaluates objectives against the history; runs the alert FSM."""

    def __init__(self, history: MetricsHistory, events,
                 registry=None):
        self.history = history
        self.events = events
        self.registry = registry
        self.objectives: list[Objective] = []
        self._alerts: dict[tuple[str, str], AlertState] = {}
        #: ``slo.*`` gauges by name and label values, held from their
        #: first evaluation on.
        self._gauges: dict[tuple, Gauge] = {}
        self.evaluations = 0

    def add(self, objective: Objective) -> Objective:
        self.objectives.append(objective)
        for window in objective.windows:
            key = (objective.name, window.severity)
            self._alerts[key] = AlertState(objective.name, window)
        return objective

    def get(self, name: str) -> Objective | None:
        for objective in self.objectives:
            if objective.name == name:
                return objective
        return None

    def alert(self, slo: str, severity: str) -> AlertState | None:
        return self._alerts.get((slo, severity))

    def _gauge(self, name: str, **labels) -> Gauge:
        """``registry.gauge``, with the label key formatted only once."""
        key = (name, *labels.values())
        gauge = self._gauges.get(key)
        if gauge is None:
            gauge = self._gauges[key] = self.registry.gauge(name, **labels)
        return gauge

    def evaluate(self, now_ms: float) -> None:
        self.evaluations += 1
        for objective in self.objectives:
            for window in objective.windows:
                self._evaluate_window(objective, window, now_ms)
            if self.registry is not None:
                self._gauge("slo.budget_remaining",
                            slo=objective.name).set(
                    round(objective.budget_remaining(self.history,
                                                     now_ms), 6))

    def _evaluate_window(self, objective: Objective, window: BurnWindow,
                         now_ms: float) -> None:
        burn_long = objective.burn_rate(
            self.history, now_ms - window.long_ms, now_ms)
        burn_short = objective.burn_rate(
            self.history, now_ms - window.short_ms, now_ms)
        breach = (burn_long is not None and burn_short is not None
                  and burn_long >= window.factor
                  and burn_short >= window.factor)
        alert = self._alerts[(objective.name, window.severity)]
        alert.burn_long = burn_long or 0.0
        alert.burn_short = burn_short or 0.0
        alert.updated_ms = now_ms
        if self.registry is not None:
            self._gauge("slo.burn_rate", slo=objective.name,
                        severity=window.severity).set(
                round(alert.burn_long, 6))

        if alert.state in ("ok", "resolved"):
            if breach:
                alert.state = "pending"
                alert.pending_since_ms = now_ms
                self.events.emit(SloBurnEvent(
                    slo=objective.name, severity=window.severity,
                    burn_short=round(alert.burn_short, 3),
                    burn_long=round(alert.burn_long, 3),
                    threshold=window.factor))
        elif alert.state == "pending":
            if not breach:
                alert.state = "ok"
                alert.pending_since_ms = None
            elif now_ms - alert.pending_since_ms >= window.for_ms:
                alert.state = "firing"
                alert.fired_at_ms = now_ms
                alert.times_fired += 1
                alert.trace_id = objective.exemplar(self.registry)
                if self.registry is not None:
                    self.registry.counter(
                        "slo.alerts_fired", slo=objective.name,
                        severity=window.severity).inc()
                self.events.emit(AlertEvent(
                    slo=objective.name, severity=window.severity,
                    state="firing",
                    burn_short=round(alert.burn_short, 3),
                    burn_long=round(alert.burn_long, 3),
                    trace_id=alert.trace_id))
        elif alert.state == "firing":
            if not breach:
                alert.state = "resolved"
                alert.resolved_at_ms = now_ms
                self.events.emit(AlertEvent(
                    slo=objective.name, severity=window.severity,
                    state="resolved",
                    burn_short=round(alert.burn_short, 3),
                    burn_long=round(alert.burn_long, 3),
                    trace_id=alert.trace_id))

    # -- reporting -----------------------------------------------------------
    def worst_state(self, slo: str) -> str:
        states = [a.state for (name, _sev), a in self._alerts.items()
                  if name == slo]
        return max(states, key=_STATE_RANK.__getitem__,
                   default="ok") if states else "ok"

    def rows(self, now_ms: float) -> list[dict]:
        """``sys.slos`` rows: one per objective."""
        out = []
        for objective in self.objectives:
            page = next((a for (name, sev), a in self._alerts.items()
                         if name == objective.name and sev == "page"),
                        None)
            out.append({
                "slo": objective.name, "kind": objective.kind,
                "target": objective.target,
                "signal": objective.signal,
                "state": self.worst_state(objective.name),
                "budget_remaining": round(
                    objective.budget_remaining(self.history, now_ms),
                    4),
                "burn_short": round(page.burn_short, 3) if page else 0.0,
                "burn_long": round(page.burn_long, 3) if page else 0.0,
                "description": objective.description,
            })
        return out

    def alert_rows(self) -> list[dict]:
        """``sys.alerts`` rows: one per (objective, severity)."""
        return [self._alerts[key].row()
                for key in sorted(self._alerts)]
