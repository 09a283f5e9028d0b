"""The engine-facing monitoring pipeline: scrape → history → SLO → alert.

:class:`Monitor` composes the :class:`MetricsScraper` chore, the
:class:`MetricsHistory` store, and the :class:`SloManager` into one
object the engine owns (``engine.enable_monitoring()``), ticked from
the service layer the same way the balancer and replication chores are:
each statement's simulated-clock advance may trigger a scrape, and
every scrape re-evaluates the objectives so alerts fire on the same
timeline the incidents happen on.
"""

from __future__ import annotations

from repro.observability.history import MetricsHistory, MetricsScraper
from repro.observability.slo import (
    AvailabilityObjective,
    LatencyObjective,
    Objective,
    SloManager,
    default_windows,
)

#: Default scrape cadence: fine enough that the shortest default burn
#: window (base/12) holds several samples.
DEFAULT_SCRAPE_INTERVAL_MS = 250.0

#: Default latency-SLO threshold; must be one of the statement
#: histogram's bucket bounds (``DEFAULT_LATENCY_BUCKETS_MS``).
DEFAULT_LATENCY_THRESHOLD_MS = 500.0


def default_objectives(latency_threshold_ms: float =
                       DEFAULT_LATENCY_THRESHOLD_MS,
                       availability_target: float = 0.999,
                       latency_target: float = 0.99,
                       slo_base_ms: float = 60_000.0) -> list[Objective]:
    """The two SLOs every serving system starts with.

    * ``statement-availability`` — fraction of statements that neither
      errored nor were shed by admission control.
    * ``statement-latency`` — fraction of statements under the bucket
      threshold, from the exact cumulative histogram buckets.
    """
    windows = default_windows(slo_base_ms)
    return [
        AvailabilityObjective(
            name="statement-availability",
            target=availability_target,
            windows=windows,
            description="statements neither errored nor shed",
            total_series=("server.statements{status=ok}",
                          "server.statements{status=error}",
                          "admission.shed"),
            bad_series=("server.statements{status=error}",
                        "admission.shed")),
        LatencyObjective(
            name="statement-latency",
            target=latency_target,
            windows=windows,
            description=f"statements under "
                        f"{latency_threshold_ms:g} sim-ms",
            metric="server.statement_sim_ms",
            threshold_ms=latency_threshold_ms),
    ]


class Monitor:
    """Scraper + history + SLO manager, on one simulated clock."""

    def __init__(self, engine,
                 interval_ms: float = DEFAULT_SCRAPE_INTERVAL_MS,
                 objectives: list[Objective] | None = None):
        self.engine = engine
        self.history = MetricsHistory()
        self.scraper = MetricsScraper(engine.metrics, engine.events,
                                      self.history,
                                      interval_ms=interval_ms)
        self.slos = SloManager(self.history, engine.events,
                               engine.metrics)
        for objective in (objectives if objectives is not None
                          else default_objectives()):
            self.slos.add(objective)
        engine.metrics.describe(
            "monitor.scrapes", "metrics-history scrape chore runs")
        engine.metrics.describe(
            "monitor.scrape_ms",
            "simulated milliseconds charged to scraping")
        engine.metrics.describe(
            "slo.burn_rate",
            "error-budget burn rate over the long alert window")

    def maybe_tick(self) -> bool:
        """Scrape + evaluate if the scrape interval elapsed."""
        if not self.scraper.maybe_tick():
            return False
        self.slos.evaluate(self.engine.events.now_ms)
        return True

    def tick(self) -> None:
        """Force a scrape + evaluation now (tests, scenarios)."""
        self.scraper.tick()
        self.slos.evaluate(self.engine.events.now_ms)
