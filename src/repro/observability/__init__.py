"""Query-level observability (the ops layer the paper's evaluation implies).

The paper evaluates JUST through per-query latency and I/O breakdowns
(Sections VI-B–VI-D); reproducing those figures credibly needs the same
instrumentation a production HBase/Spark deployment would have:

* :class:`~repro.observability.metrics.MetricsRegistry` — process-wide
  counters, gauges, and quantile histograms (the Prometheus-registry
  role): it reads the numbers the key-value store, replication,
  balancer, loaders, admission controller and circuit breakers keep,
  and the SQL operators and the service push the rest.
* :class:`~repro.observability.profile.QueryProfile` — per-statement
  trace spans (service → SQL operator → region scan) carried on the
  :class:`~repro.resilience.RequestContext`, the OpenTelemetry-trace
  role; ``EXPLAIN ANALYZE`` renders the operator spans as an annotated
  plan tree.
* :class:`~repro.observability.slowlog.SlowQueryLog` — a bounded log of
  statements whose simulated latency crossed a configurable threshold
  (MySQL's slow-query log / HBase's responseTooSlow).
* :class:`~repro.observability.events.EventLog` — a bounded ring of
  typed cluster events (flush/compaction/split/failover/WAL checkpoint/
  breaker trip/admission shed/session expiry) stamped on the simulated
  clock, queryable as the ``sys.events`` system table (the HBase
  master-UI events page / ``performance_schema`` role).
* :class:`~repro.observability.history.MetricsHistory` +
  :class:`~repro.observability.history.MetricsScraper` — the retained
  dimension: a simulated-clock scrape chore samples the registry into
  bounded stride-downsampling tiers with counter-reset-aware
  ``rate()``/``increase()`` window queries (the Prometheus-TSDB role).
* :class:`~repro.observability.slo.SloManager` — declarative SLOs,
  error budgets, and Google-SRE multi-window burn-rate alerts through
  a pending → firing → resolved state machine (the Alertmanager role).
* :class:`~repro.observability.monitor.Monitor` — the composed
  pipeline the engine owns (``engine.enable_monitoring()``), surfaced
  as ``sys.metrics_history`` / ``sys.slos`` / ``sys.alerts``.

Operational state is read one way: ``SELECT … FROM sys.*``, in process
through ``engine.sql`` and over HTTP through ``/execute``.  Only the
histogram buckets and slow-query traces (``GET /metrics``) and the span
trees (``GET /profile``), which no table holds, have routes of their own.
"""

from repro.observability.events import (
    AdmissionShedEvent,
    AlertEvent,
    BreakerTripEvent,
    CompactionEvent,
    DecayedRate,
    Event,
    EventLog,
    FailoverEvent,
    FlushEvent,
    SessionExpiredEvent,
    SloBurnEvent,
    SplitEvent,
    WalCheckpointEvent,
)
from repro.observability.history import (
    MetricsHistory,
    MetricsScraper,
    Series,
)
from repro.observability.metrics import (
    DEFAULT_LATENCY_BUCKETS_MS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.observability.monitor import Monitor, default_objectives
from repro.observability.profile import QueryProfile, Span, analyze_rows
from repro.observability.slo import (
    AvailabilityObjective,
    BurnWindow,
    LatencyObjective,
    Objective,
    SloManager,
    default_windows,
)
from repro.observability.slowlog import SlowQueryEntry, SlowQueryLog

__all__ = [
    "AdmissionShedEvent",
    "AlertEvent",
    "AvailabilityObjective",
    "BreakerTripEvent",
    "BurnWindow",
    "CompactionEvent",
    "Counter",
    "DEFAULT_LATENCY_BUCKETS_MS",
    "DecayedRate",
    "Event",
    "EventLog",
    "FailoverEvent",
    "FlushEvent",
    "Gauge",
    "Histogram",
    "LatencyObjective",
    "MetricsHistory",
    "MetricsRegistry",
    "MetricsScraper",
    "Monitor",
    "Objective",
    "QueryProfile",
    "Series",
    "SessionExpiredEvent",
    "SloBurnEvent",
    "SloManager",
    "SlowQueryEntry",
    "SlowQueryLog",
    "Span",
    "SplitEvent",
    "WalCheckpointEvent",
    "analyze_rows",
    "default_objectives",
    "default_windows",
]
