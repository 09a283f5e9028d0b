"""Streaming ingestion and continuous queries (Section IX future work #1).

The paper plans Kafka support; this package provides the equivalent
substrate and the continuous-query layer on top of it:

* :mod:`~repro.streaming.stream` — named append-only topics with
  offset-based consumption and an at-least-once micro-batch loader
  mapping events through a LOAD-style CONFIG into a stored table.
* :mod:`~repro.streaming.watermark` — bounded-out-of-orderness
  event-time watermarks.
* :mod:`~repro.streaming.window` — tumbling windows with commutative
  aggregates, finalized exactly once when the watermark passes.
* :mod:`~repro.streaming.views` — incrementally-maintained
  materialized views, registered in the catalog and queryable in SQL.
* :mod:`~repro.streaming.alerts` — geofence enter/exit alerting joined
  against ``GeofencePlugin`` fences.

Because JUST keys are record-local, streaming inserts are just inserts
— no index rebuilds, no future-time restriction.
"""

from repro.streaming.alerts import GeofenceAlert, GeofenceAlerter
from repro.streaming.stream import StreamLoader, StreamTopic
from repro.streaming.views import MaterializedView
from repro.streaming.watermark import WatermarkTracker
from repro.streaming.window import (
    Avg,
    Count,
    TumblingWindows,
    WindowedAggregator,
    batch_aggregate,
)

__all__ = [
    "StreamTopic",
    "StreamLoader",
    "WatermarkTracker",
    "TumblingWindows",
    "WindowedAggregator",
    "batch_aggregate",
    "Count",
    "Avg",
    "MaterializedView",
    "GeofenceAlert",
    "GeofenceAlerter",
]
