"""Kafka-like topics and micro-batch loading into JUST tables.

The loader is **at-least-once**: an offset is committed only after the
batch's ``insert_rows`` succeeds, so a retryable failure mid-batch (a
lost replication quorum, an unavailable region) leaves the offset
where it was and the next poll re-reads the same events.  Re-delivery
is safe because table inserts are idempotent upserts by primary key —
the pipeline's effective guarantee is exactly-once table state over
at-least-once delivery.

Beyond plain ingest, a loader is the attachment point for continuous
queries: a per-loader :class:`~repro.streaming.watermark.
WatermarkTracker` advances with every mapped batch, attached
:class:`~repro.streaming.window.WindowedAggregator` operators emit
watermark-finalized window rows into
:class:`~repro.streaming.views.MaterializedView` targets, and attached
:class:`~repro.streaming.alerts.GeofenceAlerter` operators raise
enter/exit alerts — all charged to the poll's SimJob, all surfaced in
the ``sys.streams`` virtual table.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.loader import apply_config
from repro.errors import ExecutionError

#: SimJob CPU cost of evaluating the row filter per consumed event.
FILTER_CPU_US = 0.5
#: SimJob CPU cost of the CONFIG field mapping per kept event.
MAP_CPU_US = 4.0


@dataclass
class StreamTopic:
    """An append-only, offset-addressed event log (one Kafka topic).

    Producers ``append`` dict events; consumers read from an offset.
    Events are retained (laptop scale) so multiple loaders can consume
    the same topic independently.
    """

    name: str
    _events: list[dict] = field(default_factory=list)

    def append(self, event: dict) -> int:
        """Publish one event; returns the next end offset.

        Like ``append_many``, the return value is the offset one past
        the appended event — the high-water mark a consumer would have
        to reach to have read everything.
        """
        self._events.append(dict(event))
        return len(self._events)

    def append_many(self, events) -> int:
        """Publish a batch; returns the next end offset."""
        for event in events:
            self._events.append(dict(event))
        return len(self._events)

    @property
    def end_offset(self) -> int:
        return len(self._events)

    def read(self, offset: int, max_events: int) -> list[dict]:
        """Events in ``[offset, offset + max_events)`` (may be fewer)."""
        if offset < 0:
            raise ExecutionError("negative stream offset")
        if max_events <= 0:
            raise ExecutionError(
                f"max_events must be positive, got {max_events}")
        return self._events[offset:offset + max_events]


class StreamLoader:
    """Micro-batch consumer: topic -> CONFIG mapping -> stored table.

    Each :meth:`poll` reads up to ``batch_size`` pending events, applies
    the LOAD field mapping, and inserts them — accruing simulated cost
    on the engine's cluster like any other ingest.  The loader tracks
    its own offset and commits it only after the insert succeeds;
    ``start_offset`` recreates a loader at a saved position (restart /
    resume).

    ``max_delay_s`` bounds the stream's out-of-orderness for the
    event-time watermark; ``time_field`` names the mapped row column
    carrying event time (defaults to the table schema's DATE field).
    """

    def __init__(self, engine, topic: StreamTopic, table_name: str,
                 config: dict[str, str], batch_size: int = 1000,
                 row_filter=None, start_offset: int = 0,
                 max_delay_s: float = 0.0, name: str | None = None,
                 time_field: str | None = None):
        from repro.streaming.watermark import WatermarkTracker
        if start_offset < 0:
            raise ExecutionError("negative stream offset")
        self.engine = engine
        self.topic = topic
        self.table_name = table_name
        self.config = dict(config)
        self.batch_size = batch_size
        self.row_filter = row_filter
        self.offset = start_offset
        self.name = name or f"{topic.name}->{table_name}"
        self.watermark = WatermarkTracker(max_delay_s)
        if time_field is None:
            schema_time = engine.table(table_name).schema.time_field
            time_field = schema_time.name if schema_time else None
        self.time_field = time_field
        self._windows: list[tuple[object, object]] = []  # (aggregator, view)
        self._alerters: list[object] = []
        self.total_loaded = 0
        self.total_dropped = 0
        self.polls = 0
        self.total_sim_ms = 0.0
        self._expose_series(engine.metrics, start_offset)

    @property
    def lag(self) -> int:
        """Events published but not yet consumed."""
        return self.topic.end_offset - self.offset

    def _expose_series(self, registry, start_offset: int) -> None:
        """Declare this loader's numbers as ``streaming.*{loader=name}``;
        the registry reads them from the loader and its operators."""
        windows, alerters, mark = self._windows, self._alerters, \
            self.watermark

        def expose(name, read, **kwargs):
            registry.expose(f"streaming.{name}", read, loader=self.name,
                            **kwargs)

        def polled():  # zero rows and zero lag are news after a poll
            return self.polls

        def has_watermark():
            return mark.watermark is not None

        expose("polls", polled)
        expose("events_consumed", lambda: self.offset - start_offset)
        expose("rows_loaded", lambda: self.total_loaded, since=polled)
        expose("poll_sim_ms", lambda: self.total_sim_ms)
        expose("events_dropped", lambda: self.total_dropped)
        expose("windows_emitted",
               lambda: sum(a.emitted_rows for a, _ in windows))
        expose("alerts", lambda: sum(a.total_alerts for a in alerters))
        expose("late_events",
               lambda: sum(a.late_dropped for a, _ in windows))
        expose("view_refresh_ms",
               lambda: sum(v.total_refresh_ms for _, v in windows
                           if v is not None))
        expose("lag", lambda: self.lag, kind="gauge", since=polled)
        expose("watermark", lambda: mark.watermark, kind="gauge",
               since=has_watermark)
        expose("watermark_delay_s",
               lambda: mark.max_event_time - mark.watermark, kind="gauge",
               since=has_watermark)

    # -- continuous-query attachments ---------------------------------------

    def materialize_window(self, view_name: str, aggregator, types=None,
                           owner: str | None = None):
        """Attach ``aggregator`` and maintain it as a catalog-registered
        materialized view named ``view_name``; returns the view."""
        view = self.engine.create_materialized_view(
            view_name, aggregator.columns(), types=types, owner=owner)
        self._windows.append((aggregator, view))
        return view

    def attach_alerter(self, alerter):
        """Run ``alerter.process`` over every mapped batch."""
        self._alerters.append(alerter)
        return alerter

    # -- consumption --------------------------------------------------------

    def poll(self) -> dict:
        """Consume one micro-batch; returns ingest statistics.

        The returned dict has ``consumed`` (events read), ``loaded``
        (rows inserted), ``dropped`` (filtered out), ``emitted``
        (finalized window rows), ``alerts``, and ``sim_ms``.  An empty
        poll is free.  If the insert fails the offset is *not* advanced
        and the same events are re-read next poll (at-least-once).
        """
        events = self.topic.read(self.offset, self.batch_size)
        if not events:
            return {"consumed": 0, "loaded": 0, "dropped": 0,
                    "emitted": 0, "alerts": 0, "sim_ms": 0.0}
        table = self.engine.table(self.table_name)
        kept: list[tuple[dict, dict]] = []
        dropped = 0
        for event in events:
            if self.row_filter is not None and not self.row_filter(event):
                dropped += 1
                continue
            kept.append((event, apply_config(event, self.config)))
        job = self.engine.cluster.job()
        # The filter touches every consumed event; mapping and insert
        # only the kept ones — an all-filtered batch costs filter CPU
        # alone, no insert overhead.
        job.charge_cpu_records(len(events), us_per_record=FILTER_CPU_US)
        rows = [row for _, row in kept]
        if rows:
            job.charge_cpu_records(len(rows), us_per_record=MAP_CPU_US)
            table.insert_rows(rows, job)
        # Commit point: only a fully-inserted batch advances the offset.
        self.offset += len(events)
        self.total_loaded += len(rows)
        self.total_dropped += dropped
        emitted, alerts = self._run_pipeline(kept, job)
        self.polls += 1
        self.total_sim_ms += job.elapsed_ms
        return {"consumed": len(events), "loaded": len(rows),
                "dropped": dropped, "emitted": emitted, "alerts": alerts,
                "sim_ms": job.elapsed_ms}

    def _run_pipeline(self, kept, job) -> tuple[int, int]:
        """Advance the watermark, windows, views, and alerters by one batch.

        The whole batch is buffered *before* the advanced watermark
        finalizes anything, so in-batch disorder never makes an event
        late — only cross-batch delays beyond ``max_delay_s`` can.
        """
        if self.time_field is not None:
            for _, row in kept:
                event_time = row.get(self.time_field)
                if event_time is not None:
                    self.watermark.observe(float(event_time))
        emitted = 0
        alerts = 0
        watermark = self.watermark.watermark
        for aggregator, view in self._windows:
            for _, row in kept:
                aggregator.add(row)
            finalized = aggregator.advance(watermark)
            if finalized:
                emitted += len(finalized)
                if view is not None:
                    view.apply(finalized, job)
        for alerter in self._alerters:
            alerts += len(alerter.process(kept, job))
        return emitted, alerts

    def drain(self, max_batches: int = 1_000_000) -> dict:
        """Poll until the topic is fully consumed; aggregated stats."""
        totals = {"consumed": 0, "loaded": 0, "dropped": 0,
                  "emitted": 0, "alerts": 0, "sim_ms": 0.0}
        for _ in range(max_batches):
            if self.lag == 0:
                break
            batch = self.poll()
            for key in totals:
                totals[key] += batch[key]
        return totals

    def finalize(self) -> dict:
        """End of stream: flush every open window into its view.

        Use when the producer is done and the tail windows (those the
        watermark never passed) should still be emitted.  A live
        pipeline never calls this — it would finalize windows that
        could still receive events.
        """
        job = self.engine.cluster.job()
        emitted = 0
        for aggregator, view in self._windows:
            rows = aggregator.flush()
            if rows and view is not None:
                view.apply(rows, job)
            emitted += len(rows)
        self.total_sim_ms += job.elapsed_ms
        return {"emitted": emitted, "sim_ms": job.elapsed_ms}

    # -- introspection ------------------------------------------------------

    def stats_row(self) -> dict:
        """One ``sys.streams`` row: offsets, watermark, operator stats."""
        return {
            "loader": self.name,
            "topic": self.topic.name,
            "table": self.table_name,
            "offset": self.offset,
            "end_offset": self.topic.end_offset,
            "lag": self.lag,
            "watermark": self.watermark.watermark,
            "open_windows": sum(a.open_windows for a, _ in self._windows),
            "finalized_windows": sum(a.finalized_windows
                                     for a, _ in self._windows),
            "late_events": sum(a.late_dropped for a, _ in self._windows),
            "alerts": sum(a.total_alerts for a in self._alerters),
            "views": ",".join(v.name for _, v in self._windows
                              if v is not None),
            "loaded": self.total_loaded,
            "dropped": self.total_dropped,
            "polls": self.polls,
            "sim_ms": round(self.total_sim_ms, 3),
        }
