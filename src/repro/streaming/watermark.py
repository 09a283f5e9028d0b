"""Event-time watermarks with bounded out-of-orderness.

A watermark is the pipeline's running claim that *no event older than
the watermark will still arrive*.  Downstream operators (windows,
joins) use it to decide when a result is final: a window whose end is
at or below the watermark can be emitted exactly once and then
forgotten.

This is the bounded-out-of-orderness generator every streaming engine
ships as its default (Flink's ``forBoundedOutOfOrderness``, Spark's
``withWatermark``): the watermark trails the maximum event time seen by
a fixed ``max_delay_s``.  Events that arrive more than ``max_delay_s``
behind the stream's frontier are *late* — the pipeline counts and drops
them rather than reopening finalized results.

All times are epoch **seconds**, matching the engine's ``DATE`` fields;
producers that stamp milliseconds convert in their LOAD config
(``long_to_date_ms``).
"""

from __future__ import annotations

from repro.errors import ExecutionError


class WatermarkTracker:
    """Tracks the event-time frontier of one stream.

    ``watermark = max(event time seen) - max_delay_s`` — ``None`` until
    the first event is observed.  ``max_delay_s=0`` means the stream is
    promised to be in order; any out-of-order event becomes late.
    """

    def __init__(self, max_delay_s: float = 0.0):
        if max_delay_s < 0:
            raise ExecutionError(
                f"max_delay_s must be >= 0, got {max_delay_s}")
        self.max_delay_s = float(max_delay_s)
        self.max_event_time: float | None = None
        self.observed = 0

    @property
    def watermark(self) -> float | None:
        """Current watermark in epoch seconds (``None`` before any event)."""
        if self.max_event_time is None:
            return None
        return self.max_event_time - self.max_delay_s

    def observe(self, event_time: float) -> float | None:
        """Advance the frontier past one event; returns the new watermark."""
        self.observed += 1
        if self.max_event_time is None or event_time > self.max_event_time:
            self.max_event_time = float(event_time)
        return self.watermark

    def snapshot(self) -> dict:
        return {"watermark": self.watermark,
                "max_event_time": self.max_event_time,
                "max_delay_s": self.max_delay_s,
                "observed": self.observed}
