"""Event-time window operators over streamed ST records.

Windows group events by *event time* (not arrival order) into
fixed-size intervals and hold per-key aggregate state until the
watermark passes a window's end — only then is the window finalized and
emitted, exactly once.  Late events (behind an already-finalized
window) are counted and dropped, never re-opening emitted results.

The window assigner, :class:`TumblingWindows`, cuts event time into
back-to-back ``[k*size, (k+1)*size)`` intervals; every event lands in
exactly one.  The aggregates (:class:`Count` / :class:`Avg`) are
commutative and associative, so the finalized output of a watermarked
stream is *exactly* equal to a cold batch recomputation over the same
events — the parity property the tests and the ``streaming`` scenario
assert.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import ExecutionError

Window = tuple[float, float]  # [start, end) in epoch seconds


# -- window assigners --------------------------------------------------------

@dataclass(frozen=True)
class TumblingWindows:
    """Fixed, non-overlapping event-time windows of ``size_s`` seconds."""

    size_s: float

    def __post_init__(self):
        if self.size_s <= 0:
            raise ExecutionError(
                f"window size must be > 0, got {self.size_s}")

    def assign(self, event_time: float) -> list[Window]:
        start = math.floor(event_time / self.size_s) * self.size_s
        return [(start, start + self.size_s)]


# -- aggregate functions -----------------------------------------------------
# Each aggregate is a tiny fold: initial() -> state, step(state, row) ->
# state, final(state) -> value.  All are commutative over rows, which is
# what makes streamed-vs-batch parity exact.

class Count:
    def initial(self):
        return 0

    def step(self, state, row):
        return state + 1

    def final(self, state):
        return state


class Avg:
    def __init__(self, field: str):
        self.field = field

    def initial(self):
        return (0, 0.0)

    def step(self, state, row):
        value = row.get(self.field)
        if value is None:
            return state
        return (state[0] + 1, state[1] + float(value))

    def final(self, state):
        count, total = state
        return None if count == 0 else total / count


# -- the windowed aggregation operator ---------------------------------------

class WindowedAggregator:
    """Keyed, watermark-finalized windowed aggregation.

    :meth:`add` buffers an event into every window it belongs to;
    :meth:`advance` finalizes (emits and forgets) every open window
    whose end is at or below the watermark.  Events targeting an
    already-finalized window are late: counted in ``late_dropped`` and
    discarded.  :meth:`flush` finalizes everything regardless of the
    watermark — the batch-recompute path.

    Output rows are ``{"window_start", "window_end", *key columns,
    *aggregate columns}``, deterministically ordered by window then key.
    """

    def __init__(self, windows, aggregates: dict,
                 key_fields: tuple[str, ...] = (),
                 time_field: str = "time", time_fn=None):
        self.windows = windows
        self._agg_names = list(aggregates)
        self._aggs = [aggregates[name] for name in self._agg_names]
        self.key_columns = tuple(key_fields)
        self.time_fn = time_fn or (lambda row: float(row[time_field]))
        self._open: dict[Window, dict] = {}
        self._finalized_up_to = -math.inf
        self.late_dropped = 0
        self.finalized_windows = 0
        self.emitted_rows = 0

    def columns(self) -> list[str]:
        return (["window_start", "window_end"]
                + list(self.key_columns) + self._agg_names)

    @property
    def open_windows(self) -> int:
        return len(self._open)

    def add(self, row: dict) -> None:
        event_time = self.time_fn(row)
        key = tuple(row.get(name) for name in self.key_columns)
        for window in self.windows.assign(event_time):
            if window[1] <= self._finalized_up_to:
                self.late_dropped += 1
                continue
            states = self._open.setdefault(window, {})
            state = states.get(key)
            if state is None:
                state = [agg.initial() for agg in self._aggs]
                states[key] = state
            for i, agg in enumerate(self._aggs):
                state[i] = agg.step(state[i], row)

    def add_batch(self, rows) -> None:
        for row in rows:
            self.add(row)

    def advance(self, watermark: float | None) -> list[dict]:
        """Finalize windows ending at/below ``watermark``; emit their rows."""
        if watermark is None:
            return []
        ready = sorted(w for w in self._open if w[1] <= watermark)
        out: list[dict] = []
        for window in ready:
            out.extend(self._emit(window, self._open.pop(window)))
        self._finalized_up_to = max(self._finalized_up_to, watermark)
        return out

    def flush(self) -> list[dict]:
        """Finalize every open window (end of stream / batch recompute)."""
        out: list[dict] = []
        for window in sorted(self._open):
            out.extend(self._emit(window, self._open.pop(window)))
        self._finalized_up_to = math.inf
        return out

    def _emit(self, window: Window, states: dict) -> list[dict]:
        rows = []
        for key in sorted(states, key=repr):
            row = {"window_start": window[0], "window_end": window[1]}
            row.update(zip(self.key_columns, key))
            state = states[key]
            for i, name in enumerate(self._agg_names):
                row[name] = self._aggs[i].final(state[i])
            rows.append(row)
        self.finalized_windows += 1
        self.emitted_rows += len(rows)
        return rows


def batch_aggregate(rows, windows, aggregates: dict, **kwargs) -> list[dict]:
    """Cold batch recomputation: aggregate ``rows`` with no watermark.

    The reference result for stream/batch parity checks — a streamed
    :class:`WindowedAggregator` that dropped no late events must emit
    exactly these rows (finalized + a trailing :meth:`flush`).
    """
    aggregator = WindowedAggregator(windows, aggregates, **kwargs)
    aggregator.add_batch(rows)
    return aggregator.flush()
