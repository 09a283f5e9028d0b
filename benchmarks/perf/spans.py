"""Span recorder and run-time wrappers, installed from outside ``repro``.

The engine has no timers of its own on most paths, so the traced run
wraps the public functions at each layer boundary for the duration of
one pass and removes the wrappers afterwards.  Three wrapper kinds:

* **span** — a coarse call (statement, parse, plan, table query, flush,
  ...) becomes one record ``{name, layer, start_ns, end_ns, parent,
  op_id, ...}``;
* **generator span** — the same for a generator function, except the
  span is only *open while the generator frame executes*: every
  ``next()`` is one interval, so time spent in the consumer between two
  items is never charged to the producer;
* **call** — a per-row function (``decode_row``, ``put``, ...) is too
  frequent to record individually; it is aggregated as ``[count,
  self_ns, extra]`` under its layer name on the enclosing span.

Self time is computed on a frame stack while the code runs: a frame's
self time is its duration minus the durations of the frames opened
directly inside it.  Every nanosecond of an op therefore belongs to
exactly one layer, and the layers plus the op's own (unattributed) self
time sum to the op's wall time by construction.

Wrappers do nothing while no op is open, so set-up, oracle checks and
other untimed work between ops are not traced.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from contextlib import contextmanager

#: Layer of the root span the harness opens around each op; its self
#: time is op time under no layer span.
OP_LAYER = "harness.op"


class Tracer:
    """In-memory span store plus the frame stack that attributes time."""

    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.spans: list[dict] = []
        #: Open frames, innermost last: ``[span_index, start_ns, child_ns]``.
        #: A call frame carries the index of its enclosing span.
        self.stack: list[list] = []
        self.ops = 0

    # -- frames --------------------------------------------------------------
    def _push(self, span_index: int) -> None:
        self.stack.append([span_index, self.clock(), 0])

    def _pop(self) -> tuple[int, int, int, int]:
        span_index, start, child_ns = self.stack.pop()
        end = self.clock()
        duration = end - start
        if self.stack:
            self.stack[-1][2] += duration
        return span_index, start, end, duration - child_ns

    # -- spans ---------------------------------------------------------------
    def open_span(self, name: str, layer: str) -> dict:
        """Create a span record under the current frame (not yet running)."""
        span = {"name": name, "layer": layer, "start_ns": None,
                "end_ns": None, "active_ns": 0, "self_ns": 0,
                "parent": self.stack[-1][0] if self.stack else -1,
                "op_id": self.ops - 1, "index": len(self.spans),
                "calls": {}}
        self.spans.append(span)
        return span

    def enter(self, span: dict) -> None:
        self._push(span["index"])

    def leave(self) -> None:
        index, start, end, self_ns = self._pop()
        span = self.spans[index]
        if span["start_ns"] is None:
            span["start_ns"] = start
        span["end_ns"] = end
        span["active_ns"] += end - start
        span["self_ns"] += self_ns

    @contextmanager
    def span(self, name: str, layer: str):
        """Record the block as one span (for the harness's own calls)."""
        span = self.open_span(name, layer)
        self.enter(span)
        try:
            yield span
        finally:
            self.leave()

    def begin_op(self) -> dict:
        """Open the root span of the next op; wrappers are live inside."""
        self.ops += 1
        span = self.open_span("op", OP_LAYER)
        self.enter(span)
        return span

    def end_op(self) -> None:
        self.leave()

    # -- aggregated calls ----------------------------------------------------
    def enter_call(self) -> None:
        self._push(self.stack[-1][0])

    def leave_call(self, name: str, count: int = 1, extra: int = 0) -> None:
        index, _start, _end, self_ns = self._pop()
        calls = self.spans[index]["calls"]
        agg = calls.get(name)
        if agg is None:
            calls[name] = [count, self_ns, extra]
        else:
            agg[0] += count
            agg[1] += self_ns
            agg[2] += extra

    # -- reading -------------------------------------------------------------
    def layer_totals(self) -> tuple[dict[str, int], dict[str, int],
                                    dict[str, int]]:
        """``(self_ns, count, extra)`` per layer over every span and call."""
        self_ns: dict[str, int] = {}
        count: dict[str, int] = {}
        extra: dict[str, int] = {}
        for span in self.spans:
            layer = span["layer"]
            self_ns[layer] = self_ns.get(layer, 0) + span["self_ns"]
            count[layer] = count.get(layer, 0) + 1
            for name, (n, ns, x) in span["calls"].items():
                self_ns[name] = self_ns.get(name, 0) + ns
                count[name] = count.get(name, 0) + n
                extra[name] = extra.get(name, 0) + x
        return self_ns, count, extra

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps(span, separators=(",", ":")))
                out.write("\n")


# -- wrappers ----------------------------------------------------------------

def wrap_span(tracer: Tracer, fn, name: str, layer: str, note=None):
    """``fn`` as one span per call; ``note(span, result)`` adds counts."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer.stack:
            return fn(*args, **kwargs)
        span = tracer.open_span(name, layer)
        tracer.enter(span)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.leave()
        if note is not None:
            note(span, result)
        return result
    return wrapper


def _drive(gen, enter, leave, note=None):
    """Re-yield ``gen``'s items, holding a frame only while it runs."""
    try:
        while True:
            enter()
            try:
                item = next(gen)
            except StopIteration:
                return
            finally:
                leave()
            if note is not None:
                note(item)
            yield item
    finally:
        gen.close()


def wrap_generator_span(tracer: Tracer, fn, name: str, layer: str,
                        note=None):
    """A generator function as one span, open only while its frame runs."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        gen = fn(*args, **kwargs)
        if not tracer.stack:
            return gen
        span = tracer.open_span(name, layer)
        return _drive(
            gen, lambda: tracer.enter(span), tracer.leave,
            None if note is None else lambda item: note(span, item))
    return wrapper


def wrap_call(tracer: Tracer, fn, name: str, probe=None):
    """``fn`` aggregated as count + self time on the enclosing span.

    ``probe(self_object)`` reads a monotonic counter before and after;
    the difference is summed as the aggregate's ``extra``.
    """
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer.stack:
            return fn(*args, **kwargs)
        before = probe(args[0]) if probe is not None else 0
        tracer.enter_call()
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.leave_call(
                name, 1, probe(args[0]) - before if probe is not None else 0)
    return wrapper


def wrap_generator_call(tracer: Tracer, fn, name: str):
    """A generator function aggregated like :func:`wrap_call`: one count
    per generator, self time summed over the intervals its frame runs."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        gen = fn(*args, **kwargs)
        if not tracer.stack:
            return gen
        uncounted = [1]  # the first interval carries the count

        def leave():
            tracer.leave_call(name, uncounted.pop() if uncounted else 0)
        return _drive(gen, tracer.enter_call, leave)
    return wrapper


class Patches:
    """Installs wrappers over attributes of ``repro`` and restores them.

    A target is ``("package.module", "attr")`` for a name bound in a
    module (functions imported with ``from x import f`` are rebound in
    the *importing* module, which is where the call looks them up) or
    ``("package.module:Class", "attr")`` for a method.
    """

    def __init__(self):
        self.saved: list[tuple[object, str, object]] = []

    @staticmethod
    def resolve(owner_path: str):
        module_name, _, class_name = owner_path.partition(":")
        owner = importlib.import_module(module_name)
        return getattr(owner, class_name) if class_name else owner

    def install(self, owner_path: str, attr: str, make_wrapper) -> None:
        owner = self.resolve(owner_path)
        original = vars(owner)[attr]
        self.saved.append((owner, attr, original))
        setattr(owner, attr, make_wrapper(original))

    def uninstall(self) -> bool:
        """Put every original back; True when each attribute is again
        the very object (``is``) that was there before :meth:`install`."""
        for owner, attr, original in reversed(self.saved):
            setattr(owner, attr, original)
        return all(vars(owner)[attr] is original
                   for owner, attr, original in self.saved)
