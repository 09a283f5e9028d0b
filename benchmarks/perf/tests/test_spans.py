"""Span self-time arithmetic on a fake clock, and wrapper hygiene."""

import layers
from spans import (
    OP_LAYER,
    Patches,
    Tracer,
    wrap_call,
    wrap_generator_call,
    wrap_generator_span,
    wrap_span,
)


class Clock:
    def __init__(self):
        self.now = 0

    def __call__(self):
        return self.now

    def tick(self, ns):
        self.now += ns


def test_self_time_is_duration_minus_children():
    clock = Clock()
    tracer = Tracer(clock)

    def leaf():
        clock.tick(5)

    def middle():
        clock.tick(2)
        traced_leaf()
        clock.tick(3)
        traced_leaf()

    traced_leaf = wrap_span(tracer, leaf, "leaf", "c")
    traced_middle = wrap_span(tracer, middle, "middle", "b")
    tracer.begin_op()
    clock.tick(1)
    traced_middle()
    clock.tick(4)
    tracer.end_op()

    op, mid, leaf1, leaf2 = tracer.spans
    assert (op["start_ns"], op["end_ns"], op["self_ns"]) == (0, 20, 5)
    assert (mid["start_ns"], mid["end_ns"], mid["self_ns"]) == (1, 16, 5)
    assert leaf1["self_ns"] == leaf2["self_ns"] == 5
    assert [s["parent"] for s in tracer.spans] == [-1, 0, 1, 1]
    assert {s["op_id"] for s in tracer.spans} == {0}
    self_ns, count, _ = tracer.layer_totals()
    assert self_ns == {OP_LAYER: 5, "b": 5, "c": 10}
    assert count == {OP_LAYER: 1, "b": 1, "c": 2}
    assert sum(self_ns.values()) == op["end_ns"] - op["start_ns"]


def test_nested_reentry_of_one_function():
    clock = Clock()
    tracer = Tracer(clock)

    def recurse(depth):
        clock.tick(1)
        if depth:
            traced(depth - 1)
        clock.tick(1)

    traced = wrap_span(tracer, recurse, "recurse", "sql.exec")
    tracer.begin_op()
    traced(2)
    tracer.end_op()
    assert [s["self_ns"] for s in tracer.spans] == [0, 2, 2, 2]
    assert [s["active_ns"] for s in tracer.spans] == [6, 6, 4, 2]
    assert [s["parent"] for s in tracer.spans] == [-1, 0, 1, 2]


def test_calls_aggregate_on_the_enclosing_span():
    clock = Clock()
    tracer = Tracer(clock)
    touched = [0]

    def row(_owner):
        clock.tick(3)
        touched[0] += 2

    traced_row = wrap_call(tracer, row, "core.decode",
                           probe=lambda _owner: touched[0])

    def scan():
        clock.tick(1)
        for _ in range(4):
            traced_row(None)

    traced_scan = wrap_span(tracer, scan, "scan", "core.query")
    tracer.begin_op()
    traced_scan()
    tracer.end_op()
    scan_span = tracer.spans[1]
    assert scan_span["self_ns"] == 1
    assert scan_span["calls"] == {"core.decode": [4, 12, 8]}
    self_ns, count, extra = tracer.layer_totals()
    assert self_ns["core.decode"] == 12 and count["core.decode"] == 4
    assert extra["core.decode"] == 8


def test_generator_span_is_open_only_while_its_frame_runs():
    clock = Clock()
    tracer = Tracer(clock)
    seen = []

    def produce():
        for item in range(3):
            clock.tick(10)  # producer work
            yield [item] * 2
        clock.tick(10)

    traced = wrap_generator_span(
        tracer, produce, "produce", "core.query",
        note=lambda span, batch: seen.append(len(batch)))
    tracer.begin_op()
    for _batch in traced():
        clock.tick(100)  # consumer work, not the producer's
    tracer.end_op()
    op, gen = tracer.spans
    assert gen["active_ns"] == gen["self_ns"] == 40
    assert (gen["start_ns"], gen["end_ns"]) == (0, 340)
    assert op["self_ns"] == 300
    assert seen == [2, 2, 2]


def test_generator_call_counts_once_and_nests_in_generator_span():
    clock = Clock()
    tracer = Tracer(clock)

    def kv_scan():
        for _ in range(2):
            clock.tick(7)
            yield "pair"

    traced_scan = wrap_generator_call(tracer, kv_scan, "kvstore.scan")

    def query():
        for _range in range(3):
            for pair in traced_scan():
                clock.tick(1)
                yield pair

    traced_query = wrap_generator_span(tracer, query, "query", "core.query")
    tracer.begin_op()
    assert len(list(traced_query())) == 6
    tracer.end_op()
    query_span = tracer.spans[1]
    assert query_span["calls"]["kvstore.scan"][:2] == [3, 42]
    assert query_span["self_ns"] == 6
    assert tracer.spans[0]["self_ns"] == 0


def test_abandoned_generator_closes_the_wrapped_one():
    tracer = Tracer(Clock())
    closed = []

    def produce():
        try:
            yield 1
            yield 2
        finally:
            closed.append(True)

    traced = wrap_generator_span(tracer, produce, "produce", "x")
    tracer.begin_op()
    gen = traced()
    assert next(gen) == 1
    gen.close()
    tracer.end_op()
    assert closed == [True]
    assert not tracer.stack


def test_wrappers_are_inert_outside_an_op():
    tracer = Tracer(Clock())
    traced = wrap_span(tracer, lambda: 7, "f", "x")
    traced_gen = wrap_generator_span(tracer, lambda: iter([1]), "g", "x")
    assert traced() == 7 and list(traced_gen()) == [1]
    assert tracer.spans == []


def test_exception_still_closes_the_span():
    tracer = Tracer(Clock())

    def boom():
        raise KeyError("x")

    traced = wrap_span(tracer, boom, "boom", "x")
    tracer.begin_op()
    try:
        traced()
    except KeyError:
        pass
    tracer.end_op()
    assert not tracer.stack and tracer.spans[1]["end_ns"] is not None


def _targets():
    return ([t[:2] for t in layers.SPANS + layers.GENERATOR_SPANS]
            + [t[:2] for t in layers.CALLS + layers.GENERATOR_CALLS])


def test_install_then_uninstall_restores_the_very_same_objects():
    before = {target: vars(Patches.resolve(target[0]))[target[1]]
              for target in _targets()}
    patches = layers.install(Tracer())
    assert all(vars(Patches.resolve(owner))[attr] is not before[owner, attr]
               for owner, attr in _targets())
    assert patches.uninstall() is True
    assert all(vars(Patches.resolve(owner))[attr] is before[owner, attr]
               for owner, attr in _targets())


def test_every_target_is_patched_once():
    targets = _targets()
    assert len(targets) == len(set(targets))
