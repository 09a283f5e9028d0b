"""Seeded inputs, exact repeatability, and an oracle that can fail."""

import pytest

import layers
from measure import measure, run_workload
from spans import OP_LAYER, Tracer
from workloads import WORKLOADS, StRange

REPEATABLE = ("result_digest", "attempted", "failed", "sizes")
COUNTED = ("sim_ms_p50", "storage_amp", "write_amp", "failed_frac")


def _ops(name: str, seed: int):
    workload = WORKLOADS[name](seed, quick=True)
    workload.setup()
    # Statements and parameters; stored rows compare by value.
    return [(op.kind, op.arg, op.units, op.primary) for op in workload.ops]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_repeats_exactly(name):
    first = run_workload(name, 7, 0.0, quick=True)
    again = run_workload(name, 7, 0.0, quick=True)
    assert first["failed"] == 0 and first["attempted"] > 0
    for key in REPEATABLE:
        assert first[key] == again[key], key
    for metric in COUNTED:
        assert first["end_to_end"][metric] == again["end_to_end"][metric], \
            metric
    assert _ops(name, 7) == _ops(name, 7)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_another_seed_gives_other_inputs(name):
    assert _ops(name, 7) != _ops(name, 8)


def test_every_workload_reports_every_end_to_end_metric():
    result = run_workload("scan_aggregate", 7, 0.0, quick=True)
    assert set(result["end_to_end"]) == {
        "setup_s", "throughput_per_s", "p50_ms", "p90_ms", "sim_ms_p50",
        "failed_frac", "peak_rss_mb", "storage_amp", "write_amp"}
    assert all(value > 0 for name, value in result["end_to_end"].items()
               if name != "failed_frac")


def test_traced_round_accounts_for_all_op_time_and_cleans_up():
    result = run_workload("st_range", 7, 0.0, traced=True, quick=True)
    assert result["wrappers_removed"] is True
    layer = result["per_layer"]
    assert layer["curves.ranges_per_op"] >= 100
    assert layer["kvstore.scans_per_op"] == layer["curves.ranges_per_op"]
    assert 0 <= layer["harness.unattributed_frac"] < 0.15
    assert layer["kvstore.wal_syncs_per_kput"] == 0
    # After the wrappers are gone an untraced run is untouched by them.
    assert run_workload("st_range", 7, 0.0, quick=True)["failed"] == 0


@pytest.mark.parametrize("name", ["st_range", "ingest_bulk"])
def test_layer_self_times_add_up_to_the_traced_op_time(name):
    workload = WORKLOADS[name](7, quick=True)
    workload.setup()
    tracer = Tracer()
    patches = layers.install(tracer)
    workload.span = tracer.span
    try:
        trace = measure(workload, 0.0, tracer)
    finally:
        assert patches.uninstall()
    self_ns, _count, _extra = tracer.layer_totals()
    in_ops = sum(span["active_ns"] for span in tracer.spans
                 if span["layer"] == OP_LAYER)
    assert sum(self_ns.values()) == in_ops
    # The harness's own clock reads bracket the root span.
    assert abs(trace.wall_ns - in_ops) / trace.wall_ns < 0.01
    assert tracer.ops == len(workload.ops) and not tracer.stack


def test_a_missing_row_is_a_failed_op():
    workload = StRange(7, quick=True)
    workload.setup()
    clean = measure(workload, 0.0)
    assert clean.failed == 0
    victim = next(keys[0] for keys in clean.keys if keys)
    table = workload.engine.table(workload.engine.table_names()[0])
    assert table.delete(str(victim))
    broken = measure(workload, 0.0)
    assert broken.failed > 0 and broken.errors
    assert broken.failed / broken.attempted > 0


def test_an_op_that_raises_is_a_failed_op():
    workload = StRange(7, quick=True)
    workload.setup()
    workload.ops[0] = workload.ops[0]._replace(arg=("SELECT nonsense",))
    outcome = measure(workload, 0.0)
    assert outcome.failed == 1 and "Error" in outcome.errors[0]
