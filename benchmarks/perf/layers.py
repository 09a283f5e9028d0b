"""Which calls of ``repro`` are wrapped, and the per-layer metrics.

Layers are this repo's packages.  :func:`install` wraps the public calls
at their boundaries (see :mod:`spans` for the wrapper kinds);
:func:`metrics` turns one traced round into the per-layer numbers listed
in ``BENCHMARK.json``.

``*_ms`` metrics are the layer's mean *self* time per primary op of the
workload; ``*_per_krow`` / ``*_per_kput`` / ``*_per_kget`` are per 1 000
rows inserted, puts or gets; ``streaming.poll_*`` are per poll.
"""

from __future__ import annotations

import statistics
from functools import partial

from spans import (
    OP_LAYER,
    Patches,
    Tracer,
    wrap_call,
    wrap_generator_call,
    wrap_generator_span,
    wrap_span,
)
from stats import percentile, spearman

_TABLE = "repro.core.tables:CommonTable"
_KV_TABLE = "repro.kvstore.store:KVTable"
_KV_STORE = "repro.kvstore.store:KVStore"
_REGION = "repro.kvstore.region:Region"
_STRATEGY = "repro.curves.strategies:IndexStrategy"
_CODEC = "repro.core.codec:RowCodec"
_FRAME = "repro.dataframe.dataframe:DataFrame"


def _rows_out(span, result) -> None:
    span["rows_out"] = span.get("rows_out", 0) + len(result)


def _ranges(span, result) -> None:
    span["ranges"] = len(result)


def _knn_areas(span, result) -> None:
    span["areas_queried"] = result.areas_queried
    span["areas_pruned"] = result.areas_pruned


#: ``(owner, attribute, layer, note)``: one span per call.  A function
#: imported by name is wrapped in every module that calls it.
SPANS = [
    ("repro.service.client:JustClient", "execute_query",
     "service.client", None),
    ("repro.service.server:JustServer", "execute", "service.execute", None),
    ("repro.observability.monitor:Monitor", "maybe_tick",
     "observability.monitor_tick", None),
    ("repro.sql.executor", "parse_statement", "sql.parse", None),
    ("repro.sql.executor", "analyze_select", "sql.plan", None),
    ("repro.sql.executor", "optimize", "sql.plan", None),
    ("repro.sql.executor", "execute_plan", "sql.exec", None),
    ("repro.sql.physical", "execute_plan", "sql.exec", None),
    (_FRAME, "group_by", "dataframe.ops", None),
    (_FRAME, "order_by", "dataframe.ops", None),
    (_FRAME, "limit", "dataframe.ops", None),
    (_FRAME, "select", "dataframe.ops", None),
    (_FRAME, "collect", "dataframe.ops", None),
    ("repro.core.query", "choose_strategy", "core.plan", None),
    ("repro.core.query", "choose_strategy_cost_based", "core.plan", None),
    ("repro.core.engine", "choose_strategy", "core.plan", None),
    ("repro.core.engine", "choose_strategy_cost_based", "core.plan", None),
    (_TABLE, "query", "core.query", _rows_out),
    (_TABLE, "insert_rows", "core.insert", None),
    ("repro.core.engine", "knn_query", "core.knn", _knn_areas),
    ("repro.sql.physical", "knn_query", "core.knn", _knn_areas),
    (_STRATEGY, "ranges", "curves.ranges", _ranges),
    (_REGION, "flush", "kvstore.flush", None),
    (_REGION, "compact", "kvstore.compact", None),
    # Size-triggered splits call _split directly; split_region (the
    # balancer's entry) is a thin shell around it.
    (_KV_TABLE, "_split", "kvstore.split", None),
    ("repro.streaming.stream:StreamLoader", "poll", "streaming.poll", None),
]

#: Generators recorded as one span, open only while their frame runs.
GENERATOR_SPANS = [
    (_TABLE, "query_batches", "core.query", _rows_out),
    (_TABLE, "full_scan_batches", "core.query", None),
]


def _blocks_touched(kv_table) -> int:
    stats = kv_table._stats
    return stats.blocks_read + stats.cache_hits


#: ``(owner, attribute, layer, probe)``: per-row calls, aggregated.
CALLS = [
    (_CODEC, "decode_row", "core.decode", None),
    (_CODEC, "encode_row", "core.encode", None),
    (_STRATEGY, "key", "curves.key", None),
    (_KV_TABLE, "put", "kvstore.put", None),
    (_KV_TABLE, "delete", "kvstore.put", None),
    (_KV_TABLE, "get", "kvstore.get", _blocks_touched),
    (_KV_STORE, "wal_append", "kvstore.wal_append", None),
    (_KV_STORE, "replicate_append", "replication.ship", None),
]

#: Generators aggregated like calls.
GENERATOR_CALLS = [
    (_KV_TABLE, "scan", "kvstore.scan"),
    (_KV_TABLE, "scan_batches", "kvstore.scan"),
]

#: ``SimJob.breakdown`` labels by the kind of simulated cost.
_SIM_DRIVER = {"driver", "driver_local", "spark_stage", "chunk_fetch"}
_SIM_CPU = {"cpu", "memory_scan"}


def install(tracer: Tracer) -> Patches:
    """Wrap every target; ``Patches.uninstall`` puts the originals back."""
    patches = Patches()

    def name_of(owner: str, attr: str) -> str:
        return f"{owner.rpartition(':')[2].rpartition('.')[2]}.{attr}"

    for owner, attr, layer, note in SPANS:
        patches.install(owner, attr, partial(
            wrap_span, tracer, name=name_of(owner, attr), layer=layer,
            note=note))
    for owner, attr, layer, note in GENERATOR_SPANS:
        patches.install(owner, attr, partial(
            wrap_generator_span, tracer, name=name_of(owner, attr),
            layer=layer, note=note))
    for owner, attr, layer, probe in CALLS:
        patches.install(owner, attr, partial(
            wrap_call, tracer, name=layer, probe=probe))
    for owner, attr, layer in GENERATOR_CALLS:
        patches.install(owner, attr, partial(
            wrap_generator_call, tracer, name=layer))
    return patches


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def metrics(tracer: Tracer, trace, untraced, workload, *,
            cpu_wall_ratio: float, gen2_collections: int) -> dict:
    """The per-layer metrics of one traced round.

    ``trace`` is the traced :class:`~measure.Measurement`, ``untraced``
    the measured one it is compared with.
    """
    self_ns, count, extra = tracer.layer_totals()
    ops = sum(op.primary for op in workload.ops)
    engine = workload.engine

    # One traced execution of each op against its median untraced one,
    # both calibrated; per-layer times take the traced round's mean
    # calibration so they add up to the same kind of millisecond.
    traced_ns = sum(map(sum, trace.walls().values()))
    calibration = traced_ns / trace.wall_ns
    typical_wall = {index: statistics.median(walls)
                    for index, walls in untraced.walls().items()}
    typical_ns = sum(typical_wall.values())
    rank_corr = spearman(
        [job.elapsed_ms for _index, job in untraced.jobs],
        [typical_wall[index] for index, _job in untraced.jobs])

    def layer_ms(layer: str) -> float:
        return self_ns.get(layer, 0) / 1e6 * calibration

    def per_op_ms(layer: str) -> float:
        return layer_ms(layer) / ops

    def per_thousand_ms(layer: str, of: str) -> float:
        return _ratio(layer_ms(layer) * 1000.0, count.get(of, 0))

    io = trace.after.io.delta(trace.before.io)
    emitted = trace.after.events_emitted - trace.before.events_emitted
    if emitted > engine.events.capacity:
        raise RuntimeError(
            f"{emitted} events in one traced round overflow the event "
            f"log's {engine.events.capacity}; count compactions per op")

    def events(kind: str) -> int:
        return (trace.after.event_counts.get(kind, 0)
                - trace.before.event_counts.get(kind, 0))

    rewritten = sum(e.bytes_after for e in trace.compactions
                    if e.seq > trace.before.events_emitted)
    spans = tracer.spans
    background = {"kvstore.flush", "kvstore.compact", "kvstore.split"}
    stalls = [s["active_ns"] for s in spans if s["layer"] in background
              and spans[s["parent"]]["layer"] not in background]
    range_queries = [s for s in spans if s["name"] in (
        "CommonTable.query", "CommonTable.query_batches")]
    knn = [s for s in spans if s["layer"] == "core.knn"]
    polls = [s for s in spans if s["layer"] == "streaming.poll"]
    poll_ms = [s["active_ns"] / 1e6 * calibration for s in polls] or [0.0]
    op_ns = sum(s["active_ns"] for s in spans if s["layer"] == OP_LAYER)
    puts = count.get("kvstore.put", 0)
    lifetime = engine.store.stats
    replication = engine.store.replication

    sim = {"driver": 0.0, "io": 0.0, "cpu": 0.0}
    for _index, job in trace.jobs:
        for label, ms in job.breakdown.items():
            kind = ("driver" if label in _SIM_DRIVER
                    else "cpu" if label in _SIM_CPU else "io")
            sim[kind] += ms
    sim_total = sum(sim.values())

    return {
        "service.execute_self_ms": per_op_ms("service.execute"),
        "service.client_self_ms": per_op_ms("service.client"),
        "observability.monitor_tick_ms":
            per_op_ms("observability.monitor_tick"),
        "observability.series_count": len(engine.metrics),
        "sql.parse_ms": per_op_ms("sql.parse"),
        "sql.plan_ms": per_op_ms("sql.plan"),
        "sql.exec_self_ms": per_op_ms("sql.exec"),
        "dataframe.ops_ms": per_op_ms("dataframe.ops"),
        "sql.rows_examined_per_result":
            _ratio(count.get("core.decode", 0), trace.returned_rows),
        "core.plan_ms": per_op_ms("core.plan"),
        "core.query_self_ms": per_op_ms("core.query"),
        "core.decode_ms": per_op_ms("core.decode"),
        "core.decode_rows_per_op": count.get("core.decode", 0) / ops,
        "core.encode_ms_per_krow":
            per_thousand_ms("core.encode", "core.encode"),
        "core.insert_self_ms_per_krow":
            per_thousand_ms("core.insert", "core.encode"),
        "core.knn_self_ms": per_op_ms("core.knn"),
        "core.knn_cells_per_query":
            _ratio(sum(s["areas_queried"] for s in knn), len(knn)),
        "core.knn_pruned_frac": _ratio(
            sum(s["areas_pruned"] for s in knn),
            sum(s["areas_pruned"] + s["areas_queried"] for s in knn)),
        "curves.ranges_ms": per_op_ms("curves.ranges"),
        "curves.ranges_per_op":
            sum(s.get("ranges", 0) for s in spans) / ops,
        "curves.key_ms_per_krow":
            per_thousand_ms("curves.key", "core.encode"),
        "curves.scan_precision": _ratio(
            sum(s.get("rows_out", 0) for s in range_queries),
            sum(s["calls"].get("core.decode", (0,))[0]
                for s in range_queries)),
        "kvstore.scan_ms": per_op_ms("kvstore.scan"),
        "kvstore.scans_per_op": io.scans_started / ops,
        "kvstore.blocks_per_op": (io.blocks_read + io.cache_hits) / ops,
        "kvstore.cache_hit_rate":
            _ratio(io.cache_hits, io.blocks_read + io.cache_hits),
        "kvstore.result_bytes_per_op": io.result_bytes / ops,
        "kvstore.put_ms_per_kput":
            per_thousand_ms("kvstore.put", "kvstore.put"),
        "kvstore.get_ms_per_kget":
            per_thousand_ms("kvstore.get", "kvstore.get"),
        "kvstore.get_blocks_per_get":
            _ratio(extra.get("kvstore.get", 0), count.get("kvstore.get", 0)),
        "kvstore.flush_ms_total": layer_ms("kvstore.flush"),
        "kvstore.flush_count": events("flush"),
        "kvstore.compact_ms_total": layer_ms("kvstore.compact"),
        "kvstore.compact_count": events("compaction"),
        "kvstore.compact_bytes_rewritten": rewritten,
        "kvstore.split_count": events("split"),
        "kvstore.stall_ms_max": max(stalls, default=0) / 1e6 * calibration,
        "kvstore.sstables_per_region": trace.runs_per_region,
        "kvstore.wal_append_ms_per_kput":
            per_thousand_ms("kvstore.wal_append", "kvstore.put"),
        "kvstore.wal_syncs_per_kput": _ratio(io.wal_syncs * 1000.0, puts),
        "kvstore.wal_bytes_per_user_byte":
            lifetime.wal_bytes_written / workload.user_bytes,
        "kvstore.disk_bytes_written_per_user_byte":
            lifetime.disk_bytes_written / workload.user_bytes,
        "replication.ship_ms_per_kput":
            per_thousand_ms("replication.ship", "kvstore.put"),
        "replication.shipped_records_per_put": _ratio(
            replication.records_shipped if replication is not None else 0,
            puts),
        "streaming.poll_ms_p50": percentile(poll_ms, 50),
        "streaming.poll_ms_p90": percentile(poll_ms, 90),
        "streaming.poll_self_ms":
            _ratio(layer_ms("streaming.poll"), len(polls)),
        "streaming.lag_max": workload.lag_max,
        "streaming.window_rows":
            len(workload.view.rows()) if workload.view else 0,
        "cluster.sim_ms_mean": _ratio(sim_total, len(trace.jobs)),
        "cluster.sim_driver_share": _ratio(sim["driver"], sim_total),
        "cluster.sim_io_share": _ratio(sim["io"], sim_total),
        "cluster.sim_cpu_share": _ratio(sim["cpu"], sim_total),
        "cluster.sim_wall_rank_corr": rank_corr,
        "harness.trace_overhead_frac": traced_ns / typical_ns - 1.0,
        "harness.cpu_wall_ratio": cpu_wall_ratio,
        "harness.unattributed_frac": _ratio(self_ns.get(OP_LAYER, 0), op_ns),
        "harness.gc_gen2_collections": gen2_collections,
    }
