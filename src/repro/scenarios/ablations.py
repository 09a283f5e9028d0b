"""Ablations of the design choices behind the headline results.

Not paper figures: the Z2T time-period length, the key-range
decomposition budget, the block cache, the shard-prefix count, the
GPS-list codec and the update path, each measured on the Order (or Traj)
dataset with the paper's default query.
"""

from __future__ import annotations

from repro.baselines import GeoSpark
from repro.baselines.base import items_from_orders
from repro.core.plugins import TrajectoryPlugin
from repro.core.schema import Field, FieldType, Schema
from repro.scenarios.paper import (
    DEFAULT_TIME_WINDOW_S,
    DEFAULT_WINDOW_KM,
    MB,
    ORDER_SCHEMA,
    exceeds,
    figure,
    just_st_ms,
    measure,
    time_ranges,
)
from repro.scenarios.report import ScenarioResult, Shape


def _populated(data, userdata=None):
    engine = data.engine()
    engine.create_table("t", ORDER_SCHEMA, userdata)
    engine.insert("t", data.orders)
    engine.table("t").flush()
    return engine


def _default_queries(data):
    return (data.order_query_windows(DEFAULT_WINDOW_KM),
            time_ranges(data.order_stats, DEFAULT_TIME_WINDOW_S))


@figure("Ablation A1", "Z2T period vs time window, sim ms", "time window",
        Shape("hour periods fan out badly on 1-week windows: "
              "period=hour > period=day",
              lambda t: exceeds(t, "period=hour", "period=day", at=["1w"])),
        Shape("week and month periods dilute the period filter: both "
              "cost more than period=day up to 1d windows",
              lambda t: all(exceeds(t, p, "period=day", at=["1h", "1d"])
                            for p in ("period=week", "period=month"))))
def ablation_a1(data, table):
    """(design choice) Z2T period length vs query time window.

    Short periods pay per-period range fan-out on long queries; long
    periods dilute the period-number filter.  A day — the paper's
    default — suits its day-scale queries.
    """
    engines = {period: _populated(data, {"just.time_period": period})
               for period in ("hour", "day", "week", "month")}
    windows = data.order_query_windows(DEFAULT_WINDOW_KM)
    for label, window_s in (("1h", 3600.0), ("1d", 86400.0),
                            ("1w", 7 * 86400.0)):
        times = time_ranges(data.order_stats, window_s)
        for period, engine in engines.items():
            table.add(f"period={period}", label,
                      just_st_ms(engine, "t", windows, times))


@figure("Ablation A2", "Range budget vs ST query, sim ms", "max_ranges",
        Shape("a starved budget (16 ranges) over-scans: it costs more "
              "than the default 256",
              lambda t: t.value("JUST", 16) > t.value("JUST", 256)))
def ablation_a2(data, table):
    """(design choice) key-range decomposition budget: seeks vs
    over-scan."""
    windows, times = _default_queries(data)
    for budget in (16, 64, 256, 1024):
        engine = _populated(data, {"just.max_ranges": budget})
        table.add("JUST", budget, just_st_ms(engine, "t", windows, times))


@figure("Ablation A3", "Block cache effect, sim ms", "state",
        Shape("a repeated identical query is cheaper warm than cold",
              lambda t: t.value("same query", "warm")
              < t.value("same query", "cold")))
def ablation_a3(data, table):
    """(methodology) HBase block cache: the paper randomizes queries to
    defeat it.

    This is why every figure clears the caches before each query.
    """
    engine = _populated(data)
    windows, times = _default_queries(data)
    (t_lo, t_hi), window = times[0], windows[0]
    engine.store.clear_caches()
    cold = engine.st_range_query("t", window, t_lo, t_hi).sim_ms
    warm = engine.st_range_query("t", window, t_lo, t_hi).sim_ms
    table.add("same query", "cold", cold)
    table.add("same query", "warm", warm)


@figure("Ablation A4", "Shards vs ST query, sim ms", "num_shards",
        Shape("16 shards cost more per query than 1",
              lambda t: t.value("JUST", 16) > t.value("JUST", 1)))
def ablation_a4(data, table):
    """(design choice) shard-prefix count.

    Each extra shard multiplies the per-query range fan-out; in exchange
    writes spread further.
    """
    windows, times = _default_queries(data)
    for shards in (1, 4, 16):
        engine = _populated(data, {"just.num_shards": shards})
        table.add("JUST", shards, just_st_ms(engine, "t", windows, times))


@figure("Ablation A5", "GPS-list codec: stored MB", "codec",
        Shape("gzip and zip both shrink the trajectory table vs storing "
              "plain",
              lambda t: t.value("traj table", "none")
              > max(t.value("traj table", "zip"),
                    t.value("traj table", "gzip"))))
def ablation_a5(data, table):
    """(design choice) GPS-list codec."""
    for codec in ("none", "zip", "gzip"):
        schema = Schema([
            Field("tid", FieldType.STRING, primary_key=True),
            Field("oid", FieldType.STRING),
            Field("start_time", FieldType.DATE),
            Field("end_time", FieldType.DATE),
            Field("start_point", FieldType.POINT),
            Field("end_point", FieldType.POINT),
            Field("gps_list", FieldType.ST_SERIES, compress=codec),
        ])
        engine = data.engine()
        stored = engine.create_table("t", schema)
        stored.insert_rows([TrajectoryPlugin.row_of(t) for t in data.trajs])
        stored.flush()
        table.add("traj table", codec, stored.storage_bytes() / MB)


@figure("Ablation A6", "1% append: JUST insert vs Spark rebuild, sim ms",
        "path",
        Shape("appending 1 % costs JUST a small insert; GeoSpark's full "
              "reload costs > 5x more",
              lambda t: t.value("update", "GeoSpark rebuild")
              > 5 * t.value("update", "JUST insert")))
def ablation_a6(data, table):
    """(Table I) JUST is update-enabled; Spark systems rebuild indexes on
    new data."""
    engine = _populated(data)
    batch = [{**r, "fid": r["fid"] + 1_000_000}
             for r in data.orders[:len(data.orders) // 100]]
    just_ms = engine.insert("t", batch).sim_ms
    geospark = GeoSpark(data.cluster())
    geospark.load(items_from_orders(data.orders))
    # New data -> full rebuild for the Spark system.
    geospark.unload()
    rebuild_ms = GeoSpark(data.cluster()).load(
        items_from_orders(data.orders + batch)).elapsed_ms
    table.add("update", "JUST insert", just_ms)
    table.add("update", "GeoSpark rebuild", rebuild_ms)


FIGURES = (ablation_a1, ablation_a2, ablation_a3, ablation_a4, ablation_a5,
           ablation_a6)


def run(out) -> ScenarioResult:
    """Ablations: Z2T period, range budget, cache, shards, codec, updates."""
    return measure(FIGURES)
