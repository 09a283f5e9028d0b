"""Physical execution: logical plan -> DataFrame.

The scan node is where JUST differs from vanilla Spark SQL: pushed-down
spatio-temporal conjuncts are translated into index key ranges served by
the key-value store; only residual predicates are evaluated row by row.
k-NN membership (``geom IN st_KNN(...)``) and primary-key equality also
short-circuit to their dedicated access paths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.core.knn import knn_query
from repro.core.query import choose_strategy
from repro.core.schema import FieldType
from repro.curves.strategies import STQuery
from repro.dataframe import DataFrame, RowBatch, batches_from_rows
from repro.errors import ExecutionError
from repro.geometry.distance import EARTH_RADIUS_M
from repro.geometry.envelope import Envelope
from repro.geometry.point import Point
from repro.sql.ast import (
    Aliased,
    Between,
    BinaryOp,
    Column,
    Expr,
    FuncCall,
    InFunc,
    Literal,
)
from repro.sql.expressions import (
    eval_expr,
    eval_expr_batch,
    split_conjuncts,
)
from repro.sql.functions import (
    AGGREGATE_FUNCTIONS,
    NM_FUNCTIONS,
    SET_FUNCTIONS,
    make_map_matching_function,
)
from repro.sql.logical import (
    AggregateNode,
    JoinNode,
    DistinctNode,
    FilterNode,
    LimitNode,
    LogicalNode,
    MemoryScanNode,
    ProjectNode,
    ScanNode,
    SortNode,
)
from repro.dataframe.functions import AggregateSpec, fold_batch, group_rows


@dataclass
class _ScanPredicates:
    """Conjuncts recognized by the scan planner."""

    envelope: Envelope | None = None
    spatial_mode: str = "intersects"
    t_min: float | None = None
    t_max: float | None = None
    knn: tuple[Point, int] | None = None
    fid: object | None = None
    attr: tuple[str, object] | None = None
    residual: list[Expr] | None = None


def execute_plan(plan: LogicalNode, engine, job, ctx=None) -> DataFrame:
    """Evaluate a logical plan to a DataFrame, charging ``job``.

    ``ctx`` (a :class:`repro.resilience.RequestContext`) is checked at
    node boundaries — a statement past its deadline cancels between
    operators rather than running to completion — and reaches the store
    through the scan node.  When the context carries a
    :class:`~repro.observability.profile.QueryProfile`, every operator
    executes inside a trace span annotated with rows out, blocks read,
    cache hits, and inclusive simulated milliseconds (the data EXPLAIN
    ANALYZE renders); per-operator latency histograms go to the
    engine's metrics registry either way.
    """
    if ctx is not None:
        ctx.check(f"{type(plan).__name__} boundary")
    profile = getattr(ctx, "profile", None) if ctx is not None else None
    op_name = type(plan).__name__
    start_ms = job.elapsed_ms
    if profile is None:
        df = _execute_node(plan, engine, job, ctx)
    else:
        before = engine.store.stats.snapshot()
        with profile.span(plan.describe(), kind="operator",
                          op=op_name) as span:
            try:
                df = _execute_node(plan, engine, job, ctx)
            finally:
                delta = engine.store.stats.snapshot().delta(before)
                span.sim_ms = job.elapsed_ms - start_ms
                span.attrs.update(
                    blocks_read=delta.blocks_read,
                    cache_hits=delta.cache_hits,
                    disk_bytes_read=delta.disk_bytes_read)
            span.attrs["rows_out"] = df.count()
            # The scan node records its source batch count (plus batch
            # timings) itself; every other operator reports the batches
            # backing its output frame.
            span.attrs.setdefault("batches", df.num_batches)
    engine.metrics.histogram("sql.operator_ms", op=op_name).observe(
        job.elapsed_ms - start_ms)
    engine.metrics.counter("sql.operators_executed").inc()
    return df


def _execute_node(plan: LogicalNode, engine, job, ctx=None) -> DataFrame:
    if isinstance(plan, ScanNode):
        return _execute_scan(plan, engine, job, ctx)
    if isinstance(plan, MemoryScanNode):
        return _memory_scan(plan, engine, job)
    if isinstance(plan, FilterNode):
        child = execute_plan(plan.child, engine, job, ctx)
        job.charge_cpu_batch(child.count(), child.num_batches)
        return _filter_frame(child, plan.predicate, engine)
    if isinstance(plan, ProjectNode):
        return _execute_project(plan, engine, job, ctx)
    if isinstance(plan, AggregateNode):
        return _execute_aggregate(plan, engine, job, ctx)
    if isinstance(plan, SortNode):
        return _execute_sort(plan, engine, job, ctx)
    if isinstance(plan, LimitNode):
        child = execute_plan(plan.child, engine, job, ctx)
        return child.limit(plan.limit)
    if isinstance(plan, DistinctNode):
        child = execute_plan(plan.child, engine, job, ctx)
        job.charge_cpu_records(child.count())
        return child.distinct()
    if isinstance(plan, JoinNode):
        return _execute_join(plan, engine, job, ctx)
    raise ExecutionError(f"cannot execute plan node {type(plan).__name__}")


def _execute_join(plan: JoinNode, engine, job, ctx=None) -> DataFrame:
    """Hash equi-join (a shuffle + build/probe in Spark terms)."""
    left = execute_plan(plan.left, engine, job, ctx)
    right = execute_plan(plan.right, engine, job, ctx)
    job.charge_cpu_records(left.count() + right.count(),
                           us_per_record=3.0)
    if plan.right_column != plan.left_column:
        right = right.map_rows(
            lambda row: {**{k: v for k, v in row.items()
                            if k != plan.right_column},
                         plan.left_column: row.get(plan.right_column)},
            [plan.left_column if c == plan.right_column else c
             for c in right.columns])
    return left.join(right, [plan.left_column], how=plan.how)


def _extra_functions(engine) -> dict:
    network = getattr(engine, "road_network", None)
    if network is None:
        return {}
    return {"st_trajmapmatching": make_map_matching_function(network)}


# -- scans ---------------------------------------------------------------------

def _memory_scan(plan: MemoryScanNode, engine, job) -> DataFrame:
    """One Spark stage over an in-memory relation: a view's cached
    frame or a ``sys.*`` table's live rows."""
    df = engine.catalog.get(plan.name).scan()
    job.charge_fixed("spark_stage", engine.cluster.model.spark_stage_ms)
    job.charge_memory_scan(df.estimated_bytes())
    if plan.pushed_filter is not None:
        df = _filter_frame(df, plan.pushed_filter, engine)
    return df


def _filter_frame(df: DataFrame, predicate: Expr, engine) -> DataFrame:
    """``df``'s rows where ``predicate`` is TRUE, batch at a time."""
    extra = _extra_functions(engine)
    return DataFrame.from_batches(
        [_filter_batch(b, [predicate], extra, engine.metrics)
         for b in df.to_batches()], df.columns)


def _st_query(preds: _ScanPredicates) -> STQuery:
    """The spatio-temporal predicate the planner pushed into the scan.

    Only a two-sided time window is pushable: the curve strategies
    enumerate finite period bins, so an open-ended bound (``time > x``
    alone) cannot become an index range — it stays residual-only (the
    classifier already keeps single-sided comparisons in the residual
    list).
    """
    t_min, t_max = preds.t_min, preds.t_max
    if t_min is None or t_max is None:
        t_min = t_max = None
    return STQuery(preds.envelope, t_min, t_max)


def _has_pushed_st(preds: _ScanPredicates) -> bool:
    """Does the scan carry an index-servable spatio-temporal window?"""
    return preds.envelope is not None or \
        (preds.t_min is not None and preds.t_max is not None)


def _apply_pushed_st_filter(table, preds: _ScanPredicates,
                            rows: list[dict]) -> list[dict]:
    """Enforce envelope/time conjuncts on the point/kNN access paths.

    The classifier consumes spatial conjuncts (and BETWEEN temporal
    conjuncts) into ``preds`` expecting a range scan to serve them; when
    primary-key or kNN access wins instead, those conjuncts must still
    be applied per row or the scan silently returns rows outside the
    requested window.
    """
    if not _has_pushed_st(preds):
        return rows
    query = _st_query(preds)
    return [row for row in rows
            if table._matches(row, query, preds.spatial_mode)]


def _execute_scan(plan: ScanNode, engine, job, ctx=None) -> DataFrame:
    """Serve a table scan batch-at-a-time from the best access path.

    Every path — k-NN, primary key, attribute index, ST range, full
    scan — becomes one stream of column-major :class:`RowBatch`es of the
    pushed projection; the residual filter evaluates one mask per batch.
    The ST range and the full scan hand the projection to the table,
    which decodes only what it and its own exact filter read; the other
    paths go through the row API and decode every field.
    """
    table = engine.table(plan.table_name)
    preds = _classify_conjuncts(plan.pushed_filter, table)
    extra = _extra_functions(engine)
    projection = plan.pushed_projection
    columns = projection or table.columns()
    decoded = None

    if preds.knn is not None:
        point, k = preds.knn
        result = knn_query(table, point.lng, point.lat, k, job, ctx=ctx)
        rows = _apply_pushed_st_filter(table, preds, result.rows)
        source = batches_from_rows(rows, columns)
    elif preds.fid is not None:
        row = table.get(str(preds.fid), ctx, job=job)
        job.charge_cpu_records(1)
        rows = _apply_pushed_st_filter(
            table, preds, [row] if row is not None else [])
        source = batches_from_rows(rows, columns)
    elif preds.attr is not None and preds.envelope is None \
            and preds.t_min is None:
        field_name, value = preds.attr
        source = batches_from_rows(
            table.attribute_query(field_name, value, job, ctx), columns)
    elif _has_pushed_st(preds):
        decoded = table.decoded_fields(projection, filtered=True)
        source = table.query_batches(_st_query(preds), preds.spatial_mode,
                                     job, ctx=ctx, columns=projection)
    else:
        decoded = table.decoded_fields(projection)
        source = table.full_scan_batches(job, ctx, columns=projection)

    batches: list[RowBatch] = []
    rows_in = 0
    batch_ms: list[float] = []
    last_ms = job.elapsed_ms
    metrics = engine.metrics
    for batch in source:
        rows_in += len(batch)
        if preds.residual:
            batch = _filter_batch(batch, preds.residual, extra, metrics)
        else:
            _count_batch(metrics)
        batches.append(batch)
        now = job.elapsed_ms
        batch_ms.append(now - last_ms)
        last_ms = now
    if preds.residual:
        job.charge_cpu_batch(rows_in, len(batch_ms))

    profile = getattr(ctx, "profile", None) if ctx is not None else None
    if profile is not None:
        span = profile.current
        span.attrs["batches"] = len(batch_ms)
        span.attrs["decoded_fields"] = "*" if decoded is None else sorted(
            decoded.intersection(table.schema.names))
        if batch_ms:
            span.attrs["batch_ms_max"] = round(max(batch_ms), 3)
            span.attrs["batch_ms_avg"] = round(
                sum(batch_ms) / len(batch_ms), 3)
    return DataFrame.from_batches(batches, columns)


def _count_batch(metrics) -> None:
    metrics.counter("sql.batches").inc()


def _filter_batch(batch: RowBatch, conjuncts: list[Expr],
                  extra: dict, metrics) -> RowBatch:
    """Keep the batch's rows where every conjunct evaluates to TRUE.

    Each conjunct sees only the rows the earlier ones kept, as an
    ``AND`` would have it.
    """
    _count_batch(metrics)
    for conjunct in conjuncts:
        batch = batch.filter(eval_expr_batch(conjunct, batch, extra))
    return batch


def _classify_conjuncts(predicate: Expr | None, table) -> _ScanPredicates:
    preds = _ScanPredicates(residual=[])
    geometry_field = table.schema.geometry_field
    geometry_name = geometry_field.name if geometry_field else None
    time_field = table.schema.time_field
    time_name = time_field.name if time_field else None
    pk = table.schema.primary_key
    pk_name = pk.name if pk else None
    # Plugin tables index the derived geometry/time extent; map the
    # conventional column names onto them too.
    time_names = {time_name, "time", "start_time"} - {None}
    geom_names = {geometry_name, "geom", "geometry", "gps_list"} - {None}

    for conjunct in split_conjuncts(predicate):
        if _is_spatial(conjunct, geom_names, preds) or \
                _is_radius(conjunct, table, preds):
            continue
        if _is_temporal(conjunct, time_names, preds):
            continue
        if _is_knn(conjunct, geom_names, preds):
            continue
        if _is_fid(conjunct, pk_name, preds):
            continue
        if _is_attribute(conjunct, table, preds):
            continue
        preds.residual.append(conjunct)
    return preds


def _is_spatial(conjunct: Expr, geom_names: set[str],
                preds: _ScanPredicates) -> bool:
    envelope = None
    mode = None
    if isinstance(conjunct, BinaryOp) and conjunct.op == "within" and \
            isinstance(conjunct.left, Column) and \
            conjunct.left.name in geom_names and \
            isinstance(conjunct.right, Literal) and \
            isinstance(conjunct.right.value, Envelope):
        envelope, mode = conjunct.right.value, "within"
    elif isinstance(conjunct, FuncCall) and \
            conjunct.name in ("st_within", "st_intersects") and \
            len(conjunct.args) == 2 and \
            isinstance(conjunct.args[0], Column) and \
            conjunct.args[0].name in geom_names and \
            isinstance(conjunct.args[1], Literal) and \
            isinstance(conjunct.args[1].value, Envelope):
        envelope = conjunct.args[1].value
        mode = "within" if conjunct.name == "st_within" else "intersects"
    if envelope is None:
        return False
    _push_window(preds, envelope)
    preds.spatial_mode = mode
    return True


def _push_window(preds: _ScanPredicates, envelope: Envelope) -> None:
    """Narrow the scan's spatial window to ``envelope``.

    Windows that share no point leave a degenerate one, and a residual
    ``FALSE``: a row on that point passes the index and the exact
    filter, yet meets only one of the windows.
    """
    if preds.envelope is None:
        preds.envelope = envelope
        return
    shared = preds.envelope.intersection(envelope)
    if shared is None:
        shared = Envelope.of_point(envelope.min_lng, envelope.min_lat)
        preds.residual.append(Literal(False))
    preds.envelope = shared


def _is_radius(conjunct: Expr, table, preds: _ScanPredicates) -> bool:
    """``st_distance_m(geom, P) < r`` (or ``st_distance``, ``<=``, the
    arguments swapped, ``r > ...``) on a point table: the circle's
    bounding box becomes the scan's window, as a ``WITHIN`` of that box
    would, and the conjunct stays residual, so every row the scan
    returns still passes the exact distance test.

    Pushed only when the box is sure to hold every row the test
    accepts: the table's geometry is a stored ``POINT`` column (a plugin
    table indexes a geometry derived from other fields), the table has
    an index that serves a spatial window, and ``r`` is a finite,
    non-negative literal.  Rows with a NULL geometry are never indexed;
    the test answers NULL for them, so they are never returned either.
    """
    if not isinstance(conjunct, BinaryOp):
        return False
    if conjunct.op in ("<", "<="):
        call, radius = conjunct.left, conjunct.right
    elif conjunct.op in (">", ">="):
        call, radius = conjunct.right, conjunct.left
    else:
        return False
    if not (isinstance(call, FuncCall) and call.name in _CIRCLE_BOXES
            and len(call.args) == 2 and isinstance(radius, Literal)):
        return False
    column, centre = call.args
    if isinstance(centre, Column):
        column, centre = centre, column
    field = table.schema.geometry_field
    if not (isinstance(column, Column) and table.plugin_type is None
            and field is not None and field.ftype == FieldType.POINT
            and column.name == field.name
            and isinstance(centre, Literal)
            and isinstance(centre.value, Point)):
        return False
    r = _radius_value(radius.value)
    if r is None or not _serves_window(table):
        return False
    _push_window(preds, _CIRCLE_BOXES[call.name](centre.value, r))
    preds.residual.append(conjunct)
    return True


def _radius_value(value) -> float | None:
    """``value`` as a finite, non-negative radius, else ``None``."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    try:
        r = float(value)
    except OverflowError:
        return None
    return r if math.isfinite(r) and r >= 0.0 else None


def _serves_window(table) -> bool:
    """Does the planner have an index for a spatial window on ``table``?"""
    try:
        choose_strategy(table, STQuery(Envelope.world()))
    except ExecutionError:
        return False
    return True


#: How much wider than exact a circle's box is: a relative margin on
#: the radius, and an absolute one in degrees under it, which also
#: covers offsets too small for the distance formulas to register.
#: Float rounding in the box or in the residual's distance is far
#: below both, so it can never exclude a row the residual accepts.
_BOX_MARGIN = 1e-9
_BOX_PAD_DEG = 1e-9


def _haversine_box(centre: Point, radius_m: float) -> Envelope:
    """Bounding box of the points within ``radius_m`` metres of
    ``centre`` by :func:`haversine_distance_m`.

    A circle of angular radius ``d`` spans ``lat ± d`` and, unless it
    reaches a pole, ``lng ± asin(sin d / cos lat)``; a circle that
    reaches a pole or crosses the antimeridian takes every longitude.
    """
    d = radius_m / EARTH_RADIUS_M * (1.0 + _BOX_MARGIN)
    half_lat = math.degrees(d) + _BOX_PAD_DEG
    min_lat, max_lat = centre.lat - half_lat, centre.lat + half_lat
    if min_lat <= -90.0 or max_lat >= 90.0:
        return _clipped(-180.0, min_lat, 180.0, max_lat)
    spread = math.sin(d) / math.cos(math.radians(centre.lat))
    if spread >= 1.0:
        return _clipped(-180.0, min_lat, 180.0, max_lat)
    half_lng = math.degrees(math.asin(spread)) + _BOX_PAD_DEG
    min_lng, max_lng = centre.lng - half_lng, centre.lng + half_lng
    if min_lng <= -180.0 or max_lng >= 180.0:
        min_lng, max_lng = -180.0, 180.0
    return _clipped(min_lng, min_lat, max_lng, max_lat)


def _planar_box(centre: Point, radius_deg: float) -> Envelope:
    """Bounding box of the points within ``radius_deg`` degrees of
    ``centre`` by :func:`euclidean_distance` (planar: no wrap-around)."""
    half = radius_deg * (1.0 + _BOX_MARGIN) + _BOX_PAD_DEG
    return _clipped(centre.lng - half, centre.lat - half,
                    centre.lng + half, centre.lat + half)


def _clipped(min_lng: float, min_lat: float, max_lng: float,
             max_lat: float) -> Envelope:
    """The box cut to the WGS84 coordinate space, where every point is."""
    return Envelope(max(min_lng, -180.0), max(min_lat, -90.0),
                    min(max_lng, 180.0), min(max_lat, 90.0))


#: Distance function -> the box of its circle.
_CIRCLE_BOXES = {"st_distance_m": _haversine_box,
                 "st_distance": _planar_box}


def _is_temporal(conjunct: Expr, time_names: set[str],
                 preds: _ScanPredicates) -> bool:
    if isinstance(conjunct, Between) and \
            isinstance(conjunct.operand, Column) and \
            conjunct.operand.name in time_names and \
            isinstance(conjunct.low, Literal) and \
            isinstance(conjunct.high, Literal):
        low = float(conjunct.low.value)
        high = float(conjunct.high.value)
        preds.t_min = low if preds.t_min is None else max(preds.t_min, low)
        preds.t_max = high if preds.t_max is None else min(preds.t_max,
                                                           high)
        return True
    if isinstance(conjunct, BinaryOp) and \
            conjunct.op in ("<", "<=", ">", ">=") and \
            isinstance(conjunct.left, Column) and \
            conjunct.left.name in time_names and \
            isinstance(conjunct.right, Literal):
        value = float(conjunct.right.value)
        if conjunct.op in (">", ">="):
            preds.t_min = value if preds.t_min is None else \
                max(preds.t_min, value)
        else:
            preds.t_max = value if preds.t_max is None else \
                min(preds.t_max, value)
        # Keep as residual too: the index range is closed while the
        # original predicate may be strict.
        preds.residual.append(conjunct)
        return True
    return False


def _is_knn(conjunct: Expr, geom_names: set[str],
            preds: _ScanPredicates) -> bool:
    if not (isinstance(conjunct, InFunc)
            and isinstance(conjunct.operand, Column)
            and conjunct.operand.name in geom_names
            and conjunct.func.name == "st_knn"
            and len(conjunct.func.args) == 2):
        return False
    point_arg, k_arg = conjunct.func.args
    if not (isinstance(point_arg, Literal)
            and isinstance(point_arg.value, Point)
            and isinstance(k_arg, Literal)):
        raise ExecutionError("st_KNN expects (st_makePoint(lng, lat), k) "
                             "with literal arguments")
    preds.knn = (point_arg.value, int(k_arg.value))
    return True


def _is_attribute(conjunct: Expr, table,
                  preds: _ScanPredicates) -> bool:
    """Equality on a field with a secondary attribute index.

    The conjunct also stays in the residual list: when a stronger access
    path (spatio-temporal ranges) serves the scan, the equality is
    enforced per row instead.
    """
    indexed = getattr(table, "attribute_indexes", {})
    if not indexed or preds.attr is not None:
        return False
    if isinstance(conjunct, BinaryOp) and conjunct.op == "=":
        left, right = conjunct.left, conjunct.right
        if isinstance(right, Column) and isinstance(left, Literal):
            left, right = right, left
        if isinstance(left, Column) and left.name in indexed and \
                isinstance(right, Literal) and right.value is not None:
            preds.attr = (left.name, right.value)
            preds.residual.append(conjunct)
            return True
    return False


def _is_fid(conjunct: Expr, pk_name: str | None,
            preds: _ScanPredicates) -> bool:
    if pk_name is None:
        return False
    if isinstance(conjunct, BinaryOp) and conjunct.op == "=":
        left, right = conjunct.left, conjunct.right
        if isinstance(right, Column) and isinstance(left, Literal):
            left, right = right, left
        if isinstance(left, Column) and left.name == pk_name and \
                isinstance(right, Literal):
            preds.fid = right.value
            return True
    return False


# -- projections (including 1-N and N-M operations) ------------------------------

def _execute_project(plan: ProjectNode, engine, job, ctx=None) -> DataFrame:
    child = execute_plan(plan.child, engine, job, ctx)
    extra = _extra_functions(engine)

    set_items = [(expr, name) for expr, name in plan.projections
                 if _projection_kind(expr, extra) == "set"]
    nm_items = [(expr, name) for expr, name in plan.projections
                if _projection_kind(expr, extra) == "nm"]
    if len(set_items) + len(nm_items) > 1:
        raise ExecutionError(
            "at most one 1-N or N-M operation per SELECT")

    if nm_items:
        job.charge_cpu_records(child.count())
        return _execute_dbscan(plan, child, nm_items[0], extra)
    if set_items:
        job.charge_cpu_records(child.count())
        return _execute_set_projection(plan, child, set_items[0], extra,
                                       engine, job)

    out = [_project_batch(b, plan.projections, extra, engine.metrics)
           for b in child.to_batches()]
    job.charge_cpu_batch(child.count(), child.num_batches)
    return DataFrame.from_batches(out, [n for _e, n in plan.projections])


def _project_batch(batch: RowBatch, projections, extra: dict,
                   metrics) -> RowBatch:
    """Evaluate scalar projections column-at-a-time over one batch."""
    _count_batch(metrics)
    data = {name: eval_expr_batch(expr, batch, extra)
            for expr, name in projections}
    return RowBatch(data, [n for _e, n in projections], len(batch))


def _projection_kind(expr: Expr, extra: dict) -> str:
    inner = expr.expr if isinstance(expr, Aliased) else expr
    if isinstance(inner, FuncCall):
        if inner.name in NM_FUNCTIONS:
            return "nm"
        if inner.name in SET_FUNCTIONS or inner.name in extra:
            return "set"
    return "scalar"


def _execute_set_projection(plan: ProjectNode, child: DataFrame, set_item,
                            extra: dict, engine, job) -> DataFrame:
    """1-N operation: the set function's results each become one row."""
    set_expr, set_name = set_item
    inner = set_expr.expr if isinstance(set_expr, Aliased) else set_expr
    fn = extra.get(inner.name) or SET_FUNCTIONS[inner.name]
    scalar_items = [(e, n) for e, n in plan.projections
                    if n != set_name]
    columns = [n for _e, n in plan.projections]

    # The evaluator calls the set function like a scalar one (each
    # row's value is that row's list of results) and types its errors.
    functions = {**extra, inner.name: fn}

    def expand(batch: RowBatch) -> RowBatch:
        results = eval_expr_batch(inner, batch, functions)
        scalars = [(name, eval_expr_batch(expr, batch, extra))
                   for expr, name in scalar_items]
        data = {name: [] for name in columns}
        for i, elements in enumerate(results):
            for element in elements:
                data[set_name].append(element)
                for name, values in scalars:
                    data[name].append(values[i])
        return RowBatch(data, columns, len(data[set_name]))

    out = DataFrame.from_batches(
        [expand(b) for b in child.to_batches()], columns)
    job.charge_cpu_records(out.count(), us_per_record=20.0)
    return out


def _execute_dbscan(plan: ProjectNode, child: DataFrame, nm_item,
                    extra: dict) -> DataFrame:
    """N-M operation: DBSCAN over the whole input."""
    from repro.ops.analysis.dbscan import dbscan

    nm_expr, _name = nm_item
    inner = nm_expr.expr if isinstance(nm_expr, Aliased) else nm_expr
    if len(inner.args) != 3:
        raise ExecutionError("st_DBSCAN expects (geom, minPts, radius)")
    geom_arg, min_pts_arg, radius_arg = inner.args
    rows = child.collect()
    points = []
    for batch in child.to_batches():
        for geometry in eval_expr_batch(geom_arg, batch, extra):
            if not isinstance(geometry, Point):
                raise ExecutionError("st_DBSCAN clusters point geometries")
            points.append((geometry.lng, geometry.lat))
    first = rows[0] if rows else {}
    try:
        min_pts = int(eval_expr(min_pts_arg, first, extra))
        radius = float(eval_expr(radius_arg, first, extra))
        labels = dbscan(points, min_pts, radius)
    except (TypeError, ValueError) as exc:
        raise ExecutionError(f"st_DBSCAN: {exc}") from None
    out_rows = [{**row, "cluster": label}
                for row, label in zip(rows, labels)]
    columns = child.columns + ["cluster"]
    return DataFrame.from_rows(out_rows, columns, child.num_partitions)


# -- aggregation / sorting ----------------------------------------------------------

def _execute_aggregate(plan: AggregateNode, engine, job,
                       ctx=None) -> DataFrame:
    """Hash aggregation folding column-major batches directly.

    Group keys and aggregate inputs are evaluated once per batch as
    whole columns, then :func:`fold_batch` folds each group's run of
    them — the fold ``DataFrame.group_by`` runs too.
    """
    child = execute_plan(plan.child, engine, job, ctx)
    extra = _extra_functions(engine)
    metrics = engine.metrics
    specs: list[AggregateSpec] = []
    agg_exprs: list[Expr | None] = []
    for call, output in plan.agg_calls:
        factory = AGGREGATE_FUNCTIONS[call.name]
        if call.is_star_count or (call.name == "count" and not call.args):
            specs.append(factory(None, output))
            agg_exprs.append(None)  # COUNT(*): counts rows
        elif not call.args:
            raise ExecutionError(f"{call.name}() needs an argument")
        else:
            specs.append(factory(f"__agg_in_{output}", output))
            agg_exprs.append(call.args[0])

    batches = child.to_batches()
    groups: dict[tuple, list] = {}
    total = 0
    for batch in batches:
        total += len(batch)
        _count_batch(metrics)
        fold_batch(groups,
                   [eval_expr_batch(expr, batch, extra)
                    for expr, _name in plan.group_exprs],
                   [None if e is None else eval_expr_batch(e, batch, extra)
                    for e in agg_exprs],
                   specs, len(batch))
    job.charge_cpu_batch(total, len(batches), us_per_record=0.8)

    group_names = [name for _e, name in plan.group_exprs]
    # One row per group: a single batch, however many the input had.
    return DataFrame.from_rows(group_rows(groups, group_names, specs),
                               group_names + [s.output for s in specs], 1)


def _execute_sort(plan: SortNode, engine, job, ctx=None) -> DataFrame:
    child = execute_plan(plan.child, engine, job, ctx)
    extra = _extra_functions(engine)
    job.charge_cpu_records(child.count(), us_per_record=3.0)
    key_names = []
    ascending = []
    temp_columns = []
    batches = child.to_batches()
    for i, (expr, asc) in enumerate(plan.keys):
        if isinstance(expr, Column):
            key_names.append(expr.name)
        else:
            temp = f"__sort_{i}"
            batches = [b.with_column(temp, eval_expr_batch(expr, b, extra))
                       for b in batches]
            key_names.append(temp)
            temp_columns.append(temp)
        ascending.append(asc)
    df = DataFrame.from_batches(batches, child.columns + temp_columns)
    df = df.order_by(key_names, ascending)
    if temp_columns:
        df = df.select(child.columns)
    return df
