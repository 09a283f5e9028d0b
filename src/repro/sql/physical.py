"""Physical execution: logical plan -> DataFrame.

The scan node is where JUST differs from vanilla Spark SQL: pushed-down
spatio-temporal conjuncts are translated into index key ranges served by
the key-value store; only residual predicates are evaluated row by row.
k-NN membership (``geom IN st_KNN(...)``) and primary-key equality also
short-circuit to their dedicated access paths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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
from repro.dataframe.functions import AggregateSpec


@dataclass
class _ScanPredicates:
    """Conjuncts recognized by the scan planner.

    ``residual`` holds every conjunct the chosen access path does not
    serve exactly; :func:`_classify_conjuncts` moves the ones only the
    ST window (``windowed``) or the primary key (``keyed``) serves back
    into it when another path wins.
    """

    envelope: Envelope | None = None
    spatial_mode: str | None = None
    t_min: float | None = None
    t_max: float | None = None
    knn: tuple[Point, int] | None = None
    fid: object | None = None
    attr: tuple[str, object] | None = None
    residual: list[Expr] = field(default_factory=list)
    windowed: list[Expr] = field(default_factory=list)
    keyed: list[Expr] = field(default_factory=list)


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
        # Rename the right key to the left one: a new name per column
        # list, the lists themselves shared.
        names = [plan.left_column if c == plan.right_column else c
                 for c in right.columns]
        right = DataFrame.from_batches(
            [RowBatch(dict(zip(names, b.select(right.columns).data
                               .values())), names, len(b))
             for b in right.to_batches()], names)
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
        source = batches_from_rows(result.rows, columns)
    elif preds.fid is not None:
        row = table.get(str(preds.fid), ctx, job=job)
        job.charge_cpu_records(1)
        source = batches_from_rows([row] if row is not None else [],
                                   columns)
    elif preds.attr is not None and not _has_pushed_st(preds):
        field_name, value = preds.attr
        source = batches_from_rows(
            table.attribute_query(field_name, value, job, ctx), columns)
    elif _has_pushed_st(preds):
        decoded = table.decoded_fields(projection, filtered=True)
        source = table.query_batches(
            _st_query(preds), preds.spatial_mode or "intersects", job,
            ctx=ctx, columns=projection)
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
    """Sort a scan's conjuncts into what its access path serves and the
    residual.

    Only the columns the table's exact filter reads are pushed
    (:attr:`~repro.core.tables.CommonTable.geometry_column` and
    ``time_columns``), and only with literals the index can use: a NULL,
    a string or a second k-NN stays residual, where it answers as on an
    unindexed column.  k-NN wins over the primary key, which wins over
    the window; what the winner does not serve goes back into the
    residual.
    """
    preds = _ScanPredicates()
    geometry = table.geometry_column
    pk = table.schema.primary_key
    for conjunct in split_conjuncts(predicate):
        if _is_knn(conjunct, geometry, preds) or \
                _is_spatial(conjunct, table, preds) or \
                _is_radius(conjunct, table, preds) or \
                _is_temporal(conjunct, table.time_columns, preds) or \
                _is_fid(conjunct, pk, preds) or \
                _is_attribute(conjunct, table, preds):
            continue
        preds.residual.append(conjunct)
    if preds.knn is not None:
        preds.residual += preds.keyed
        preds.fid = None
    if preds.knn is not None or preds.fid is not None:
        preds.residual += preds.windowed
    return preds


def _is_spatial(conjunct: Expr, table, preds: _ScanPredicates) -> bool:
    """``geom WITHIN box``, ``st_within(geom, box)`` or
    ``st_intersects(geom, box)`` on the table's geometry column.

    Two windows narrow to their intersection when that is exact: both
    ``within`` (a geometry lies in two boxes when it lies in their
    intersection), or on a point column, where meeting a box is lying
    in it.  Otherwise the later conjunct stays residual.
    """
    if isinstance(conjunct, BinaryOp) and conjunct.op == "within":
        column, box, mode = conjunct.left, conjunct.right, "within"
    elif isinstance(conjunct, FuncCall) and \
            conjunct.name in ("st_within", "st_intersects") and \
            len(conjunct.args) == 2:
        column, box = conjunct.args
        mode = "within" if conjunct.name == "st_within" else "intersects"
    else:
        return False
    if not (isinstance(column, Column)
            and column.name == table.geometry_column
            and isinstance(box, Literal)
            and isinstance(box.value, Envelope)):
        return False
    if preds.spatial_mode not in (None, mode) or \
            preds.spatial_mode == "intersects" and not _is_point_table(table):
        return False
    _push_window(preds, box.value)
    preds.spatial_mode = mode
    preds.windowed.append(conjunct)
    return True


def _is_point_table(table) -> bool:
    """Is the indexed geometry a stored ``POINT`` column?  (A plugin
    table indexes a geometry derived from other fields.)"""
    field_ = table.schema.geometry_field
    return table.plugin_type is None and field_ is not None \
        and field_.ftype == FieldType.POINT


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
    if not (isinstance(column, Column) and _is_point_table(table)
            and column.name == table.geometry_column
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


def _is_temporal(conjunct: Expr, time_columns: tuple[str, ...],
                 preds: _ScanPredicates) -> bool:
    """A bound on the start of the table's time extent.

    On a one-column extent (an instant) ``BETWEEN`` is exactly the
    window and a comparison stays residual too, since the window is
    closed.  On a two-column extent a bound on the start column only
    narrows the window (an extent that starts in it overlaps it), so it
    always stays residual; a bound on the end column is not pushed.
    """
    if not time_columns:
        return False
    start = time_columns[0]
    exact = len(time_columns) == 1
    if isinstance(conjunct, Between) and _is_column(conjunct.operand, start):
        low, high = _time_value(conjunct.low), _time_value(conjunct.high)
        if low is None or high is None:
            return False
        _narrow_time(preds, low, high)
        (preds.windowed if exact else preds.residual).append(conjunct)
        return True
    if isinstance(conjunct, BinaryOp) and \
            conjunct.op in ("<", "<=", ">", ">=") and \
            _is_column(conjunct.left, start):
        value = _time_value(conjunct.right)
        if value is None:
            return False
        if conjunct.op in (">", ">="):
            _narrow_time(preds, value, None)
        else:
            _narrow_time(preds, None, value)
        preds.residual.append(conjunct)
        return True
    return False


def _is_column(expr: Expr, name: str | None) -> bool:
    return isinstance(expr, Column) and expr.name == name


def _time_value(expr: Expr) -> float | None:
    """A literal time bound as a finite number, else ``None``."""
    if not isinstance(expr, Literal) or isinstance(expr.value, bool) or \
            not isinstance(expr.value, (int, float)):
        return None
    value = float(expr.value)
    return value if math.isfinite(value) else None


def _narrow_time(preds: _ScanPredicates, low: float | None,
                 high: float | None) -> None:
    if low is not None:
        preds.t_min = low if preds.t_min is None else max(preds.t_min, low)
    if high is not None:
        preds.t_max = high if preds.t_max is None else \
            min(preds.t_max, high)


def _is_knn(conjunct: Expr, geometry: str | None,
            preds: _ScanPredicates) -> bool:
    """``geom IN st_KNN(st_makePoint(lng, lat), k)``: one per scan, with
    literal arguments; the k-NN set is taken over the whole table and
    every other conjunct filters it."""
    if not (isinstance(conjunct, InFunc)
            and _is_column(conjunct.operand, geometry)
            and conjunct.func.name == "st_knn"
            and len(conjunct.func.args) == 2):
        return False
    point_arg, k_arg = conjunct.func.args
    if not (isinstance(point_arg, Literal)
            and isinstance(point_arg.value, Point)
            and isinstance(k_arg, Literal)
            and isinstance(k_arg.value, int)
            and not isinstance(k_arg.value, bool)):
        raise ExecutionError("st_KNN expects (st_makePoint(lng, lat), k) "
                             "with literal arguments and an integer k")
    if preds.knn is not None:
        raise ExecutionError("a scan takes one st_KNN predicate")
    preds.knn = (point_arg.value, k_arg.value)
    return True


def _equality(conjunct: Expr) -> tuple[str, object] | None:
    """``column = literal`` (either way round) as ``(column, value)``."""
    if not (isinstance(conjunct, BinaryOp) and conjunct.op == "="):
        return None
    left, right = conjunct.left, conjunct.right
    if isinstance(right, Column) and isinstance(left, Literal):
        left, right = right, left
    if isinstance(left, Column) and isinstance(right, Literal):
        return left.name, right.value
    return None


def _is_attribute(conjunct: Expr, table,
                  preds: _ScanPredicates) -> bool:
    """Equality on a field with a secondary attribute index, to a
    string or a number.

    The conjunct also stays in the residual list: when a stronger access
    path (spatio-temporal ranges) serves the scan, the equality is
    enforced per row instead.
    """
    equality = _equality(conjunct)
    if equality is None or preds.attr is not None:
        return False
    name, value = equality
    if name not in table.attribute_indexes or isinstance(value, bool) or \
            not isinstance(value, (str, int, float)):
        return False
    preds.attr = equality
    preds.residual.append(conjunct)
    return True


#: Primary key type -> the literal types its feature ids are spelled by.
_KEY_LITERALS = {FieldType.STRING: str, FieldType.INTEGER: int,
                 FieldType.LONG: int}


def _is_fid(conjunct: Expr, pk, preds: _ScanPredicates) -> bool:
    """The first ``pk = literal`` whose literal spells a stored feature
    id (an ``int`` for an integer key, a ``str`` for a string one)."""
    equality = _equality(conjunct)
    if equality is None or pk is None or preds.fid is not None:
        return False
    name, value = equality
    if name != pk.name or isinstance(value, bool) or \
            not isinstance(value, _KEY_LITERALS.get(pk.ftype, ())):
        return False
    preds.fid = value
    preds.keyed.append(conjunct)
    return True


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
    """Hash aggregation over column-major batches.

    Group keys and aggregate inputs are evaluated once per batch as
    whole columns, added to the batch under their output names, and
    :meth:`DataFrame.group_by` folds each group's run of them.
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

    inputs = [*plan.group_exprs,
              *((e, s.column) for e, s in zip(agg_exprs, specs)
                if e is not None)]
    batches = []
    for batch in child.to_batches():
        _count_batch(metrics)
        # Every input is evaluated before any is added: an output name
        # may shadow a column another expression reads.
        values = [eval_expr_batch(expr, batch, extra)
                  for expr, _name in inputs]
        for (_expr, name), column in zip(inputs, values):
            batch = batch.with_column(name, column)
        batches.append(batch)
    job.charge_cpu_batch(sum(map(len, batches)), len(batches),
                         us_per_record=0.8)
    columns = list(dict.fromkeys(
        [*child.columns, *(name for _e, name in inputs)]))
    return DataFrame(batches, columns).group_by(
        [name for _e, name in plan.group_exprs], specs)


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
