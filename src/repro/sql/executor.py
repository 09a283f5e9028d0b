"""Top-level statement execution (parse -> analyze -> optimize -> run)."""

from __future__ import annotations

from repro.core.schema import Field, Schema
from repro.errors import AnalysisError, ExecutionError
from repro.sql.analyzer import analyze_select
from repro.sql.ast import (
    AnalyzeStmt,
    CreateTableStmt,
    ExplainStmt,
    CreateViewStmt,
    DescStmt,
    DropStmt,
    InsertStmt,
    LoadStmt,
    SelectStmt,
    ShowStmt,
    StoreViewStmt,
)
from repro.sql.expressions import eval_expr
from repro.sql.optimizer import optimize
from repro.sql.parser import parse_filter, parse_statement
from repro.sql.physical import execute_plan
from repro.sql.result import ResultSet


def execute_statement(engine, statement: str,
                      namespace: str = "", ctx=None) -> ResultSet:
    """Parse and execute one JustQL statement against an engine.

    ``namespace`` is the per-user prefix the service layer adds to table
    and view names; it is invisible in the statement text and stripped
    from listings.  ``ctx`` (a :class:`repro.resilience.RequestContext`)
    carries the statement deadline and partial-results flag down into
    physical execution and the store's region iteration.
    """
    stmt = parse_statement(statement)
    if isinstance(stmt, SelectStmt):
        return _run_select(engine, stmt, namespace, ctx)
    if isinstance(stmt, ExplainStmt):
        if stmt.analyze:
            return _run_explain_analyze(engine, stmt, namespace, ctx)
        plan = optimize(analyze_select(engine, stmt.select, namespace))
        rows = [{"plan": line} for line in plan.pretty().splitlines()]
        return ResultSet.from_rows(rows, ["plan"])
    if isinstance(stmt, CreateTableStmt):
        return _run_create_table(engine, stmt, namespace)
    if isinstance(stmt, CreateViewStmt):
        return _run_create_view(engine, stmt, namespace, ctx)
    if isinstance(stmt, StoreViewStmt):
        engine.store_view_to_table(namespace + stmt.view,
                                   namespace + stmt.table)
        return ResultSet.status(f"view {stmt.view} stored to table "
                                f"{stmt.table}")
    if isinstance(stmt, DropStmt):
        if stmt.kind == "table":
            engine.drop_table(namespace + stmt.name)
        else:
            engine.drop_view(namespace + stmt.name)
        return ResultSet.status(f"{stmt.kind} {stmt.name} dropped")
    if isinstance(stmt, ShowStmt):
        return _run_show(engine, stmt, namespace)
    if isinstance(stmt, DescStmt):
        return _run_desc(engine, stmt, namespace)
    if isinstance(stmt, InsertStmt):
        return _run_insert(engine, stmt, namespace, ctx)
    if isinstance(stmt, LoadStmt):
        return _run_load(engine, stmt, namespace, ctx)
    if isinstance(stmt, AnalyzeStmt):
        return _run_analyze(engine, stmt, namespace, ctx)
    raise ExecutionError(f"unhandled statement {type(stmt).__name__}")


# -- SELECT -----------------------------------------------------------------------

def _plan_and_run(engine, select: SelectStmt, namespace: str, ctx):
    """Analyze, optimize and execute one SELECT on a fresh job bound to
    ``ctx``; returns ``(dataframe, job)``."""
    plan = optimize(analyze_select(engine, select, namespace))
    job = engine.cluster.job()
    if ctx is not None:
        ctx.bind(job)
    job.charge_fixed("driver", engine.cluster.model.query_overhead_ms)
    return execute_plan(plan, engine, job, ctx), job


def _run_select(engine, stmt: SelectStmt, namespace: str,
                ctx=None) -> ResultSet:
    df, job = _plan_and_run(engine, stmt, namespace, ctx)
    result = ResultSet.from_dataframe(df, job)
    if ctx is not None:
        if ctx.profile is not None:
            ctx.profile.finish(job.elapsed_ms, rows=len(result))
        if ctx.skipped:
            result.skipped_regions = ctx.skipped_report
    return result


def _run_explain_analyze(engine, stmt: ExplainStmt, namespace: str,
                         ctx=None) -> ResultSet:
    """Execute the SELECT under a trace profile, return annotated plan.

    The statement really runs (charging the job and honouring any
    deadline on ``ctx``), but the result rows are discarded in favour of
    the per-operator span annotations — exactly PostgreSQL's
    ``EXPLAIN ANALYZE`` contract.
    """
    from repro.observability.profile import QueryProfile, analyze_rows
    from repro.resilience import RequestContext

    if ctx is None:
        ctx = RequestContext()
    owned_profile = ctx.profile is None
    if owned_profile:
        ctx.profile = QueryProfile(statement="EXPLAIN ANALYZE")
    profile = ctx.profile
    df, job = _plan_and_run(engine, stmt.select, namespace, ctx)
    profile.finish(job.elapsed_ms, rows=df.count())
    result = ResultSet.from_rows(
        analyze_rows(profile),
        ["operator", "rows", "batches", "blocks_read", "cache_hits",
         "cache_hit_rate", "sim_ms"], job)
    if ctx.skipped:
        result.skipped_regions = ctx.skipped_report
    return result


def explain(engine, statement: str, namespace: str = "") -> str:
    """The optimized logical plan as text (debugging/tests)."""
    stmt = parse_statement(statement)
    if not isinstance(stmt, SelectStmt):
        raise ExecutionError("EXPLAIN supports SELECT statements only")
    return optimize(analyze_select(engine, stmt, namespace)).pretty()


# -- DDL ----------------------------------------------------------------------------

def _run_create_table(engine, stmt: CreateTableStmt,
                      namespace: str) -> ResultSet:
    name = namespace + stmt.name
    if stmt.plugin is not None:
        engine.create_plugin_table(name, stmt.plugin,
                                   stmt.userdata or None)
        return ResultSet.status(
            f"plugin table {stmt.name} created as {stmt.plugin}")
    fields = [Field.parse(cname, spec) for cname, spec in stmt.columns]
    schema = Schema(fields)
    engine.create_table(name, schema, stmt.userdata or None)
    return ResultSet.status(f"table {stmt.name} created")


def _run_create_view(engine, stmt: CreateViewStmt,
                     namespace: str, ctx=None) -> ResultSet:
    df, job = _plan_and_run(engine, stmt.select, namespace, ctx)
    engine.create_view(namespace + stmt.name, df,
                       owner=namespace or None)
    return ResultSet.status(f"view {stmt.name} created "
                            f"({df.count()} rows cached)", job)


def _run_show(engine, stmt: ShowStmt, namespace: str) -> ResultSet:
    if stmt.kind == "tables":
        names = engine.table_names(namespace)
        column = "table"
    else:
        names = engine.view_names(namespace)
        column = "view"
    rows = [{column: n[len(namespace):]} for n in names]
    return ResultSet.from_rows(rows, [column])


def _run_desc(engine, stmt: DescStmt, namespace: str) -> ResultSet:
    rows = engine.catalog.resolve(stmt.name, namespace).describe()
    return ResultSet.from_rows(rows, ["field", "type", "flags"])


def _run_analyze(engine, stmt: AnalyzeStmt, namespace: str,
                 ctx=None) -> ResultSet:
    if stmt.table.startswith("sys."):
        raise ExecutionError(
            f"cannot ANALYZE the virtual system table {stmt.table!r}")
    stats, job = engine.analyze_table(namespace + stmt.table)
    if ctx is not None:
        ctx.bind(job)
        ctx.charge(0.0, label="driver")
    return ResultSet.status(
        f"table {stmt.table} analyzed: {stats.row_count} rows, "
        f"{len(stats.distribution)} regions", job)


# -- DML ------------------------------------------------------------------------------

def _run_insert(engine, stmt: InsertStmt, namespace: str,
                ctx=None) -> ResultSet:
    name = namespace + stmt.table
    table = engine.table(name)
    columns = stmt.columns or table.schema.names
    rows = []
    for value_exprs in stmt.rows:
        if len(value_exprs) != len(columns):
            raise AnalysisError(
                f"INSERT row has {len(value_exprs)} values for "
                f"{len(columns)} columns")
        row = {}
        for column, expr in zip(columns, value_exprs):
            row[column] = eval_expr(expr, {})
        rows.append(row)
    result = engine.insert(name, rows)
    if ctx is not None:
        # Writes consume deadline budget too (a slow ingest times out);
        # binding after the fact charges the job's accumulated cost once.
        ctx.bind(result.job)
        ctx.charge(0.0, label="driver")
    return ResultSet.status(f"{len(rows)} rows inserted", result.job)


def _run_load(engine, stmt: LoadStmt, namespace: str,
              ctx=None) -> ResultSet:
    row_filter, limit = _parse_load_filter(stmt.filter_text)
    result = engine.load(stmt.source, namespace + stmt.table, stmt.config,
                         row_filter, limit)
    if ctx is not None:
        ctx.bind(result.job)
        ctx.charge(0.0, label="driver")
    return ResultSet.status(
        f"{result.extra['loaded']} rows loaded into {stmt.table}",
        result.job)


def _parse_load_filter(filter_text: str | None):
    """Parse a LOAD FILTER string such as ``'trajId="1068" limit 10'``.

    The predicate part is a JustQL expression evaluated against source
    rows; equality comparisons are string-tolerant because file sources
    yield strings.
    """
    if not filter_text:
        return None, None
    expr, limit = parse_filter(filter_text)
    if expr is None:
        return None, limit

    def row_filter(source_row: dict) -> bool:
        try:
            if eval_expr(expr, source_row) is True:
                return True
        except ExecutionError:
            pass
        coerced = {k: _coerce_scalar(v) for k, v in source_row.items()}
        try:
            return eval_expr(expr, coerced) is True
        except ExecutionError:
            return False

    return row_filter, limit


def _coerce_scalar(value):
    """Make file-source strings comparable against numeric literals."""
    if isinstance(value, str):
        try:
            return float(value) if "." in value else int(value)
        except ValueError:
            return value
    return value
