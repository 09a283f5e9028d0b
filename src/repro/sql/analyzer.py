"""Semantic analysis: AST -> logical plan.

Resolves table/view names against the catalog, expands ``SELECT *``,
verifies column references, classifies aggregate queries, and arranges the
operator tree Scan -> Filter -> Aggregate -> Sort -> Project -> Distinct ->
Limit.  Sorting happens *before* the final projection when its keys are
not projection outputs (the paper's running example sorts by ``time``
while projecting only ``name, geom``).
"""

from __future__ import annotations

from repro.core.catalog import TABLE_KINDS
from repro.errors import AnalysisError, TableNotFoundError
from repro.sql.ast import (
    Aliased,
    Column,
    Expr,
    FuncCall,
    SelectStmt,
    Star,
    SubquerySource,
    TableSource,
)
from repro.sql.expressions import (
    contains_aggregate,
    expr_name,
    referenced_columns,
)
from repro.sql.functions import AGGREGATE_FUNCTIONS
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


_AGGREGATE_EXPRESSION = (
    "expressions over aggregates are not supported; alias the aggregate "
    "and wrap in an outer SELECT")


def analyze_select(engine, stmt: SelectStmt,
                   namespace: str = "") -> LogicalNode:
    """Build the analyzed logical plan for a SELECT statement."""
    plan = _analyze_source(engine, stmt, namespace)
    for join in stmt.joins:
        right = _analyze_one_source(engine, join.source, namespace)
        if join.left_column not in plan.columns:
            raise AnalysisError(
                f"JOIN column {join.left_column!r} not in the left side "
                f"(available: {sorted(plan.columns)})")
        if join.right_column not in right.columns:
            raise AnalysisError(
                f"JOIN column {join.right_column!r} not in the right "
                f"side (available: {sorted(right.columns)})")
        plan = JoinNode(plan, right, join.left_column,
                        join.right_column, join.how)
    available = set(plan.columns)

    if stmt.where is not None:
        _check_columns(stmt.where, available, "WHERE")
        plan = FilterNode(plan, stmt.where)

    projections = _expand_star(stmt.projections, plan.columns)
    named = [(expr, expr_name(expr, i))
             for i, expr in enumerate(projections)]

    is_aggregate = bool(stmt.group_by) or any(
        contains_aggregate(e) for e, _n in named)

    if is_aggregate:
        plan = _plan_aggregate(plan, stmt, named, available)
        if stmt.having is not None:
            if contains_aggregate(stmt.having):
                raise AnalysisError(_AGGREGATE_EXPRESSION)
            _check_columns(stmt.having, set(plan.columns), "HAVING")
            plan = FilterNode(plan, stmt.having)
        output_names = plan.columns
        if stmt.order_by:
            _check_columns_list([e for e, _a in stmt.order_by],
                                set(output_names), "ORDER BY")
            plan = SortNode(plan, list(stmt.order_by))
    else:
        for expr, _name in named:
            _check_columns(expr, available, "SELECT")
        sort_first = _order_keys_need_input(stmt, named, available)
        if stmt.order_by and sort_first:
            _check_columns_list([e for e, _a in stmt.order_by], available,
                                "ORDER BY")
            plan = SortNode(plan, list(stmt.order_by))
        plan = ProjectNode(plan, named)
        if stmt.order_by and not sort_first:
            _check_columns_list([e for e, _a in stmt.order_by],
                                set(plan.columns), "ORDER BY")
            plan = SortNode(plan, list(stmt.order_by))

    if stmt.distinct:
        plan = DistinctNode(plan)
    if stmt.limit is not None:
        plan = LimitNode(plan, stmt.limit)
    return plan


def _analyze_source(engine, stmt: SelectStmt,
                    namespace: str) -> LogicalNode:
    if stmt.source is None:
        raise AnalysisError("SELECT without FROM is not supported")
    return _analyze_one_source(engine, stmt.source, namespace)


def _analyze_one_source(engine, source, namespace: str) -> LogicalNode:
    if isinstance(source, SubquerySource):
        return analyze_select(engine, source.select, namespace)
    if isinstance(source, TableSource):
        try:
            relation = engine.catalog.resolve(source.name, namespace)
        except TableNotFoundError:
            raise AnalysisError(
                f"unknown table or view {source.name!r}") from None
        if relation.kind in TABLE_KINDS:
            return ScanNode(relation.name, relation.columns())
        label = "SystemScan" if relation.kind == "system" else "ViewScan"
        return MemoryScanNode(relation.name, relation.columns(), label)
    raise AnalysisError(f"unsupported FROM source {source!r}")


def _expand_star(projections: list[Expr],
                 columns: list[str]) -> list[Expr]:
    out: list[Expr] = []
    for expr in projections:
        if isinstance(expr, Star):
            out.extend(Column(c) for c in columns)
        else:
            out.append(expr)
    if not out:
        raise AnalysisError("SELECT list is empty")
    return out


def _check_columns(expr: Expr, available: set[str], clause: str) -> None:
    missing = referenced_columns(expr) - available
    if missing:
        raise AnalysisError(
            f"{clause} references unknown columns: {sorted(missing)} "
            f"(available: {sorted(available)})")


def _check_columns_list(exprs, available: set[str], clause: str) -> None:
    for expr in exprs:
        _check_columns(expr, available, clause)


def _order_keys_need_input(stmt: SelectStmt, named, available) -> bool:
    """True when ORDER BY keys reference pre-projection columns."""
    if not stmt.order_by:
        return False
    output_names = {name for _e, name in named}
    for expr, _asc in stmt.order_by:
        refs = referenced_columns(expr)
        if not refs <= output_names:
            return True
    return False


def _plan_aggregate(plan: LogicalNode, stmt: SelectStmt, named,
                    available: set[str]) -> LogicalNode:
    group_exprs: list[tuple[Expr, str]] = []
    for i, expr in enumerate(stmt.group_by):
        _check_columns(expr, available, "GROUP BY")
        group_exprs.append((expr, expr_name(expr, i)))
    group_names = {name for _e, name in group_exprs}

    agg_calls: list[tuple[FuncCall, str]] = []
    outputs: list[tuple[Expr, str]] = []
    for expr, name in named:
        inner = expr.expr if isinstance(expr, Aliased) else expr
        if isinstance(inner, FuncCall) and inner.name in AGGREGATE_FUNCTIONS:
            agg_calls.append((inner, name))
            outputs.append((Column(name), name))
        elif isinstance(inner, Column):
            if inner.name not in group_names and \
                    not _matches_group(inner, group_exprs):
                raise AnalysisError(
                    f"column {inner.name!r} must appear in GROUP BY or an "
                    f"aggregate function")
            outputs.append((Column(_group_output(inner, group_exprs)), name))
        else:
            if not contains_aggregate(inner):
                raise AnalysisError(
                    "non-aggregate expressions in an aggregate SELECT must "
                    "be GROUP BY keys")
            raise AnalysisError(_AGGREGATE_EXPRESSION)
    node = AggregateNode(plan, group_exprs, agg_calls)
    return ProjectNode(node, outputs)


def _matches_group(column: Column, group_exprs) -> bool:
    return any(isinstance(e, Column) and e.name == column.name
               for e, _n in group_exprs)


def _group_output(column: Column, group_exprs) -> str:
    for expr, name in group_exprs:
        if isinstance(expr, Column) and expr.name == column.name:
            return name
    return column.name
