"""The rule-based logical optimizer (Section VI, "SQL Optimize").

Three rewrite rules, exactly the paper's:

1. **Constant folding** — expressions over literals (including
   ``st_makeMBR``/``st_makePoint`` calls) are evaluated once and replaced
   by their values, so ``fid = 52 * 9`` becomes ``fid = 468`` and the MBR
   is computed before the scan.
2. **Selection pushdown** — filter predicates move through projections
   down to the scan node, where spatio-temporal conjuncts become index
   ranges.
3. **Projection pushdown** — only the columns needed by filtering,
   grouping, ordering, and the final projection are read from storage.
"""

from __future__ import annotations

from dataclasses import replace

from repro.errors import ExecutionError
from repro.sql.ast import (
    Aliased,
    BinaryOp,
    Column,
    Expr,
    FuncCall,
    InFunc,
    Literal,
    children,
    with_children,
)
from repro.sql.expressions import (
    eval_expr,
    join_conjuncts,
    referenced_columns,
    split_conjuncts,
)
from repro.sql.functions import SCALAR_FUNCTIONS
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

#: Functions safe to evaluate at plan time when all arguments are literal.
_FOLDABLE = frozenset(SCALAR_FUNCTIONS) - {"st_trajnoisefilter"}


def optimize(plan: LogicalNode) -> LogicalNode:
    """Apply all rules until a fixed point (one pass each suffices here)."""
    plan = _fold_node(plan)
    plan = _push_filters(plan)
    plan = _push_projections(plan)
    return plan


# -- rule 1: constant folding ---------------------------------------------------

def fold_expr(expr: Expr) -> Expr:
    """Recursively replace constant sub-expressions with literals."""
    operands = children(expr)
    if not operands:
        return expr
    folded = with_children(expr, tuple(fold_expr(e) for e in operands))
    if _is_foldable(folded) and \
            all(isinstance(e, Literal) for e in children(folded)):
        return _try_literal(folded)
    return folded


def _is_foldable(expr: Expr) -> bool:
    """May this node become a literal once all its operands are?

    ``AND``/``OR`` are left as written, an alias keeps its name, and
    ``IN st_KNN(...)`` is served by the scan planner.
    """
    if isinstance(expr, FuncCall):
        return expr.name in _FOLDABLE
    if isinstance(expr, BinaryOp):
        return expr.op not in ("and", "or")
    return not isinstance(expr, (Aliased, InFunc))


def _try_literal(expr: Expr) -> Expr:
    try:
        return Literal(eval_expr(expr, {}))
    except ExecutionError:
        return expr


def _fold_node(plan: LogicalNode) -> LogicalNode:
    if isinstance(plan, FilterNode):
        return FilterNode(_fold_node(plan.child), fold_expr(plan.predicate))
    if isinstance(plan, ProjectNode):
        return ProjectNode(_fold_node(plan.child),
                           [(fold_expr(e), n) for e, n in plan.projections])
    if isinstance(plan, AggregateNode):
        return AggregateNode(_fold_node(plan.child),
                             [(fold_expr(e), n)
                              for e, n in plan.group_exprs],
                             plan.agg_calls)
    if isinstance(plan, SortNode):
        return SortNode(_fold_node(plan.child),
                        [(fold_expr(e), asc) for e, asc in plan.keys])
    if isinstance(plan, LimitNode):
        return LimitNode(_fold_node(plan.child), plan.limit)
    if isinstance(plan, DistinctNode):
        return DistinctNode(_fold_node(plan.child))
    if isinstance(plan, JoinNode):
        return JoinNode(_fold_node(plan.left), _fold_node(plan.right),
                        plan.left_column, plan.right_column, plan.how)
    return plan


# -- rule 2: selection pushdown --------------------------------------------------

def _push_filters(plan: LogicalNode) -> LogicalNode:
    if isinstance(plan, FilterNode):
        child = _push_filters(plan.child)
        return _push_filter_into(child, plan.predicate)
    if isinstance(plan, ProjectNode):
        return ProjectNode(_push_filters(plan.child), plan.projections)
    if isinstance(plan, AggregateNode):
        return AggregateNode(_push_filters(plan.child), plan.group_exprs,
                             plan.agg_calls)
    if isinstance(plan, SortNode):
        return SortNode(_push_filters(plan.child), plan.keys)
    if isinstance(plan, LimitNode):
        return LimitNode(_push_filters(plan.child), plan.limit)
    if isinstance(plan, DistinctNode):
        return DistinctNode(_push_filters(plan.child))
    if isinstance(plan, JoinNode):
        return JoinNode(_push_filters(plan.left),
                        _push_filters(plan.right),
                        plan.left_column, plan.right_column, plan.how)
    return plan


def _push_filter_into(child: LogicalNode, predicate: Expr) -> LogicalNode:
    """Push a predicate as deep as legal into ``child``."""
    if isinstance(child, (ScanNode, MemoryScanNode)):
        merged = join_conjuncts(
            split_conjuncts(child.pushed_filter)
            + split_conjuncts(predicate))
        return replace(child, pushed_filter=merged)
    if isinstance(child, ProjectNode):
        mapping = _passthrough_mapping(child)
        conjuncts = split_conjuncts(predicate)
        pushable, blocked = [], []
        for conjunct in conjuncts:
            refs = referenced_columns(conjunct)
            if refs <= set(mapping):
                pushable.append(_rename_columns(conjunct, mapping))
            else:
                blocked.append(conjunct)
        node = child
        if pushable:
            node = ProjectNode(
                _push_filter_into(child.child, join_conjuncts(pushable)),
                child.projections)
        if blocked:
            return FilterNode(node, join_conjuncts(blocked))
        return node
    if isinstance(child, JoinNode):
        # Push one-sided conjuncts into the matching join input.
        conjuncts = split_conjuncts(predicate)
        left_cols = set(child.left.columns)
        right_cols = set(child.right.columns)
        to_left, to_right, blocked = [], [], []
        for conjunct in conjuncts:
            refs = referenced_columns(conjunct)
            if refs <= left_cols:
                to_left.append(conjunct)
            elif refs <= right_cols and child.how == "inner":
                to_right.append(conjunct)
            else:
                blocked.append(conjunct)
        left = child.left
        right = child.right
        if to_left:
            left = _push_filter_into(left, join_conjuncts(to_left))
        if to_right:
            right = _push_filter_into(right, join_conjuncts(to_right))
        node = JoinNode(left, right, child.left_column,
                        child.right_column, child.how)
        if blocked:
            return FilterNode(node, join_conjuncts(blocked))
        return node
    if isinstance(child, (SortNode, LimitNode, DistinctNode)):
        # Filtering below a LIMIT changes results; keep the filter here.
        if isinstance(child, LimitNode):
            return FilterNode(child, predicate)
        if isinstance(child, SortNode):
            return SortNode(_push_filter_into(child.child, predicate),
                            child.keys)
        return DistinctNode(_push_filter_into(child.child, predicate))
    return FilterNode(child, predicate)


def _passthrough_mapping(project: ProjectNode) -> dict[str, str]:
    """output name -> input column, for pure column projections."""
    mapping = {}
    for expr, name in project.projections:
        inner = expr.expr if isinstance(expr, Aliased) else expr
        if isinstance(inner, Column):
            mapping[name] = inner.name
    return mapping


def _rename_columns(expr: Expr, mapping: dict[str, str]) -> Expr:
    if isinstance(expr, Column):
        return Column(mapping.get(expr.name, expr.name))
    return with_children(expr, tuple(_rename_columns(e, mapping)
                                     for e in children(expr)))


# -- rule 3: projection pushdown ---------------------------------------------------

def _push_projections(plan: LogicalNode,
                      needed: set[str] | None = None) -> LogicalNode:
    """Record at each scan the columns actually needed above it."""
    if isinstance(plan, ScanNode):
        if needed is None:
            return plan
        required = set(needed)
        if plan.pushed_filter is not None:
            required |= referenced_columns(plan.pushed_filter)
        pruned = [c for c in plan.columns if c in required]
        if not pruned:
            pruned = plan.columns[:1]
        return ScanNode(plan.table_name, plan.columns, plan.pushed_filter,
                        pruned)
    if isinstance(plan, ProjectNode):
        required: set[str] = set()
        for expr, _name in plan.projections:
            required |= referenced_columns(expr)
        return ProjectNode(_push_projections(plan.child, required),
                           plan.projections)
    if isinstance(plan, FilterNode):
        required = set(needed) if needed is not None else set(
            plan.child.columns)
        required |= referenced_columns(plan.predicate)
        return FilterNode(_push_projections(plan.child, required),
                          plan.predicate)
    if isinstance(plan, AggregateNode):
        required = set()
        for expr, _name in plan.group_exprs:
            required |= referenced_columns(expr)
        for call, _name in plan.agg_calls:
            required |= referenced_columns(call)
        return AggregateNode(_push_projections(plan.child, required),
                             plan.group_exprs, plan.agg_calls)
    if isinstance(plan, SortNode):
        required = set(needed) if needed is not None else set(
            plan.child.columns)
        for expr, _asc in plan.keys:
            required |= referenced_columns(expr)
        return SortNode(_push_projections(plan.child, required), plan.keys)
    if isinstance(plan, LimitNode):
        return LimitNode(_push_projections(plan.child, needed), plan.limit)
    if isinstance(plan, DistinctNode):
        return DistinctNode(_push_projections(plan.child, needed))
    if isinstance(plan, JoinNode):
        left_needed = None
        right_needed = None
        if needed is not None:
            left_needed = ({c for c in needed if c in plan.left.columns}
                           | {plan.left_column})
            right_needed = ({c for c in needed
                             if c in plan.right.columns}
                            | {plan.right_column})
        return JoinNode(_push_projections(plan.left, left_needed),
                        _push_projections(plan.right, right_needed),
                        plan.left_column, plan.right_column, plan.how)
    return plan
