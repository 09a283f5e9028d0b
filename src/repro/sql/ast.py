"""Abstract syntax trees for JustQL statements and expressions."""

from __future__ import annotations

from dataclasses import dataclass, field


# -- expressions ---------------------------------------------------------------

class Expr:
    """Base class of expression nodes."""

    __slots__ = ()


@dataclass(frozen=True, slots=True)
class Literal(Expr):
    value: object


@dataclass(frozen=True, slots=True)
class Column(Expr):
    name: str


@dataclass(frozen=True, slots=True)
class Star(Expr):
    pass


@dataclass(frozen=True, slots=True)
class BinaryOp(Expr):
    """Arithmetic/comparison/logical binary operator.

    ``op`` is one of ``+ - * / % = != < <= > >= and or within like``.
    """

    op: str
    left: Expr
    right: Expr


@dataclass(frozen=True, slots=True)
class UnaryOp(Expr):
    op: str          # "not" or "-"
    operand: Expr


@dataclass(frozen=True, slots=True)
class Between(Expr):
    operand: Expr
    low: Expr
    high: Expr


@dataclass(frozen=True, slots=True)
class InFunc(Expr):
    """``expr IN st_KNN(...)`` — set membership against a function."""

    operand: Expr
    func: "FuncCall"


@dataclass(frozen=True, slots=True)
class IsNull(Expr):
    operand: Expr
    negated: bool


@dataclass(frozen=True, slots=True)
class FuncCall(Expr):
    name: str                    # lower-cased
    args: tuple[Expr, ...]

    @property
    def is_star_count(self) -> bool:
        return (self.name == "count" and len(self.args) == 1
                and isinstance(self.args[0], Star))


@dataclass(frozen=True, slots=True)
class Aliased(Expr):
    expr: Expr
    alias: str


def children(expr: Expr) -> tuple[Expr, ...]:
    """The direct sub-expressions of ``expr``, in evaluation order.

    This and :func:`with_children` are the only places that know a
    node's shape; every traversal is written on top of them.  The set
    function of an :class:`InFunc` is part of the node (the planner
    serves it, nothing evaluates or replaces it), so its arguments
    count as the membership test's own children.
    """
    if isinstance(expr, BinaryOp):
        return (expr.left, expr.right)
    if isinstance(expr, (UnaryOp, IsNull)):
        return (expr.operand,)
    if isinstance(expr, Between):
        return (expr.operand, expr.low, expr.high)
    if isinstance(expr, FuncCall):
        return tuple(expr.args)
    if isinstance(expr, Aliased):
        return (expr.expr,)
    if isinstance(expr, InFunc):
        return (expr.operand, *expr.func.args)
    return ()


def with_children(expr: Expr, new: tuple[Expr, ...]) -> Expr:
    """A copy of ``expr`` over ``new`` sub-expressions (same arity and
    order as :func:`children` returned)."""
    if isinstance(expr, BinaryOp):
        return BinaryOp(expr.op, *new)
    if isinstance(expr, UnaryOp):
        return UnaryOp(expr.op, *new)
    if isinstance(expr, IsNull):
        return IsNull(*new, expr.negated)
    if isinstance(expr, Between):
        return Between(*new)
    if isinstance(expr, FuncCall):
        return FuncCall(expr.name, tuple(new))
    if isinstance(expr, Aliased):
        return Aliased(*new, expr.alias)
    if isinstance(expr, InFunc):
        return InFunc(new[0], FuncCall(expr.func.name, tuple(new[1:])))
    return expr


# -- statements -----------------------------------------------------------------

class Statement:
    """Base class of statement nodes."""

    __slots__ = ()


@dataclass
class JoinClause:
    """One JOIN ... ON <left column> = <right column> clause."""

    source: "TableSource | SubquerySource"
    left_column: str
    right_column: str
    how: str = "inner"          # "inner" or "left"


@dataclass
class SelectStmt(Statement):
    projections: list[Expr]
    source: "TableSource | SubquerySource | None"
    where: Expr | None = None
    group_by: list[Expr] = field(default_factory=list)
    having: Expr | None = None
    order_by: list[tuple[Expr, bool]] = field(default_factory=list)
    limit: int | None = None
    distinct: bool = False
    joins: "list[JoinClause]" = field(default_factory=list)


@dataclass
class TableSource:
    name: str
    alias: str | None = None


@dataclass
class SubquerySource:
    select: SelectStmt
    alias: str | None = None


@dataclass
class CreateTableStmt(Statement):
    name: str
    columns: list[tuple[str, str]]      # (name, raw type spec)
    plugin: str | None = None           # CREATE TABLE x AS trajectory
    userdata: dict = field(default_factory=dict)


@dataclass
class CreateViewStmt(Statement):
    name: str
    select: SelectStmt


@dataclass
class StoreViewStmt(Statement):
    view: str
    table: str


@dataclass
class DropStmt(Statement):
    kind: str       # "table" or "view"
    name: str


@dataclass
class ShowStmt(Statement):
    kind: str       # "tables" or "views"


@dataclass
class DescStmt(Statement):
    name: str


@dataclass
class InsertStmt(Statement):
    table: str
    columns: list[str]
    rows: list[list[Expr]]


@dataclass
class LoadStmt(Statement):
    source: str                     # e.g. "hive:db.table" or "file:x.csv"
    table: str                      # target table (after "geomesa:")
    config: dict
    filter_text: str | None = None


@dataclass
class ExplainStmt(Statement):
    """EXPLAIN [ANALYZE] SELECT ...

    Plain EXPLAIN returns the optimized logical plan as text; EXPLAIN
    ANALYZE executes the plan and annotates every physical operator with
    rows, blocks read, cache hits, and simulated milliseconds.
    """

    select: SelectStmt
    analyze: bool = False
