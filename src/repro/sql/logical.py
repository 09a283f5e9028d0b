"""Logical plan nodes (the output of analysis, input of optimization)."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.sql.ast import Expr, FuncCall


class LogicalNode:
    """Base class; ``columns`` is every node's output schema."""

    columns: list[str]

    def children(self) -> list["LogicalNode"]:
        return []

    def pretty(self, indent: int = 0) -> str:
        """Readable plan tree (used in tests and EXPLAIN-style output)."""
        line = " " * indent + self.describe()
        return "\n".join([line] + [c.pretty(indent + 2)
                                   for c in self.children()])

    def describe(self) -> str:
        return type(self).__name__


@dataclass
class ScanNode(LogicalNode):
    """Scan of a stored (common or plugin) table.

    ``pushed_filter`` holds the conjuncts the optimizer pushed down; the
    physical planner turns spatio-temporal conjuncts into index ranges and
    evaluates the rest per row.  ``pushed_projection`` prunes columns as
    early as possible.
    """

    table_name: str
    columns: list[str]
    pushed_filter: Expr | None = None
    pushed_projection: list[str] | None = None

    def describe(self) -> str:
        parts = [f"Scan[{self.table_name}]"]
        if self.pushed_filter is not None:
            parts.append("filter=pushed")
        if self.pushed_projection is not None:
            parts.append(f"project={self.pushed_projection}")
        return " ".join(parts)


@dataclass
class MemoryScanNode(LogicalNode):
    """Scan of an in-memory relation: a view's cached DataFrame
    (``ViewScan``) or a ``sys.*`` table's live rows (``SystemScan``)."""

    name: str
    columns: list[str]
    label: str
    pushed_filter: Expr | None = None

    def describe(self) -> str:
        return f"{self.label}[{self.name}]"


@dataclass
class FilterNode(LogicalNode):
    child: LogicalNode
    predicate: Expr
    columns: list[str] = field(default_factory=list)

    def __post_init__(self):
        self.columns = list(self.child.columns)

    def children(self):
        return [self.child]

    def describe(self) -> str:
        return "Filter"


@dataclass
class ProjectNode(LogicalNode):
    child: LogicalNode
    projections: list[tuple[Expr, str]]   # (expression, output name)
    columns: list[str] = field(default_factory=list)

    def __post_init__(self):
        self.columns = [name for _e, name in self.projections]

    def children(self):
        return [self.child]

    def describe(self) -> str:
        return f"Project[{', '.join(self.columns)}]"


@dataclass
class AggregateNode(LogicalNode):
    child: LogicalNode
    group_exprs: list[tuple[Expr, str]]
    agg_calls: list[tuple[FuncCall, str]]
    columns: list[str] = field(default_factory=list)

    def __post_init__(self):
        self.columns = ([name for _e, name in self.group_exprs]
                        + [name for _c, name in self.agg_calls])

    def children(self):
        return [self.child]

    def describe(self) -> str:
        return f"Aggregate[{', '.join(self.columns)}]"


@dataclass
class SortNode(LogicalNode):
    child: LogicalNode
    keys: list[tuple[Expr, bool]]   # (expression, ascending)
    columns: list[str] = field(default_factory=list)

    def __post_init__(self):
        self.columns = list(self.child.columns)

    def children(self):
        return [self.child]

    def describe(self) -> str:
        return f"Sort[{len(self.keys)} keys]"


@dataclass
class LimitNode(LogicalNode):
    child: LogicalNode
    limit: int
    columns: list[str] = field(default_factory=list)

    def __post_init__(self):
        self.columns = list(self.child.columns)

    def children(self):
        return [self.child]

    def describe(self) -> str:
        return f"Limit[{self.limit}]"


@dataclass
class DistinctNode(LogicalNode):
    child: LogicalNode
    columns: list[str] = field(default_factory=list)

    def __post_init__(self):
        self.columns = list(self.child.columns)

    def children(self):
        return [self.child]

    def describe(self) -> str:
        return "Distinct"


@dataclass
class JoinNode(LogicalNode):
    """Equi-join of two plans on one column pair.

    Output columns are the left side's followed by the right side's
    non-colliding columns (left values win on collision, as the
    DataFrame join does).
    """

    left: LogicalNode
    right: LogicalNode
    left_column: str
    right_column: str
    how: str = "inner"
    columns: list[str] = field(default_factory=list)

    def __post_init__(self):
        extra = [c for c in self.right.columns
                 if c not in self.left.columns]
        self.columns = list(self.left.columns) + extra

    def children(self):
        return [self.left, self.right]

    def describe(self) -> str:
        return (f"Join[{self.how} on {self.left_column} = "
                f"{self.right_column}]")
