"""Expression evaluation and manipulation utilities.

:func:`eval_expr_batch` is the only evaluator: one walk of the
expression tree per :class:`RowBatch`, looping over column lists at the
leaves.  :func:`eval_expr` evaluates a single row as a batch of one.
"""

from __future__ import annotations

import math
import re
from contextlib import contextmanager

from repro.dataframe.batch import RowBatch
from repro.errors import ExecutionError
from repro.sql.ast import (
    Aliased,
    Between,
    BinaryOp,
    Column,
    Expr,
    FuncCall,
    InFunc,
    IsNull,
    Literal,
    Star,
    UnaryOp,
    children,
)
from repro.sql.functions import (
    AGGREGATE_FUNCTIONS,
    SCALAR_FUNCTIONS,
    SET_FUNCTIONS,
    lookup_scalar,
)


#: What applying an operator or a scalar function to values of the
#: wrong type or range raises.  Reported as :class:`ExecutionError`, so
#: callers (and the service layers) catch that one class only.
_APPLY_ERRORS = (TypeError, ValueError, ArithmeticError, AttributeError)


@contextmanager
def _applying(what: str):
    try:
        yield
    except _APPLY_ERRORS as exc:
        raise ExecutionError(f"cannot apply {what}: {exc}") from exc


def eval_expr_batch(expr: Expr, batch: RowBatch,
                    extra_functions: dict | None = None) -> list:
    """Evaluate ``expr`` over every row of ``batch``; returns one list
    of results, index-aligned with the batch's rows.

    SQL three-valued logic: ``NULL`` propagates through operators,
    division by zero yields ``NULL``, and ``AND``/``OR`` evaluate their
    right side only on the rows the left side left undecided.  An
    empty batch evaluates nothing, so nothing raises for it.
    """
    n = len(batch)
    if not n:
        return []
    if isinstance(expr, Literal):
        return [expr.value] * n
    if isinstance(expr, Column):
        if expr.name not in batch:
            raise ExecutionError(f"unknown column {expr.name!r}")
        return batch.column(expr.name)
    if isinstance(expr, Aliased):
        return eval_expr_batch(expr.expr, batch, extra_functions)
    if isinstance(expr, UnaryOp):
        values = eval_expr_batch(expr.operand, batch, extra_functions)
        if expr.op == "-":
            with _applying("unary '-'"):
                return [None if v is None else -v for v in values]
        if expr.op == "not":
            return [None if v is None else not bool(v) for v in values]
        raise ExecutionError(f"unknown unary operator {expr.op!r}")
    if isinstance(expr, Between):
        values = eval_expr_batch(expr.operand, batch, extra_functions)
        lows = eval_expr_batch(expr.low, batch, extra_functions)
        highs = eval_expr_batch(expr.high, batch, extra_functions)
        with _applying("BETWEEN"):
            return [None if v is None or lo is None or hi is None
                    else lo <= v <= hi
                    for v, lo, hi in zip(values, lows, highs)]
    if isinstance(expr, IsNull):
        values = eval_expr_batch(expr.operand, batch, extra_functions)
        if expr.negated:
            return [v is not None for v in values]
        return [v is None for v in values]
    if isinstance(expr, BinaryOp):
        if expr.op in ("and", "or"):
            return _eval_logical(expr, batch, extra_functions)
        return _eval_binary(expr, batch, extra_functions)
    if isinstance(expr, FuncCall):
        if extra_functions and expr.name in extra_functions:
            fn = extra_functions[expr.name]
        elif expr.name in SET_FUNCTIONS:
            raise ExecutionError(
                f"{expr.name} produces multiple rows; use it as the "
                f"projection of a SELECT")
        else:
            fn = lookup_scalar(expr.name)
        arg_lists = [eval_expr_batch(a, batch, extra_functions)
                     for a in expr.args]
        with _applying(f"function {expr.name!r}"):
            return [fn(*args) for args in zip(*arg_lists)] if arg_lists \
                else [fn() for _ in range(n)]
    if isinstance(expr, InFunc):
        raise ExecutionError(
            f"{expr.func.name} membership must be served by the planner")
    if isinstance(expr, Star):
        raise ExecutionError("'*' is not a value expression")
    raise ExecutionError(f"cannot evaluate {type(expr).__name__}")


def eval_expr(expr: Expr, row: dict,
              extra_functions: dict | None = None):
    """Evaluate an expression against one row (a batch of one)."""
    return eval_expr_batch(expr, RowBatch.from_rows([row]),
                           extra_functions)[0]


def _eval_logical(expr: BinaryOp, batch: RowBatch,
                  extra_functions) -> list:
    """``AND``/``OR``: a FALSE (TRUE) left side decides the row; the
    right side sees only the other rows, exactly as a row-at-a-time
    short-circuit would."""
    decided = expr.op == "or"
    lefts = eval_expr_batch(expr.left, batch, extra_functions)
    pending = [left is None or bool(left) is not decided
               for left in lefts]
    rights = iter(eval_expr_batch(expr.right, batch.filter(pending),
                                  extra_functions))
    out = []
    for left, undecided in zip(lefts, pending):
        if not undecided:
            out.append(decided)
            continue
        right = next(rights)
        if right is not None and bool(right) is decided:
            out.append(decided)
        elif left is None or right is None:
            out.append(None)
        else:
            out.append(not decided)
    return out


def _eval_binary(expr: BinaryOp, batch: RowBatch,
                 extra_functions) -> list:
    op = expr.op
    lefts = eval_expr_batch(expr.left, batch, extra_functions)
    rights = eval_expr_batch(expr.right, batch, extra_functions)
    if op == "within":
        within = SCALAR_FUNCTIONS["st_within"]
        with _applying("WITHIN"):
            return [within(left, right)
                    for left, right in zip(lefts, rights)]
    fn = _BINARY_OPS.get(op)
    if fn is None:
        raise ExecutionError(f"unknown operator {op!r}")
    with _applying(f"operator {op!r}"):
        return [None if left is None or right is None
                else fn(left, right)
                for left, right in zip(lefts, rights)]


def _like(value: str, pattern: str) -> bool:
    regex = re.escape(pattern).replace("%", ".*").replace("_", ".")
    return re.fullmatch(regex, value, re.DOTALL) is not None


def _modulo(a, b):
    """Spark's ``%``: the remainder takes the dividend's sign, so
    integers divide truncating toward zero and doubles use ``fmod``."""
    if isinstance(a, int) and isinstance(b, int):
        remainder = abs(a) % abs(b)
        return -remainder if a < 0 else remainder
    return math.fmod(a, b)


_BINARY_OPS = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "/": lambda a, b: None if b == 0 else a / b,
    "%": lambda a, b: None if b == 0 else _modulo(a, b),
    "=": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
    "like": lambda a, b: _like(str(a), str(b)),
}


# -- structural helpers -------------------------------------------------------

def referenced_columns(expr: Expr) -> set[str]:
    """All column names mentioned anywhere in an expression."""
    if isinstance(expr, Column):
        return {expr.name}
    out: set[str] = set()
    for child in children(expr):
        out |= referenced_columns(child)
    return out


def split_conjuncts(expr: Expr | None) -> list[Expr]:
    """Flatten a predicate into its AND-ed conjuncts."""
    if expr is None:
        return []
    if isinstance(expr, BinaryOp) and expr.op == "and":
        return split_conjuncts(expr.left) + split_conjuncts(expr.right)
    return [expr]


def join_conjuncts(conjuncts: list[Expr]) -> Expr | None:
    """Rebuild a predicate from conjuncts (inverse of split)."""
    if not conjuncts:
        return None
    combined = conjuncts[0]
    for conjunct in conjuncts[1:]:
        combined = BinaryOp("and", combined, conjunct)
    return combined


def expr_name(expr: Expr, index: int) -> str:
    """Output column name for an unaliased projection expression."""
    if isinstance(expr, Aliased):
        return expr.alias
    if isinstance(expr, Column):
        return expr.name
    if isinstance(expr, FuncCall):
        if expr.is_star_count:
            return "count"
        if len(expr.args) == 1 and isinstance(expr.args[0], Column):
            return f"{expr.name}_{expr.args[0].name}"
        return expr.name
    return f"_col{index}"


def contains_aggregate(expr: Expr) -> bool:
    """True when the expression involves an aggregate function call."""
    if isinstance(expr, FuncCall) and expr.name in AGGREGATE_FUNCTIONS:
        return True
    return any(contains_aggregate(child) for child in children(expr))
