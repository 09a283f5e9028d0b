"""Expression evaluation semantics (three-valued logic, functions)."""

import math
import sqlite3

import pytest
from hypothesis import given, settings, strategies as st

from conftest import parse_expression
from repro.errors import ExecutionError, ParseError
from repro.geometry import Envelope, Point
from repro.sql.ast import (
    Between,
    BinaryOp,
    Column,
    FuncCall,
    IsNull,
    Literal,
    UnaryOp,
)
from repro.sql.expressions import (
    eval_expr,
    expr_name,
    join_conjuncts,
    referenced_columns,
    split_conjuncts,
)


def lit(v):
    return Literal(v)


class TestArithmetic:
    def test_basic_ops(self):
        assert eval_expr(BinaryOp("+", lit(2), lit(3)), {}) == 5
        assert eval_expr(BinaryOp("*", lit(52), lit(9)), {}) == 468
        assert eval_expr(BinaryOp("/", lit(7), lit(2)), {}) == 3.5
        assert eval_expr(BinaryOp("%", lit(7), lit(2)), {}) == 1

    @settings(max_examples=300, deadline=None)
    @given(a=st.integers(-10**6, 10**6), b=st.integers(-50, 50))
    def test_integer_modulo_is_sqlite_s(self, a, b):
        """Truncated division, as in Spark, Java and SQLite: the
        remainder takes the dividend's sign, and ``% 0`` is NULL."""
        with sqlite3.connect(":memory:") as db:
            (want,) = db.execute("SELECT ? % ?", (a, b)).fetchone()
        assert eval_expr(BinaryOp("%", lit(a), lit(b)), {}) == want

    @settings(max_examples=300, deadline=None)
    @given(a=st.floats(-1e6, 1e6), b=st.floats(-50, 50) | st.integers(
        -50, 50))
    def test_double_modulo_is_fmod(self, a, b):
        got = eval_expr(BinaryOp("%", lit(a), lit(b)), {})
        if b == 0:
            assert got is None
        else:
            assert got == math.fmod(a, b)

    def test_modulo_signs(self):
        for (a, b), want in {(-7, 3): -1, (7, -3): 1, (-7, -3): -1,
                             (7, 3): 1, (-7.5, 2): -1.5,
                             (7.5, -2): 1.5}.items():
            assert eval_expr(BinaryOp("%", lit(a), lit(b)), {}) == want

    def test_divide_by_zero_is_null(self):
        assert eval_expr(BinaryOp("/", lit(1), lit(0)), {}) is None

    def test_unary_minus(self):
        assert eval_expr(UnaryOp("-", lit(5)), {}) == -5


class TestNullSemantics:
    def test_null_propagates_through_comparison(self):
        assert eval_expr(BinaryOp("=", lit(None), lit(1)), {}) is None
        assert eval_expr(BinaryOp("<", Column("x"), lit(1)),
                         {"x": None}) is None

    def test_and_or_three_valued(self):
        null = lit(None)
        true, false = lit(True), lit(False)
        assert eval_expr(BinaryOp("and", null, false), {}) is False
        assert eval_expr(BinaryOp("and", null, true), {}) is None
        assert eval_expr(BinaryOp("or", null, true), {}) is True
        assert eval_expr(BinaryOp("or", null, false), {}) is None

    def test_is_null(self):
        assert eval_expr(IsNull(lit(None), negated=False), {}) is True
        assert eval_expr(IsNull(lit(1), negated=True), {}) is True

    def test_between_with_null(self):
        assert eval_expr(Between(lit(None), lit(1), lit(2)), {}) is None


class TestInList:
    """``v [NOT] IN (e1, ..., en)`` is SQL's: checked against sqlite3,
    NULL in the list and on the left included."""

    @settings(max_examples=300, deadline=None)
    @given(v=st.none() | st.integers(-3, 3),
           items=st.lists(st.none() | st.integers(-3, 3), min_size=1,
                          max_size=4),
           negated=st.booleans())
    def test_same_as_sqlite(self, v, items, negated):
        values = ", ".join("NULL" if i is None else str(i) for i in items)
        text = f"v {'NOT ' if negated else ''}IN ({values})"
        with sqlite3.connect(":memory:") as db:
            (want,) = db.execute(f"SELECT {text} FROM (SELECT ? AS v)",
                                 (v,)).fetchone()
        got = eval_expr(parse_expression(text), {"v": v})
        assert got == (None if want is None else bool(want))

    def test_null_cases(self):
        for text, want in [("NULL IN (1, 2)", None),
                           ("NULL NOT IN (1)", None),
                           ("1 IN (NULL, 1)", True),
                           ("3 IN (1, NULL)", None),
                           ("3 NOT IN (1, NULL)", None),
                           ("3 NOT IN (1, 2)", True)]:
            assert eval_expr(parse_expression(text), {}) is want, text

    def test_a_set_function_keeps_its_meaning(self):
        expr = parse_expression("geom IN st_KNN(geom, 3)")
        assert type(expr).__name__ == "InFunc"
        with pytest.raises(ParseError):
            parse_expression("geom NOT IN st_KNN(geom, 3)")
        with pytest.raises(ParseError):
            parse_expression("v IN ()")


class TestFunctions:
    def test_st_makembr(self):
        env = eval_expr(FuncCall("st_makembr",
                                 (lit(1), lit(2), lit(3), lit(4))), {})
        assert env == Envelope(1, 2, 3, 4)

    def test_within_operator(self):
        expr = BinaryOp("within", Column("geom"),
                        lit(Envelope(0, 0, 10, 10)))
        assert eval_expr(expr, {"geom": Point(5, 5)}) is True
        assert eval_expr(expr, {"geom": Point(50, 5)}) is False

    def test_like(self):
        expr = BinaryOp("like", Column("name"), lit("poi1%"))
        assert eval_expr(expr, {"name": "poi12"}) is True
        assert eval_expr(expr, {"name": "xpoi12"}) is False
        under = BinaryOp("like", Column("name"), lit("a_c"))
        assert eval_expr(under, {"name": "abc"}) is True
        anything = BinaryOp("like", Column("name"), lit("%"))
        assert eval_expr(anything, {"name": "a\nb"}) is True

    def test_unknown_function(self):
        with pytest.raises(ExecutionError):
            eval_expr(FuncCall("no_such_fn", ()), {})

    def test_knn_as_scalar_rejected(self):
        with pytest.raises(ExecutionError):
            eval_expr(FuncCall("st_knn", (lit(1), lit(2))), {})

    def test_unknown_column(self):
        with pytest.raises(ExecutionError):
            eval_expr(Column("ghost"), {"x": 1})

    def test_generic_scalars(self):
        assert eval_expr(FuncCall("upper", (lit("abc"),)), {}) == "ABC"
        assert eval_expr(FuncCall("coalesce",
                                  (lit(None), lit(7))), {}) == 7
        assert eval_expr(FuncCall("concat",
                                  (lit("a"), lit(1))), {}) == "a1"


class TestStructuralHelpers:
    def test_referenced_columns(self):
        expr = BinaryOp("and",
                        BinaryOp("=", Column("a"), lit(1)),
                        Between(Column("b"), Column("c"), lit(9)))
        assert referenced_columns(expr) == {"a", "b", "c"}

    def test_split_and_join_conjuncts(self):
        expr = BinaryOp("and",
                        BinaryOp("and", lit(True), lit(False)),
                        lit(None))
        parts = split_conjuncts(expr)
        assert len(parts) == 3
        rebuilt = join_conjuncts(parts)
        assert split_conjuncts(rebuilt) == parts
        assert join_conjuncts([]) is None
        assert split_conjuncts(None) == []

    def test_expr_name(self):
        assert expr_name(Column("x"), 0) == "x"
        assert expr_name(FuncCall("count", (Column("x"),)), 0) == \
            "count_x"
        from repro.sql.ast import Star
        assert expr_name(FuncCall("count", (Star(),)), 0) == "count"
        assert expr_name(BinaryOp("+", lit(1), lit(2)), 3) == "_col3"
