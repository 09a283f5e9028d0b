"""Batch-at-a-time execution: RowBatch mechanics, the column-wise
expression evaluator, the executor against a plain-Python oracle,
accounting exactness, and the scan-path correctness fixes that rode
along (pushed spatio-temporal conjuncts on the point-get/kNN paths,
point-get I/O charging, recursive container sizing)."""

import random
import re

import pytest
from hypothesis import given, settings, strategies as hyp

from repro import Envelope, JustEngine, Point, Schema
from repro.dataframe import DataFrame, RowBatch, estimate_value_bytes
from repro.dataframe.batch import BatchBuilder, batches_from_rows
from repro.errors import ExecutionError, QueryTimeoutError
from repro.resilience import Deadline, RequestContext
from repro.sql.ast import (
    Aliased,
    Between,
    BinaryOp,
    Column,
    FuncCall,
    InFunc,
    IsNull,
    Literal,
    Star,
    UnaryOp,
    children,
    with_children,
)
from repro.sql.expressions import eval_expr_batch, referenced_columns
from repro.sql.optimizer import _rename_columns, fold_expr
from repro.trajectory import STSeries, Trajectory

from conftest import POI_SCHEMA_FIELDS, T0, make_poi_rows
from oracles import eval_expr_reference


# -- RowBatch mechanics -------------------------------------------------------

class TestRowBatch:
    def test_from_rows_pivots_and_round_trips(self):
        rows = [{"a": 1, "b": "x"}, {"a": 2}, {"b": "z"}]
        batch = RowBatch.from_rows(rows, ["a", "b"])
        assert len(batch) == 3
        assert batch.column("a") == [1, 2, None]
        assert batch.column("b") == ["x", None, "z"]
        assert batch.to_rows() == [{"a": 1, "b": "x"},
                                   {"a": 2, "b": None},
                                   {"b": "z", "a": None}]

    def test_select_shares_column_lists(self):
        batch = RowBatch.from_rows([{"a": 1, "b": 2}], ["a", "b"])
        narrowed = batch.select(["a"])
        assert narrowed.column("a") is batch.column("a")
        assert narrowed.columns == ["a"]

    def test_select_missing_column_reads_none(self):
        batch = RowBatch.from_rows([{"a": 1}, {"a": 2}], ["a"])
        widened = batch.select(["a", "ghost"])
        assert widened.column("ghost") == [None, None]

    def test_filter_is_three_valued(self):
        batch = RowBatch.from_rows(
            [{"v": i} for i in range(4)], ["v"])
        kept = batch.filter([True, False, None, True])
        assert kept.column("v") == [0, 3]

    def test_filter_all_kept_returns_self(self):
        batch = RowBatch.from_rows([{"v": 1}], ["v"])
        assert batch.filter([True]) is batch

    def test_slice(self):
        batch = RowBatch.from_rows([{"v": i} for i in range(5)], ["v"])
        assert batch.slice(1, 3).column("v") == [1, 2]

    def test_builder_emits_full_batches(self):
        builder = BatchBuilder(["v"], batch_rows=2)
        assert builder.add({"v": 1}) is None
        full = builder.add({"v": 2})
        assert full is not None and full.column("v") == [1, 2]
        builder.add({"v": 3})
        tail = builder.take()
        assert tail.column("v") == [3]
        assert builder.take() is None

    def test_batches_from_rows_chunks(self):
        rows = [{"v": i} for i in range(5)]
        batches = list(batches_from_rows(rows, ["v"], batch_rows=2))
        assert [len(b) for b in batches] == [2, 2, 1]


# -- batch expression evaluation ---------------------------------------------

def col(name):
    return Column(name)


def lit(value):
    return Literal(value)


EXPR_CASES = [
    BinaryOp("+", col("a"), col("b")),
    BinaryOp("/", col("a"), col("b")),      # div by 0 -> None per row
    BinaryOp("%", col("a"), col("b")),
    BinaryOp(">", col("a"), lit(2)),
    BinaryOp("=", col("s"), lit("x")),
    BinaryOp("like", col("s"), lit("x%")),
    BinaryOp("and", BinaryOp(">", col("a"), lit(0)),
             BinaryOp("<", col("b"), lit(3))),
    BinaryOp("or", IsNull(col("a"), negated=False),
             BinaryOp(">=", col("b"), lit(2))),
    Between(col("a"), lit(1), lit(3)),
    UnaryOp("-", col("a")),
    UnaryOp("not", BinaryOp(">", col("a"), lit(1))),
    IsNull(col("s"), negated=True),
    FuncCall("upper", [col("s")]),
    FuncCall("abs", [UnaryOp("-", col("a"))]),
]

MIXED_ROWS = [
    {"a": 1, "b": 2, "s": "x"},
    {"a": None, "b": 0, "s": "xyz"},
    {"a": 3, "b": None, "s": None},
    {"a": 0, "b": 1, "s": "y"},
    {"a": -2, "b": 3, "s": "x"},
]


# Random expression trees over all ten node kinds.  Columns mix types
# on purpose (``a``/``b`` numeric with NULLs and zeros, ``s`` text,
# ``m`` anything) so operators and functions raise on some rows and not
# on others; what raises on every row (``*``, ``IN f(...)``, an absent
# column, set/planner/unknown functions) is listed once among several
# so that it mostly turns up under a guard.
def _weighted(*pairs):
    """``one_of`` with integer weights."""
    table = [strategy for weight, strategy in pairs for _ in range(weight)]
    return hyp.integers(0, len(table) - 1).flatmap(table.__getitem__)


_LEAVES = _weighted(
    (12, hyp.sampled_from(["a", "a", "b", "b", "m", "m", "m", "s"])
     .map(Column)),
    (6, hyp.sampled_from([None, True, False, 0, 1, 2, -1, 2.5, "x", "x%",
                          "a\nb"]).map(Literal)),
    (1, hyp.sampled_from([Column("ghost"), Star()])),
)
_BINARY = ["+", "-", "*", "/", "%", "=", "!=", "<", "<=", ">", ">=",
           "like", "within"] + ["and", "or"] * 6
_FUNCTIONS = ["upper", "abs", "length", "coalesce", "concat", "st_x"] * 4 \
    + ["st_knn", "st_trajsegmentation", "no_such_fn"]


def _nodes(operands):
    call = hyp.builds(
        FuncCall, hyp.sampled_from(_FUNCTIONS),
        hyp.lists(operands, min_size=0, max_size=2).map(tuple))
    return _weighted(
        (10, hyp.builds(BinaryOp, hyp.sampled_from(_BINARY), operands,
                        operands)),
        (4, call),
        (2, hyp.builds(UnaryOp, hyp.sampled_from(["-", "not"]), operands)),
        (2, hyp.builds(Between, operands, operands, operands)),
        (2, hyp.builds(IsNull, operands, hyp.booleans())),
        (1, hyp.builds(Aliased, operands, hyp.just("x"))),
        (1, hyp.builds(InFunc, operands, call)),
    )


def _depth(expr) -> int:
    return 1 + max((_depth(c) for c in children(expr)), default=0)


EXPR_TREES = hyp.recursive(_LEAVES, _nodes, max_leaves=8).filter(
    lambda e: _depth(e) <= 4)

_VALUES = {
    "a": hyp.sampled_from([None, 0, 1, 3, -2, 2.5]),
    "b": hyp.sampled_from([None, 0, 0.0, 1, 2, 3]),
    "s": hyp.sampled_from([None, "", "x", "xyz", "a\nb"]),
    "m": hyp.sampled_from([None, 0, 1, 1, -1, 2.5, 7, "x", True,
                           Point(1.0, 2.0)]),
}
BATCH_ROWS = hyp.lists(hyp.fixed_dictionaries(_VALUES), min_size=1,
                       max_size=6)


def _reference(expr, rows):
    """Per row: ``(value,)``, or ``None`` where the row walk raises."""
    out = []
    for row in rows:
        try:
            out.append((eval_expr_reference(expr, row),))
        except Exception:   # the old walk let builtin errors escape
            out.append(None)
    return out


class TestEvalExprBatch:
    @pytest.mark.parametrize("expr", EXPR_CASES,
                             ids=[repr(e)[:48] for e in EXPR_CASES])
    def test_matches_row_evaluator(self, expr):
        batch = RowBatch.from_rows(MIXED_ROWS, ["a", "b", "s"])
        assert eval_expr_batch(expr, batch, {}) == \
            [eval_expr_reference(expr, row, {}) for row in MIXED_ROWS]

    @settings(max_examples=500, deadline=None)
    @given(expr=EXPR_TREES, rows=BATCH_ROWS)
    def test_random_trees_match_reference_walk(self, expr, rows):
        """Row by row the reference's values; ``ExecutionError`` iff
        the reference raises (anything) for at least one row."""
        want = _reference(expr, rows)
        batch = RowBatch.from_rows(rows, ["a", "b", "s", "m"])
        if None in want:
            with pytest.raises(ExecutionError):
                eval_expr_batch(expr, batch)
            return
        got = eval_expr_batch(expr, batch)
        assert [(v,) for v in got] == want
        assert [type(v) for v in got] == [type(v) for (v,) in want]

    @pytest.mark.parametrize("expr", [
        # the right side would raise on every row the left side decides
        BinaryOp("and", BinaryOp("<", col("a"), lit(0)),
                 BinaryOp("=", BinaryOp("+", col("s"), lit(1)), lit(2))),
        BinaryOp("or", BinaryOp(">=", col("a"), lit(0)),
                 FuncCall("upper", (col("a"),))),
        # ... and is never reached when the left side decides them all
        BinaryOp("and", lit(False), col("ghost")),
        BinaryOp("or", lit(True), FuncCall("no_such_fn", ())),
    ], ids=["and-guard", "or-guard", "and-all-decided", "or-all-decided"])
    def test_guarded_side_is_not_evaluated(self, expr):
        rows = [{"a": 1, "s": "x"}, {"a": 2, "s": "y"}]
        batch = RowBatch.from_rows(rows, ["a", "s"])
        assert eval_expr_batch(expr, batch) == \
            [eval_expr_reference(expr, row) for row in rows]

    @pytest.mark.parametrize("expr, named", [
        (BinaryOp("+", col("s"), lit(1)), "operator '+'"),
        (BinaryOp(">", col("s"), lit(3)), "operator '>'"),
        (UnaryOp("-", col("s")), "unary '-'"),
        (Between(col("a"), lit("a"), lit("b")), "BETWEEN"),
        (FuncCall("upper", (col("a"),)), "function 'upper'"),
        (FuncCall("st_x", (col("s"),)), "function 'st_x'"),
        (FuncCall("st_makepoint", (col("s"), lit(1))),
         "function 'st_makepoint'"),
    ])
    def test_builtin_errors_are_typed_and_chained(self, expr, named):
        batch = RowBatch.from_rows([{"a": 1, "s": "x"}], ["a", "s"])
        with pytest.raises(ExecutionError,
                           match=re.escape(named)) as raised:
            eval_expr_batch(expr, batch)
        assert isinstance(raised.value.__cause__,
                          (TypeError, ValueError, AttributeError))

    def test_engine_errors_pass_through_untouched(self):
        def expired():
            raise QueryTimeoutError(1.0, 2.0)
        batch = RowBatch.from_rows([{"a": 1}], ["a"])
        with pytest.raises(QueryTimeoutError):
            eval_expr_batch(FuncCall("f", ()), batch, {"f": expired})

    def test_unknown_column_raises(self):
        batch = RowBatch.from_rows(MIXED_ROWS, ["a", "b", "s"])
        with pytest.raises(ExecutionError):
            eval_expr_batch(col("ghost"), batch, {})
        # ... for the rows it has: no rows, nothing evaluated.
        assert eval_expr_batch(col("ghost"), RowBatch.empty(["a"])) == []

    def test_literal_broadcasts(self):
        batch = RowBatch.from_rows(MIXED_ROWS, ["a", "b", "s"])
        assert eval_expr_batch(lit(7), batch, {}) == [7] * len(MIXED_ROWS)


class TestTraversals:
    """The walkers written on ``children``/``with_children``."""

    @given(expr=EXPR_TREES)
    def test_with_children_rebuilds_the_node(self, expr):
        assert with_children(expr, children(expr)) == expr

    @settings(max_examples=200, deadline=None)
    @given(expr=EXPR_TREES, rows=BATCH_ROWS)
    def test_folding_and_renaming_preserve_values(self, expr, rows):
        want = _reference(expr, rows)
        assert _reference(fold_expr(expr), rows) == want
        renamed = _rename_columns(expr, {"a": "a2", "m": "m2"})
        moved = [{**row, "a2": row["a"], "m2": row["m"]} for row in rows]
        assert referenced_columns(renamed) <= {"a2", "b", "s", "m2",
                                               "ghost"}
        assert _reference(renamed, moved) == want


# -- the executor against a plain-Python oracle -------------------------------
#
# The reference side is computed from ``make_poi_rows()`` with list
# comprehensions only: no engine, no scan, no decode, no ``_matches``,
# no expression evaluator is shared with the code under test.

def _in_box(row, min_lng, min_lat, max_lng, max_lat) -> bool:
    geom = row["geom"]
    return min_lng <= geom.lng <= max_lng and min_lat <= geom.lat <= max_lat


def _count_by_name(rows):
    names = sorted({r["name"] for r in rows})
    return [{"name": n, "cnt": sum(r["name"] == n for r in rows)}
            for n in names]


def _window_summary(rows):
    times = [r["time"] for r in rows
             if _in_box(r, 116.0, 39.8, 116.3, 40.0)]
    return [{"cnt": len(times), "lo": min(times), "hi": max(times)}]


#: statement -> (expected rows from the fixture rows, is the order fixed?)
ORACLE_STATEMENTS = {
    "SELECT * FROM poi":
        (lambda rows: rows, False),
    "SELECT fid, name FROM poi WHERE geom WITHIN "
    "st_makeMBR(116.1, 39.85, 116.3, 40.0)":
        (lambda rows: [{"fid": r["fid"], "name": r["name"]} for r in rows
                       if _in_box(r, 116.1, 39.85, 116.3, 40.0)], False),
    f"SELECT fid FROM poi WHERE time BETWEEN {T0} AND {T0 + 86400}":
        (lambda rows: [{"fid": r["fid"]} for r in rows
                       if T0 <= r["time"] <= T0 + 86400], False),
    f"SELECT name FROM poi WHERE geom WITHIN "
    f"st_makeMBR(116.0, 39.8, 116.5, 40.1) AND time > {T0 + 43200} "
    f"AND name LIKE 'poi1%'":
        (lambda rows: [{"name": r["name"]} for r in rows
                       if _in_box(r, 116.0, 39.8, 116.5, 40.1)
                       and r["time"] > T0 + 43200
                       and r["name"].startswith("poi1")], False),
    "SELECT fid * 2 AS dbl, upper(name) AS caps FROM poi WHERE fid < 50":
        (lambda rows: [{"dbl": r["fid"] * 2, "caps": r["name"].upper()}
                       for r in rows if r["fid"] < 50], False),
    "SELECT name, count(*) AS cnt FROM poi GROUP BY name ORDER BY name":
        (_count_by_name, True),
    "SELECT count(*) AS cnt, min(time) AS lo, max(time) AS hi FROM poi "
    "WHERE geom WITHIN st_makeMBR(116.0, 39.8, 116.3, 40.0)":
        (_window_summary, False),
    # No input rows, no groups: this engine's global aggregate over an
    # empty input yields no row.
    "SELECT avg(fid) AS a FROM poi WHERE name = 'nope'":
        (lambda rows: [], False),
    "SELECT fid FROM poi WHERE fid / 0 IS NULL":
        (lambda rows: [{"fid": r["fid"]} for r in rows], False),
    "SELECT DISTINCT name FROM poi WHERE fid % 3 = 0":
        (lambda rows: [{"name": n} for n in
                       {r["name"] for r in rows if r["fid"] % 3 == 0}],
         False),
    "SELECT fid, name FROM poi ORDER BY fid DESC LIMIT 7":
        (lambda rows: [{"fid": r["fid"], "name": r["name"]} for r in
                       sorted(rows, key=lambda r: -r["fid"])[:7]], True),
}


def canonical(rows):
    return sorted(
        tuple(sorted((k, repr(v)) for k, v in row.items()))
        for row in rows)


def _make_engine(rows=None, flush=True) -> JustEngine:
    engine = JustEngine()
    engine.create_table("poi", Schema(list(POI_SCHEMA_FIELDS)))
    engine.insert("poi", rows if rows is not None else make_poi_rows())
    if flush:
        engine.table("poi").flush()
    return engine


@pytest.fixture(scope="module")
def poi_engine_and_rows():
    rows = make_poi_rows()
    return _make_engine(rows), rows


class TestExecutorEquivalence:
    @pytest.mark.parametrize("statement", ORACLE_STATEMENTS)
    def test_seeded_suite_agrees(self, poi_engine_and_rows, statement):
        engine, rows = poi_engine_and_rows
        oracle, ordered = ORACLE_STATEMENTS[statement]
        got = engine.sql(statement).rows
        want = oracle(rows)
        if ordered:
            assert [canonical([r]) for r in got] == \
                [canonical([r]) for r in want]
        else:
            assert canonical(got) == canonical(want)

    @settings(max_examples=25, deadline=None)
    @given(lng=hyp.floats(116.0, 116.45), lat=hyp.floats(39.8, 40.05),
           span=hyp.floats(0.01, 0.3), t_off=hyp.floats(0, 86400 * 5),
           fid_cut=hyp.integers(0, 500))
    def test_randomized_filter_projection_property(
            self, poi_engine_and_rows, lng, lat, span, t_off, fid_cut):
        """Index window + residual filter + projection on randomized
        predicates return exactly the rows a list comprehension keeps."""
        engine, rows = poi_engine_and_rows
        statement = (
            f"SELECT fid, name FROM poi WHERE geom WITHIN "
            f"st_makeMBR({lng}, {lat}, {lng + span}, {lat + span}) "
            f"AND time < {T0 + t_off} AND fid >= {fid_cut}")
        want = [{"fid": r["fid"], "name": r["name"]} for r in rows
                if _in_box(r, lng, lat, lng + span, lat + span)
                and r["time"] < T0 + t_off and r["fid"] >= fid_cut]
        assert canonical(engine.sql(statement).rows) == canonical(want)

    def test_engine_api_and_sql_scan_cost_the_same(
            self, poi_engine_and_rows):
        """One read path, one price: the same window returns the same
        rows at the same I/O through ``engine.*_range_query`` and through
        SQL, the windows the planner rewrites included, and costs the
        same CPU when the plan is a bare scan."""
        from repro.sql.executor import (
            analyze_select,
            optimize,
            parse_statement,
        )
        from repro.sql.logical import ScanNode
        from repro.sql.physical import execute_plan
        engine, rows = poi_engine_and_rows
        window = (116.0, 39.8, 116.5, 40.1)
        box = Envelope(*window)
        within = f"geom WITHIN st_makeMBR{window}"
        days = f"time BETWEEN {T0} AND {T0 + 2 * 86400}"
        statement = f"SELECT * FROM poi WHERE {within} AND {days}"
        api = _same_price(engine, statement, engine.st_range_query, "poi",
                          box, T0, T0 + 2 * 86400, predicate="within")
        # The statement's plan is Project over Scan; run the scan alone.
        scan = optimize(analyze_select(
            engine, parse_statement(statement), "")).child
        assert isinstance(scan, ScanNode)
        job = engine.cluster.job()
        execute_plan(scan, engine, job)
        assert job.breakdown["cpu"] == api["cpu"] > 0
        # A temporal-only window, widened to the world envelope.
        _same_price(engine, f"SELECT * FROM poi WHERE {days}",
                    engine.st_range_query, "poi", None, T0, T0 + 2 * 86400)
        # A window running past the time extent, clamped to it.
        long_ago, far_ahead = T0 - 30 * 86400, T0 + 3000 * 86400
        _same_price(engine, f"SELECT * FROM poi WHERE {within} AND time "
                    f"BETWEEN {long_ago} AND {far_ahead}",
                    engine.st_range_query, "poi", box, long_ago, far_ahead,
                    predicate="within")
        one_index = JustEngine()
        for index in ("z2", "z2t"):
            one_index.create_table(index, Schema(list(POI_SCHEMA_FIELDS)),
                                   userdata={"geomesa.indices.enabled":
                                             index})
            one_index.insert(index, rows)
            one_index.table(index).flush()
        # A spatial-only window on z2t alone, widened to the time extent.
        _same_price(one_index, f"SELECT * FROM z2t WHERE {within}",
                    one_index.spatial_range_query, "z2t", box, "within")
        # An ST window on z2 alone: the time is filtered, not scanned.
        _same_price(one_index, f"SELECT * FROM z2 WHERE {within} AND "
                    f"{days}", one_index.st_range_query, "z2", box, T0,
                    T0 + 2 * 86400, predicate="within")


def _same_price(engine, statement, range_query, *args, **kwargs) -> dict:
    """Run ``range_query(*args)`` and ``statement`` from cold block
    caches; both return the same rows and charge the same I/O.  Returns
    the range query's ``SimJob.breakdown``."""
    engine.store.clear_caches()
    api = range_query(*args, **kwargs)
    engine.store.clear_caches()
    sql = engine.sql(statement)
    assert api.rows and sql.rows == api.rows
    for label in ("disk_read", "seek", "network"):
        assert sql.job.breakdown[label] == api.job.breakdown[label], label
    return api.job.breakdown


class TestOneExecutor:
    """There is one executor: every access path feeds it batches."""

    @pytest.fixture(scope="class")
    def engine(self):
        engine = JustEngine()
        engine.sql("CREATE TABLE poi (fid integer:primary key, "
                   "name string, time date, geom point) USERDATA "
                   "{'just.attribute.indices': 'name'}")
        engine.insert("poi", make_poi_rows())
        engine.table("poi").flush()
        engine.sql("CREATE VIEW near AS SELECT fid, name FROM poi "
                   "WHERE fid < 20")
        return engine

    @pytest.mark.parametrize("path, statement", [
        ("Scan[", "SELECT fid FROM poi WHERE geom IN "
                  "st_KNN(st_makePoint(116.25, 39.9), 5)"),
        ("Scan[", "SELECT * FROM poi WHERE fid = 7"),
        ("Scan[", "SELECT fid FROM poi WHERE name = 'poi3'"),
        ("Scan[", "SELECT fid FROM poi WHERE geom WITHIN "
                  "st_makeMBR(116.0, 39.8, 116.5, 40.1) "
                  f"AND time BETWEEN {T0} AND {T0 + 86400}"),
        ("Scan[", "SELECT fid FROM poi"),
        ("ViewScan[", "SELECT fid FROM near WHERE fid > 3"),
        ("SystemScan[", "SELECT * FROM sys.tables"),
    ], ids=["knn", "fid", "attribute", "st_range", "full", "view", "sys"])
    def test_every_access_path_reports_batches(self, engine, path,
                                               statement):
        rs = engine.sql("EXPLAIN ANALYZE " + statement)
        assert rs.rows[0]["rows"] > 0
        for operator in rs.rows:
            if "RegionScan[" not in operator["operator"]:
                assert operator["batches"] >= 1, operator
        assert any(path in r["operator"] for r in rs.rows)

    def test_raising_operand_is_a_typed_error(self, engine):
        """``name + 1`` is an ``ExecutionError`` naming the operator,
        not a raw ``TypeError``."""
        with pytest.raises(ExecutionError, match="operator '\\+'"):
            engine.sql("SELECT name + 1 AS n FROM poi")
        # Guarded shapes return the row answer: the raising side never
        # sees the rows the other side (or an earlier conjunct) rejected.
        for where in ("fid < 0 AND name + 1 = 2",
                      "(fid < 0 AND name + 1 = 2) OR fid = -1",
                      "upper(name) = 'NOPE' AND name + 1 = 2"):
            assert engine.sql(f"SELECT fid FROM poi WHERE {where}").rows \
                == []


# -- scan-path correctness fixes ----------------------------------------------

class TestPushedConjunctsOnPointPaths:
    """fid/kNN access must still honour consumed envelope/time conjuncts."""

    @pytest.fixture
    def engine(self):
        return _make_engine()

    def test_fid_with_excluding_envelope(self, engine):
        row = engine.sql("SELECT * FROM poi WHERE fid = 7").rows[0]
        geom = row["geom"]
        inside = (f"SELECT fid FROM poi WHERE fid = 7 AND geom WITHIN "
                  f"st_makeMBR({geom.lng - 0.01}, {geom.lat - 0.01}, "
                  f"{geom.lng + 0.01}, {geom.lat + 0.01})")
        outside = ("SELECT fid FROM poi WHERE fid = 7 AND geom WITHIN "
                   "st_makeMBR(0.0, 0.0, 1.0, 1.0)")
        assert [r["fid"] for r in engine.sql(inside).rows] == [7]
        assert engine.sql(outside).rows == []

    def test_fid_with_excluding_time_between(self, engine):
        t = engine.sql("SELECT time FROM poi WHERE fid = 7").rows[0]["time"]
        inside = (f"SELECT fid FROM poi WHERE fid = 7 "
                  f"AND time BETWEEN {t - 1} AND {t + 1}")
        outside = (f"SELECT fid FROM poi WHERE fid = 7 "
                   f"AND time BETWEEN {t + 100} AND {t + 200}")
        assert [r["fid"] for r in engine.sql(inside).rows] == [7]
        assert engine.sql(outside).rows == []

    def test_knn_with_envelope(self, engine):
        mbr = (116.2, 39.85, 116.3, 39.95)
        rs = engine.sql(
            f"SELECT fid, geom FROM poi WHERE geom IN "
            f"st_KNN(st_makePoint(116.25, 39.9), 10) AND geom WITHIN "
            f"st_makeMBR({mbr[0]}, {mbr[1]}, {mbr[2]}, {mbr[3]})")
        assert rs.rows  # the centre sits inside the window
        for r in rs.rows:
            assert mbr[0] <= r["geom"].lng <= mbr[2]
            assert mbr[1] <= r["geom"].lat <= mbr[3]


class TestAttributeWithEnvelope:
    """When the envelope path wins, an indexed attribute equality must
    still be enforced (it stays in the residual list)."""

    def test_attr_conjunct_survives_envelope_access(self):
        engine = JustEngine()
        engine.sql("CREATE TABLE poi (fid integer:primary key, "
                   "name string, time date, geom point) USERDATA "
                   "{'just.attribute.indices': 'name'}")
        rows = make_poi_rows()
        engine.insert("poi", rows)
        engine.table("poi").flush()
        rs = engine.sql(
            "SELECT fid, name FROM poi WHERE geom WITHIN "
            "st_makeMBR(116.0, 39.8, 116.5, 40.1) AND name = 'poi3'")
        expected = {r["fid"] for r in rows if r["name"] == "poi3"}
        assert {r["fid"] for r in rs.rows} == expected
        assert all(r["name"] == "poi3" for r in rs.rows)


class TestPointGetAccounting:
    def test_pk_lookup_reports_io(self):
        """EXPLAIN ANALYZE on a primary-key lookup shows real I/O."""
        engine = _make_engine()
        engine.store.clear_caches()
        rs = engine.sql("EXPLAIN ANALYZE SELECT * FROM poi WHERE fid = 7")
        scan = next(r for r in rs.rows if "Scan[" in r["operator"])
        assert scan["blocks_read"] + scan["cache_hits"] > 0

    def test_get_charges_job(self):
        engine = _make_engine()
        engine.store.clear_caches()
        job = engine.cluster.job()
        row = engine.table("poi").get("7", job=job)
        assert row is not None and row["fid"] == 7
        # One seek plus the block read: the lookup is no longer free.
        assert job.breakdown.get("seek", 0) > 0
        assert job.breakdown.get("disk_read", 0) > 0


# -- deadline cancellation mid-batch -----------------------------------------

class TestDeadlineMidBatch:
    def test_batched_scan_honours_deadline(self):
        engine = _make_engine()
        ctx = RequestContext(deadline=Deadline(0.01))
        with pytest.raises(QueryTimeoutError):
            engine.sql("SELECT * FROM poi WHERE geom WITHIN "
                       "st_makeMBR(116.0, 39.8, 116.5, 40.1)", ctx=ctx)


# -- compressed field round-trip ---------------------------------------------

class TestCompressedRoundTrip:
    def test_gps_list_survives_scan_and_aggregate(self):
        engine = JustEngine()
        engine.sql("CREATE TABLE trips AS trajectory")
        table = engine.table("trips")
        rng = random.Random(3)
        trajectories = []
        for i in range(20):
            t0 = T0 + i * 600.0
            pts = [(116.0 + rng.random() * 0.4,
                    39.8 + rng.random() * 0.2) for _ in range(15)]
            pts.sort()
            series = STSeries([(lng, lat, t0 + j * 30.0)
                               for j, (lng, lat) in enumerate(pts)])
            trajectories.append(
                Trajectory(f"t{i}", f"o{i % 4}", series))
        table.insert_trajectories(trajectories)
        table.flush()

        rs = engine.sql("SELECT tid, gps_list FROM trips WHERE gps_list "
                        "WITHIN st_makeMBR(115.9, 39.7, 116.5, 40.1)")
        got = {r["tid"]: r["gps_list"] for r in rs.rows}
        assert len(got) == 20
        for t in trajectories:
            # gzip round-trip is exact up to the codec's fixed-point
            # quantization (1e-6 degree ticks).
            decoded = got[t.tid].points
            assert len(decoded) == len(t.series.points)
            for a, b in zip(decoded, t.series.points):
                assert a.lng == pytest.approx(b.lng, abs=1e-6)
                assert a.lat == pytest.approx(b.lat, abs=1e-6)
                assert a.time == pytest.approx(b.time, abs=1e-3)

        agg = engine.sql("SELECT oid, count(*) AS cnt FROM trips "
                         "GROUP BY oid ORDER BY oid")
        assert [(r["oid"], r["cnt"]) for r in agg.rows] == \
            [("o0", 5), ("o1", 5), ("o2", 5), ("o3", 5)]


# -- recursive container sizing ----------------------------------------------

class TestEstimatedBytes:
    def test_containers_sized_recursively(self):
        series = STSeries([(116.0 + i * 0.001, 39.9, i * 30.0)
                           for i in range(100)])
        fat = DataFrame.from_rows([{"v": series}], ["v"])
        flat = DataFrame.from_rows([{"v": 1}], ["v"])
        assert fat.estimated_bytes() > 100 * 32
        assert fat.estimated_bytes() > 10 * flat.estimated_bytes()

    def test_nested_collections(self):
        df = DataFrame.from_rows(
            [{"v": [list(range(10)) for _ in range(10)]}], ["v"])
        assert df.estimated_bytes() > 100 * 32

    def test_value_estimator_shapes(self):
        assert estimate_value_bytes(None) == 16
        assert estimate_value_bytes("abcd") == 52
        assert estimate_value_bytes(1.5) == 32
        assert estimate_value_bytes([1, 2]) == 56 + 64
        assert estimate_value_bytes({"k": 1}) == 64 + 49 + 32
        assert estimate_value_bytes(Point(116.0, 39.9)) == 48

    def test_batch_backed_frames_use_same_estimator(self):
        rows = [{"a": "xx", "b": [1, 2, 3]} for _ in range(8)]
        row_df = DataFrame.from_rows(rows, ["a", "b"], 2)
        batch_df = DataFrame.from_batches(
            list(batches_from_rows(rows, ["a", "b"], 4)), ["a", "b"])
        assert row_df.estimated_bytes() == batch_df.estimated_bytes()
