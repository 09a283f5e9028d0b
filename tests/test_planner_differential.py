"""The scan planner against a brute force of the same WHERE.

A statement's conjuncts are split between the access path (k-NN,
primary key, attribute index, ST window) and the residual filter.
Whatever the split, the statement must answer as evaluating every
conjunct over every row does: :func:`eval_expr` over
:func:`conftest.all_rows`, and :func:`oracles.knn_reference` for
``st_KNN`` membership.  The conjuncts are drawn from every shape the
planner recognises, on the columns it pushes and on the ones it must
not, with NULL and string literals in each.

A conjunct that raises on a row makes the outcome depend on evaluation
order, so the oracle only says when an error is *required* (a row that
no other conjunct rejects) and which typed errors are *allowed*.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from conftest import all_rows
from oracles import knn_reference
from repro import Field, FieldType, JustEngine, Point, Schema
from repro.errors import ExecutionError, JustError
from repro.geometry.polygon import Polygon
from repro.sql.ast import InFunc
from repro.sql.expressions import eval_expr, split_conjuncts
from repro.sql.parser import parse_statement
from repro.trajectory.model import GPSPoint, STSeries, Trajectory

#: Table -> (primary key, its geometry columns, its date columns).
COLUMNS = {
    "pts": ("fid", ("geom", "area"), ("time",)),
    "zs": ("fid", ("area", "geom"), ("time",)),
    "traj": ("tid", ("gps_list", "start_point", "end_point"),
             ("start_time", "end_time")),
}
#: The column each table's index is built on (its first geometry).
INDEXED = {"pts": "geom", "zs": "area", "traj": "gps_list"}
ATTRIBUTE = {"pts": "zone", "zs": "zone", "traj": "oid"}


def _square(x: float, y: float, half: float) -> Polygon:
    return Polygon([(x - half, y - half), (x + half, y - half),
                    (x + half, y + half), (x - half, y + half),
                    (x - half, y - half)])


def _build() -> JustEngine:
    rng = random.Random(20200420)
    engine = JustEngine()
    pts = Schema([Field("fid", FieldType.INTEGER, primary_key=True),
                  Field("time", FieldType.DATE),
                  Field("geom", FieldType.POINT),
                  Field("area", FieldType.POLYGON),
                  Field("zone", FieldType.STRING),
                  Field("v", FieldType.DOUBLE)])
    zs = Schema([Field("fid", FieldType.INTEGER, primary_key=True),
                 Field("area", FieldType.POLYGON),
                 Field("time", FieldType.DATE),
                 Field("geom", FieldType.POINT),
                 Field("zone", FieldType.STRING),
                 Field("v", FieldType.DOUBLE)])
    userdata = {"just.attribute.indices": "zone"}
    for name, schema in (("pts", pts), ("zs", zs)):
        engine.create_table(name, schema, userdata)
        rows = []
        for fid in range(1, 13):
            x, y = rng.uniform(0.001, 0.099), rng.uniform(0.001, 0.099)
            far_x = rng.uniform(0.001, 0.099)
            far_y = rng.uniform(0.001, 0.099)
            rows.append({
                "fid": fid,
                "time": rng.uniform(100, 1000),
                "geom": Point(x, y) if fid % 5 or name == "pts" else None,
                "area": _square(far_x, far_y, rng.uniform(0.0005, 0.015)),
                "zone": rng.choice(["a", "b", None]),
                "v": rng.choice([None, rng.uniform(0, 10)]),
            })
        engine.insert(name, rows)
    table = engine.create_plugin_table("traj", "trajectory")
    trajectories = []
    for i in range(10):
        t = rng.uniform(100, 900)
        fixes = []
        for _ in range(1 if i == 0 else rng.randint(2, 4)):
            fixes.append(GPSPoint(rng.uniform(0.001, 0.099),
                                  rng.uniform(0.001, 0.099), t))
            t += rng.uniform(1, 200)
        trajectories.append(Trajectory(f"t{i}", f"o{i % 3}",
                                       STSeries(fixes)))
    table.insert_trajectories(trajectories)
    return engine


ENGINE = _build()
ROWS = {name: all_rows(ENGINE.table(name)) for name in COLUMNS}

#: Every row lies in a box 0.1 degrees wide, so a k-NN search from
#: anywhere in it expands a few dozen 1 km cells.
coords = st.integers(0, 10).map(lambda i: i / 100)
numbers = st.integers(0, 1100)
odd = st.sampled_from(["NULL", "'abc'", "'7'"])


def literal(values):
    return st.one_of(values.map(str), odd)


@st.composite
def boxes(draw):
    x1, x2 = sorted((draw(coords), draw(coords)))
    y1, y2 = sorted((draw(coords), draw(coords)))
    return f"st_makeMBR({x1}, {y1}, {x2}, {y2})"


@st.composite
def points(draw):
    offsets = st.integers(1, 9).map(lambda i: i / 1000)
    return (f"st_makePoint({draw(coords) + draw(offsets)}, "
            f"{draw(coords) + draw(offsets)})")


def conjuncts(table: str):
    pk, geometries, times = COLUMNS[table]
    geometry = st.sampled_from(geometries)
    time = st.sampled_from(times)
    key = st.integers(0, 13) if table != "traj" else \
        st.sampled_from(["'t1'", "'t4'", "'t11'", "1"])
    shapes = [
        st.builds("{} = {}".format, st.just(pk),
                  st.one_of(key.map(str), odd, st.just("2.0"))),
        st.builds("{} IN st_KNN({}, {})".format, st.just(INDEXED[table]),
                  points(), st.one_of(st.integers(1, 4).map(str),
                                      st.just("NULL"))),
        st.builds("{} WITHIN {}".format, geometry, boxes()),
        st.builds("st_within({}, {})".format, geometry, boxes()),
        st.builds("st_intersects({}, {})".format, geometry, boxes()),
        st.builds("{} BETWEEN {} AND {}".format, time, literal(numbers),
                  literal(numbers)),
        st.builds("{} {} {}".format, time,
                  st.sampled_from(["<", "<=", ">", ">="]),
                  literal(numbers)),
        st.builds("st_distance({}, {}) < {}".format, geometry, points(),
                  literal(st.integers(0, 6).map(lambda i: i / 100))),
        st.builds("st_distance_m({}, {}) <= {}".format, geometry, points(),
                  literal(st.integers(0, 6000))),
        st.builds("{} = {}".format, st.just(ATTRIBUTE[table]),
                  st.sampled_from(["'a'", "'o1'", "NULL", "5", "'b'"])),
    ]
    return st.lists(st.one_of(shapes), min_size=1, max_size=4)


@st.composite
def statements(draw):
    table = draw(st.sampled_from(sorted(COLUMNS)))
    return table, " AND ".join(draw(conjuncts(table)))


def _knn_members(table: str, point: Point, k: int) -> set:
    pk = COLUMNS[table][0]
    records = [(row[pk], row[INDEXED[table]].envelope.as_tuple())
               for row in ROWS[table] if row[INDEXED[table]] is not None]
    return {fid for _d, fid in
            knn_reference(records, point.lng, point.lat, k)}


def _outcome(table: str, conjunct, row):
    """The conjunct's value on ``row``, or the type of what it raised."""
    if isinstance(conjunct, InFunc):
        point, k = (eval_expr(arg, {}) for arg in conjunct.func.args)
        if not isinstance(k, int):
            return ExecutionError
        return row[COLUMNS[table][0]] in _knn_members(table, point, k)
    try:
        return eval_expr(conjunct, row)
    except JustError as exc:
        return type(exc)


def _oracle(table: str, where: str):
    """``(rows, error required, errors allowed)`` for the WHERE."""
    conjuncts = split_conjuncts(parse_statement(f"SELECT * FROM {table} "
                                                f"WHERE {where}").where)
    pk = COLUMNS[table][0]
    rows, required, allowed = [], False, set()
    if sum(isinstance(c, InFunc) for c in conjuncts) > 1:
        return [], True, {ExecutionError}
    for row in ROWS[table]:
        values = [_outcome(table, c, row) for c in conjuncts]
        errors = {v for v in values if isinstance(v, type)}
        allowed |= errors
        if not errors and all(v is True for v in values):
            rows.append(row[pk])
        elif errors and all(v is True for v in values
                            if not isinstance(v, type)):
            required = True
    return sorted(rows), required, allowed


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(statements())
@example(("pts", "fid = NULL"))
@example(("pts", "fid = 1 AND fid = 2"))
@example(("pts", "fid = 1 AND geom IN st_KNN(st_makePoint(0.025, 0.025), 1)"))
@example(("pts", "geom IN st_KNN(st_makePoint(0.025, 0.025), 1) "
                 "AND geom IN st_KNN(st_makePoint(0.075, 0.075), 1)"))
@example(("pts", "time BETWEEN NULL AND 300"))
@example(("pts", "time > NULL"))
@example(("pts", "time > 'abc'"))
@example(("pts", "geom IN st_KNN(st_makePoint(0.025, 0.025), NULL)"))
@example(("zs", "geom WITHIN st_makeMBR(0, 0, 0.1, 0.1)"))
@example(("zs", "st_within(geom, st_makeMBR(0, 0, 0.05, 0.05))"))
@example(("traj", "start_point WITHIN st_makeMBR(0, 0, 0.05, 0.05)"))
@example(("traj", "start_time BETWEEN 300 AND 500"))
@example(("traj", "tid = 't4' AND st_intersects(gps_list, "
                  "st_makeMBR(0, 0, 0.05, 0.05))"))
def test_every_split_answers_as_the_brute_force(statement):
    table, where = statement
    rows, required, allowed = _oracle(table, where)
    pk = COLUMNS[table][0]
    try:
        got = sorted(r[pk] for r in ENGINE.sql(
            f"SELECT {pk} FROM {table} WHERE {where}").rows)
    except JustError as exc:
        assert any(isinstance(exc, kind) for kind in allowed), (where, exc)
        return
    assert not required, f"{where}: no error raised"
    assert got == rows, where


@pytest.mark.parametrize("where", [
    "fid = NULL", "fid = 1 AND fid = 2", "time BETWEEN NULL AND 300",
    "time > NULL", "fid = '1'"])
def test_a_literal_the_index_cannot_use_answers_as_a_full_scan(where):
    """What a table without indexes on those columns would answer."""
    plain = JustEngine()
    plain.create_table("t", Schema([
        Field("fid", FieldType.INTEGER, primary_key=True),
        Field("time", FieldType.DATE), Field("geom", FieldType.POINT)]))
    plain.insert("t", [{"fid": 1, "time": 100.0, "geom": Point(1, 1)},
                       {"fid": 2, "time": 200.0, "geom": Point(2, 2)}])
    residual = where.replace("fid", "(fid + 0)").replace("time", "(time + 0)")
    assert plain.sql(f"SELECT fid FROM t WHERE {where}").rows == \
        plain.sql(f"SELECT fid FROM t WHERE {residual}").rows
