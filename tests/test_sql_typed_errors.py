"""A statement that applies an operator or a function to the wrong type
fails as ``ExecutionError`` at every entry point — never as the builtin
``TypeError``/``AttributeError`` it came from."""

import io

import pytest

from repro import JustEngine
from repro.cli import Shell
from repro.errors import ExecutionError
from repro.service.client import JustClient
from repro.service.http import JustHttpClient, JustHttpServer
from repro.service.server import JustServer

SETUP = [
    "CREATE TABLE t (fid integer:primary key, name string, v double)",
    "INSERT INTO t VALUES (1, 'a', 1.5), (2, 'b', 2.5)",
]

ILL_TYPED = [
    "SELECT name + 1 AS n FROM t",
    "SELECT fid FROM t WHERE name > 3",
    "SELECT upper(v) AS u FROM t",
    "SELECT st_x(name) AS x FROM t",
    "SELECT fid FROM t WHERE v BETWEEN 'a' AND 'b'",
    "SELECT fid FROM t ORDER BY name + 1",
]

POINTS = [
    "CREATE TABLE p (fid integer:primary key, geom point)",
    "INSERT INTO p VALUES (1, st_makePoint(116.30, 39.90)), "
    "(2, st_makePoint(116.31, 39.91))",
]

#: st_DBSCAN(geom, minPts, radius) with minPts < 1 or radius <= 0.
BAD_DBSCAN = [
    "SELECT st_DBSCAN(geom, 0, 0.05) FROM p",
    "SELECT st_DBSCAN(geom, 3, 0) FROM p",
    "SELECT st_DBSCAN(geom, 3, -0.5) FROM p",
]


def _engine(statement, setups=SETUP):
    engine = JustEngine()
    for setup in setups:
        engine.sql(setup)
    with pytest.raises(ExecutionError):
        engine.sql(statement)


def _client(statement, setups=SETUP):
    with JustClient(JustServer(), "alice") as client:
        for setup in setups:
            client.execute_query(setup)
        with pytest.raises(ExecutionError):
            client.execute_query(statement)


def _http(statement, setups=SETUP):
    http = JustHttpServer()
    with JustHttpClient(http, "alice") as client:
        for setup in setups:
            client.execute_query(setup)
        with pytest.raises(ExecutionError):
            client.execute_query(statement)
    session = http.handle({"path": "/connect", "user": "alice"})["session"]
    response = http.handle({"path": "/execute", "session": session,
                            "sql": statement})
    assert response["kind"] == "ExecutionError", response


def _shell(statement, setups=SETUP):
    out = io.StringIO()
    shell = Shell(out=out)
    assert all(shell.execute(setup) for setup in setups)
    assert shell.execute(statement) is False
    assert "error:" in out.getvalue()


ENTRIES = pytest.mark.parametrize(
    "entry", [_engine, _client, _http, _shell],
    ids=["engine.sql", "JustClient", "JustHttpClient", "Shell"])


@ENTRIES
@pytest.mark.parametrize("statement", ILL_TYPED)
def test_ill_typed_statement_is_an_execution_error(entry, statement):
    entry(statement)


@ENTRIES
@pytest.mark.parametrize("statement", BAD_DBSCAN,
                         ids=["min_pts_0", "radius_0", "radius_negative"])
def test_bad_dbscan_argument_is_an_execution_error(entry, statement):
    entry(statement, POINTS)
