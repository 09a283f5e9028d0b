"""A statement that applies an operator or a function to the wrong type
fails as ``ExecutionError`` at every entry point — never as the builtin
``TypeError``/``AttributeError`` it came from.  A statement that does
not parse fails as ``ParseError``, never as ``ValueError`` or
``OverflowError``."""

import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import JustEngine
from repro.cli import Shell
from repro.errors import ExecutionError, ParseError
from repro.service.client import JustClient
from repro.service.http import JustHttpClient, JustHttpServer
from repro.service.server import JustServer
from repro.sql.parser import parse_statement

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


# -- malformed statements are ParseError -------------------------------------

#: A statement with a malformed number, and the literal's position.
MALFORMED_NUMBERS = [
    ("SELECT 1e FROM t", 7),
    ("SELECT 2.5E+ FROM t", 7),
    ("SELECT ² FROM t", 7),
    ("SELECT a FROM t LIMIT 1e400", 22),
    ("SELECT a FROM t LIMIT ²", 22),
    ("SELECT a FROM t LIMIT 1e", 22),
]


@pytest.mark.parametrize("statement,position", MALFORMED_NUMBERS,
                         ids=["dangling_exponent", "dangling_signed",
                              "superscript", "limit_overflow",
                              "limit_superscript", "limit_dangling"])
def test_malformed_number_is_a_parse_error_at_the_literal(statement,
                                                          position):
    with pytest.raises(ParseError) as info:
        parse_statement(statement)
    assert info.value.position == position
    engine = JustEngine()
    engine.sql(SETUP[0])
    with pytest.raises(ParseError):
        engine.sql(statement)


#: Statements JustQL does not have: a ParseError at the first keyword.
UNSUPPORTED = ["ANALYZE TABLE poi", "ANALYZE TABLE sys.events"]


@pytest.mark.parametrize("statement", UNSUPPORTED)
def test_unsupported_statement_is_a_parse_error_at_its_keyword(statement):
    with pytest.raises(ParseError) as info:
        parse_statement(statement)
    assert info.value.position == 0
    engine = JustEngine()
    engine.sql(SETUP[0])
    with pytest.raises(ParseError):
        engine.sql(statement)


#: Keywords, symbols and the lexemes the lexer once mis-took.
_SOUP = st.sampled_from([
    "SELECT", "FROM", "WHERE", "AND", "OR", "NOT", "BETWEEN", "IN", "IS",
    "NULL", "LIKE", "WITHIN", "LIMIT", "GROUP", "BY", "ORDER", "CREATE",
    "TABLE", "INSERT", "INTO", "VALUES", "LOAD", "TO", "CONFIG", "FILTER",
    "USERDATA", "WITH", "AS", "t", "a", "f", "1", "2.5", ".5", "1e", "1e3",
    "1E+", "²", "٣", "é", "'", '"', "''", "'''", "'x'", '"y"', "(", ")",
    ",", "=", "<>", "<=", "-", "--", "*", "%", "{", "}", "[]", ":", ";",
    "@", "\n", " ",
])


def _parses_or_raises_parse_error(statement: str) -> None:
    try:
        parse_statement(statement)
    except ParseError:
        pass


@settings(max_examples=300, deadline=None)
@given(st.text(max_size=60))
def test_arbitrary_text_parses_or_is_a_parse_error(statement):
    _parses_or_raises_parse_error(statement)


#: Statement heads that reach expressions, LIMIT and USERDATA.
_HEADS = st.sampled_from([
    "", "SELECT", "SELECT a FROM t WHERE", "SELECT a FROM t LIMIT",
    "INSERT INTO t VALUES (", "CREATE TABLE t AS x USERDATA",
    "CREATE TABLE t AS x WITH (a =", "EXPLAIN SELECT"])


@settings(max_examples=500, deadline=None)
@given(_HEADS, st.lists(_SOUP, max_size=30), st.sampled_from(["", " "]))
def test_token_soup_parses_or_is_a_parse_error(head, parts, separator):
    _parses_or_raises_parse_error(head + " " + separator.join(parts))


# -- LOAD FILTER is parsed, not cut at "limit" --------------------------------

def _load(filter_text):
    engine = JustEngine()
    engine.sql("CREATE TABLE t (fid string:primary key, time date, "
               "geom point)")
    engine.register_source("src", [
        {"id": str(i), "note": "no limit 3" if i % 2 else "other",
         "lng": 116.0, "lat": 39.9, "ts": 1_500_000_000}
        for i in range(10)])
    return engine.sql(
        "LOAD hive:src TO geomesa:t CONFIG {'fid': 'id', "
        "'time': 'long_to_date_s(ts)', "
        "'geom': 'lng_lat_to_point(lng, lat)'} "
        f"FILTER '{filter_text}'").message


@pytest.mark.parametrize("filter_text,loaded", [
    ('note = "no limit 3"', 5),
    ('note = "no limit 3" LIMIT 2', 2),
    ("LIMIT 4", 4),
    ('note <> "no limit 3" limit 3', 3),
])
def test_load_filter_limit_inside_quotes_is_text(filter_text, loaded):
    assert _load(filter_text) == f"{loaded} rows loaded into t"


@pytest.mark.parametrize("filter_text", [
    "a = 1 limit x", "a = 1 limit", "id < 3 id", "limit 2 limit 3",
    "a = 1e limit 2"])
def test_malformed_load_filter_is_a_parse_error(filter_text):
    with pytest.raises(ParseError):
        _load(filter_text)
