"""JustQL parser: statements and expression grammar."""

import pytest

from repro.errors import ParseError
from repro.sql.ast import (
    Aliased,
    Between,
    BinaryOp,
    Column,
    CreateTableStmt,
    CreateViewStmt,
    DescStmt,
    DropStmt,
    FuncCall,
    InFunc,
    InsertStmt,
    LoadStmt,
    Literal,
    SelectStmt,
    ShowStmt,
    Star,
    StoreViewStmt,
    SubquerySource,
)
from repro.sql.parser import parse_statement


class TestSelect:
    def test_minimal(self):
        stmt = parse_statement("SELECT a, b FROM t")
        assert isinstance(stmt, SelectStmt)
        assert [c.name for c in stmt.projections] == ["a", "b"]
        assert stmt.source.name == "t"

    def test_star(self):
        stmt = parse_statement("SELECT * FROM t")
        assert isinstance(stmt.projections[0], Star)

    def test_aliases(self):
        stmt = parse_statement("SELECT a AS x, b y FROM t")
        assert stmt.projections[0] == Aliased(Column("a"), "x")
        assert stmt.projections[1] == Aliased(Column("b"), "y")

    def test_subquery_source(self):
        stmt = parse_statement("SELECT a FROM (SELECT * FROM t) sub")
        assert isinstance(stmt.source, SubquerySource)
        assert stmt.source.alias == "sub"

    def test_where_within_and_between(self):
        stmt = parse_statement(
            "SELECT * FROM t WHERE geom WITHIN st_makeMBR(1,2,3,4) "
            "AND time BETWEEN 10 AND 20")
        where = stmt.where
        assert isinstance(where, BinaryOp) and where.op == "and"
        assert isinstance(where.left, BinaryOp)
        assert where.left.op == "within"
        assert isinstance(where.right, Between)

    def test_in_knn(self):
        stmt = parse_statement(
            "SELECT * FROM t WHERE geom IN st_KNN(st_makePoint(1,2), 5)")
        assert isinstance(stmt.where, InFunc)
        assert stmt.where.func.name == "st_knn"

    def test_group_order_limit(self):
        stmt = parse_statement(
            "SELECT name, count(*) FROM t GROUP BY name "
            "ORDER BY name DESC LIMIT 10")
        assert stmt.group_by == [Column("name")]
        assert stmt.order_by == [(Column("name"), False)]
        assert stmt.limit == 10

    def test_distinct(self):
        assert parse_statement("SELECT DISTINCT a FROM t").distinct

    def test_operator_precedence(self):
        stmt = parse_statement("SELECT a FROM t WHERE x = 1 + 2 * 3")
        comparison = stmt.where
        assert comparison.op == "="
        addition = comparison.right
        assert addition.op == "+"
        assert addition.right.op == "*"

    def test_parenthesized_or(self):
        stmt = parse_statement(
            "SELECT a FROM t WHERE (x = 1 OR y = 2) AND z = 3")
        assert stmt.where.op == "and"
        assert stmt.where.left.op == "or"

    def test_is_null(self):
        stmt = parse_statement("SELECT a FROM t WHERE x IS NOT NULL")
        assert stmt.where.negated

    def test_trailing_garbage_rejected(self):
        with pytest.raises(ParseError):
            parse_statement("SELECT a FROM t garbage !")

    def test_count_star(self):
        stmt = parse_statement("SELECT count(*) FROM t")
        call = stmt.projections[0]
        assert isinstance(call, FuncCall) and call.is_star_count


class TestCreate:
    def test_create_table_columns(self):
        stmt = parse_statement(
            "CREATE TABLE poi (fid integer:primary key, name string, "
            "time date, geom point:srid=4326, "
            "gpsList st_series:compress=gzip|zip)")
        assert isinstance(stmt, CreateTableStmt)
        specs = dict(stmt.columns)
        assert specs["fid"] == "integer:primary key"
        assert specs["geom"] == "point:srid=4326"
        assert specs["gpsList"] == "st_series:compress=gzip|zip"

    def test_create_table_userdata(self):
        stmt = parse_statement(
            "CREATE TABLE t (fid integer:primary key, geom point) "
            "USERDATA {'geomesa.indices.enabled':'z3'}")
        assert stmt.userdata == {"geomesa.indices.enabled": "z3"}

    def test_create_plugin_table(self):
        stmt = parse_statement("CREATE TABLE trips AS trajectory")
        assert stmt.plugin == "trajectory"
        assert stmt.columns == []

    def test_create_view(self):
        stmt = parse_statement("CREATE VIEW v AS SELECT a FROM t")
        assert isinstance(stmt, CreateViewStmt)
        assert stmt.name == "v"
        assert isinstance(stmt.select, SelectStmt)

    def test_malformed_userdata(self):
        with pytest.raises(ParseError):
            parse_statement("CREATE TABLE t (a integer) "
                            "USERDATA {'unclosed': ")


class TestOtherStatements:
    def test_drop(self):
        assert parse_statement("DROP TABLE t") == DropStmt("table", "t")
        assert parse_statement("DROP VIEW v") == DropStmt("view", "v")

    def test_show(self):
        assert parse_statement("SHOW TABLES") == ShowStmt("tables")
        assert parse_statement("SHOW VIEWS") == ShowStmt("views")

    def test_desc(self):
        assert parse_statement("DESC TABLE t") == DescStmt("t")
        assert parse_statement("DESCRIBE v") == DescStmt("v")

    def test_store_view(self):
        stmt = parse_statement("STORE VIEW v TO TABLE t")
        assert stmt == StoreViewStmt("v", "t")

    def test_insert(self):
        stmt = parse_statement(
            "INSERT INTO t (a, b) VALUES (1, 'x'), (2, 'y')")
        assert isinstance(stmt, InsertStmt)
        assert stmt.columns == ["a", "b"]
        assert len(stmt.rows) == 2
        assert stmt.rows[0][0] == Literal(1)

    def test_insert_with_function_values(self):
        stmt = parse_statement(
            "INSERT INTO t VALUES (1, st_makePoint(116.3, 39.9))")
        assert isinstance(stmt.rows[0][1], FuncCall)

    def test_load(self):
        stmt = parse_statement(
            "LOAD hive:db.orders TO geomesa:t "
            "CONFIG {'fid': 'oid', 'geom': 'lng_lat_to_point(lng, lat)'} "
            "FILTER 'oid=\"10\" limit 5'")
        assert isinstance(stmt, LoadStmt)
        assert stmt.source == "hive:db.orders"
        assert stmt.table == "t"
        assert stmt.config["fid"] == "oid"
        assert stmt.filter_text == 'oid="10" limit 5'

    def test_load_without_filter(self):
        stmt = parse_statement(
            "LOAD file:data.csv TO geomesa:t CONFIG {'fid': 'id'}")
        assert stmt.filter_text is None

    def test_unsupported_statement(self):
        with pytest.raises(ParseError):
            parse_statement("UPDATE t SET a = 1")

    def test_semicolon_tolerated(self):
        assert isinstance(parse_statement("SHOW TABLES;"),
                          ShowStmt)
