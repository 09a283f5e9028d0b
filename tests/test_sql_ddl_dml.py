"""DDL and DML statements through the SQL front end."""

import pytest

from repro.errors import AnalysisError, TableNotFoundError
from repro.service.client import JustClient
from repro.service.server import JustServer

from conftest import T0


class TestCreateAndDrop:
    def test_create_table_statement(self, engine):
        rs = engine.sql(
            "CREATE TABLE poi (fid integer:primary key, name string, "
            "time date, geom point:srid=4326)")
        assert "created" in rs.message
        assert engine.has_table("poi")
        table = engine.table("poi")
        assert table.schema.primary_key.name == "fid"
        assert set(table.strategies) == {"z2", "z2t"}

    def test_create_with_userdata_indices(self, engine):
        engine.sql("CREATE TABLE t (fid integer:primary key, time date, "
                   "geom point) USERDATA "
                   "{'geomesa.indices.enabled':'z3:year'}")
        assert set(engine.table("t").strategies) == {"z3:year"}

    def test_create_plugin_table(self, engine):
        engine.sql("CREATE TABLE trips AS trajectory")
        table = engine.table("trips")
        assert table.kind == "plugin"
        assert "gps_list" in table.schema.names

    def test_drop_table(self, engine):
        engine.sql("CREATE TABLE t (fid integer:primary key, geom point)")
        engine.sql("DROP TABLE t")
        assert not engine.has_table("t")

    def test_drop_missing_view(self, engine):
        with pytest.raises(TableNotFoundError):
            engine.sql("DROP VIEW ghost")


class TestDropWrongKind:
    """DROP TABLE on a view or a ``sys.*`` table, and DROP VIEW on a
    table, are a typed ``TableNotFoundError`` that changes nothing."""

    def test_drop_table_on_materialized_view(self, engine):
        view = engine.create_materialized_view("mv", ["a"])
        with pytest.raises(TableNotFoundError):
            engine.sql("DROP TABLE mv")
        assert engine.view("mv") is view
        assert engine.sql("SELECT name, kind FROM sys.tables").rows == [
            {"name": "mv", "kind": "materialized_view"}]

    def test_drop_table_on_materialized_view_in_a_session(self):
        server = JustServer()
        server.engine.create_materialized_view("alice__mv", ["a"])
        with JustClient(server, "alice") as client:
            with pytest.raises(TableNotFoundError):
                client.execute_query("DROP TABLE mv")
            assert client.execute_query("SHOW VIEWS").rows == [
                {"view": "mv"}]
            assert client.execute_query("SELECT a FROM mv").rows == []
        assert "alice__mv" in server.engine.view_names()

    def test_drop_table_on_cached_view(self, poi_engine):
        poi_engine.sql("CREATE VIEW v AS SELECT fid FROM poi LIMIT 2")
        with pytest.raises(TableNotFoundError):
            poi_engine.sql("DROP TABLE v")
        assert len(poi_engine.sql("SELECT * FROM v").rows) == 2

    def test_drop_view_on_table(self, poi_engine):
        rows = poi_engine.sql("SELECT fid FROM poi").rows
        with pytest.raises(TableNotFoundError):
            poi_engine.sql("DROP VIEW poi")
        assert poi_engine.sql("SELECT fid FROM poi").rows == rows

    def test_drop_table_on_system_table(self, engine):
        with pytest.raises(TableNotFoundError):
            engine.drop_table("sys.metrics")
        assert engine.sql("DESC sys.metrics").rows[0]["field"] == "name"
        assert engine.sql("SELECT name FROM sys.metrics").columns == [
            "name"]


class TestShowDesc:
    def test_show_tables_and_views(self, poi_engine):
        poi_engine.sql("CREATE VIEW v AS SELECT * FROM poi LIMIT 1")
        assert poi_engine.sql("SHOW TABLES").rows == [{"table": "poi"}]
        assert poi_engine.sql("SHOW VIEWS").rows == [{"view": "v"}]

    def test_desc_table(self, poi_engine):
        rows = poi_engine.sql("DESC TABLE poi").rows
        assert rows[0]["field"] == "fid"
        assert rows[0]["flags"] == "primary key"

    def test_desc_view(self, poi_engine):
        poi_engine.sql("CREATE VIEW v AS SELECT fid, name FROM poi")
        rows = poi_engine.sql("DESC VIEW v").rows
        assert [r["field"] for r in rows] == ["fid", "name"]


class TestInsert:
    def test_insert_values(self, engine):
        engine.sql("CREATE TABLE t (fid integer:primary key, name string,"
                   " time date, geom point)")
        rs = engine.sql(
            f"INSERT INTO t (fid, name, time, geom) VALUES "
            f"(1, 'a', {T0}, st_makePoint(116.3, 39.9)), "
            f"(2, 'b', {T0 + 60}, st_makePoint(116.4, 39.95))")
        assert "2 rows" in rs.message
        assert engine.table("t").row_count == 2

    def test_insert_default_column_order(self, engine):
        engine.sql("CREATE TABLE t (fid integer:primary key, name string,"
                   " time date, geom point)")
        engine.sql(f"INSERT INTO t VALUES (9, 'x', {T0}, "
                   f"st_makePoint(116.0, 39.8))")
        assert engine.table("t").get("9")["name"] == "x"

    def test_insert_arity_mismatch(self, engine):
        engine.sql("CREATE TABLE t (fid integer:primary key, geom point)")
        with pytest.raises(AnalysisError):
            engine.sql("INSERT INTO t (fid) VALUES (1, 2)")

    def test_insert_is_queryable_immediately(self, engine):
        engine.sql("CREATE TABLE t (fid integer:primary key, name string,"
                   " time date, geom point)")
        engine.sql(f"INSERT INTO t VALUES (1, 'hit', {T0}, "
                   f"st_makePoint(116.2, 39.9))")
        rs = engine.sql("SELECT name FROM t WHERE geom WITHIN "
                        "st_makeMBR(116.1, 39.8, 116.3, 40.0)")
        assert rs.rows == [{"name": "hit"}]


class TestStoreView:
    def test_store_and_requery(self, poi_engine):
        poi_engine.sql(f"CREATE VIEW v AS SELECT fid, name, time, geom "
                       f"FROM poi WHERE time BETWEEN {T0} AND {T0+86400}")
        poi_engine.sql("STORE VIEW v TO TABLE archived")
        count_view = poi_engine.sql("SELECT count(*) FROM v").rows
        count_table = poi_engine.sql(
            "SELECT count(*) FROM archived").rows
        assert count_view == count_table


class TestLoadStatement:
    def test_load_hive_with_filter(self, engine):
        engine.sql("CREATE TABLE t (fid string:primary key, time date, "
                   "geom point)")
        engine.register_source("db.orders", [
            {"trajId": str(i), "lng": 116.0 + i * 0.01, "lat": 39.9,
             "timestamp": int((T0 + i) * 1000)} for i in range(20)])
        rs = engine.sql(
            "LOAD hive:db.orders TO geomesa:t CONFIG {"
            "'fid': 'trajId', "
            "'time': 'long_to_date_ms(timestamp)', "
            "'geom': 'lng_lat_to_point(lng, lat)'} "
            "FILTER 'trajId=\"7\" limit 10'")
        assert "1 rows loaded" in rs.message
        assert engine.table("t").get("7") is not None

    def test_load_numeric_filter(self, engine):
        engine.sql("CREATE TABLE t (fid string:primary key, time date, "
                   "geom point)")
        engine.register_source("src", [
            {"id": i, "lng": 116.0, "lat": 39.9, "ts": T0}
            for i in range(10)])
        rs = engine.sql(
            "LOAD hive:src TO geomesa:t CONFIG {"
            "'fid': 'to_string(id)', 'time': 'long_to_date_s(ts)', "
            "'geom': 'lng_lat_to_point(lng, lat)'} FILTER 'id < 3'")
        assert "3 rows loaded" in rs.message


    def test_load_numeric_filter_over_string_source(self, engine):
        """File sources yield strings: ``"2" < 3`` is an
        ``ExecutionError`` the filter answers by coercing and retrying;
        a value that stays a string drops the row."""
        engine.sql("CREATE TABLE t (fid string:primary key, time date, "
                   "geom point)")
        engine.register_source("src", [
            {"id": str(i) if i else "n/a", "lng": 116.0, "lat": 39.9,
             "ts": T0} for i in range(10)])
        rs = engine.sql(
            "LOAD hive:src TO geomesa:t CONFIG {"
            "'fid': 'id', 'time': 'long_to_date_s(ts)', "
            "'geom': 'lng_lat_to_point(lng, lat)'} FILTER 'id < 3'")
        assert "2 rows loaded" in rs.message


class TestNamespaces:
    def test_isolated_namespaces(self, engine):
        engine.sql("CREATE TABLE t (fid integer:primary key, geom point)",
                   namespace="alice__")
        engine.sql("CREATE TABLE t (fid integer:primary key, geom point)",
                   namespace="bob__")
        assert engine.sql("SHOW TABLES", namespace="alice__").rows == \
            [{"table": "t"}]
        # The physical names are distinct.
        assert engine.has_table("alice__t") and engine.has_table("bob__t")

    def test_namespace_invisible_in_listing(self, engine):
        engine.sql("CREATE TABLE mine (fid integer:primary key, "
                   "geom point)", namespace="u__")
        rows = engine.sql("SHOW TABLES", namespace="u__").rows
        assert rows == [{"table": "mine"}]
