"""The HTTP/JSON transport layer."""

import json

import pytest

from repro import Envelope, Point, STSeries, Trajectory
from repro.service.http import (
    JustHttpClient,
    JustHttpServer,
    decode_row,
    decode_value,
    encode_row,
    encode_value,
)

from conftest import T0


class TestWireEncoding:
    def test_scalars_pass_through(self):
        for value in (None, True, 7, 2.5, "text"):
            assert encode_value(value) == value
            assert decode_value(encode_value(value)) == value

    def test_geometry_roundtrip(self):
        point = Point(116.397, 39.908)
        encoded = encode_value(point)
        assert encoded["@type"] == "wkt"
        assert decode_value(encoded) == point

    def test_envelope_roundtrip(self):
        env = Envelope(1, 2, 3, 4)
        assert decode_value(encode_value(env)) == env

    def test_series_and_trajectory_roundtrip(self):
        series = STSeries([(116.0, 39.9, 0.0), (116.01, 39.91, 30.0)])
        assert decode_value(encode_value(series)) == series
        trajectory = Trajectory("t1", "o1", series)
        decoded = decode_value(encode_value(trajectory))
        assert decoded.tid == "t1" and len(decoded.points) == 2

    def test_rows_are_json_safe(self):
        row = {"fid": 1, "geom": Point(1, 2),
               "gps": STSeries([(0, 0, 1.0)])}
        text = json.dumps(encode_row(row))
        decoded = decode_row(json.loads(text))
        assert decoded["geom"] == Point(1, 2)
        assert len(decoded["gps"]) == 1


@pytest.fixture
def http():
    return JustHttpServer(page_rows=10)


class TestServerRouting:
    def test_connect_execute_disconnect(self, http):
        session = http.handle({"path": "/connect",
                               "user": "alice"})["session"]
        response = http.handle({"path": "/execute", "session": session,
                                "sql": "SHOW TABLES"})
        assert response["rows"] == []
        http.handle({"path": "/disconnect", "session": session})

    def test_engine_error_becomes_response(self, http):
        session = http.handle({"path": "/connect",
                               "user": "alice"})["session"]
        response = http.handle({"path": "/execute", "session": session,
                                "sql": "SELECT * FROM ghost"})
        assert "error" in response
        assert response["kind"] == "AnalysisError"

    def test_unknown_path(self, http):
        assert "error" in http.handle({"path": "/nope"})

    def test_unknown_session(self, http):
        response = http.handle({"path": "/execute", "session": "ghost",
                                "sql": "SHOW TABLES"})
        assert response["kind"] == "SessionError"

    def test_responses_always_json_safe(self, http):
        session = http.handle({"path": "/connect",
                               "user": "alice"})["session"]
        http.handle({"path": "/execute", "session": session,
                     "sql": "CREATE TABLE t (fid integer:primary key, "
                            "geom point)"})
        http.handle({"path": "/execute", "session": session,
                     "sql": "INSERT INTO t VALUES (1, "
                            "st_makePoint(116.3, 39.9))"})
        response = http.handle({"path": "/execute", "session": session,
                                "sql": "SELECT * FROM t"})
        json.dumps(response)  # must not raise
        assert response["rows"][0]["geom"]["@type"] == "wkt"


class TestHttpClient:
    def test_paper_snippet_over_http(self, http):
        with JustHttpClient(http, "alice") as client:
            client.execute_query(
                "CREATE TABLE poi (fid integer:primary key, name string, "
                "time date, geom point)")
            client.execute_query(
                f"INSERT INTO poi VALUES (1, 'a', {T0}, "
                f"st_makePoint(116.3, 39.9))")
            rs = client.execute_query("SELECT name, geom FROM poi")
            rows = list(rs)
            assert rows[0]["name"] == "a"
            assert rows[0]["geom"] == Point(116.3, 39.9)
            assert rs.sim_ms > 0

    def test_chunked_fetch(self, http):
        with JustHttpClient(http, "bob") as client:
            client.execute_query(
                "CREATE TABLE n (fid integer:primary key, name string)")
            for start in range(0, 45, 15):
                values = ", ".join(f"({i}, 'r{i}')"
                                   for i in range(start, start + 15))
                client.execute_query(
                    f"INSERT INTO n (fid, name) VALUES {values}")
            rs = client.execute_query("SELECT fid FROM n")
            assert rs.total_rows == 45
            fetched = sorted(row["fid"] for row in rs)
            assert fetched == list(range(45))
            # A fully drained handle is gone server-side.
            assert not http._handles

    def test_system_tables_over_http(self, http):
        """``sys.servers`` and ``sys.events`` cross the HTTP hop."""
        engine = http.server.engine
        with JustHttpClient(http, "ops") as client:
            client.execute_query(
                "CREATE TABLE t (fid integer:primary key, v double)")
            client.execute_query("INSERT INTO t VALUES (1, 1.0)")
            for table in engine.store.tables():
                table.flush()
            servers = list(client.execute_query(
                "SELECT * FROM sys.servers"))
            assert len(servers) == engine.store.num_servers
            assert all(r["state"] == "alive" for r in servers)
            events = list(client.execute_query(
                "SELECT count(*) AS cnt FROM sys.events"))
            assert events[0]["cnt"] > 0

    def test_remote_error_raised_locally(self, http):
        from repro.errors import JustError
        with JustHttpClient(http, "carol") as client:
            with pytest.raises(JustError):
                client.execute_query("SELECT * FROM missing")

    def test_reconnect_after_session_timeout(self, http):
        client = JustHttpClient(http, "dave")
        # Invalidate the session server-side.
        http.server.sessions._sessions.clear()
        rs = client.execute_query("SHOW TABLES")
        assert list(rs) == []
