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


#: The routes the HTTP surface dropped: that state is ``sys.*`` now.
REMOVED_ROUTES = ("/events", "/regions", "/balancer", "/replication",
                  "/streams", "/metrics/history", "/slos")


class TestRequestValidation:
    @pytest.mark.parametrize("path", REMOVED_ROUTES)
    def test_removed_route_answers_route_error(self, http, path):
        assert http.handle({"path": path})["kind"] == "RouteError"

    @pytest.mark.parametrize("request_", [
        {"path": "/execute"},
        {"path": "/execute", "session": "s1"},
        {"path": "/connect"},
        {"path": "/disconnect", "session": ["s1"]},
        {"path": "/fetch"},
        {"path": "/profile", "limit": "x"},
    ], ids=["execute-no-session", "execute-no-sql", "connect-no-user",
            "disconnect-bad-session", "fetch-no-handle", "profile-limit"])
    def test_malformed_request_answers_request_error(self, http, request_):
        response = http.handle(request_)
        assert response["kind"] == "RequestError"
        assert isinstance(response["error"], str)

    def test_bad_timeout_answers_request_error(self, http):
        session = http.handle({"path": "/connect",
                               "user": "alice"})["session"]
        response = http.handle({"path": "/execute", "session": session,
                                "sql": "SHOW TABLES", "timeout_ms": "x"})
        assert response["kind"] == "RequestError"


def _open_large_result(http, user):
    """Connect ``user`` and leave one paged (unread) result open."""
    session = http.handle({"path": "/connect", "user": user})["session"]
    execute = {"path": "/execute", "session": session}
    http.handle({**execute, "sql": "CREATE TABLE n (fid integer:primary "
                                   "key, name string)"})
    values = ", ".join(f"({i}, 'r{i}')" for i in range(25))
    http.handle({**execute, "sql": f"INSERT INTO n VALUES {values}"})
    response = http.handle({**execute, "sql": "SELECT fid FROM n"})
    assert response["total_rows"] == 25
    return session, response["handle"]


class TestResultHandles:
    def test_disconnect_drops_the_sessions_handles(self, http):
        session, handle = _open_large_result(http, "alice")
        _, kept = _open_large_result(http, "bob")
        http.handle({"path": "/disconnect", "session": session})
        assert set(http._handles) == {kept}
        response = http.handle({"path": "/fetch", "handle": handle})
        assert response["kind"] == "HandleError"

    def test_expired_sessions_handles_drop_on_next_execute(self, http):
        _, handle = _open_large_result(http, "alice")
        (stale,) = http.server.sessions.active_sessions()
        stale.last_active_at -= 2 * http.server.sessions.timeout_s
        live = http.handle({"path": "/connect", "user": "bob"})["session"]
        assert handle in http._handles
        http.handle({"path": "/execute", "session": live,
                     "sql": "SHOW TABLES"})
        assert not http._handles
        response = http.handle({"path": "/fetch", "handle": handle})
        assert response["kind"] == "HandleError"


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
