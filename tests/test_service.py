"""Service layer: sessions, namespaces, client SDK."""

import pytest

from repro.errors import SessionError
from repro.service import JustClient, JustServer, SessionManager


class TestSessionManager:
    def test_create_and_get(self):
        manager = SessionManager()
        session = manager.create("alice")
        assert manager.get(session.session_id).user == "alice"
        assert session.namespace == "alice__"

    def test_invalid_usernames(self):
        manager = SessionManager()
        with pytest.raises(SessionError):
            manager.create("")
        with pytest.raises(SessionError):
            manager.create("a__b")  # would break namespace parsing

    def test_unknown_session(self):
        with pytest.raises(SessionError):
            SessionManager().get("ghost")

    def test_timeout_expires_session(self):
        manager = SessionManager(timeout_s=10.0)
        session = manager.create("alice")
        session.touch(now=0.0)
        with pytest.raises(SessionError):
            manager.get(session.session_id, now=100.0)

    def test_activity_keeps_session_alive(self):
        manager = SessionManager(timeout_s=10.0)
        session = manager.create("alice")
        session.touch(now=0.0)
        manager.get(session.session_id, now=5.0)   # touches
        assert manager.get(session.session_id, now=14.0).user == "alice"

    def test_expire_idle_returns_expired(self):
        manager = SessionManager(timeout_s=10.0)
        a = manager.create("a")
        b = manager.create("b")
        a.touch(now=0.0)
        b.touch(now=95.0)
        expired = manager.expire_idle(now=100.0)
        assert [s.user for s in expired] == ["a"]
        assert [s.user for s in manager.active_sessions()] == ["b"]


class TestServer:
    def test_multi_user_isolation(self):
        server = JustServer()
        alice = server.connect("alice")
        bob = server.connect("bob")
        server.execute(alice, "CREATE TABLE t (fid integer:primary key, "
                              "geom point)")
        server.execute(bob, "CREATE TABLE t (fid integer:primary key, "
                            "geom point)")
        # Same visible name, different physical tables, no collision.
        assert server.execute(alice, "SHOW TABLES").rows == \
            [{"table": "t"}]
        assert server.engine.table_names("alice__") == ["alice__t"]
        assert server.engine.table_names("bob__") == ["bob__t"]

    def test_shared_engine_across_users(self):
        server = JustServer()
        a = server.connect("a")
        b = server.connect("b")
        server.execute(a, "CREATE TABLE x (fid integer:primary key, "
                          "geom point)")
        # b cannot see a's table.
        assert server.execute(b, "SHOW TABLES").rows == []

    def test_disconnect_drops_views(self):
        server = JustServer()
        sid = server.connect("alice")
        server.execute(sid, "CREATE TABLE t (fid integer:primary key, "
                            "name string, geom point)")
        server.engine.insert("alice__t", [])
        server.execute(sid, "CREATE VIEW v AS SELECT fid FROM t")
        assert "alice__v" in server.engine.view_names()
        server.disconnect(sid)
        assert "alice__v" not in server.engine.view_names()

    def test_stale_session_rejected(self):
        server = JustServer(session_timeout_s=10.0)
        sid = server.connect("alice")
        # Backdate the session far beyond the timeout.
        server.sessions._sessions[sid].last_active_at = -1e9
        with pytest.raises(SessionError):
            server.sessions.get(sid)


class TestClient:
    def test_paper_snippet_flow(self):
        server = JustServer()
        with JustClient(server, "alice") as client:
            client.execute_query(
                "CREATE TABLE poi (fid integer:primary key, name string, "
                "time date, geom point)")
            client.execute_query(
                "INSERT INTO poi VALUES (1, 'a', 0, "
                "st_makePoint(116.3, 39.9))")
            rs = client.execute_query("SELECT name FROM poi")
            rows = []
            while rs.has_next():
                rows.append(rs.next())
            assert rows == [{"name": "a"}]

    def test_camel_case_alias(self):
        server = JustServer()
        client = JustClient(server, "alice")
        assert client.executeQuery("SHOW TABLES").rows == []

    def test_reconnect_after_timeout(self):
        server = JustServer(session_timeout_s=10.0)
        client = JustClient(server, "alice")
        # Force the session stale.
        server.sessions.get(client.session_id).touch(now=-1e9)
        rs = client.execute_query("SHOW TABLES")
        assert rs.rows == []
