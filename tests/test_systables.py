"""The queryable ``sys.*`` system catalog: JustQL over live cluster
state, in-process and over the HTTP transport."""

import pytest

from repro.errors import ExecutionError
from repro.service.http import JustHttpClient, JustHttpServer
from repro.service.server import JustServer
from tests.conftest import T0, make_poi_rows

ROWS = 200


@pytest.fixture
def served():
    """A server with a populated, flushed ``poi`` table owned by the
    ``alice`` session — so reads hit SSTables and the event feed has
    flush entries."""
    server = JustServer()
    session = server.connect("alice")
    server.execute(session,
                   "CREATE TABLE poi (fid integer:primary key, "
                   "name string, time date, geom point)")
    values = ", ".join(
        f"({r['fid']}, '{r['name']}', {r['time']:.0f}, "
        f"st_makePoint({r['geom'].lng:.6f}, {r['geom'].lat:.6f}))"
        for r in make_poi_rows(ROWS, seed=11))
    server.execute(session, f"INSERT INTO poi VALUES {values}")
    server.engine.table("alice__poi").flush()
    server._test_session = session
    return server


@pytest.fixture
def session(served):
    return served._test_session


def run(served, session, sql):
    return served.execute(session, sql)


class TestSysRegions:
    def test_acceptance_query_orders_hot_regions(self, served, session):
        # Reads first, so decayed rates are non-zero.
        run(served, session,
            f"SELECT * FROM poi WHERE time BETWEEN {T0} AND {T0 + 86400}")
        rows = run(served, session,
                   "SELECT * FROM sys.regions WHERE read_rate > 0 "
                   "ORDER BY read_rate DESC").rows
        assert rows
        rates = [r["read_rate"] for r in rows]
        assert rates == sorted(rates, reverse=True)
        assert all("poi" in r["table"] for r in rows)
        assert all(r["reads"] >= 0 and r["writes"] >= 0 for r in rows)

    def test_regions_cover_every_physical_table(self, served, session):
        rows = run(served, session, "SELECT * FROM sys.regions").rows
        tables = {r["table"] for r in rows}
        # id table plus index tables all report their regions.
        assert any(t.startswith("alice__poi") for t in tables)
        assert all(r["server"] >= 0 for r in rows)


class TestSysEvents:
    def test_group_by_kind(self, served, session):
        rows = run(served, session,
                   "SELECT kind, count(*) AS cnt FROM sys.events "
                   "GROUP BY kind").rows
        by_kind = {r["kind"]: r["cnt"] for r in rows}
        assert by_kind.get("flush", 0) > 0
        # The SQL view agrees with the log itself (ring still unfull).
        assert sum(by_kind.values()) == len(served.events)

    def test_where_and_limit(self, served, session):
        rows = run(served, session,
                   "SELECT seq, kind FROM sys.events "
                   "WHERE kind = 'flush' ORDER BY seq LIMIT 3").rows
        assert 0 < len(rows) <= 3
        assert all(r["kind"] == "flush" for r in rows)


class TestSysCatalogTables:
    def test_sys_tables_reports_user_tables(self, served, session):
        rows = run(served, session, "SELECT * FROM sys.tables").rows
        poi = next(r for r in rows if r["name"] == "alice__poi")
        assert poi["row_count"] == ROWS
        assert poi["regions"] >= 1
        assert poi["storage_bytes"] > 0
        assert poi["analyzed_rows"] is None

    def test_sys_metrics_exposes_counters(self, served, session):
        run(served, session, "SELECT fid FROM poi LIMIT 1")
        rows = run(served, session,
                   "SELECT name, kind, value FROM sys.metrics").rows
        names = {r["name"] for r in rows}
        assert any(n.startswith("server.statements") for n in names)
        assert all(r["kind"] in ("counter", "gauge", "histogram")
                   for r in rows)

    def test_sys_sessions_sees_live_sessions(self, served, session):
        served.connect("bob")
        rows = run(served, session,
                   "SELECT user FROM sys.sessions ORDER BY user").rows
        assert {"alice", "bob"} <= {r["user"] for r in rows}

    def test_show_tables_hides_system_tables(self, served, session):
        rows = run(served, session, "SHOW TABLES").rows
        assert rows == [{"table": "poi"}]

    def test_desc_sys_table(self, served, session):
        rows = run(served, session, "DESC sys.events").rows
        assert [r["field"] for r in rows] == \
            ["seq", "sim_ms", "kind", "table", "region_id", "server",
             "detail"]

    def test_explain_shows_system_scan(self, served, session):
        rows = run(served, session,
                   "EXPLAIN SELECT * FROM sys.regions").rows
        assert any("SystemScan[sys.regions]" in r["plan"] for r in rows)


class TestAnalyzeStatement:
    def test_analyze_snapshots_stats(self, served, session):
        result = run(served, session, "ANALYZE TABLE poi")
        assert f"{ROWS} rows" in result.message
        rows = run(served, session,
                   "SELECT analyzed_rows FROM sys.tables "
                   "WHERE name = 'alice__poi'").rows
        assert rows == [{"analyzed_rows": ROWS}]

    def test_analyze_rejects_system_tables(self, served, session):
        with pytest.raises(ExecutionError):
            run(served, session, "ANALYZE TABLE sys.events")

    def test_writes_to_system_tables_fail(self, served, session):
        with pytest.raises(Exception):
            run(served, session,
                "INSERT INTO sys.events VALUES (1, 0.0, 'x', 't', "
                "1, 1, 'd')")


class TestOverHttp:
    def test_count_events_round_trip(self, served, session):
        http = JustHttpServer(served)
        client = JustHttpClient(http, "carol")
        result = client.execute_query(
            "SELECT count(*) AS cnt FROM sys.events")
        rows = list(result)
        assert rows and rows[0]["cnt"] > 0
        client.close()

    def test_events_route(self, served, session):
        # The newest events page through /execute; lifetime per-kind
        # totals (which survive ring eviction) stay in process.
        client = JustHttpClient(JustHttpServer(served), "carol")
        rows = list(client.execute_query(
            "SELECT seq, kind FROM sys.events ORDER BY seq DESC LIMIT 5"))
        assert 0 < len(rows) <= 5
        assert rows == sorted(rows, key=lambda r: -r["seq"])
        counts = {r["kind"]: r["n"] for r in client.execute_query(
            "SELECT kind, count(*) AS n FROM sys.events GROUP BY kind")}
        assert counts.get("flush", 0) > 0
        assert served.events.total_by_kind["flush"] >= counts["flush"]
        client.close()

    def test_events_route_kind_filter(self, served, session):
        client = JustHttpClient(JustHttpServer(served), "carol")
        rows = list(client.execute_query(
            "SELECT * FROM sys.events WHERE kind = 'flush'"))
        assert rows
        assert all(r["kind"] == "flush" for r in rows)
        client.close()

    def test_regions_route(self, served, session):
        client = JustHttpClient(JustHttpServer(served), "carol")
        rows = list(client.execute_query("SELECT * FROM sys.regions"))
        assert rows
        assert {"table", "region_id", "server", "read_rate"} <= set(rows[0])
        client.close()
