"""Cluster introspection: the region heatmap over the sys.* tables."""

from __future__ import annotations

from repro.scenarios.fixtures import AREA, build_service, window_queries
from repro.scenarios.report import ScenarioResult, show_query
from repro.service.client import JustClient

#: South-west corner of :data:`AREA` that every query is aimed at.
_HOT_CORNER = (AREA[0], AREA[1], AREA[0] + 0.13, AREA[1] + 0.08)
_PASSES = 3


def run(out) -> ScenarioResult:
    """Aim every read at one corner; find the hot regions in sys.regions."""
    result = ScenarioResult()
    server = build_service("ops", "poi", rows=1500, seed=7, num_servers=5)
    # Flush so reads touch SSTables and the event feed has entries.
    for table in server.engine.store.tables():
        table.flush()
    queries = window_queries("poi", 6, seed=7, side=0.06,
                             area=_HOT_CORNER)

    print(f"== {len(queries)} corner window queries x {_PASSES} passes "
          f"over 1500 points ==", file=out)
    with JustClient(server, "ops") as client:
        for _ in range(_PASSES):
            for sql in queries:
                client.execute_query(sql)
        regions = client.execute_query(
            "SELECT table, reads FROM sys.regions").rows
        show_query(client.execute_query,
                   "SELECT table, region_id, server, sstable_bytes, reads, "
                   "writes, read_rate, write_rate FROM sys.regions "
                   "ORDER BY read_rate DESC LIMIT 5", out,
                   "region heatmap (sys.regions by read_rate)")
        show_query(client.execute_query,
                   "SELECT seq, sim_ms, kind, table, region_id, server "
                   "FROM sys.events ORDER BY seq DESC LIMIT 8", out,
                   "cluster event feed (tail of sys.events)")
        show_query(client.execute_query, "SELECT * FROM sys.tables", out,
                   "catalog (sys.tables)")

    print("\n== event totals ==", file=out)
    totals = server.events.total_by_kind
    for kind in sorted(totals):
        print(f"{kind:>16}: {totals[kind]}", file=out)

    scanned = [r for r in regions if r["table"] == "ops__poi__z2"]
    hot = [r for r in scanned if r["reads"] > 0]
    result.check("the corner workload reads a minority of the index's "
                 "regions", 0 < len(hot) < len(scanned) / 2)
    result.check("flushes and splits reach the sys.events feed",
                 totals.get("flush", 0) > 0 and totals.get("split", 0) > 0)
    return result
