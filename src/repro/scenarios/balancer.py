"""Hot-region load balancing under zipfian multi-tenant skew."""

from __future__ import annotations

from repro.balancer.workload import WorkloadConfig, run_workload
from repro.scenarios.fixtures import load_taxi_table
from repro.scenarios.report import (
    FigureTable,
    ScenarioResult,
    print_comparison,
    show_query,
)
from repro.service.client import JustClient
from repro.service.server import JustServer


def _table(off, on) -> FigureTable:
    table = FigureTable("Balancer B-1",
                        "Zipfian multi-tenant skew: balancer off vs on",
                        "metric")
    for series, run_ in (("balancer_off", off), ("balancer_on", on)):
        table.add(series, "write imbalance (max/mean)",
                  round(run_.write_imbalance, 2))
        table.add(series, "hot-tenant scan p95 ms",
                  round(run_.scan_p95_ms, 2))
        table.add(series, "hot-tenant regions", run_.hot_tenant_regions)
        table.add(series, "hot-tenant servers", run_.hot_tenant_servers)
        table.add(series, "moves", run_.moves)
        table.add(series, "splits", run_.splits)
        table.add(series, "merges", run_.merges)
        table.add(series, "writes retried", run_.retried_writes)
    table.add("balancer_on", "imbalance reduction x",
              round(off.write_imbalance / on.write_imbalance, 2))
    return table


def _sql_surface(out) -> int:
    """Placement DDL and the sys.* tables an operator would read.

    Returns how many idle regions the balancer merged back.
    """
    server = JustServer()
    server.engine.enable_balancer()
    with JustClient(server, "ops") as client:
        load_taxi_table(client, "presplit=6, salt_buckets=3", rows=200)
        show_query(client.execute_query,
                   "SELECT table, count(*) AS regions FROM sys.regions "
                   "WHERE table LIKE 'ops__taxi%' GROUP BY table", out,
                   "CREATE TABLE ... WITH (presplit=6, salt_buckets=3)")
        show_query(client.execute_query, "SELECT * FROM sys.servers",
                   out, "sys.servers (what the balancer sees)")

        # A long idle period: every pre-split region goes cold, so the
        # next balancer passes merge the small neighbours back together
        # (the elastic shrink half of the loop).
        server.engine.events.advance(300_000)
        for _ in range(3):
            server.engine.balancer.tick()

        show_query(client.execute_query,
                   "SELECT run, action, table, region_id, src_server, "
                   "dest_server FROM sys.balancer LIMIT 15", out,
                   "sys.balancer (decision history)")
        show_query(client.execute_query,
                   "SELECT kind, count(*) AS n FROM sys.events "
                   "WHERE kind = 'balancer_run' OR kind = 'region_move' "
                   "OR kind = 'region_merge' OR kind = 'split' "
                   "GROUP BY kind", out, "balancer events in sys.events")
    return server.engine.balancer.merges


def run(out) -> ScenarioResult:
    """Zipfian multi-tenant write skew with the balancer off, then on."""
    result = ScenarioResult()
    config = WorkloadConfig()
    print(f"== {config.tenants} tenants, zipf(s={config.zipf_s}) "
          f"popularity, {config.rounds} x {config.writes_per_round} "
          f"writes on {config.num_servers} servers ==", file=out)
    off = run_workload(config, balancer_on=False)
    on = run_workload(config, balancer_on=True)
    print_comparison([
        ("total writes", off.total_writes, on.total_writes),
        ("write imbalance (max/mean)",
         f"{off.write_imbalance:.2f}", f"{on.write_imbalance:.2f}"),
        ("per-server write rates (/s)",
         list(off.server_write_rates.values()),
         list(on.server_write_rates.values())),
        ("hot-tenant regions", off.hot_tenant_regions,
         on.hot_tenant_regions),
        ("hot-tenant servers", off.hot_tenant_servers,
         on.hot_tenant_servers),
        ("hot-tenant cold-scan p95 (sim-ms)",
         f"{off.scan_p95_ms:.2f}", f"{on.scan_p95_ms:.2f}"),
        ("moves / splits / merges", "-",
         f"{on.moves} / {on.splits} / {on.merges}"),
        ("writes retried (mid-move)", off.retried_writes,
         on.retried_writes),
    ], "balancer off", "balancer on", out)
    result.tables.append(_table(off, on))

    # Round-robin placement balances region *counts* but not load: the
    # zipf-hot tenants pile write traffic onto their home servers.
    result.check("balancer off: write imbalance (max/mean) >= 2",
                 off.write_imbalance >= 2.0)
    result.check("balancer off: no moves, splits or merges",
                 off.moves == off.splits == off.merges == 0)
    result.check("balancer on: hot tenants are split and moved",
                 on.moves > 0 and on.splits > 0)
    result.check("balancer on: write imbalance cut >= 2x",
                 off.write_imbalance / on.write_imbalance >= 2.0)
    result.check("balancer on: the hot tenant spans more servers",
                 on.hot_tenant_servers > off.hot_tenant_servers)
    # More servers per hot table -> parallel disk reads -> lower p95.
    result.check("balancer on: hot-tenant cold-scan p95 drops",
                 on.scan_p95_ms < off.scan_p95_ms)

    merged = _sql_surface(out)
    result.check("idle pre-split regions are merged back", merged > 0)
    return result
