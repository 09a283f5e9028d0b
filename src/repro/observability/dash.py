"""``python -m repro dash`` — monitoring dashboard demonstration.

The Grafana-plus-Alertmanager role for the reproduction: stands up the
service stack with monitoring enabled
(:meth:`~repro.core.engine.JustEngine.enable_monitoring`), drives a
seeded query workload, then makes one region server *slow* (a
:class:`~repro.faults.plan.SlowServer` gray failure) and keeps the
workload running until the latency SLO's burn-rate alert fires.  Each
frame renders:

* unicode sparklines over ``sys.metrics_history`` — statement rate,
  p95 latency, and scrape activity, straight from the retained scrapes;
* the SLO scoreboard — ``sys.slos`` with burn rates and error-budget
  remaining;
* the alert table — ``sys.alerts`` with the pending/firing/resolved
  state machine per severity;
* the alerting event feed — ``slo_burn``/``alert`` rows from
  ``sys.events``.

Everything goes through plain JustQL against the ``sys.*`` virtual
tables: what the demo plots, an operator can query.  Seeded; two runs
print identical frames.  ``--once`` renders a single end-of-run frame
(the CI smoke mode).
"""

from __future__ import annotations

import argparse
import random
import sys

from repro.cli import format_result
from repro.cluster.simclock import CostModel
from repro.core.engine import JustEngine
from repro.core.schema import Field, FieldType, Schema
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan, SlowServer
from repro.observability.monitor import default_objectives
from repro.service.client import JustClient
from repro.service.server import JustServer

#: Spatial extent the demo points are drawn from.
_AREA = (116.0, 39.8, 116.5, 40.1)
_T0 = 1_500_000_000.0

DEMO_USER = "ops"

#: Small fixed costs so injected gray latency dominates statement time.
DASH_COST_MODEL = CostModel(query_overhead_ms=1.0, seek_ms=0.2,
                            spark_stage_ms=1.0)

#: Latency-SLO threshold; a bound of ``DEFAULT_LATENCY_BUCKETS_MS``.
LATENCY_THRESHOLD_MS = 100.0

_SCHEMA = Schema([
    Field("fid", FieldType.INTEGER, primary_key=True),
    Field("time", FieldType.DATE),
    Field("geom", FieldType.POINT),
])

_SPARK = "▁▂▃▄▅▆▇█"


def sparkline(values: list[float], width: int = 48) -> str:
    """Render the tail of a series as a unicode sparkline."""
    tail = [v for v in values if v is not None][-width:]
    if not tail:
        return "(no data)"
    lo, hi = min(tail), max(tail)
    span = (hi - lo) or 1.0
    chars = "".join(
        _SPARK[min(len(_SPARK) - 1,
                   int((v - lo) / span * len(_SPARK)))]
        for v in tail)
    return f"{chars}  [{lo:.1f} .. {hi:.1f}]"


def build_dash_service(rows: int = 600, seed: int = 7,
                       num_servers: int = 4,
                       interval_ms: float = 50.0,
                       slo_base_ms: float = 240_000.0,
                       monitored: bool = True) -> JustServer:
    """A monitored JustServer whose table spans every region server.

    The monitor scrapes every ``interval_ms`` sim-ms and evaluates the
    default availability + latency SLOs with burn windows scaled to
    ``slo_base_ms`` (the demo's "one hour"), so a gray fault a few
    hundred sim-ms long is enough to page.  ``monitored=False`` builds
    the identical service without the pipeline (the benchmark's
    overhead control).
    """
    engine = JustEngine(num_servers=num_servers,
                        cost_model=DASH_COST_MODEL,
                        split_bytes=4 * 1024, flush_bytes=1024)
    if monitored:
        engine.enable_monitoring(
            interval_ms=interval_ms,
            objectives=default_objectives(
                latency_threshold_ms=LATENCY_THRESHOLD_MS,
                slo_base_ms=slo_base_ms))
    table_name = f"{DEMO_USER}__traffic"
    engine.create_table(table_name, _SCHEMA)
    rng = random.Random(seed)
    lo_lng, lo_lat, hi_lng, hi_lat = _AREA
    from repro.geometry.point import Point
    batch = []
    for fid in range(rows):
        batch.append({
            "fid": fid,
            "time": _T0 + rng.random() * 86_400,
            "geom": Point(lo_lng + rng.random() * (hi_lng - lo_lng),
                          lo_lat + rng.random() * (hi_lat - lo_lat))})
    engine.insert(table_name, batch)
    return JustServer(engine)


def inject_slow_server(server: JustServer, victim: int = 0,
                       latency_ms: float = 120.0,
                       seed: int = 7) -> None:
    """Attach the gray fault: every region visit on ``victim`` pays
    extra latency — by default enough for one visit to break the
    latency SLO, so every statement that reaches the victim is bad."""
    plan = FaultPlan([SlowServer(victim, latency_ms,
                                 jitter_ms=latency_ms / 2)], seed=seed)
    FaultInjector(plan).attach(server.engine.store)


def workload_queries(seed: int, count: int = 8) -> list[str]:
    """Seeded window queries spread over the whole area (all servers)."""
    rng = random.Random(seed ^ 0xDA5)
    lo_lng, lo_lat, hi_lng, hi_lat = _AREA
    side = 0.15
    queries = []
    for _ in range(count):
        lng = lo_lng + rng.random() * (hi_lng - lo_lng - side)
        lat = lo_lat + rng.random() * (hi_lat - lo_lat - side)
        queries.append(
            f"SELECT fid FROM traffic WHERE geom WITHIN "
            f"st_makeMBR({lng:.4f}, {lat:.4f}, {lng + side:.4f}, "
            f"{lat + side:.4f})")
    return queries


def _series_values(client: JustClient, name: str,
                   column: str = "value") -> list[float]:
    result = client.execute_query(
        f"SELECT ts_ms, value, rate_per_s FROM sys.metrics_history "
        f"WHERE name = '{name}' AND tier = 0 ORDER BY ts_ms")
    return [row[column] for row in result.rows]


#: (label, history series, column) triples the dashboard plots.
_PANELS = (
    ("stmt rate (ok/s)", "server.statements{status=ok}", "rate_per_s"),
    ("stmt p95 sim-ms", "server.statement_sim_ms_p95", "value"),
    ("scrapes", "monitor.scrapes", "value"),
)


def _render_frame(client: JustClient, label: str, out) -> None:
    print(f"\n== {label}: sparklines (sys.metrics_history) ==",
          file=out)
    for title, series, column in _PANELS:
        line = sparkline(_series_values(client, series, column))
        print(f"{title:>18} {line}", file=out)

    print("\n== SLO scoreboard (sys.slos) ==", file=out)
    result = client.execute_query(
        "SELECT slo, kind, target, state, budget_remaining, "
        "burn_short, burn_long FROM sys.slos")
    print(format_result(result), file=out)

    print("\n== alerts (sys.alerts) ==", file=out)
    result = client.execute_query(
        "SELECT slo, severity, state, burn_short, burn_long, factor, "
        "times_fired FROM sys.alerts")
    print(format_result(result), file=out)


def _render_alert_feed(client: JustClient, out) -> None:
    print("\n== alerting event feed (sys.events) ==", file=out)
    result = client.execute_query(
        "SELECT seq, sim_ms, kind, detail "
        "FROM sys.events WHERE kind = 'alert' OR kind = 'slo_burn' "
        "ORDER BY seq LIMIT 12")
    print(format_result(result), file=out)


def _alert_fired(server: JustServer) -> bool:
    return any(a["state"] == "firing"
               for a in server.engine.monitor.alert_rows())


def main(argv: list[str] | None = None, out=None) -> int:
    out = out if out is not None else sys.stdout
    parser = argparse.ArgumentParser(
        prog="python -m repro dash",
        description="Sparkline dashboard + SLO burn-rate alerting over "
                    "the sys.* monitoring tables.")
    parser.add_argument("--rows", type=int, default=600,
                        help="points to load (default 600)")
    parser.add_argument("--passes", type=int, default=3,
                        help="healthy workload passes (default 3)")
    parser.add_argument("--fault-passes", type=int, default=12,
                        help="max workload passes under the gray fault")
    parser.add_argument("--latency-ms", type=float, default=120.0,
                        help="injected latency per region visit on the "
                             "victim")
    parser.add_argument("--once", action="store_true",
                        help="render a single end-of-run frame "
                             "(CI smoke mode)")
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)

    server = build_dash_service(rows=args.rows, seed=args.seed)
    client = JustClient(server, DEMO_USER)
    queries = workload_queries(args.seed)

    print(f"== monitored service: {args.rows} points, "
          f"latency SLO < {LATENCY_THRESHOLD_MS:g} sim-ms ==", file=out)
    for pass_no in range(1, args.passes + 1):
        for sql in queries:
            client.execute_query(sql)
        if not args.once:
            _render_frame(client, f"healthy pass {pass_no}", out)

    print(f"\n== injecting SlowServer(+{args.latency_ms:g} ms) on "
          f"server 0 ==", file=out)
    inject_slow_server(server, latency_ms=args.latency_ms,
                       seed=args.seed)
    fired_pass = None
    for pass_no in range(1, args.fault_passes + 1):
        for sql in queries:
            client.execute_query(sql)
        if not args.once:
            _render_frame(client, f"faulted pass {pass_no}", out)
        if _alert_fired(server):
            fired_pass = pass_no
            break

    if args.once:
        _render_frame(client, "final", out)
    _render_alert_feed(client, out)

    snap = server.engine.monitor.snapshot()
    print(f"\n== monitor: {snap['scrapes']} scrapes, "
          f"{snap['series']} series, "
          f"{snap['alerts_firing']} alert(s) firing ==", file=out)
    if fired_pass is not None:
        print(f"page fired during faulted pass {fired_pass} — "
              f"the burn-rate pipeline caught the gray failure.",
              file=out)
    else:
        print("no page fired within the fault budget — rerun with "
              "--latency-ms higher or more --fault-passes.", file=out)

    client.close()
    if args.once and fired_pass is None:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
