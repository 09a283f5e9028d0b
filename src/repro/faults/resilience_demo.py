"""``python -m repro resilience`` — gray-failure resilience demonstration.

Stands up the full service stack (engine -> JustServer -> JustClient)
over a multi-region table, makes one region server *sick* — slow
(:class:`~repro.faults.plan.SlowServer`) or flapping
(:class:`~repro.faults.plan.IntermittentError`) — and drives a seeded
query workload through the SDK under three client policies:

* ``baseline``  — no deadline, no partial results: requests absorb the
  full injected latency and see raw intermittent errors (minus SDK
  retries).
* ``deadline``  — a per-statement ``timeout_ms`` budget on the simulated
  clock: stuck statements cancel cooperatively, capping tail latency at
  the cost of timed-out requests.
* ``partial``   — deadline + opt-in partial results: scans skip
  unavailable regions, return live rows, and report what was skipped.

Everything (latency draws, error draws, query windows, backoff jitter)
is seeded, so two runs print identical tables.
"""

from __future__ import annotations

import argparse
import random
import sys
from dataclasses import dataclass, field

from repro.cluster.simclock import CostModel
from repro.core.engine import JustEngine
from repro.core.schema import Field, FieldType, Schema
from repro.errors import JustError, QueryTimeoutError
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan, IntermittentError, SlowServer
from repro.resilience import CircuitBreaker
from repro.service.client import JustClient
from repro.service.server import JustServer

#: Cost model for service-level experiments: the shared-context driver
#: overhead is shrunk so a ~100 ms deadline budget is meaningful against
#: injected per-operation latency rather than swamped by fixed costs.
SERVICE_COST_MODEL = CostModel(query_overhead_ms=1.0, seek_ms=0.2,
                               spark_stage_ms=1.0)

_SCHEMA = Schema([
    Field("fid", FieldType.INTEGER, primary_key=True),
    Field("time", FieldType.DATE),
    Field("geom", FieldType.POINT),
])

#: Beijing-ish box the demo data and query windows are drawn from.
_AREA = (116.0, 39.8, 116.5, 40.1)

#: All workload clients connect as this user, so the demo table lives in
#: its namespace (the server prefixes every statement's table names).
WORKLOAD_USER = "bench"


@dataclass
class WorkloadResult:
    """Outcome of one policy's run over the seeded workload."""

    mode: str
    queries: int = 0
    ok: int = 0
    timeouts: int = 0
    errors: int = 0
    fast_failures: int = 0
    partial: int = 0
    regions_skipped: int = 0
    retries: int = 0
    latencies_ms: list = field(default_factory=list)

    @property
    def goodput(self) -> float:
        """Fraction of requests that returned rows (full or partial)."""
        return self.ok / self.queries if self.queries else 0.0

    def percentile(self, q: float) -> float:
        """Latency percentile over all finished requests, sim-ms."""
        if not self.latencies_ms:
            return 0.0
        ordered = sorted(self.latencies_ms)
        index = min(len(ordered) - 1, int(q * len(ordered)))
        return ordered[index]


def build_service(fault: str = "slow", num_rows: int = 3200,
                  latency_ms: float = 60.0, probability: float = 0.9,
                  victim: int = 0, seed: int = 0,
                  num_servers: int = 3) -> JustServer:
    """A JustServer whose table spans many regions, one server sick.

    ``fault`` is ``"slow"``, ``"flaky"``, or ``"none"`` (control run).
    Small split/flush thresholds force the table across regions on every
    server, so the victim's sickness hits a slice of every scan.  A gray
    fault fires once per region a scan visits on the victim, so the
    defaults are sized for a statement to cross a dozen or so of the
    victim's regions: the injected latency adds up to several deadline
    budgets while one draw (``latency_ms`` plus up to half again of
    jitter) stays below one, and a flapping victim fails nearly every
    attempt that reaches it.
    """
    engine = JustEngine(num_servers=num_servers,
                        cost_model=SERVICE_COST_MODEL,
                        split_bytes=4 * 1024, flush_bytes=1024)
    table_name = f"{WORKLOAD_USER}__events"
    engine.create_table(table_name, _SCHEMA)
    rng = random.Random(seed)
    lo_lng, lo_lat, hi_lng, hi_lat = _AREA
    rows = []
    for fid in range(num_rows):
        from repro.geometry.point import Point
        rows.append({"fid": fid,
                     "time": 1_500_000_000.0 + rng.random() * 86400,
                     "geom": Point(lo_lng + rng.random()
                                   * (hi_lng - lo_lng),
                                   lo_lat + rng.random()
                                   * (hi_lat - lo_lat))})
    engine.insert(table_name, rows)

    if fault == "slow":
        plan = FaultPlan([SlowServer(victim, latency_ms,
                                     jitter_ms=latency_ms / 2)],
                         seed=seed)
        FaultInjector(plan).attach(engine.store)
    elif fault == "flaky":
        plan = FaultPlan([IntermittentError(victim, probability)],
                         seed=seed)
        FaultInjector(plan).attach(engine.store)
    elif fault != "none":
        raise ValueError(f"unknown fault kind {fault!r}")
    return JustServer(engine)


def query_windows(count: int, seed: int = 0,
                  side: float = 0.12) -> list[tuple]:
    """Seeded spatial windows covering a healthy chunk of the area."""
    rng = random.Random(seed ^ 0xD15EA5E)
    lo_lng, lo_lat, hi_lng, hi_lat = _AREA
    out = []
    for _ in range(count):
        lng = lo_lng + rng.random() * (hi_lng - lo_lng - side)
        lat = lo_lat + rng.random() * (hi_lat - lo_lat - side)
        out.append((lng, lat, lng + side, lat + side))
    return out


def run_workload(server: JustServer, mode: str, queries: int = 50,
                 timeout_ms: float = 100.0,
                 seed: int = 0) -> WorkloadResult:
    """Drive the seeded query workload through one client policy.

    ``mode`` is ``baseline``/``deadline``/``partial``.  The client's
    sleep is a no-op (backoff is accounted, not waited) and the breaker
    runs on a simulated second hand advanced per request, keeping the
    run deterministic and instant in wall-clock terms.
    """
    now = [0.0]
    client = JustClient(server, WORKLOAD_USER, jitter_seed=seed,
                        sleep=lambda _s: None,
                        breaker=CircuitBreaker(reset_timeout_s=5.0,
                                               clock=lambda: now[0]))
    result = WorkloadResult(mode=mode)
    kwargs = {}
    if mode in ("deadline", "partial"):
        kwargs["timeout_ms"] = timeout_ms
    if mode == "partial":
        kwargs["partial_results"] = True

    for window in query_windows(queries, seed=seed):
        now[0] += 1.0  # one simulated second between requests
        result.queries += 1
        statement = ("SELECT fid FROM events WHERE geom WITHIN "
                     "st_makeMBR({:.4f}, {:.4f}, {:.4f}, {:.4f})"
                     .format(*window))
        try:
            rs = client.execute_query(statement, **kwargs)
        except QueryTimeoutError as exc:
            result.timeouts += 1
            result.latencies_ms.append(exc.consumed_ms)
        except JustError:
            result.errors += 1
            result.latencies_ms.append(timeout_ms
                                       if mode != "baseline" else 0.0)
        else:
            result.ok += 1
            result.latencies_ms.append(rs.sim_ms)
            if rs.skipped_regions:
                result.partial += 1
                result.regions_skipped += len(rs.skipped_regions)
    result.retries = client.retries_attempted
    result.fast_failures = client.breaker.fast_failures
    return result


def main(argv: list[str] | None = None, out=None) -> int:
    out = out if out is not None else sys.stdout
    parser = argparse.ArgumentParser(
        prog="python -m repro resilience",
        description="Drive a seeded query workload against a sick "
                    "region server under three client policies.")
    parser.add_argument("--fault", choices=["slow", "flaky", "none"],
                        default="slow")
    parser.add_argument("--queries", type=int, default=50)
    parser.add_argument("--latency-ms", type=float, default=60.0,
                        help="injected latency per region visit (slow "
                             "fault)")
    parser.add_argument("--probability", type=float, default=0.9,
                        help="error probability per region visit (flaky "
                             "fault)")
    parser.add_argument("--timeout-ms", type=float, default=100.0,
                        help="statement deadline for the resilient modes")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    header = (f"{'mode':>10} | {'ok':>4} | {'t/o':>4} | {'err':>4} | "
              f"{'part':>4} | {'p50 ms':>8} | {'p95 ms':>8} | "
              f"{'p99 ms':>8} | {'goodput':>7}")
    print(f"fault={args.fault} over {args.queries} queries "
          f"(timeout {args.timeout_ms:.0f} ms)", file=out)
    print(header, file=out)
    print("-" * len(header), file=out)
    for mode in ("baseline", "deadline", "partial"):
        server = build_service(args.fault, latency_ms=args.latency_ms,
                               probability=args.probability,
                               seed=args.seed)
        result = run_workload(server, mode, queries=args.queries,
                              timeout_ms=args.timeout_ms,
                              seed=args.seed)
        print(f"{mode:>10} | {result.ok:>4} | {result.timeouts:>4} | "
              f"{result.errors:>4} | {result.partial:>4} | "
              f"{result.percentile(0.50):>8.1f} | "
              f"{result.percentile(0.95):>8.1f} | "
              f"{result.percentile(0.99):>8.1f} | "
              f"{result.goodput:>7.2f}", file=out)
    print("(deadlines cap the tail; partial results trade completeness "
          "for goodput on a flapping server)", file=out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
