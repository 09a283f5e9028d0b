"""Compare two sets of benchmark result files, metric by metric.

    python3 benchmarks/perf/compare.py A.json [A2.json ...] -- B.json [...]

A is the parent (or first set of runs), B the change (or second set).
For every workload and end-to-end metric both sides report, prints each
side's median and quartiles and one verdict, using the bounds of
``BENCHMARK.json``:

* ``regressed``  — B's median is worse than A's by more than the bound;
* ``improved``   — B's median is better by more than the bound *and*
  more than the spread of A's own runs (the distance between A's
  quartiles);
* ``unchanged``  — neither;
* ``unresolved`` — A's own spread is wider than the bound, or (wall-clock
  metrics) a run was ``contended``, so the bound cannot be checked.

A workload whose ``result_digest`` differs between runs of the same seed
returned different answers and is flagged.  Exits 1 if anything regressed
or a digest differs.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

SPEC_PATH = Path(__file__).resolve().parents[2] / "BENCHMARK.json"
#: Metrics a busy machine distorts; the others are counted by the program.
WALL_CLOCK = {"setup_s", "throughput_per_s", "p50_ms", "p90_ms"}
#: Not in BENCHMARK.json (a metric there may never be 0): any increase
#: in the share of failed ops is a regression.
FAILED_FRAC = {"name": "failed_frac", "unit": "ratio", "better": "lower",
               "bound": 0.0}


def quartiles(values) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(a: list[float], b: list[float], better: str, bound: float,
            contended: bool = False) -> str:
    median_a, median_b = statistics.median(a), statistics.median(b)
    q1, _, q3 = quartiles(a)
    spread = q3 - q1
    allowed = bound * abs(median_a)
    if contended or spread > allowed:
        return "unresolved"
    worse_by = median_b - median_a if better == "lower" \
        else median_a - median_b
    if worse_by > allowed:
        return "regressed"
    if -worse_by > max(allowed, spread):
        return "improved"
    return "unchanged"


def load(paths: list[str]) -> dict[str, list[dict]]:
    """``{workload: [its result in each file]}``."""
    by_workload: dict[str, list[dict]] = {}
    for path in paths:
        for name, result in json.loads(
                Path(path).read_text())["workloads"].items():
            by_workload.setdefault(name, []).append(result)
    return by_workload


def compare(side_a: dict, side_b: dict, metrics: list[dict]) -> list[dict]:
    """One row per workload × metric present on both sides."""
    rows = []
    for workload in side_a:
        if workload not in side_b:
            continue
        runs_a, runs_b = side_a[workload], side_b[workload]
        contended = any(r["contended"] for r in runs_a + runs_b)
        digests = {(r["seed"], r["result_digest"]) for r in runs_a + runs_b}
        same_answers = len(digests) == len({seed for seed, _ in digests})
        for metric in metrics:
            name = metric["name"]
            a = [r["end_to_end"][name] for r in runs_a]
            b = [r["end_to_end"][name] for r in runs_b]
            rows.append({
                "workload": workload, "metric": name,
                "unit": metric["unit"], "a": a, "b": b,
                "verdict": verdict(a, b, metric["better"], metric["bound"],
                                   contended and name in WALL_CLOCK),
                "same_answers": same_answers,
            })
    return rows


def _side(values: list[float]) -> str:
    q1, q2, q3 = quartiles(values)
    return f"{q2:>11.5g} [{q1:.5g} .. {q3:.5g}] n={len(values)}"


def main(argv: list[str]) -> int:
    if "--" not in argv or argv[0] == "--" or argv[-1] == "--":
        print(__doc__, file=sys.stderr)
        return 2
    split = argv.index("--")
    spec = json.loads(SPEC_PATH.read_text())
    rows = compare(load(argv[:split]), load(argv[split + 1:]),
                   spec["end_to_end"] + [FAILED_FRAC])
    bad = 0
    workload = None
    for row in rows:
        if row["workload"] != workload:
            workload = row["workload"]
            flag = "" if row["same_answers"] \
                else "   RESULT DIGEST DIFFERS BETWEEN RUNS OF ONE SEED"
            bad += not row["same_answers"]
            print(f"== {workload}{flag}")
        bad += row["verdict"] == "regressed"
        print(f"   {row['metric']:18s} A {_side(row['a']):46s} "
              f"B {_side(row['b']):46s} {row['unit']:7s} {row['verdict']}")
    counts = {v: sum(r["verdict"] == v for r in rows) for v in (
        "improved", "unchanged", "regressed", "unresolved")}
    print(", ".join(f"{n} {v}" for v, n in counts.items()))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
