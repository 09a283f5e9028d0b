"""The repo's dual-clock benchmark: wall-clock and sim-ms, end to end and
per layer, over six workloads checked against a brute-force oracle.

    python3 benchmarks/perf/run.py [--workload W] [--seed N] [--seconds S]
                                   [--traced | --trace 1] [--quick]
                                   [--out FILE]

Each workload runs in a fresh subprocess (``PYTHONHASHSEED=0``, one
thread).  Every metric is printed by name with its unit; the last line
of standard output is one JSON object ``{"correct", "attempted",
"failed", "metrics"}`` — with ``--workload`` the end-to-end metrics of
``BENCHMARK.json`` (``--trace 0``) or its per-layer metrics
(``--trace 1``).  Exits non-zero, without that line, when a workload
cannot be run or checked.  See README.md beside this file.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC_PATH = ROOT / "BENCHMARK.json"
BASELINE_DIR = HERE / "baseline"
OUT_DIR = HERE / "out"
DEFAULT_SEED = 20200420
#: A workload subprocess still running after this long is killed.
WORKLOAD_TIMEOUT_S = 170


def parse_args(spec: dict) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload",
                        choices=[w["name"] for w in spec["workloads"]],
                        help="run one workload (default: all six)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float,
                        help="measured wall time per workload (default: "
                             "run_seconds of BENCHMARK.json; 1 with --quick)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: add a traced round and per-layer metrics")
    parser.add_argument("--traced", action="store_const", const=1,
                        dest="trace", help="same as --trace 1")
    parser.add_argument("--quick", action="store_true",
                        help="about 1/10 sizes: a smoke run, never a baseline")
    parser.add_argument("--out", type=Path,
                        help="write the results with provenance to FILE")
    parser.add_argument("--child", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.seconds is None:
        args.seconds = 1.0 if args.quick else float(spec["run_seconds"])
    if args.quick and args.out is not None \
            and args.out.resolve().is_relative_to(BASELINE_DIR):
        parser.error("--quick results are not a baseline; write them "
                     f"outside {BASELINE_DIR}")
    return args


def child_main(args: argparse.Namespace) -> int:
    """Run one workload in this process; print its result as JSON."""
    from measure import run_workload
    spans_path = None
    if args.trace:
        OUT_DIR.mkdir(exist_ok=True)
        spans_path = OUT_DIR / f"spans-{args.workload}.jsonl"
    result = run_workload(args.workload, args.seed, args.seconds,
                          traced=bool(args.trace), quick=args.quick,
                          spans_path=spans_path)
    print(json.dumps(result))
    return 0


def run_in_subprocess(args: argparse.Namespace, workload: str) -> dict:
    """One workload in a fresh interpreter; raises if it cannot report."""
    command = [sys.executable, str(Path(__file__).resolve()), "--child",
               "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.quick:
        command.append("--quick")
    python_path = [str(ROOT / "src")]
    if os.environ.get("PYTHONPATH"):
        python_path.append(os.environ["PYTHONPATH"])
    env = dict(os.environ, PYTHONHASHSEED="0",
               PYTHONPATH=os.pathsep.join(python_path))
    done = subprocess.run(command, env=env, stdout=subprocess.PIPE,
                          text=True, timeout=WORKLOAD_TIMEOUT_S, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def provenance(args: argparse.Namespace) -> dict:
    def git(*command: str) -> str | None:
        try:
            return subprocess.run(
                ("git", "-C", str(ROOT)) + command, capture_output=True,
                text=True, check=True, timeout=30).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            return None

    status = git("status", "--porcelain")
    return {
        "git_sha": git("rev-parse", "HEAD") or "unknown",
        "git_dirty": bool(status) if status is not None else None,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "seed": args.seed,
        "seconds": args.seconds,
        "mode": "quick" if args.quick else "full",
        "traced": bool(args.trace),
        "utc": datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"),
    }


def with_units(values: dict, declared: list[dict], what: str) -> dict:
    """``{name: {"value", "unit"}}`` in BENCHMARK.json's order; the
    benchmark and its declaration must name exactly the same metrics."""
    names = [m["name"] for m in declared]
    if set(names) != set(values):
        raise SystemExit(
            f"{what} metrics differ from BENCHMARK.json: "
            f"{sorted(set(names) ^ set(values))}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in declared}


def report(result: dict, spec: dict) -> dict:
    """Print one workload's metrics; returns them with units, by kind."""
    sizes = ", ".join(f"{k}={v}" for k, v in result["sizes"].items())
    print(f"== {result['workload']}  seed={result['seed']}  {sizes}")
    print(f"   {result['samples']} samples in {result['rounds']} rounds, "
          f"{result['failed']} of {result['attempted']} ops failed, "
          f"digest {result['result_digest']}"
          + ("  [contended: cpu/wall < 0.9]" if result["contended"] else ""))
    end_to_end = dict(result["end_to_end"])
    failed_frac = end_to_end.pop("failed_frac")
    out = {"end_to_end": with_units(end_to_end, spec["end_to_end"],
                                    "end-to-end")}
    out["end_to_end"]["failed_frac"] = {"value": failed_frac,
                                        "unit": "ratio"}
    if "per_layer" in result:
        out["per_layer"] = with_units(result["per_layer"],
                                      spec["per_layer"], "per-layer")
    for kind, metrics in out.items():
        for name, metric in metrics.items():
            print(f"   {kind:10s} {name:42s} {metric['value']:>14.6g} "
                  f"{metric['unit']}")
    for error in result["errors"]:
        print(f"   FAILED: {error.strip()}", file=sys.stderr)
    if result.get("wrappers_removed") is False:
        print("   FAILED: tracing wrappers were not all removed",
              file=sys.stderr)
    return out


def main() -> int:
    spec = json.loads(SPEC_PATH.read_text())
    args = parse_args(spec)
    if args.child:
        return child_main(args)

    names = [args.workload] if args.workload \
        else [w["name"] for w in spec["workloads"]]
    results, metrics = {}, {}
    for name in names:
        try:
            results[name] = run_in_subprocess(args, name)
        except subprocess.SubprocessError as error:
            # Its traceback is already on stderr; no result line follows.
            print(f"{name} could not be run: {error}", file=sys.stderr)
            return 1
        metrics[name] = report(results[name], spec)

    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(
            {"provenance": provenance(args), "workloads": results},
            indent=1) + "\n")

    kind = "per_layer" if args.trace else "end_to_end"
    if args.workload:
        line = dict(metrics[args.workload][kind])
        line.pop("failed_frac", None)  # carried by failed / attempted
    else:
        line = {f"{name}/{metric}": value
                for name in names
                for metric, value in metrics[name][kind].items()}
    print(json.dumps({
        "correct": all(r["failed"] == 0
                       and r.get("wrappers_removed") is not False
                       for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": line,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
