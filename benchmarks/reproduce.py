"""Regenerate ``bench_results.json`` and EXPERIMENTS.md from one run of
every registered scenario (the paper's tables, figures and ablations,
then the subsystem experiments).  No options::

    python benchmarks/reproduce.py

Prints each scenario's narration, tables and checks, rewrites both files
whole, and exits 1 if any check misses its declared outcome.  Every size,
seed and the query count (the paper's median of 100) are fixed, so a
clean checkout reproduces the committed files byte for byte.
"""

from __future__ import annotations

import gc
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.scenarios import FIGURES, SCENARIOS, run_scenario  # noqa: E402
from repro.scenarios.record import (  # noqa: E402
    render_experiments,
    results_json,
)


def main() -> int:
    # The figures keep dozens of populated engines alive (tens of
    # millions of acyclic objects), and every gen-2 collection re-walks
    # them; reference counting frees everything this run allocates.
    gc.collect()
    gc.freeze()
    gc.disable()
    results = [run_scenario(name, sys.stdout) for name in SCENARIOS]
    recorded = results_json([t for r in results for t in r.tables])
    (ROOT / "bench_results.json").write_text(recorded)
    (ROOT / "EXPERIMENTS.md").write_text(
        render_experiments(json.loads(recorded), FIGURES))
    failed = [c for r in results for c in r.checks if not c.passed]
    for check in failed:
        print(f"not as declared: {check}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
