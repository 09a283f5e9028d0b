"""``bench_results.json`` and EXPERIMENTS.md, both from one run of every
scenario (``benchmarks/reproduce.py``).

The results file holds every table the run returned plus a
``_provenance`` entry, and nothing else: no merge with an older file, no
timestamp, no commit id, so a clean checkout regenerates it byte for
byte.  EXPERIMENTS.md is rendered from that file alone; a figure's
"Reproduced shape" lines are its shapes evaluated on the recorded table.
"""

from __future__ import annotations

import json

from repro.scenarios.paper import provenance
from repro.scenarios.report import FigureTable

_HEADER = """\
# EXPERIMENTS — paper vs measured

Every table and figure of the paper's evaluation (Section VIII), the
design ablations and the subsystem scenarios, as regenerated by
``{command}`` on the generated laptop-scale
datasets (seeds under ``_provenance`` in ``bench_results.json``):

{datasets}

Each query configuration is the median of {query_reps} queries, as in the
paper.  All "times" are **simulated milliseconds** from the calibrated
cluster cost model (see DESIGN.md §2); the claim preserved is the
*shape* of each result — who wins, by roughly what factor, where the
crossovers and failures fall — not the absolute numbers of the authors'
5-node testbed.

Each "Reproduced shape" line is a named predicate over the measured
table, declared beside the figure in ``src/repro/scenarios/``.  The
command above fails unless every predicate has its declared outcome, and
tier-1 evaluates them again over the committed ``bench_results.json``:
``[ok]`` holds; ``[xfail: ROADMAP item N]`` is a known failure that item
N fixes (the command fails once it holds, so the fix flips it).

``OOM`` marks a simulated out-of-memory failure (the system's cached
footprint exceeded the cluster budget), matching the failures the paper
reports for the Spark-based systems.  This file is generated; edit the
scenarios, not the file.
"""


def results_json(tables: list[FigureTable]) -> str:
    recorded = {"_provenance": provenance()}
    recorded.update((table.figure_id, table.as_json()) for table in tables)
    return json.dumps(recorded, indent=2) + "\n"


def render_experiments(recorded: dict, figures: dict) -> str:
    """EXPERIMENTS.md for the parsed ``bench_results.json``.

    ``figures`` maps figure ids to their :class:`~repro.scenarios.report.
    Figure`; other tables (the subsystem scenarios') render bare.
    """
    meta = recorded["_provenance"]
    order, traj, synthetic = (meta["datasets"][name]
                              for name in ("Order", "Traj", "Synthetic"))
    datasets = (f"- Order: {order['records']} orders\n"
                f"- Traj: {traj['records']} trajectories of "
                f"~{traj['mean_points']} points\n"
                f"- Synthetic: {synthetic['copies_of_traj']} jittered, "
                f"time-shifted copies of Traj")
    parts = [_HEADER.format(command=meta["command"], datasets=datasets,
                            query_reps=meta["query_reps"])]
    for figure_id, entry in recorded.items():
        if figure_id == "_provenance":
            continue
        table = FigureTable.from_json(entry)
        parts.append(f"\n## {figure_id}\n\n*{table.title}*\n")
        figure = figures.get(figure_id)
        if figure is not None:
            paper, *notes = [" ".join(p.split()) for p in
                             figure.measure.__doc__.split("\n\n")
                             if p.strip()]
            parts.append(f"**Paper:** {paper}\n")
            parts.append("**Reproduced shape:**\n")
            parts += [f"- {check}" for check in figure.check(table)]
            parts.append("")
            parts += [f"{note}\n" for note in notes]
            parts.append("**Measured:**\n")
        parts.append(table.markdown())
        parts.append("")
    return "\n".join(parts)
