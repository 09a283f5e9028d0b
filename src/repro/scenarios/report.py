"""What a scenario returns, and the few helpers scenarios narrate with."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cli import format_result


class FigureTable:
    """One reproduced table/figure: rows of {param -> value} by series."""

    def __init__(self, figure_id: str, title: str, param_name: str):
        self.figure_id = figure_id
        self.title = title
        self.param_name = param_name
        self.series: dict[str, dict] = {}

    def add(self, series: str, param, value) -> None:
        self.series.setdefault(series, {})[param] = value

    def value(self, series: str, param):
        return self.series[series][param]

    def render(self) -> str:
        params = []
        for values in self.series.values():
            for param in values:
                if param not in params:
                    params.append(param)
        width = max(14, max((len(s) for s in self.series), default=10) + 2)
        lines = [f"== {self.figure_id}: {self.title} ==",
                 f"{self.param_name:>{width}} | " + " | ".join(
                     f"{p!s:>10}" for p in params)]
        for name, values in self.series.items():
            cells = []
            for param in params:
                value = values.get(param, "-")
                if isinstance(value, float):
                    cells.append(f"{value:>10.1f}")
                else:
                    cells.append(f"{value!s:>10}")
            lines.append(f"{name:>{width}} | " + " | ".join(cells))
        return "\n".join(lines)

    def as_json(self) -> dict:
        return {"figure": self.figure_id, "title": self.title,
                "param": self.param_name, "series": self.series}


@dataclass
class ScenarioResult:
    """Outcome of one scenario run.

    ``tables`` are the figures the run reproduces (recorded to
    ``bench_results.json`` by ``benchmarks/bench_scenarios.py``);
    ``checks`` are the claims it makes, each a ``(claim, ok)`` pair.
    """

    tables: list[FigureTable] = field(default_factory=list)
    checks: list[tuple[str, bool]] = field(default_factory=list)

    def check(self, claim: str, ok) -> None:
        self.checks.append((claim, bool(ok)))


def show_query(execute, sql: str, out, title: str | None = None) -> None:
    """Run one JustQL statement and print it like the shell would.

    ``execute`` is ``JustClient.execute_query`` or ``JustEngine.sql``.
    """
    print(f"\n== {title} ==" if title else f"\njustql> {sql}", file=out)
    print(format_result(execute(sql)), file=out)


def print_comparison(rows: list[tuple], left: str, right: str,
                     out) -> None:
    """Print ``(metric, left value, right value)`` rows as a table."""
    width = max(len(row[0]) for row in rows)
    print(f"{'metric'.ljust(width)} | {left:>12} | {right}", file=out)
    print(f"{'-' * width}-+-{'-' * 12}-+-{'-' * len(right)}", file=out)
    for name, left_value, right_value in rows:
        print(f"{name.ljust(width)} | {left_value!s:>12} | {right_value}",
              file=out)
