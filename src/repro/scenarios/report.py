"""What a scenario returns, and the few helpers scenarios narrate with."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, NamedTuple

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

    def params(self) -> list:
        """Every parameter, in the order the series first hold it."""
        return list(dict.fromkeys(
            param for values in self.series.values() for param in values))

    def row(self, series: str) -> list:
        return list(self.series[series].values())

    def markdown(self) -> str:
        params = self.params()
        lines = [f"| {self.param_name} | "
                 + " | ".join(str(p) for p in params) + " |",
                 "|" + "---|" * (len(params) + 1)]
        for name, values in self.series.items():
            cells = (_cell(values.get(param, "-")) for param in params)
            lines.append(f"| {name} | " + " | ".join(cells) + " |")
        return "\n".join(lines)

    def as_json(self) -> dict:
        return {"figure": self.figure_id, "title": self.title,
                "param": self.param_name, "series": self.series}

    @classmethod
    def from_json(cls, entry: dict) -> FigureTable:
        """The table :meth:`as_json` recorded (JSON keys are strings, so
        integer parameters are restored)."""
        table = cls(entry["figure"], entry["title"], entry["param"])
        for name, values in entry["series"].items():
            for param, value in values.items():
                table.add(name, int(param) if param.isdigit() else param,
                          value)
        return table


def _cell(value) -> str:
    return f"{value:.1f}" if isinstance(value, float) else str(value)


class Check(NamedTuple):
    """One claim and its outcome.

    ``expected_fail`` is the ROADMAP item that fixes a known failure; such
    a check passes while its claim is false and fails once it holds, so
    the fix has to flip the declaration.
    """

    claim: str
    ok: bool
    expected_fail: int | None = None

    @property
    def passed(self) -> bool:
        return self.ok == (self.expected_fail is None)

    def __str__(self) -> str:
        if self.expected_fail is None:
            tag = "ok" if self.ok else "FAIL"
        else:
            tag = (f"{'XPASS' if self.ok else 'xfail'}: "
                   f"ROADMAP item {self.expected_fail}")
        return f"[{tag}] {self.claim}"


@dataclass(frozen=True)
class Shape:
    """A named claim about one recorded table, decided from it alone."""

    claim: str
    holds: Callable[[FigureTable], bool]
    expected_fail: int | None = None


@dataclass(frozen=True)
class Figure:
    """One paper table, figure or ablation and the shapes it must show.

    ``measure(data, table)`` fills the table; its docstring says what the
    paper reports (first paragraph) and where this reproduction differs
    (any further paragraphs).
    """

    figure_id: str
    title: str
    param_name: str
    measure: Callable
    shapes: tuple[Shape, ...]

    def table(self, data) -> FigureTable:
        table = FigureTable(self.figure_id, self.title, self.param_name)
        self.measure(data, table)
        return table

    def check(self, table: FigureTable) -> list[Check]:
        return [Check(shape.claim, bool(shape.holds(table)),
                      shape.expected_fail) for shape in self.shapes]


@dataclass
class ScenarioResult:
    """Outcome of one scenario run.

    ``tables`` are the figures the run reproduces (recorded to
    ``bench_results.json``); ``checks`` are the claims it makes.
    """

    tables: list[FigureTable] = field(default_factory=list)
    checks: list[Check] = field(default_factory=list)

    def check(self, claim: str, ok) -> None:
        self.checks.append(Check(claim, bool(ok)))


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
