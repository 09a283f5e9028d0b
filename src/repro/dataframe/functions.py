"""Aggregate function specifications and the one grouped fold.

:func:`fold_batch` is the fold both ``DataFrame.group_by`` and the SQL
aggregate operator run: a batch's rows are split into one index run per
group key, and each aggregate folds a run's values in row order, so a
float sum adds exactly what a row-at-a-time fold would, in its order.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import add
from typing import Callable

from repro.errors import ExecutionError


@dataclass(frozen=True, slots=True)
class AggregateSpec:
    """One output column of a grouped aggregation.

    ``seed``/``fold``/``final`` form a fold over runs of input values:
    ``final(fold(fold(seed(), run_1), run_2) ...)``, each run a list of
    one group's values in row order.  ``column`` is the input column;
    ``None`` means the whole row (only COUNT(*) uses that), and its runs
    are the group's row indexes.
    """

    output: str
    column: str | None
    seed: Callable[[], object]
    fold: Callable[[object, list], object]
    final: Callable[[object], object]


def _same(acc):
    return acc


def _present(values: list) -> list:
    return [v for v in values if v is not None]


def agg_count(column: str | None = None,
              output: str | None = None) -> AggregateSpec:
    """COUNT(*) over the group; COUNT(column) counts its non-NULLs."""
    if column is None:
        return AggregateSpec(output or "count", None, seed=int,
                             fold=lambda acc, rows: acc + len(rows),
                             final=_same)
    return AggregateSpec(
        output or f"count_{column}", column, seed=int,
        fold=lambda acc, values: acc + len(values) - values.count(None),
        final=_same)


def agg_sum(column: str, output: str | None = None) -> AggregateSpec:
    """SUM(column), ignoring NULLs."""
    return AggregateSpec(
        output or f"sum_{column}", column, seed=int,
        fold=lambda acc, values: reduce(add, _present(values), acc),
        final=_same)


def _extreme(pick):
    """MIN/MAX's fold: ``pick`` over the accumulator, then the run —
    the comparisons a row-at-a-time fold would make, in its order."""
    def fold(acc, values):
        values = _present(values)
        if not values:
            return acc
        return pick(values) if acc is None else pick([acc, *values])
    return fold


def agg_min(column: str, output: str | None = None) -> AggregateSpec:
    """MIN(column), ignoring NULLs."""
    return AggregateSpec(output or f"min_{column}", column,
                         seed=lambda: None, fold=_extreme(min), final=_same)


def agg_max(column: str, output: str | None = None) -> AggregateSpec:
    """MAX(column), ignoring NULLs."""
    return AggregateSpec(output or f"max_{column}", column,
                         seed=lambda: None, fold=_extreme(max), final=_same)


def agg_avg(column: str, output: str | None = None) -> AggregateSpec:
    """AVG(column), ignoring NULLs; NULL for empty groups."""
    def fold(acc, values):
        values = _present(values)
        total, count = acc
        return (reduce(add, values, total), count + len(values))
    return AggregateSpec(output or f"avg_{column}", column,
                         seed=lambda: (0.0, 0), fold=fold,
                         final=lambda acc: acc[0] / acc[1] if acc[1] else None)


def agg_collect(column: str, output: str | None = None) -> AggregateSpec:
    """collect_list(column): group values in encounter order."""
    def fold(acc, values):
        acc.extend(values)
        return acc
    return AggregateSpec(output or f"collect_{column}", column,
                         seed=list, fold=fold, final=_same)


def _index_runs(keys: list) -> dict:
    """Each distinct key's row indexes, keys in first-seen order."""
    runs: dict = {}
    for i, key in enumerate(keys):
        run = runs.get(key)
        if run is None:
            runs[key] = [i]
        else:
            run.append(i)
    return runs


def fold_batch(groups: dict, key_columns: list[list],
               inputs: list[list | None], specs: list[AggregateSpec],
               count: int) -> None:
    """Fold one batch of ``count`` rows into ``groups`` (key tuple ->
    accumulators, in first-seen order).

    ``key_columns`` are the batch's group-key columns (none: one global
    group) and ``inputs[j]`` is spec ``j``'s input column (``None`` for
    COUNT(*)).  An aggregate that cannot combine its values (SUM over
    strings) is an :class:`ExecutionError`.
    """
    if not key_columns:
        runs = {(): range(count)}
    elif len(key_columns) == 1:
        runs = {(key,): run
                for key, run in _index_runs(key_columns[0]).items()}
    else:
        runs = _index_runs(list(zip(*key_columns)))
    for key, run in runs.items():
        accs = groups.get(key)
        if accs is None:
            accs = groups[key] = [spec.seed() for spec in specs]
        whole = len(run) == count
        for j, spec in enumerate(specs):
            column = inputs[j]
            if column is None:
                values = run
            elif whole:
                values = column
            else:
                values = list(map(column.__getitem__, run))
            try:
                accs[j] = spec.fold(accs[j], values)
            except TypeError as exc:
                raise ExecutionError(
                    f"aggregate {spec.output!r}: {exc}") from exc


def group_rows(groups: dict, keys: list[str],
               specs: list[AggregateSpec]) -> list[dict]:
    """One output row per group: its key columns, then each aggregate."""
    out = []
    for key, accs in groups.items():
        row = dict(zip(keys, key))
        for spec, acc in zip(specs, accs):
            row[spec.output] = spec.final(acc)
        out.append(row)
    return out
