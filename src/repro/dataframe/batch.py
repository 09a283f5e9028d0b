"""Column-major row batches for batch-at-a-time execution.

A :class:`RowBatch` holds a slice of a scan result as a dict of
``column -> list`` (one list per column, all the same length), the same
shape a pandas UDF receives a Spark partition in.  Operators work on
whole columns — a residual filter computes one boolean mask per batch,
a projection slices column lists instead of rebuilding per-row dicts —
so the per-row Python dispatch that dominates row-at-a-time execution
is paid once per batch instead of once per record.
"""

from __future__ import annotations

from itertools import repeat
from typing import Iterable, Iterator

#: Rows per batch on the scan path.  Small enough that an early LIMIT
#: or a cancelled query wastes at most one batch of decode work, large
#: enough to amortize per-batch dispatch over many records.
DEFAULT_BATCH_ROWS = 256

Row = dict


class RowBatch:
    """One column-major batch: ``data[column][i]`` is row ``i``'s value.

    Column lists are shared, never mutated: ``select`` reuses the same
    lists under a narrower schema and ``filter`` builds new ones.
    """

    __slots__ = ("columns", "data", "num_rows")

    def __init__(self, data: dict[str, list], columns: list[str],
                 num_rows: int):
        self.data = data
        self.columns = list(columns)
        self.num_rows = num_rows

    # -- construction --------------------------------------------------------
    @classmethod
    def from_rows(cls, rows: list[Row],
                  columns: list[str] | None = None) -> "RowBatch":
        """Pivot row dicts into columns (missing values become None)."""
        if columns is None:
            columns = list(rows[0].keys()) if rows else []
        data = {c: [row.get(c) for row in rows] for c in columns}
        return cls(data, columns, len(rows))

    # -- accessors -----------------------------------------------------------
    def __len__(self) -> int:
        return self.num_rows

    def __contains__(self, column: str) -> bool:
        return column in self.data

    def column(self, name: str) -> list:
        """The values of one column; KeyError when absent."""
        return self.data[name]

    def iter_rows(self) -> Iterator[Row]:
        data = self.data
        columns = self.columns
        for i in range(self.num_rows):
            yield {c: data[c][i] for c in columns}

    # -- columnar transformations --------------------------------------------
    def select(self, columns: list[str]) -> "RowBatch":
        """Narrow to ``columns``, sharing the underlying lists.

        A column the batch does not carry reads as all-None, matching
        ``row.get`` on a row that omits it.
        """
        none_column = None
        data = {}
        for c in columns:
            if c in self.data:
                data[c] = self.data[c]
            else:
                if none_column is None:
                    none_column = [None] * self.num_rows
                data[c] = none_column
        return RowBatch(data, columns, self.num_rows)

    def filter(self, mask: list) -> "RowBatch":
        """Keep rows whose mask entry is ``True`` (SQL three-valued:
        ``None`` and ``False`` both drop the row)."""
        keep = [i for i, m in enumerate(mask) if m is True]
        if len(keep) == self.num_rows:
            return self
        data = {c: [values[i] for i in keep]
                for c, values in self.data.items()}
        return RowBatch(data, self.columns, len(keep))

    def slice(self, start: int, stop: int) -> "RowBatch":
        data = {c: values[start:stop] for c, values in self.data.items()}
        return RowBatch(data, self.columns, len(next(iter(data.values()),
                                                     [])))

    def with_column(self, name: str, values: list) -> "RowBatch":
        data = dict(self.data)
        data[name] = values
        columns = self.columns if name in self.data \
            else self.columns + [name]
        return RowBatch(data, columns, self.num_rows)


class BatchBuilder:
    """Accumulates rows column-wise and emits full :class:`RowBatch`es."""

    __slots__ = ("columns", "_data", "_count", "batch_rows")

    def __init__(self, columns: list[str],
                 batch_rows: int = DEFAULT_BATCH_ROWS):
        self.columns = list(columns)
        self.batch_rows = batch_rows
        self._data: dict[str, list] = {c: [] for c in self.columns}
        self._count = 0

    def __len__(self) -> int:
        return self._count

    def add(self, row: Row) -> "RowBatch | None":
        """Append one row; returns a full batch when one completes."""
        for c in self.columns:
            self._data[c].append(row.get(c))
        self._count += 1
        if self._count >= self.batch_rows:
            return self.take()
        return None

    def extend(self, data: dict[str, list], count: int):
        """Append ``count`` rows given column-major (a column ``data``
        lacks reads as all-None); yields each batch that completes."""
        for c in self.columns:
            values = data.get(c)
            self._data[c] += values if values is not None \
                else repeat(None, count)
        self._count += count
        while self._count >= self.batch_rows:
            size = self.batch_rows
            if self._count == size:
                yield self.take()
                return
            yield RowBatch({c: values[:size]
                            for c, values in self._data.items()},
                           self.columns, size)
            self._data = {c: values[size:]
                          for c, values in self._data.items()}
            self._count -= size

    def take(self) -> "RowBatch | None":
        """Emit whatever has accumulated (None when empty)."""
        if not self._count:
            return None
        batch = RowBatch(self._data, self.columns, self._count)
        self._data = {c: [] for c in self.columns}
        self._count = 0
        return batch


def batches_from_rows(rows: Iterable[Row], columns: list[str],
                      batch_rows: int = DEFAULT_BATCH_ROWS):
    """Chunk an iterable of row dicts into :class:`RowBatch`es."""
    builder = BatchBuilder(columns, batch_rows)
    for row in rows:
        full = builder.add(row)
        if full is not None:
            yield full
    tail = builder.take()
    if tail is not None:
        yield tail
