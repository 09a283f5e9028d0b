"""The partitioned DataFrame."""

from __future__ import annotations

from itertools import chain, repeat
from typing import Callable, Iterable, Iterator

from repro.dataframe.batch import RowBatch
from repro.dataframe.functions import AggregateSpec, fold_batch, group_rows
from repro.errors import ExecutionError

DEFAULT_PARTITIONS = 8

Row = dict


class DataFrame:
    """An immutable, partitioned collection of ``dict`` rows.

    ``columns`` is the declared output schema; rows may omit columns (the
    value reads as ``None``) but never carry extras.  Operations return
    new DataFrames; partitioning is preserved where the operation allows
    and rebalanced otherwise.

    The backing is a list of column-major :class:`RowBatch`es, one per
    non-empty partition, and nothing else: :meth:`from_rows` pivots on
    construction, columnar operations (``count``, ``select``, ``limit``)
    work on the column lists, and the row-shaped methods are views that
    materialize each batch's rows on demand.
    """

    def __init__(self, batches: list[RowBatch], columns: list[str]):
        self._batches = [b for b in batches if len(b)]
        self.columns = list(columns)

    # -- construction --------------------------------------------------------
    @classmethod
    def from_rows(cls, rows: Iterable[Row], columns: list[str] | None = None,
                  num_partitions: int = DEFAULT_PARTITIONS) -> "DataFrame":
        """Build a DataFrame, dealing rows round-robin into partitions."""
        rows = list(rows)
        if columns is None:
            columns = list(rows[0].keys()) if rows else []
        num_partitions = max(1, num_partitions)
        return cls([RowBatch.from_rows(rows[i::num_partitions], columns)
                    for i in range(min(num_partitions, len(rows)))],
                   columns)

    @classmethod
    def from_batches(cls, batches: list[RowBatch],
                     columns: list[str]) -> "DataFrame":
        """Build a DataFrame over ``batches`` (one partition each)."""
        return cls(batches, columns)

    @classmethod
    def empty(cls, columns: list[str]) -> "DataFrame":
        return cls([], columns)

    # -- basic accessors -------------------------------------------------------
    @property
    def num_batches(self) -> int:
        return len(self._batches)

    @property
    def num_partitions(self) -> int:
        return max(1, len(self._batches))

    def to_batches(self) -> list[RowBatch]:
        """This DataFrame's rows as column-major batches."""
        return list(self._batches)

    def iter_rows(self) -> Iterator[Row]:
        for batch in self._batches:
            yield from batch.iter_rows()

    def collect(self) -> list[Row]:
        """All rows as a list (the driver-side materialization)."""
        return list(self.iter_rows())

    def count(self) -> int:
        return sum(len(b) for b in self._batches)

    def first(self) -> Row | None:
        for row in self.iter_rows():
            return row
        return None

    def column_values(self, column: str) -> list[object]:
        return [row.get(column) for row in self.iter_rows()]

    # -- row-wise transformations ------------------------------------------------
    def select(self, columns: list[str]) -> "DataFrame":
        """Keep only ``columns`` (missing values become ``None``)."""
        unknown = [c for c in columns if c not in self.columns]
        if unknown:
            raise ExecutionError(f"unknown columns in select: {unknown}")
        # Columnar: share the kept column lists, no row rebuilds.
        return DataFrame([b.select(columns) for b in self._batches],
                         columns)

    def where(self, predicate: Callable[[Row], bool]) -> "DataFrame":
        return self.map_partitions(
            lambda rows: [row for row in rows if predicate(row)],
            self.columns)

    def with_column(self, name: str,
                    fn: Callable[[Row], object]) -> "DataFrame":
        """Add or replace a column computed per row."""
        columns = self.columns if name in self.columns \
            else self.columns + [name]
        return DataFrame(
            [b.with_column(name, [fn(row) for row in b.iter_rows()])
             for b in self._batches], columns)

    def map_rows(self, fn: Callable[[Row], Row],
                 columns: list[str]) -> "DataFrame":
        """1-1 transformation to a new row shape."""
        return self.map_partitions(
            lambda rows: [fn(row) for row in rows], columns)

    def flat_map(self, fn: Callable[[Row], Iterable[Row]],
                 columns: list[str]) -> "DataFrame":
        """1-N transformation (the engine's 1-N analysis operations)."""
        return self.map_partitions(
            lambda rows: [out for row in rows for out in fn(row)], columns)

    def map_partitions(self, fn: Callable[[list[Row]], list[Row]],
                       columns: list[str]) -> "DataFrame":
        """Partition-wise transformation (N-M analysis operations):
        ``fn`` maps each batch's rows to new rows."""
        return DataFrame(
            [RowBatch.from_rows(fn(b.to_rows()), columns)
             for b in self._batches], columns)

    # -- global operations -------------------------------------------------------
    def distinct(self) -> "DataFrame":
        """Deduplicate rows on the full column tuple (a shuffle)."""
        seen = set()
        out = []
        for row in self.iter_rows():
            key = tuple(row.get(c) for c in self.columns)
            if key not in seen:
                seen.add(key)
                out.append(row)
        return DataFrame.from_rows(out, self.columns, self.num_partitions)

    def order_by(self, keys: list[str],
                 ascending: list[bool] | None = None) -> "DataFrame":
        """Global stable sort; the result is a single ordered batch.

        An index permutation is sorted once per key, right to left, on
        that column's :func:`_sort_key`s; the columns are then gathered
        through it.  A column of plain ints and floats is its own sort
        key: ``(0, a) < (0, b)`` is ``a < b`` for those.
        """
        if ascending is None:
            ascending = [True] * len(keys)
        count = self.count()
        order = list(range(count))
        for key, asc in reversed(list(zip(keys, ascending))):
            sort_keys = self._column(key)
            if not _NUMBERS.issuperset(map(type, sort_keys)):
                sort_keys = list(map(_sort_key, sort_keys))
            order.sort(key=sort_keys.__getitem__, reverse=not asc)
        data = {c: list(map(self._column(c).__getitem__, order))
                for c in self.columns}
        return DataFrame([RowBatch(data, self.columns, count)], self.columns)

    def _column(self, name: str) -> list:
        """Every row's value of ``name``, batch after batch."""
        return list(chain.from_iterable(
            batch.data.get(name) or repeat(None, len(batch))
            for batch in self._batches))

    def limit(self, n: int) -> "DataFrame":
        # Columnar: slice whole batches instead of copying rows.
        kept: list[RowBatch] = []
        remaining = n
        for batch in self._batches:
            if remaining <= 0:
                break
            if len(batch) <= remaining:
                kept.append(batch)
                remaining -= len(batch)
            else:
                kept.append(batch.slice(0, remaining))
                remaining = 0
        return DataFrame(kept, self.columns)

    def union(self, other: "DataFrame") -> "DataFrame":
        if self.columns != other.columns:
            raise ExecutionError(
                f"union of incompatible schemas: {self.columns} vs "
                f"{other.columns}")
        return DataFrame(self._batches + other._batches, self.columns)

    def group_by(self, keys: list[str],
                 aggregates: list[AggregateSpec]) -> "DataFrame":
        """Hash aggregation; one output row per distinct key tuple."""
        unknown = [k for k in keys if k not in self.columns]
        if unknown:
            raise ExecutionError(f"unknown group keys: {unknown}")
        groups: dict[tuple, list] = {}
        for batch in self._batches:
            columns = batch.select(
                [*keys, *(spec.column for spec in aggregates
                          if spec.column is not None)]).data
            fold_batch(groups, [columns[k] for k in keys],
                       [None if spec.column is None else columns[spec.column]
                        for spec in aggregates],
                       aggregates, len(batch))
        return DataFrame.from_rows(
            group_rows(groups, keys, aggregates),
            list(keys) + [spec.output for spec in aggregates],
            self.num_partitions)

    def join(self, other: "DataFrame", on: list[str],
             how: str = "inner") -> "DataFrame":
        """Hash join on equality of the ``on`` columns."""
        if how not in ("inner", "left"):
            raise ExecutionError(f"unsupported join type: {how}")
        build: dict[tuple, list[Row]] = {}
        for row in other.iter_rows():
            build.setdefault(tuple(row.get(k) for k in on), []).append(row)
        extra = [c for c in other.columns if c not in self.columns]
        columns = self.columns + extra
        out = []
        for row in self.iter_rows():
            key = tuple(row.get(k) for k in on)
            matches = build.get(key, [])
            if matches:
                for match in matches:
                    merged = dict(row)
                    for c in extra:
                        merged[c] = match.get(c)
                    out.append(merged)
            elif how == "left":
                merged = dict(row)
                for c in extra:
                    merged[c] = None
                out.append(merged)
        return DataFrame.from_rows(out, columns, self.num_partitions)

    def repartition(self, num_partitions: int) -> "DataFrame":
        return DataFrame.from_rows(self.collect(), self.columns,
                                   num_partitions)

    # -- sizing --------------------------------------------------------------
    def estimated_bytes(self) -> int:
        """Rough in-memory footprint used for cost accounting.

        Container values — trajectory series, geometry coordinate
        lists, nested dicts — are sized recursively; charging them a
        scalar's 32 bytes would make a frame of trajectory blobs look
        as cheap to ship as a frame of integers.
        """
        total = 0
        for batch in self._batches:
            total += 64 * len(batch)  # row object overhead
            for values in batch.data.values():
                for value in values:
                    total += estimate_value_bytes(value)
        return total

    def __repr__(self) -> str:
        return (f"DataFrame(columns={self.columns}, rows={self.count()}, "
                f"partitions={self.num_partitions})")


def estimate_value_bytes(value) -> int:
    """Approximate in-memory size of one column value, recursively.

    Duck-typed for the engine's value types (trajectory series expose
    ``points``, line strings ``coords``, polygons ``ring``) so the
    dataframe layer stays independent of the geometry package.
    """
    if value is None:
        return 16
    if isinstance(value, (str, bytes)):
        return len(value) + 48
    if isinstance(value, (bool, int, float)):
        return 32
    if isinstance(value, dict):
        return 64 + sum(estimate_value_bytes(k) + estimate_value_bytes(v)
                        for k, v in value.items())
    if isinstance(value, (list, tuple, set, frozenset)):
        return 56 + sum(estimate_value_bytes(v) for v in value)
    points = getattr(value, "points", None)
    if points is not None and not callable(points):
        return 56 + 48 * len(points)  # STSeries: (lng, lat, t) samples
    coords = getattr(value, "coords", None)
    if coords is not None and not callable(coords):
        return 56 + 16 * len(coords)  # LineString
    ring = getattr(value, "ring", None)
    if ring is not None and not callable(ring):
        return 56 + 16 * len(ring)  # Polygon
    if hasattr(value, "lng") and hasattr(value, "lat"):  # Point
        return 48
    return 32


_NUMBERS = frozenset({int, float})


def _sort_key(value):
    if value is None:
        return (-1, 0)  # ASC NULLS FIRST, DESC NULLS LAST, as in Spark
    if isinstance(value, bool):
        return (0, int(value))
    if isinstance(value, (int, float)):
        return (0, value)
    return (1, str(value))
