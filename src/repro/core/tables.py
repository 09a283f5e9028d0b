"""Table data models: common tables and view tables (Section IV-D).

A common table materializes one key-value store table per configured index
strategy (each holding the full serialized row under that strategy's key,
as GeoMesa does) plus one feature-id table for point lookups and updates.
Because a record's keys never depend on other records, inserts and
historical updates need no index rebuild.
"""

from __future__ import annotations

import time as _time

from repro.cluster.simclock import SimJob
from repro.core.codec import RowCodec
from repro.core.schema import Schema
from repro.curves.strategies import (
    AttributeStrategy,
    IndexedRecord,
    IndexStrategy,
    KeyRange,
    STQuery,
)
from repro.dataframe import DataFrame
from repro.errors import ExecutionError, SchemaError
from repro.geometry.base import Geometry
from repro.geometry.envelope import Envelope
from repro.kvstore.scan import ScanSpec
from repro.kvstore.store import KVStore


def _multi_range_spec(ranges: list[KeyRange]) -> ScanSpec:
    """One scan request covering a strategy's (inclusive) key ranges."""
    return ScanSpec(ranges=[(kr.start, kr.end + b"\x00") for kr in ranges])


class CommonTable:
    """A stored table with one or more spatio-temporal indexes."""

    kind = "common"

    def __init__(self, name: str, schema: Schema, store: KVStore,
                 strategies: dict[str, IndexStrategy],
                 compression_enabled: bool = True,
                 attribute_fields: list[str] | None = None,
                 presplit: int = 0, salt_buckets: int = 0):
        if schema.primary_key is None:
            raise SchemaError(f"table {name!r} needs a primary key")
        self.name = name
        self.schema = schema
        self.store = store
        self.strategies = dict(strategies)
        self.codec = RowCodec(schema, compression_enabled)
        # WITH (presplit=N, salt_buckets=K) placement options: the index
        # tables carry the write-hot SFC-clustered keys, so they get
        # both pre-splitting and salting; the id table sees the same
        # insert volume (random fids, no clustering) so it pre-splits
        # without the salting scan tax; attribute indexes stay plain.
        self.presplit = presplit
        self.salt_buckets = salt_buckets
        self._id_table = store.create_table(f"{name}__id",
                                            presplit=presplit)
        self._index_tables = {
            sname: store.create_table(f"{name}__{sname}",
                                      presplit=presplit,
                                      salt_buckets=salt_buckets)
            for sname in strategies
        }
        # Secondary attribute indexes (the "Attribute Indexing" box of
        # Figure 1): one sorted key space per indexed scalar field.
        self.attribute_indexes: dict[str, AttributeStrategy] = {}
        self._attr_tables = {}
        for field_name in attribute_fields or []:
            self.schema.field(field_name)  # validates existence
            self.attribute_indexes[field_name] = AttributeStrategy(
                field_name)
            self._attr_tables[field_name] = store.create_table(
                f"{name}__attr_{field_name}")
        # Data statistics maintained on insert: used by the planner to
        # bound time-only queries and by k-NN to bound the search area.
        # These are grow-only (deletes never shrink the envelope or the
        # time extent); ANALYZE TABLE snapshots measured statistics into
        # ``stats``, which the cost-based planner prefers when present.
        self.row_count = 0
        self.data_envelope: Envelope | None = None
        self.time_extent: tuple[float, float] | None = None
        self.stats = None  # TableStats from the last ANALYZE TABLE

    # -- record projection (overridden by plugin tables) ---------------------
    def record_geometry(self, row: dict) -> Geometry | None:
        field = self.schema.geometry_field
        return row.get(field.name) if field is not None else None

    def record_time_extent(self, row: dict) -> tuple[float, float] | None:
        field = self.schema.time_field
        if field is None:
            return None
        value = row.get(field.name)
        if value is None:
            return None
        return (float(value), float(value))

    def record_envelope(self, row: dict) -> Envelope | None:
        """MBR of the row's geometry — overridable with a cheaper path
        than materializing the full geometry (plugin tables filter
        thousands of rows per query through this)."""
        geometry = self.record_geometry(row)
        return geometry.envelope if geometry is not None else None

    def _indexed_record(self, row: dict) -> IndexedRecord:
        fid = self.schema.fid_of(row)
        geometry = self.record_geometry(row)
        if geometry is None:
            raise SchemaError(
                f"table {self.name!r}: row {fid!r} has no geometry to index")
        extent = self.record_time_extent(row)
        t_min, t_max = extent if extent is not None else (None, None)
        return IndexedRecord(fid, geometry, t_min, t_max)

    # -- write path ------------------------------------------------------------
    def insert_rows(self, rows: list[dict], job: SimJob | None = None) -> int:
        """Insert (or update, by primary key) a batch of rows."""
        written = 0
        encoded_bytes = 0
        for row in rows:
            self.schema.validate_row(row)
            fid = self.schema.fid_of(row)
            record = self._indexed_record(row) if self.strategies else None
            self._delete_existing(fid)
            payload = self.codec.encode_row(row)
            encoded_bytes += len(payload)
            for sname, strategy in self.strategies.items():
                key = strategy.key(record)
                self._index_tables[sname].put(key, payload)
            for field_name, attr in self.attribute_indexes.items():
                value = row.get(field_name)
                if value is not None:
                    self._attr_tables[field_name].put(
                        attr.key_for_value(fid, value), payload)
            self._id_table.put(fid.encode("utf-8"), payload)
            if record is not None:
                self._update_stats(record)
            else:
                self.row_count += 1
            written += 1
        if job is not None:
            puts = written * (len(self.strategies) + 1)
            job.charge_cpu_records(puts,
                                   us_per_record=job.model.kv_put_us)
            job.charge_disk_write(encoded_bytes * (len(self.strategies) + 1))
        return written

    def _update_stats(self, record: IndexedRecord) -> None:
        self.row_count += 1
        env = record.geometry.envelope
        self.data_envelope = env if self.data_envelope is None \
            else self.data_envelope.expand(env)
        if record.t_min is not None:
            t_max = record.t_max if record.t_max is not None else record.t_min
            if self.time_extent is None:
                self.time_extent = (record.t_min, t_max)
            else:
                self.time_extent = (min(self.time_extent[0], record.t_min),
                                    max(self.time_extent[1], t_max))

    def _delete_existing(self, fid: str) -> bool:
        existing = self._id_table.get(fid.encode("utf-8"))
        if existing is None:
            return False
        if self.strategies or self.attribute_indexes:
            old_row = self.codec.decode_row(existing)
            if self.strategies:
                record = self._indexed_record(old_row)
                for sname, strategy in self.strategies.items():
                    self._index_tables[sname].delete(strategy.key(record))
            for field_name, attr in self.attribute_indexes.items():
                value = old_row.get(field_name)
                if value is not None:
                    self._attr_tables[field_name].delete(
                        attr.key_for_value(fid, value))
        self._id_table.delete(fid.encode("utf-8"))
        self.row_count -= 1
        return True

    def delete(self, fid: str) -> bool:
        """Delete one record by feature id; True when it existed."""
        return self._delete_existing(fid)

    def get(self, fid: str, ctx=None,
            job: SimJob | None = None) -> dict | None:
        """Point lookup by feature id.

        With ``job`` the lookup charges the blocks/bytes it actually
        read (one seek, one block unless cached), so a primary-key
        access path reports real I/O instead of appearing free.
        """
        before = self.store.stats.snapshot() if job is not None else None
        payload = self._id_table.get(fid.encode("utf-8"), ctx)
        if job is not None:
            delta = self.store.stats.snapshot().delta(before)
            job.charge_store_scan(delta, num_ranges=1)
        if payload is None:
            return None
        return self.decorate_row(self.codec.decode_row(payload))

    def flush(self) -> None:
        """Flush all memstores (called before storage measurements)."""
        self._id_table.flush()
        for table in self._index_tables.values():
            table.flush()
        for table in self._attr_tables.values():
            table.flush()

    # -- read path ---------------------------------------------------------------
    def decorate_row(self, row: dict) -> dict:
        """Hook for plugin tables to add implicit fields (e.g. ``item``)."""
        return row

    def _matches(self, row: dict, query: STQuery, predicate: str) -> bool:
        if query.has_temporal:
            extent = self.record_time_extent(row)
            if extent is None:
                return False
            t_min, t_max = extent
            if t_max < query.t_min or t_min > query.t_max:
                return False
        if query.envelope is not None:
            envelope = self.record_envelope(row)
            if envelope is not None:
                if predicate == "within":
                    return query.envelope.contains(envelope)
                if not query.envelope.intersects(envelope):
                    return False
                if query.envelope.contains(envelope):
                    return True  # exact test cannot change the answer
                geometry = self.record_geometry(row)
                return geometry.intersects_envelope(query.envelope)
        return True

    def scan_ranges(self, strategy_name: str, ranges: list[KeyRange],
                    job: SimJob | None = None, ctx=None):
        """Raw scan over one index's key ranges, yielding decoded rows.

        ``ctx`` (a :class:`repro.resilience.RequestContext`) propagates
        the statement deadline and partial-results mode into the store's
        region iteration.
        """
        table = self._index_tables[strategy_name]
        before = self.store.stats.snapshot()
        scanned = 0
        for _key, payload in table.scan(_multi_range_spec(ranges), ctx):
            scanned += 1
            yield self.codec.decode_row(payload)
        if job is not None:
            delta = self.store.stats.snapshot().delta(before)
            job.charge_store_scan(delta, num_ranges=len(ranges))
            job.charge_cpu_records(scanned)

    def scan_ranges_batches(self, strategy_name: str,
                            ranges: list[KeyRange],
                            job: SimJob | None = None, ctx=None,
                            batch_rows: int | None = None):
        """Batched :meth:`scan_ranges`: yields lists of decoded rows.

        Each yielded list is one key-value batch decoded in a tight
        loop.  Batches fill *across* key-range and region boundaries —
        curve strategies produce hundreds of small ranges, and chunking
        each separately would fragment the scan into hundreds of tiny
        batches whose per-batch overhead erases the vectorization win.
        Store I/O and CPU are charged in a ``finally`` so an abandoned
        scan (deadline mid-batch, early consumer exit) still accounts
        exactly for the work it did — with the batched CPU rate, since
        decode here is amortized batch work.
        """
        from repro.kvstore.scan import DEFAULT_BATCH_ROWS, chunk_pairs
        table = self._index_tables[strategy_name]
        before = self.store.stats.snapshot()
        decode = self.codec.decode_row
        scanned = 0
        batches = 0
        pairs = table.scan(_multi_range_spec(ranges), ctx)
        try:
            for kv_batch in chunk_pairs(pairs,
                                        batch_rows or DEFAULT_BATCH_ROWS):
                scanned += len(kv_batch)
                batches += 1
                yield [decode(payload) for _key, payload in kv_batch]
        finally:
            if job is not None:
                delta = self.store.stats.snapshot().delta(before)
                job.charge_store_scan(delta, num_ranges=len(ranges))
                job.charge_cpu_batch(scanned, batches)

    def query(self, query: STQuery, predicate: str = "intersects",
              job: SimJob | None = None,
              strategy_name: str | None = None, ctx=None) -> list[dict]:
        """Index-served range query with exact post-filtering."""
        from repro.core.query import choose_strategy  # avoid import cycle
        if strategy_name is None:
            strategy_name, query = choose_strategy(self, query)
        strategy = self.strategies[strategy_name]
        ranges = strategy.ranges(query)
        out = []
        for row in self.scan_ranges(strategy_name, ranges, job, ctx):
            if self._matches(row, query, predicate):
                out.append(self.decorate_row(row))
        return out

    def query_batches(self, query: STQuery, predicate: str = "intersects",
                      job: SimJob | None = None,
                      strategy_name: str | None = None, ctx=None,
                      batch_rows: int | None = None):
        """Batched :meth:`query`: yields column-major :class:`RowBatch`es.

        Rows flow straight from block decode through the exact
        spatio-temporal post-filter into a columnar batch builder; the
        per-row dict never crosses an operator boundary.
        """
        from repro.core.query import choose_strategy  # avoid import cycle
        from repro.dataframe.batch import DEFAULT_BATCH_ROWS, BatchBuilder
        if strategy_name is None:
            strategy_name, query = choose_strategy(self, query)
        strategy = self.strategies[strategy_name]
        ranges = strategy.ranges(query)
        builder = BatchBuilder(self.columns(),
                               batch_rows or DEFAULT_BATCH_ROWS)
        for rows in self.scan_ranges_batches(strategy_name, ranges, job,
                                             ctx, batch_rows):
            for row in rows:
                if self._matches(row, query, predicate):
                    full = builder.add(self.decorate_row(row))
                    if full is not None:
                        yield full
        tail = builder.take()
        if tail is not None:
            yield tail

    def full_scan_batches(self, job: SimJob | None = None, ctx=None,
                          batch_rows: int | None = None):
        """Batched :meth:`full_scan`: yields :class:`RowBatch`es."""
        from repro.dataframe.batch import DEFAULT_BATCH_ROWS, BatchBuilder
        before = self.store.stats.snapshot()
        decode = self.codec.decode_row
        decorate = self.decorate_row
        builder = BatchBuilder(self.columns(),
                               batch_rows or DEFAULT_BATCH_ROWS)
        scanned = 0
        batches = 0
        try:
            for kv_batch in self._id_table.scan_batches(
                    ScanSpec.full(), ctx, batch_rows):
                scanned += len(kv_batch)
                batches += 1
                for _key, payload in kv_batch:
                    full = builder.add(decorate(decode(payload)))
                    if full is not None:
                        yield full
            tail = builder.take()
            if tail is not None:
                yield tail
        finally:
            if job is not None:
                delta = self.store.stats.snapshot().delta(before)
                job.charge_store_scan(delta, num_ranges=1)
                job.charge_cpu_batch(scanned, batches)

    def _attribute_index(self, field_name: str):
        try:
            return self.attribute_indexes[field_name]
        except KeyError:
            raise SchemaError(
                f"table {self.name!r} has no attribute index on "
                f"{field_name!r}") from None

    def attribute_query(self, field_name: str, value,
                        job: SimJob | None = None, ctx=None) -> list[dict]:
        """Equality lookup served by a secondary attribute index."""
        index = self._attribute_index(field_name)
        return self._attribute_ranges(field_name,
                                      index.ranges_for_value(value), job, ctx)

    def attribute_range_query(self, field_name: str, low, high,
                              job: SimJob | None = None,
                              ctx=None) -> list[dict]:
        """BETWEEN lookup served by a secondary attribute index.

        The index range is inclusive; callers post-filter exact bounds.
        """
        index = self._attribute_index(field_name)
        return self._attribute_ranges(
            field_name, index.ranges_for_between(low, high), job, ctx)

    def _attribute_ranges(self, field_name: str,
                          ranges: list[KeyRange],
                          job: SimJob | None, ctx=None) -> list[dict]:
        table = self._attr_tables[field_name]
        before = self.store.stats.snapshot()
        rows = []
        for _key, payload in table.scan(_multi_range_spec(ranges), ctx):
            rows.append(self.decorate_row(self.codec.decode_row(payload)))
        if job is not None:
            delta = self.store.stats.snapshot().delta(before)
            job.charge_store_scan(delta, num_ranges=len(ranges))
            job.charge_cpu_records(len(rows))
        return rows

    def full_scan(self, job: SimJob | None = None, ctx=None) -> list[dict]:
        """Every row, via the feature-id table."""
        before = self.store.stats.snapshot()
        rows = []
        for _key, payload in self._id_table.scan(ScanSpec.full(), ctx):
            rows.append(self.decorate_row(self.codec.decode_row(payload)))
        if job is not None:
            delta = self.store.stats.snapshot().delta(before)
            job.charge_store_scan(delta, num_ranges=1)
            job.charge_cpu_records(len(rows))
        return rows

    def to_dataframe(self, job: SimJob | None = None) -> DataFrame:
        return DataFrame.from_rows(self.full_scan(job), self.columns())

    def columns(self) -> list[str]:
        return self.schema.names

    # -- sizing -------------------------------------------------------------------
    def storage_bytes(self, include_memstore: bool = True) -> int:
        """Total storage (keys + values) across all physical tables."""
        tables = ([self._id_table] + list(self._index_tables.values())
                  + list(self._attr_tables.values()))
        if include_memstore:
            return sum(t.total_bytes for t in tables)
        return sum(t.disk_bytes for t in tables)

    def index_storage_bytes(self, strategy_name: str) -> int:
        return self._index_tables[strategy_name].total_bytes

    def drop_storage(self) -> None:
        """Remove the physical key-value tables backing this table."""
        self.store.drop_table(f"{self.name}__id")
        for sname in self.strategies:
            self.store.drop_table(f"{self.name}__{sname}")
        for field_name in self._attr_tables:
            self.store.drop_table(f"{self.name}__attr_{field_name}")


class ViewTable:
    """An in-memory cached query result ("one query, multiple usages")."""

    kind = "view"

    def __init__(self, name: str, dataframe: DataFrame,
                 owner: str | None = None):
        self.name = name
        self.dataframe = dataframe
        self.owner = owner
        self.created_at = _time.monotonic()
        self.last_used_at = self.created_at

    def touch(self) -> None:
        self.last_used_at = _time.monotonic()

    def columns(self) -> list[str]:
        return list(self.dataframe.columns)

    @property
    def row_count(self) -> int:
        return self.dataframe.count()

    def describe(self) -> list[dict]:
        return [{"field": c, "type": "view column", "flags": ""}
                for c in self.dataframe.columns]

    def estimated_bytes(self) -> int:
        return self.dataframe.estimated_bytes()


def require_view(obj) -> ViewTable:
    if not isinstance(obj, ViewTable):
        raise ExecutionError(f"{obj!r} is not a view")
    return obj
