"""Table data models: common tables and view tables (Section IV-D).

A common table materializes one key-value store table per configured index
strategy (each holding the full serialized row under that strategy's key,
as GeoMesa does) plus one feature-id table for point lookups and updates.
Because a record's keys never depend on other records, inserts and
historical updates need no index rebuild.
"""

from __future__ import annotations

import time as _time
from functools import partial
from itertools import chain

from repro.cluster.simclock import SimJob
from repro.core.codec import RowCodec
from repro.core.schema import Schema
from repro.curves.strategies import (
    AttributeStrategy,
    IndexedRecord,
    IndexStrategy,
    KeyBounds,
    STQuery,
)
from repro.dataframe import BatchBuilder, DataFrame, batches_from_rows
from repro.errors import SchemaError
from repro.geometry.base import Geometry
from repro.geometry.envelope import Envelope
from repro.kvstore.scan import ScanSpec
from repro.kvstore.store import KVStore


class CommonTable:
    """A stored table with one or more spatio-temporal indexes."""

    kind = "common"
    #: The ``CREATE TABLE ... AS <plugin>`` name (plugin tables only).
    plugin_type: str | None = None

    #: Implicit column -> the stored fields :meth:`decorate_row` builds
    #: it from (plugin tables declare ``item`` here).
    implicit_inputs: dict[str, tuple[str, ...]] = {}

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
        # What an upsert decodes of the row it replaces: only what that
        # row's index, attribute and id keys are built from.
        self._key_fields = self.decoded_fields(
            [schema.primary_key.name, *self.attribute_indexes],
            filtered=True)
        # Data statistics maintained on insert: used by the planner to
        # bound time-only queries and by k-NN to bound the search area.
        # These are grow-only (deletes never shrink the envelope or the
        # time extent).
        self.row_count = 0
        self.data_envelope: Envelope | None = None
        self.time_extent: tuple[float, float] | None = None

    # -- record projection (overridden by plugin tables) ---------------------
    @property
    def filter_fields(self) -> tuple[str, ...]:
        """Stored fields the ``record_*`` projections below read: what
        the exact filter and the index keys of a row are computed from."""
        fields = (self.schema.geometry_field, self.schema.time_field)
        return tuple(f.name for f in fields if f is not None)

    def decoded_fields(self, columns: list[str] | None,
                       filtered: bool = False) -> frozenset[str] | None:
        """What a scan that returns ``columns`` decodes: those columns,
        the inputs of the implicit ones among them and, when the scan is
        ``filtered`` by :meth:`_matches`, the fields the filter reads.
        ``None`` stands for every field and every implicit column.
        """
        if columns is None:
            return None
        wanted = set(columns)
        if filtered:
            wanted.update(self.filter_fields)
        for implicit, inputs in self.implicit_inputs.items():
            if implicit in wanted:
                wanted.update(inputs)
        return None if wanted.issuperset(self.columns()) \
            else frozenset(wanted)

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

    def as_stored(self, row: dict) -> dict:
        """``row`` with the values the codec stores lossily replaced by
        what :meth:`RowCodec.decode_row` will give back, so the keys an
        insert writes are the keys a later upsert or delete of the
        decoded row removes.  Lossless schemas store what they get."""
        return row

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
        """Insert (or update, by primary key) a batch of rows.

        Every row is validated, normalised, encoded and keyed, and the
        stored row it replaces looked up, before the first mutation, so a
        batch with an invalid row writes nothing.  The mutations then go
        to the store as one :meth:`KVStore.write_batch`, row by row in
        the order a single-row insert writes them — the replaced row's
        deletes, the index puts, the attribute puts, the id put.  The
        grow-only statistics take in every row before the write (a row
        that then fails to land only widens them, which is safe), and
        ``row_count`` follows the id puts that landed (:meth:`_write`).
        """
        mutations = []
        records = []
        stored: set[bytes] = set()  # id keys the store held before
        encoded_bytes = 0
        # fid -> the puts of its latest row in this batch, which a later
        # row of the same fid replaces (the store does not hold it yet).
        batch_puts: dict[str, list] = {}
        for row in rows:
            self.schema.validate_row(row)
            row = self.as_stored(row)
            fid = self.schema.fid_of(row)
            record = self._indexed_record(row) if self.strategies else None
            payload = self.codec.encode_row(row)
            encoded_bytes += len(payload)
            earlier = batch_puts.get(fid)
            if earlier is not None:
                mutations += [(table, key, None) for table, key, _ in earlier]
            else:
                id_key = fid.encode("utf-8")
                existing = self._id_table.get(id_key)
                if existing is not None:
                    mutations += self._row_deletes(fid, existing)
                    stored.add(id_key)
            puts = self._row_puts(fid, row, record, payload)
            mutations += puts
            batch_puts[fid] = puts
            records.append(record)
        for record in records:
            if record is not None:
                self._grow_stats(record)
        self._write(mutations, stored)
        if job is not None:
            puts = len(rows) * (len(self.strategies) + 1)
            job.charge_cpu_records(puts,
                                   us_per_record=job.model.kv_put_us)
            job.charge_disk_write(encoded_bytes * (len(self.strategies) + 1))
        return len(rows)

    def _write(self, mutations: list, stored: set[bytes]) -> None:
        """Apply ``mutations`` as one write batch and move ``row_count``
        by the rows they add and remove — on failure, by those of the
        mutations that landed, so a retried batch counts each row once.
        ``stored`` holds the id keys of the rows the store held before.
        """
        try:
            self.store.write_batch(mutations)
        except Exception as exc:
            self.row_count += self._rows_added(mutations, exc.landed, stored)
            raise
        self.row_count += self._rows_added(mutations, range(len(mutations)),
                                           stored)

    def _rows_added(self, mutations: list, landed, stored: set[bytes]) -> int:
        """Rows gained (negative: lost) by the ``landed`` positions of
        ``mutations``: each id key ends as its last landed mutation left
        it, against whether it was ``stored`` before."""
        present: dict[bytes, bool] = {}
        id_table = self._id_table
        for index in landed:
            table, key, value = mutations[index]
            if table is id_table:
                present[key] = value is not None
        return sum(now - (key in stored) for key, now in present.items())

    def _row_puts(self, fid: str, row: dict, record: IndexedRecord | None,
                  payload: bytes) -> list:
        """The puts that store one row: index, attribute, id."""
        puts = [(self._index_tables[sname], strategy.key(record), payload)
                for sname, strategy in self.strategies.items()]
        for field_name, attr in self.attribute_indexes.items():
            value = row.get(field_name)
            if value is not None:
                puts.append((self._attr_tables[field_name],
                             attr.key_for_value(fid, value), payload))
        puts.append((self._id_table, fid.encode("utf-8"), payload))
        return puts

    def _grow_stats(self, record: IndexedRecord) -> None:
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
            if t_max > record.t_min:
                for strategy in self.strategies.values():
                    strategy.observe_extent(record.t_min, t_max)

    def _row_deletes(self, fid: str, payload: bytes) -> list:
        """The deletes that remove the stored row ``payload``: its
        index, attribute and id keys, in the order its puts wrote them."""
        deletes = []
        if self.strategies or self.attribute_indexes:
            old_row = self.codec.decode_row(payload, self._key_fields)
            if self.strategies:
                record = self._indexed_record(old_row)
                deletes += [(self._index_tables[sname], strategy.key(record),
                             None)
                            for sname, strategy in self.strategies.items()]
            for field_name, attr in self.attribute_indexes.items():
                value = old_row.get(field_name)
                if value is not None:
                    deletes.append((self._attr_tables[field_name],
                                    attr.key_for_value(fid, value), None))
        deletes.append((self._id_table, fid.encode("utf-8"), None))
        return deletes

    def delete(self, fid: str) -> bool:
        """Delete one record by feature id; True when it existed."""
        existing = self._id_table.get(fid.encode("utf-8"))
        if existing is None:
            return False
        self._write(self._row_deletes(fid, existing),
                    {fid.encode("utf-8")})
        return True

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

    def physical_tables(self) -> list:
        """The key-value tables backing this table: id, index, attribute."""
        return [self._id_table, *self._index_tables.values(),
                *self._attr_tables.values()]

    def flush(self) -> None:
        """Flush all memstores (called before storage measurements)."""
        for table in self.physical_tables():
            table.flush()

    # -- read path ---------------------------------------------------------------
    def decorate_row(self, row: dict, wanted=None) -> dict:
        """Hook for plugin tables to add the implicit fields (e.g.
        ``item``) named in ``wanted`` (``None``: all of them)."""
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

    def decorate_columns(self, data: dict[str, list],
                         wanted=None) -> dict[str, list]:
        """:meth:`decorate_row` over a column-major chunk: ``data`` with
        the implicit columns named in ``wanted`` added."""
        return data

    def _decoded(self, chunks, num_ranges: int, job: SimJob | None,
                 decode_chunk):
        """The one scan primitive: decode key-value ``chunks`` (lists of
        pairs from one store scan) with ``decode_chunk``, yielding what
        it makes of each chunk: rows (:meth:`_chunk_rows`) or columns
        (:meth:`_chunk_columns`).

        Store I/O and CPU are charged in a ``finally`` so an abandoned
        scan (deadline mid-chunk, early consumer exit) still accounts
        exactly for the work it did.  Decode is per-record work, so it
        pays the per-record CPU rate whatever the chunking or the shape.
        """
        before = self.store.stats.snapshot()
        scanned = 0
        try:
            for chunk in chunks:
                scanned += len(chunk)
                yield decode_chunk(chunk)
        finally:
            if job is not None:
                delta = self.store.stats.snapshot().delta(before)
                job.charge_store_scan(delta, num_ranges=num_ranges)
                job.charge_cpu_records(scanned)

    def _chunk_rows(self, wanted, chunk) -> list[dict]:
        """One chunk as undecorated rows of the fields in ``wanted``."""
        decode = self.codec.decode_row
        return [decode(payload, wanted) for _key, payload in chunk]

    def _chunk_columns(self, wanted, chunk) -> tuple[dict[str, list], int]:
        """One chunk as decorated columns of ``wanted``, and its size."""
        payloads = [payload for _key, payload in chunk]
        return (self.decorate_columns(
            self.codec.decode_columns(payloads, wanted), wanted),
            len(payloads))

    def _range_chunks(self, kv_table, ranges: list[KeyBounds],
                      job: SimJob | None, ctx, wanted=None,
                      key_filter=None):
        """Decoded chunks of one index table's key ranges, in key order:
        one store scan serves every range, and each of its region-local
        lists decodes into one chunk.  Keys that fail the strategy's
        ``key_filter`` never leave the store.
        """
        chunks = kv_table.scan_batches(
            ScanSpec(ranges=ranges, key_filter=key_filter), ctx)
        return self._decoded(chunks, len(ranges), job,
                             partial(self._chunk_rows, wanted))

    def index_chunks(self, strategy_name: str, ranges: list[KeyBounds],
                     job: SimJob | None, ctx):
        """Undecorated rows of one index's key ranges, one list per
        chunk, unfiltered (the k-NN walk's scan of a cell's keys)."""
        return self._range_chunks(self._index_tables[strategy_name],
                                  ranges, job, ctx)

    def _st_rows(self, query: STQuery, predicate: str,
                 job: SimJob | None, strategy_name: str | None, ctx,
                 columns: list[str] | None = None):
        """Index-served ST range: exact-filtered, decorated rows.

        The one place a range query is planned: without
        ``strategy_name`` the rule-based planner picks the index and the
        (possibly widened or clamped) query it scans; the exact filter
        always applies the caller's ``query``.
        """
        from repro.core.query import choose_strategy  # avoid import cycle
        effective = query
        if strategy_name is None:
            strategy_name, effective = choose_strategy(self, query)
        if effective.has_temporal and self.time_extent is None:
            return  # no stored row carries a time: nothing to clamp to
        strategy = self.strategies[strategy_name]
        ranges = strategy.ranges(effective)
        if not ranges:
            return  # an empty window: nothing to scan
        wanted = self.decoded_fields(columns, filtered=True)
        for rows in self._range_chunks(self._index_tables[strategy_name],
                                       ranges, job, ctx, wanted,
                                       strategy.key_filter(query)):
            for row in rows:
                if self._matches(row, query, predicate):
                    yield self.decorate_row(row, wanted)

    def _attribute_rows(self, field_name: str, ranges: list[KeyBounds],
                        job: SimJob | None, ctx):
        """Decorated rows of a secondary attribute index's key ranges."""
        chunks = self._range_chunks(self._attr_tables[field_name], ranges,
                                    job, ctx)
        return map(self.decorate_row, chain.from_iterable(chunks))

    def query(self, query: STQuery, predicate: str = "intersects",
              job: SimJob | None = None,
              strategy_name: str | None = None, ctx=None) -> list[dict]:
        """Index-served range query with exact post-filtering.

        ``ctx`` (a :class:`repro.resilience.RequestContext`) propagates
        the statement deadline and partial-results mode into the store's
        region iteration.
        """
        return list(self._st_rows(query, predicate, job, strategy_name,
                                  ctx))

    def query_batches(self, query: STQuery, predicate: str = "intersects",
                      job: SimJob | None = None,
                      strategy_name: str | None = None, ctx=None,
                      columns: list[str] | None = None):
        """:meth:`query` as a stream of column-major :class:`RowBatch`es
        of ``columns`` (``None``: every column); fields that neither
        they nor the exact filter read are never decoded."""
        return batches_from_rows(
            self._st_rows(query, predicate, job, strategy_name, ctx,
                          columns),
            columns or self.columns())

    def full_scan(self, job: SimJob | None = None, ctx=None) -> list[dict]:
        """Every row, via the feature-id table."""
        return [row for batch in self.full_scan_batches(job, ctx)
                for row in batch.iter_rows()]

    def full_scan_batches(self, job: SimJob | None = None, ctx=None,
                          columns: list[str] | None = None):
        """Every row as a stream of :class:`RowBatch`es of ``columns``
        (``None``: every column), decoding only those.

        The feature-id table's region-local chunks are the cheaper
        stream for a full pass; each decodes straight into columns, and
        the batches fill across chunk and region boundaries.
        """
        wanted = self.decoded_fields(columns)
        builder = BatchBuilder(columns or self.columns())
        chunks = self._id_table.scan_batches(ScanSpec.full(), ctx)
        for data, count in self._decoded(
                chunks, 1, job, partial(self._chunk_columns, wanted)):
            yield from builder.extend(data, count)
        tail = builder.take()
        if tail is not None:
            yield tail

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
        ranges = self._attribute_index(field_name).ranges_for_value(value)
        return list(self._attribute_rows(field_name, ranges, job, ctx))

    def attribute_range_query(self, field_name: str, low, high,
                              job: SimJob | None = None,
                              ctx=None) -> list[dict]:
        """BETWEEN lookup served by a secondary attribute index.

        The index range is inclusive; callers post-filter exact bounds.
        """
        ranges = self._attribute_index(field_name).ranges_for_between(
            low, high)
        return list(self._attribute_rows(field_name, ranges, job, ctx))

    def columns(self) -> list[str]:
        return self.schema.names

    def describe(self) -> list[dict]:
        return self.schema.describe()

    # -- sizing -------------------------------------------------------------------
    def storage_bytes(self, include_memstore: bool = True) -> int:
        """Total storage (keys + values) across all physical tables."""
        if include_memstore:
            return sum(t.total_bytes for t in self.physical_tables())
        return sum(t.disk_bytes for t in self.physical_tables())

    def drop_storage(self) -> None:
        """Remove the physical key-value tables backing this table."""
        for table in self.physical_tables():
            self.store.drop_table(table.name)


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

    def scan(self) -> DataFrame:
        """The cached frame; reading it keeps the view from expiring."""
        self.touch()
        return self.dataframe

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
