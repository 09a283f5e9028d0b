"""Table data models: common tables and view tables (Section IV-D).

A common table materializes one key-value store table per configured index
strategy (each holding the full serialized row under that strategy's key,
as GeoMesa does) plus one feature-id table for point lookups and updates.
Because a record's keys never depend on other records, inserts and
historical updates need no index rebuild.
"""

from __future__ import annotations

import math
from functools import partial
from itertools import chain, repeat
from operator import attrgetter

from repro.cluster.simclock import SimJob
from repro.core.codec import RowCodec
from repro.core.schema import FieldType, Schema
from repro.curves.strategies import (
    AttributeStrategy,
    IndexStrategy,
    KeyBatch,
    KeyBounds,
    STQuery,
    period_keyable,
)
from repro.dataframe import BatchBuilder, DataFrame, batches_from_rows
from repro.errors import SchemaError
from repro.geometry.envelope import Envelope
from repro.geometry.point import Point
from repro.kvstore.scan import ScanSpec
from repro.kvstore.store import KVStore


_LNG, _LAT = attrgetter("lng"), attrgetter("lat")


def _no_float(value) -> bool:
    """Whether no float holds ``value`` (an int too large)."""
    try:
        float(value)
    except OverflowError:
        return True
    return False


class CommonTable:
    """A stored table with one or more spatio-temporal indexes."""

    kind = "common"
    #: The ``CREATE TABLE ... AS <plugin>`` name, the plugin's fixed
    #: schema, and the indexes and attribute indexes built unless
    #: USERDATA names others (a common table's indexes follow its schema).
    plugin_type: str | None = None
    schema: Schema | None = None
    default_index_names: tuple[str, ...] = ()
    default_attribute_fields: tuple[str, ...] = ()

    #: Implicit column -> ``(build, inputs)``: its value is
    #: ``build(*inputs)`` over the row's stored fields ``inputs``
    #: (plugin tables declare ``item`` here; :meth:`decorate_row`,
    #: :meth:`decorate_columns`).
    implicit_columns: dict[str, tuple] = {}
    #: The stored column a row's index keys, its MBR and the exact
    #: filter read (a geometry or an ``st_series``), the only one a
    #: spatial predicate is pushed into the index scan on, and the ones
    #: :meth:`record_time_extent` reads, start first (one column is an
    #: instant, two an extent's bounds).  Plugin tables declare theirs;
    #: a common table takes its schema's first geometry and date fields.
    geometry_column: str | None = None
    time_columns: tuple[str, ...] = ()

    def __init__(self, name: str, schema: Schema, store: KVStore,
                 strategies: dict[str, IndexStrategy],
                 compression_enabled: bool = True,
                 attribute_fields: list[str] | None = None,
                 presplit: int = 0, salt_buckets: int = 0):
        if schema.primary_key is None:
            raise SchemaError(f"table {name!r} needs a primary key")
        self.name = name
        self.schema = schema
        if self.plugin_type is None:
            geometry, time = schema.geometry_field, schema.time_field
            self.geometry_column = geometry.name if geometry else None
            self.time_columns = (time.name,) if time else ()
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
        if attribute_fields is None:
            attribute_fields = self.default_attribute_fields
        for field_name in attribute_fields:
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
        return tuple(filter(None, (self.geometry_column,
                                   *self.time_columns)))

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
        for implicit, (_build, inputs) in self.implicit_columns.items():
            if implicit in wanted:
                wanted.update(inputs)
        return None if wanted.issuperset(self.columns()) \
            else frozenset(wanted)

    def record_time_extent(self, row: dict) -> tuple[float, float] | None:
        columns = self.time_columns
        if not columns:
            return None
        start, end = row.get(columns[0]), row.get(columns[-1])
        if start is None or end is None:
            return None
        return (float(start), float(end))

    def record_envelope(self, row: dict) -> Envelope | None:
        """MBR of the row's geometry (``WITHIN`` and k-NN read it for
        every row they examine); a NULL or an empty series has none."""
        geometry = row.get(self.geometry_column)
        return geometry.envelope if geometry else None

    def stored_columns(self, columns: dict[str, list]) -> dict[str, list]:
        """``columns`` with the values the codec stores lossily replaced
        by what :meth:`RowCodec.decode_row` will give back, so the keys
        an insert writes are the keys a later upsert or delete of the
        decoded row removes.  Lossless schemas store what they get."""
        return columns

    def _key_batch(self, columns: dict[str, list],
                   fids: list[str]) -> KeyBatch:
        """The index-relevant columns of a batch: each geometry's MBR
        and whether it is a point (all key building reads of one; an
        ``st_series`` builds no line), and the start and end of
        :meth:`record_time_extent`."""
        geometries = columns.get(self.geometry_column) or [None] * len(fids)
        if not all(geometries):  # NULL, or an empty series
            fid = next(fid for fid, g in zip(fids, geometries) if not g)
            raise SchemaError(
                f"table {self.name!r}: row {fid!r} has no geometry to index")
        t_min, t_max = self._time_columns(columns, len(fids))
        if set(map(type, geometries)) == {Point}:
            return KeyBatch.of_points(fids, list(map(_LNG, geometries)),
                                      list(map(_LAT, geometries)),
                                      t_min, t_max)
        return KeyBatch.of_envelopes(fids, [g.envelope for g in geometries],
                                     [g.is_point() for g in geometries],
                                     t_min, t_max)

    def _time_columns(self, columns: dict[str, list], size: int):
        """:meth:`record_time_extent` of every row, as a start and an end
        column (``None`` for a row without one)."""
        if not self.time_columns:
            nothing = [None] * size
            return nothing, nothing
        starts = columns[self.time_columns[0]]
        ends = columns[self.time_columns[-1]]
        if None in starts or None in ends:
            extents = [(None, None) if start is None or end is None
                       else (float(start), float(end))
                       for start, end in zip(starts, ends)]
            return [lo for lo, _ in extents], [hi for _, hi in extents]
        t_min = list(map(float, starts))
        return t_min, t_min if ends is starts else list(map(float, ends))

    # -- write path ------------------------------------------------------------
    def insert_rows(self, rows: list[dict], job: SimJob | None = None) -> int:
        """Insert (or update, by primary key) a batch of rows.

        The batch is validated, normalised, encoded and keyed a column
        at a time (:meth:`_prepare`) before the store is read, so a batch
        with an invalid row reads and writes nothing.  Then each row's
        stored predecessor is looked up and the mutations go to the store
        as one :meth:`KVStore.write_batch`, row by row in the order a
        single-row insert writes them — the replaced row's deletes, the
        index puts, the attribute puts, the id put.  The grow-only
        statistics take in every row before the write (a row that then
        fails to land only widens them, which is safe), and
        ``row_count`` follows the id puts that landed (:meth:`_write`).
        """
        fids, batch, payloads, row_puts = self._prepare(rows)
        mutations = []
        stored: set[bytes] = set()  # id keys the store held before
        # fid -> the puts of its latest row in this batch, which a later
        # row of the same fid replaces (the store does not hold it yet).
        batch_puts: dict[str, list] = {}
        get = self._id_table.get
        for fid, puts in zip(fids, row_puts):
            earlier = batch_puts.get(fid)
            if earlier is not None:
                mutations += [(table, key, None) for table, key, _ in earlier]
            else:
                id_key = puts[-1][1]
                existing = get(id_key)
                if existing is not None:
                    mutations += self._row_deletes(fid, existing)
                    stored.add(id_key)
            mutations += puts
            batch_puts[fid] = puts
        if batch is not None and len(batch):
            self._widen_stats(batch)
        self._write(mutations, stored)
        if job is not None:
            puts = len(rows) * (len(self.strategies) + 1)
            job.charge_cpu_records(puts,
                                   us_per_record=job.model.kv_put_us)
            job.charge_disk_write(sum(map(len, payloads))
                                  * (len(self.strategies) + 1))
        return len(rows)

    def _prepare(self, rows: list[dict]):
        """:meth:`_prepare_columns`, raising what a row-at-a-time
        preparation raised: the first row that fails on its own, with
        the first error of its own checks (validation, the geometry,
        encoding, index keys in index order, attribute keys)."""
        try:
            return self._prepare_columns(rows)
        except Exception:
            # Any error: a pass stops at whichever row it meets first,
            # which need not be the row or the check the loop met first.
            # Rows are prepared independently, so rerun them one by one.
            for row in rows:
                try:
                    self._prepare_columns([row])
                except Exception as first:
                    raise first from None
            raise

    def _prepare_columns(self, rows: list[dict]):
        """A batch as column passes: its feature ids, its
        :class:`KeyBatch` (``None`` without indexes), each row's payload
        and each row's puts — index, attribute, id, in that order."""
        columns = self.schema.validate_rows(rows)
        fids = self.schema.fids(columns)
        self._check_values(columns, fids)
        columns = self.stored_columns(columns)
        batch = self._key_batch(columns, fids) if self.strategies else None
        payloads = self.codec.encode_columns(columns)
        # After the encode, which meets a fid UTF-8 cannot hold first.
        fid_bytes = batch.fid_bytes if batch is not None \
            else [fid.encode("utf-8") for fid in fids]
        put_columns = [
            zip(repeat(self._index_tables[name]), strategy.keys(batch),
                payloads)
            for name, strategy in self.strategies.items()]
        sparse = False
        for field_name, attr in self.attribute_indexes.items():
            keys = [None if value is None else attr.key_for_value(fid, value)
                    for fid, value in zip(fids, columns[field_name])]
            sparse = sparse or None in keys
            put_columns.append(zip(repeat(self._attr_tables[field_name]),
                                   keys, payloads))
        put_columns.append(zip(repeat(self._id_table), fid_bytes, payloads))
        row_puts = list(map(list, zip(*put_columns)))
        if sparse:  # a NULL attribute has no attribute key
            row_puts = [[put for put in puts if put[1] is not None]
                        for puts in row_puts]
        return fids, batch, payloads, row_puts

    def _check_values(self, columns: dict[str, list],
                      fids: list[str]) -> None:
        """Validation the schema's types leave to the table: each DATE
        or DOUBLE value converts to a float (the codec stores one), each
        time extent with both ends is finite and ordered (so binning and
        look-back, :meth:`_widen_stats`, take it in) and, under a
        per-period index, each time has a period bin a key holds."""
        for f in self.schema:
            column = columns[f.name]
            if f.ftype not in (FieldType.DATE, FieldType.DOUBLE):
                continue
            try:
                sum(filter(None, column), 0.0)  # converts every int
            except OverflowError:
                fid = next(fid for fid, value in zip(fids, column)
                           if value is not None and _no_float(value))
                raise SchemaError(
                    f"table {self.name!r}: row {fid!r} has {f.name!r} = "
                    f"an integer too large for a float") from None
        times = [columns[name] for name in self.time_columns]
        if len(times) == 2:
            for fid, start, end in zip(fids, *times):
                if start is not None and end is not None and \
                        not -math.inf < start <= end < math.inf:
                    raise SchemaError(
                        f"table {self.name!r}: row {fid!r} has time "
                        f"extent [{start!r}, {end!r}]; an extent must be "
                        f"finite and must not end before it starts")
        period = min((s.period for s in self.strategies.values()
                      if s.period), key=attrgetter("seconds"), default=None)
        for column in times if period else ():
            # Bins grow with time, so the extremes decide; a NaN min and
            # max pass over fails its row's rerun alone (:meth:`_prepare`).
            known = list(filter(None, column))  # 0, dropped, is in bin 0
            if known and not (period_keyable(min(known), period)
                              and period_keyable(max(known), period)):
                fid, t = next((fid, t) for fid, t in zip(fids, column)
                              if t is not None
                              and not period_keyable(t, period))
                raise SchemaError(
                    f"table {self.name!r}: row {fid!r} has time "
                    f"{float(t)!r}, outside the period bins an index key "
                    f"holds")

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

    def _widen_stats(self, batch: KeyBatch) -> None:
        """Take a batch into the grow-only statistics as the rows one at
        a time would: each strategy observes every extent that lasts
        (:meth:`_check_values` made them finite and ordered), and
        :meth:`_widen_bounds` folds the MBRs and times."""
        if batch.t_max is not batch.t_min:
            for lo, hi in zip(batch.t_min, batch.t_max):
                if lo is not None and hi is not None and hi > lo:
                    for strategy in self.strategies.values():
                        strategy.observe_extent(lo, hi)
        self._widen_bounds(batch)

    def _widen_bounds(self, batch: KeyBatch) -> None:
        """Fold the MBRs and time extents of ``batch``'s rows, in order,
        onto ``data_envelope`` and ``time_extent`` (``min``/``max`` meet
        a NaN time by position)."""
        def fold(pick, current, column):
            return pick(column if current is None
                        else chain((current,), column))
        env = self.data_envelope
        current = (None,) * 4 if env is None else (
            env.min_lng, env.min_lat, env.max_lng, env.max_lat)
        self.data_envelope = Envelope(*map(
            fold, (min, min, max, max), current,
            (batch.min_lng, batch.min_lat, batch.max_lng, batch.max_lat)))
        starts, ends = batch.t_min, batch.t_max
        if None in starts:
            timed = [(lo, hi) for lo, hi in zip(starts, ends)
                     if lo is not None]
            if not timed:
                return
            starts, ends = [lo for lo, _ in timed], [hi for _, hi in timed]
        extent = self.time_extent or (None, None)
        self.time_extent = (fold(min, extent[0], starts),
                            fold(max, extent[1], ends))

    def _row_deletes(self, fid: str, payload: bytes) -> list:
        """The deletes that remove the stored row ``payload``: its
        index, attribute and id keys, in the order its puts wrote them."""
        deletes = []
        if self.strategies or self.attribute_indexes:
            old_row = self.codec.decode_row(payload, self._key_fields)
            if self.strategies:
                batch = self._key_batch(
                    {name: [value] for name, value in old_row.items()},
                    [fid])
                deletes += [(self._index_tables[sname],
                             strategy.keys(batch)[0], None)
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
        """``row`` (a freshly decoded dict, so it is extended in place)
        with the implicit columns named in ``wanted`` (``None``: all of
        them) added."""
        for name, (build, inputs) in self.implicit_columns.items():
            if wanted is None or name in wanted:
                row[name] = build(*map(row.get, inputs))
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
            if predicate == "within":
                envelope = self.record_envelope(row)
                return envelope is None or query.envelope.contains(envelope)
            # The stored value answers itself, each type with its own
            # shortcuts; an st_series runs in ticks, never becoming a
            # line.  NULL, or an empty series (falsy by its length), has
            # no shape to test.
            geometry = row.get(self.geometry_column)
            return not geometry or geometry.intersects_envelope(
                query.envelope)
        return True

    def decorate_columns(self, data: dict[str, list],
                         wanted=None) -> dict[str, list]:
        """:meth:`decorate_row` over a column-major chunk: ``data`` with
        the implicit columns named in ``wanted`` added."""
        for name, (build, inputs) in self.implicit_columns.items():
            if wanted is None or name in wanted:
                data[name] = list(map(build, *(data[i] for i in inputs)))
        return data

    def _decoded(self, chunks, num_ranges: int, job: SimJob | None,
                 decode_chunk):
        """The one scan primitive: decode the payloads of ``chunks`` (the
        ``(keys, values)`` lists of one store scan) with ``decode_chunk``
        into rows (:meth:`_chunk_rows`) or columns (:meth:`_chunk_columns`).

        Store I/O and CPU are charged in a ``finally`` so an abandoned
        scan (deadline mid-chunk, early consumer exit) still accounts
        exactly for the work it did.  Decode is per-record work, so it
        pays the per-record CPU rate whatever the chunking or the shape.
        """
        before = self.store.stats.snapshot()
        scanned = 0
        try:
            for _keys, values in chunks:
                scanned += len(values)
                yield decode_chunk(values)
        finally:
            if job is not None:
                delta = self.store.stats.snapshot().delta(before)
                job.charge_store_scan(delta, num_ranges=num_ranges)
                job.charge_cpu_records(scanned)

    def _chunk_rows(self, wanted, payloads) -> list[dict]:
        """Payloads as undecorated rows of the fields in ``wanted``."""
        decode = self.codec.decode_row
        return [decode(payload, wanted) for payload in payloads]

    def _chunk_columns(self, wanted, payloads) -> tuple[dict[str, list], int]:
        """Payloads as decorated columns of ``wanted``, and how many."""
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
        chunks = self._range_chunks(self._attr_tables[field_name], ranges,
                                    job, ctx)
        return list(map(self.decorate_row, chain.from_iterable(chunks)))

    def columns(self) -> list[str]:
        return self.schema.names + list(self.implicit_columns)

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

    def scan(self) -> DataFrame:
        """The cached frame."""
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
