"""``JustEngine`` — the library facade.

Wires together the key-value store, the cluster cost model, the catalog,
and the table models, and exposes the paper's operations: definition
(create/drop/show/describe), manipulation (insert/load), query (spatial
range, spatio-temporal range, k-NN), and — through :meth:`JustEngine.sql`
— the whole JustQL surface.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

from repro.cluster.node import Cluster
from repro.cluster.simclock import CostModel, SimJob
from repro.core.catalog import TABLE_KINDS, VIEW_KINDS, Catalog
from repro.core.knn import DEFAULT_MIN_CELL_KM, KNNResult, knn_query
from repro.core.loader import SourceRegistry, apply_config, load_file
# Unused here; ``benchmarks/perf/layers.py`` wraps both names in this
# module, and they go when its SPANS rows do.
from repro.core.query import choose_strategy, choose_strategy_cost_based  # noqa: F401
from repro.core.plugins import plugin_class
from repro.core.schema import Field, FieldType, Schema
from repro.core.tables import CommonTable, ViewTable
from repro.curves.strategies import STQuery, strategy_from_name
from repro.curves.timeperiod import TimePeriod
from repro.dataframe import DataFrame
from repro.errors import (
    ExecutionError,
    SchemaError,
    TableExistsError,
    TableNotFoundError,
)
from repro.geometry.base import Geometry
from repro.geometry.envelope import Envelope
from repro.geometry.linestring import LineString
from repro.geometry.point import Point
from repro.geometry.polygon import Polygon
from repro.kvstore.iostats import COUNTERS as IO_COUNTERS
from repro.kvstore.store import (
    DEFAULT_BLOCK_BYTES,
    DEFAULT_CACHE_BYTES,
    DEFAULT_FLUSH_BYTES,
    DEFAULT_SPLIT_BYTES,
    KVStore,
)
from repro.trajectory.model import STSeries, TSeries

@dataclass
class QueryResult:
    """Rows plus the simulated cost of producing them."""

    rows: list[dict]
    job: SimJob
    extra: dict = field(default_factory=dict)

    @property
    def sim_ms(self) -> float:
        return self.job.elapsed_ms

    @property
    def breakdown(self) -> dict[str, float]:
        return dict(self.job.breakdown)

    def dataframe(self, columns: list[str] | None = None) -> DataFrame:
        return DataFrame.from_rows(self.rows, columns)

    def __len__(self) -> int:
        return len(self.rows)


class JustEngine:
    """One engine instance == one deployed JUST cluster."""

    def __init__(self, num_servers: int = 5,
                 cost_model: CostModel | None = None,
                 compression_enabled: bool = True,
                 cache_bytes_per_server: int = DEFAULT_CACHE_BYTES,
                 block_bytes: int = DEFAULT_BLOCK_BYTES,
                 wal_policy=None,
                 split_bytes: int = DEFAULT_SPLIT_BYTES,
                 flush_bytes: int = DEFAULT_FLUSH_BYTES,
                 replication_factor: int = 1):
        #: Process-wide observability registry: it reads the numbers the
        #: store, replication, balancer, loaders and service layer keep,
        #: and the SQL operators push theirs into it.
        from repro.observability.events import EventLog
        from repro.observability.metrics import MetricsRegistry
        self.metrics = MetricsRegistry()
        #: Cluster event log (flushes, compactions, splits, failovers,
        #: ...), shared with the store and the service layer; queryable
        #: as ``sys.events``.
        self.events = EventLog()
        self.cluster = Cluster(num_servers, model=cost_model)
        # A WAL policy makes ingest durable (crash recovery); replication
        # (a primary plus followers on distinct servers, WAL shipping,
        # quorum writes, fast promote failover) needs one.  The store
        # shares the cluster's cost model so its trace spans can
        # estimate simulated time.
        self.store = KVStore(num_servers,
                             cache_bytes_per_server=cache_bytes_per_server,
                             flush_bytes=flush_bytes,
                             split_bytes=split_bytes,
                             block_bytes=block_bytes,
                             wal_policy=wal_policy,
                             cost_model=self.cluster.model,
                             events=self.events,
                             replication_factor=replication_factor)
        self._expose("kvstore", self.store.stats, IO_COUNTERS)
        manager = self.store.replication
        if manager is not None:
            self._expose("replication", manager, counters=(
                "records_shipped", "bytes_shipped", "blocked_ships",
                "dropped_ships", "quorum_failures", "lag_alerts",
                "rebuilds", "promotions", "follower_reads",
                "hedged_reads", "hedge_wins"))
            # The lag gauges exist from the first anti-entropy pass.
            self._expose("replication", manager,
                         gauges=("max_lag_records", "lagging_followers"),
                         since=lambda: manager.ticks)
            self.metrics.expose_histogram(manager.quorum_ack_ms)
        self.catalog = Catalog()
        self.sources = SourceRegistry()
        self.compression_enabled = compression_enabled
        self._topics: dict[str, object] = {}
        self._stream_loaders: list = []
        #: Optional hot-region load balancer (see :meth:`enable_balancer`);
        #: None means placement stays pure round-robin.
        self.balancer = None
        #: Optional monitoring pipeline (see :meth:`enable_monitoring`);
        #: None means no metrics history / SLOs / alerts are kept.
        self.monitor = None
        from repro.core.systables import install_system_tables
        install_system_tables(self)

    # -- metrics -----------------------------------------------------------------
    def _expose(self, prefix: str, owner, counters=(), gauges=(),
                since=None) -> None:
        """Have the registry read ``<prefix>.<attr>`` from ``owner``."""
        for kind, names in (("counter", counters), ("gauge", gauges)):
            for name in names:
                self.metrics.expose(f"{prefix}.{name}",
                                    partial(getattr, owner, name),
                                    kind=kind, since=since)

    # -- load balancing ----------------------------------------------------------
    def enable_balancer(self, policy=None):
        """Attach a hot-region load balancer to this engine's store.

        Returns the :class:`repro.balancer.Balancer`.  The service layer
        ticks it after every statement (the master's balancer chore on
        the simulated clock); library users call ``balancer.tick()`` or
        ``balancer.maybe_tick()`` themselves.  Its decisions surface in
        ``sys.balancer`` and as events in ``sys.events``.
        """
        from repro.balancer import Balancer
        if self.balancer is None:
            self.balancer = balancer = Balancer(self.store, policy)
            self._expose("balancer", balancer,
                         counters=("runs", "moves", "splits", "merges"),
                         gauges=("imbalance",),
                         since=lambda: balancer.runs)
        elif policy is not None:
            self.balancer.policy = policy
        return self.balancer

    # -- monitoring --------------------------------------------------------------
    def enable_monitoring(self, **kwargs):
        """Attach the scrape → history → SLO → alert pipeline.

        Returns the :class:`repro.observability.monitor.Monitor`.  The
        service layer ticks its scrape chore after every statement;
        library users call ``monitor.maybe_tick()`` (or ``tick()``)
        themselves.  Retained series surface in ``sys.metrics_history``,
        objectives in ``sys.slos``, and alert state in ``sys.alerts``
        (plus ``slo_burn``/``alert`` events in ``sys.events``).
        """
        from repro.observability.monitor import Monitor
        if self.monitor is None:
            self.monitor = Monitor(self, **kwargs)
        return self.monitor

    # -- replication -------------------------------------------------------------
    @property
    def replication(self):
        """The store's :class:`~repro.replication.ReplicationManager`
        (``None`` unless ``replication_factor > 1``).  The service layer
        ticks its anti-entropy chore after every statement; library
        users call ``replication.maybe_tick()`` themselves.  Replica
        state surfaces in ``sys.replication`` and ``sys.events``."""
        return self.store.replication

    # -- system tables -----------------------------------------------------------
    def register_system_table(self, name: str, columns, provider,
                              description: str = "",
                              types=()) -> None:
        """Register (or re-register) one read-only ``sys.*`` table.

        Re-registration replaces the provider in place — the service
        layer upgrades ``sys.sessions`` / ``sys.slow_queries`` from the
        engine's empty defaults to live server-backed ones.
        """
        from repro.core.systables import SystemTable
        types = types or [FieldType.STRING] * len(columns)
        schema = Schema([Field(column, ftype)
                         for column, ftype in zip(columns, types)])
        self.catalog.replace(SystemTable(name, schema, provider,
                                         description))

    def system_rows(self, name: str) -> list[dict]:
        return self.catalog.get(name, ("system",)).rows()

    # -- index configuration ----------------------------------------------------
    def _default_index_names(self, schema: Schema) -> list[str]:
        geometry = schema.geometry_field
        if geometry is None and schema.st_series_field is None:
            return []  # attribute-only table: id lookups and full scans
        point_like = geometry is not None and \
            geometry.ftype == FieldType.POINT
        has_time = schema.time_field is not None
        if point_like:
            return ["z2", "z2t"] if has_time else ["z2"]
        return ["xz2", "xz2t"] if has_time else ["xz2"]

    def _build_strategies(self, names: list[str],
                          userdata: dict | None) -> dict:
        """One strategy per index name, shaped by the table's USERDATA
        (``just.time_period`` / ``just.num_shards`` / ``just.max_ranges``;
        unset keys keep the strategy defaults)."""
        userdata = userdata or {}
        shape = {}
        if "just.time_period" in userdata:
            shape["period"] = TimePeriod.from_name(
                userdata["just.time_period"])
        for key in ("num_shards", "max_ranges"):
            if f"just.{key}" in userdata:
                shape[key] = int(userdata[f"just.{key}"])
        return {name: strategy_from_name(name, **shape) for name in names}

    def _index_names(self, userdata: dict | None,
                     default: list[str]) -> list[str]:
        """USERDATA ``geomesa.indices.enabled`` (empty entries skipped),
        else ``default``."""
        if userdata and "geomesa.indices.enabled" in userdata:
            names = [n.strip() for n in
                     userdata["geomesa.indices.enabled"].split(",")
                     if n.strip()]
            if not names:
                raise SchemaError("geomesa.indices.enabled is empty")
            return names
        return default

    # -- definition operations ----------------------------------------------------
    def create_table(self, name: str, schema: Schema,
                     userdata: dict | None = None) -> CommonTable:
        """CREATE TABLE with an explicit schema (common table)."""
        if self.catalog.exists(name):
            raise TableExistsError(name)
        index_names = self._index_names(
            userdata, self._default_index_names(schema))
        strategies = self._build_strategies(index_names, userdata)
        presplit, salt_buckets = _placement_options(userdata)
        return self.catalog.create(CommonTable(
            name, schema, self.store, strategies, self.compression_enabled,
            attribute_fields=_attribute_fields(userdata),
            presplit=presplit, salt_buckets=salt_buckets))

    def create_plugin_table(self, name: str, plugin_type: str,
                            userdata: dict | None = None) -> CommonTable:
        """CREATE TABLE <name> AS <plugin> (plugin table)."""
        if self.catalog.exists(name):
            raise TableExistsError(name)
        cls = plugin_class(plugin_type)
        index_names = self._index_names(userdata, ["xz2", "xz2t"])
        strategies = self._build_strategies(index_names, userdata)
        presplit, salt_buckets = _placement_options(userdata)
        return self.catalog.create(cls(
            name, self.store, strategies, self.compression_enabled,
            attribute_fields=_attribute_fields(userdata),
            presplit=presplit, salt_buckets=salt_buckets))

    def drop_table(self, name: str) -> None:
        self.catalog.drop(name, TABLE_KINDS).drop_storage()

    def table(self, name: str) -> CommonTable:
        return self.catalog.get(name, TABLE_KINDS)

    def has_table(self, name: str) -> bool:
        return self.catalog.exists(name, TABLE_KINDS)

    def table_names(self, prefix: str = "") -> list[str]:
        """User-table names in creation order (``sys.*`` system tables
        and views are not listed — views show up in ``SHOW VIEWS``)."""
        return [t.name for t in self.catalog.list(prefix, TABLE_KINDS)]

    # -- views ----------------------------------------------------------------------
    def create_view(self, name: str, dataframe: DataFrame,
                    owner: str | None = None) -> ViewTable:
        return self.catalog.create(ViewTable(name, dataframe, owner))

    def create_materialized_view(self, name: str, columns, types=None,
                                 owner: str | None = None):
        """Create an empty, incrementally-maintained materialized view.

        Unlike :meth:`create_view` snapshots, the view is listed in
        ``sys.tables`` and is kept fresh by whatever stream loader it is
        attached to (:meth:`StreamLoader.materialize_window`).
        """
        from repro.streaming.views import MaterializedView
        return self.catalog.create(
            MaterializedView(name, columns, types=types, owner=owner))

    def drop_view(self, name: str) -> None:
        self.catalog.drop(name, VIEW_KINDS)

    def view(self, name: str) -> ViewTable:
        view = self.catalog.get(name, VIEW_KINDS)
        view.touch()
        return view

    def has_view(self, name: str) -> bool:
        return self.catalog.exists(name, VIEW_KINDS)

    def view_names(self, prefix: str = "") -> list[str]:
        return sorted(v.name for v in self.catalog.list(prefix, VIEW_KINDS))

    def store_view_to_table(self, view_name: str, table_name: str,
                            userdata: dict | None = None) -> CommonTable:
        """STORE VIEW ... TO TABLE ... (auto-creates the table)."""
        view = self.view(view_name)
        rows = view.dataframe.collect()
        if self.has_table(table_name):
            table = self.table(table_name)
        else:
            schema = infer_schema(rows, view.dataframe.columns)
            table = self.create_table(table_name, schema, userdata)
        next_fid = table.row_count + 1
        coerced = []
        for offset, row in enumerate(rows):
            coerced.append(_coerce_row(row, table.schema, next_fid + offset))
        table.insert_rows(coerced, self.cluster.job())
        return table

    def expire_views(self, max_idle_seconds: float) -> list[str]:
        """Drop *cached* views idle for longer than ``max_idle_seconds``.

        Materialized views are durable pipeline outputs, not session
        caches — they never expire.
        """
        import time as _time
        now = _time.monotonic()
        stale = [view.name for view in self.catalog.list(kinds=("view",))
                 if now - view.last_used_at > max_idle_seconds]
        for name in stale:
            self.drop_view(name)
        return stale

    # -- manipulation operations --------------------------------------------------------
    def insert(self, table_name: str, rows: list[dict]) -> QueryResult:
        table = self.table(table_name)
        job = self.cluster.job()
        table.insert_rows(rows, job)
        return QueryResult(rows=[], job=job,
                           extra={"inserted": len(rows)})

    def register_source(self, name: str, rows) -> None:
        """Register an external ("hive") source for LOAD statements."""
        self.sources.register(name, rows)

    def load(self, source: str, table_name: str, config: dict[str, str],
             row_filter=None, limit: int | None = None) -> QueryResult:
        """LOAD <source> TO geomesa:<table> CONFIG {...} [FILTER ...].

        ``source`` is ``hive:<name>`` for a registered source or
        ``file:<path>`` for CSV/GeoJSON/GPX/KML files.
        """
        scheme, _, locator = source.partition(":")
        if scheme == "hive" or scheme == "hbase":
            source_rows = self.sources.rows(locator)
        elif scheme == "file":
            source_rows = load_file(locator)
        else:
            raise ExecutionError(
                f"unknown LOAD source scheme {scheme!r}; use hive:, "
                f"hbase: or file:")
        table = self.table(table_name)
        job = self.cluster.job()
        mapped = []
        for source_row in source_rows:
            if row_filter is not None and not row_filter(source_row):
                continue
            mapped.append(apply_config(source_row, config))
            if limit is not None and len(mapped) >= limit:
                break
        job.charge_cpu_records(len(mapped), us_per_record=4.0)
        table.insert_rows(mapped, job)
        return QueryResult(rows=[], job=job, extra={"loaded": len(mapped)})

    # -- query operations -------------------------------------------------------------------
    def _range_query(self, table_name: str, query: STQuery,
                     predicate: str, ctx) -> QueryResult:
        """Charge the driver and run one index-served range query (the
        table plans it, as it does for SQL)."""
        table = self.table(table_name)
        job = self.cluster.job()
        if ctx is not None:
            ctx.bind(job)
        job.charge_fixed("driver", self.cluster.model.query_overhead_ms)
        return QueryResult(table.query(query, predicate, job, ctx=ctx), job)

    def spatial_range_query(self, table_name: str, envelope: Envelope,
                            predicate: str = "intersects",
                            ctx=None) -> QueryResult:
        """All records intersecting (or within) a spatial rectangle."""
        return self._range_query(table_name, STQuery(envelope=envelope),
                                 predicate, ctx)

    def st_range_query(self, table_name: str, envelope: Envelope | None,
                       t_min: float, t_max: float,
                       predicate: str = "intersects",
                       ctx=None) -> QueryResult:
        """All records in a spatial rectangle during [t_min, t_max]."""
        return self._range_query(table_name,
                                 STQuery(envelope, t_min, t_max),
                                 predicate, ctx)

    def knn(self, table_name: str, lng: float, lat: float,
            k: int,
            min_cell_km: float = DEFAULT_MIN_CELL_KM) -> QueryResult:
        """The k records nearest to a query point (Algorithm 1)."""
        table = self.table(table_name)
        job = self.cluster.job()
        job.charge_fixed("driver", self.cluster.model.query_overhead_ms)
        result: KNNResult = knn_query(table, lng, lat, k, job,
                                      min_cell_km=min_cell_km)
        return QueryResult(result.rows, job, extra={
            "distances": result.distances,
            "areas_queried": result.areas_queried,
            "areas_pruned": result.areas_pruned,
        })

    # -- streaming (Section IX future work #1) ---------------------------------------------
    def create_topic(self, name: str):
        """Create a named streaming topic (the Kafka stand-in)."""
        from repro.streaming.stream import StreamTopic
        if name in self._topics:
            raise TableExistsError(name)
        topic = StreamTopic(name)
        self._topics[name] = topic
        return topic

    def topic(self, name: str):
        try:
            return self._topics[name]
        except KeyError:
            raise TableNotFoundError(name) from None

    def stream_load(self, topic_name: str, table_name: str,
                    config: dict[str, str], batch_size: int = 1000,
                    row_filter=None, start_offset: int = 0,
                    max_delay_s: float = 0.0, name: str | None = None,
                    time_field: str | None = None):
        """Bind a topic to a table; returns the micro-batch loader.

        ``start_offset`` resumes at a saved position; ``max_delay_s``
        bounds event-time out-of-orderness for the loader's watermark.
        Every loader is registered for the ``sys.streams`` table.
        """
        from repro.streaming.stream import StreamLoader
        self.table(table_name)  # validate early
        loader = StreamLoader(self, self.topic(topic_name), table_name,
                              config, batch_size, row_filter,
                              start_offset=start_offset,
                              max_delay_s=max_delay_s, name=name,
                              time_field=time_field)
        self._stream_loaders.append(loader)
        return loader

    def stream_loaders(self) -> list:
        """Every loader created through :meth:`stream_load`."""
        return list(self._stream_loaders)

    # -- SQL ----------------------------------------------------------------------------------
    def sql(self, statement: str, namespace: str = "", ctx=None):
        """Execute one JustQL statement; returns a ResultSet.

        ``ctx`` (a :class:`repro.resilience.RequestContext`) carries an
        optional deadline and partial-results mode down through planning,
        physical execution, and the store's region iteration.
        """
        from repro.sql.executor import execute_statement
        return execute_statement(self, statement, namespace, ctx)


def _placement_options(userdata: dict | None) -> tuple[int, int]:
    """Parse ``WITH (presplit=N, salt_buckets=K)`` placement userdata.

    The parser folds the WITH clause into userdata as ``just.presplit``
    / ``just.salt_buckets``, so USERDATA-only clients get the same
    options.  Validation of the ranges lives in :class:`KVTable`.
    """
    if not userdata:
        return 0, 0
    try:
        presplit = int(userdata.get("just.presplit", 0))
        salt_buckets = int(userdata.get("just.salt_buckets", 0))
    except (TypeError, ValueError) as exc:
        raise SchemaError(
            f"just.presplit / just.salt_buckets must be integers: "
            f"{exc}") from None
    return presplit, salt_buckets


def _attribute_fields(userdata: dict | None) -> list[str] | None:
    """Parse USERDATA {'just.attribute.indices': 'name,oid'}; None means
    "use the table type's default"."""
    if not userdata or "just.attribute.indices" not in userdata:
        return None
    return [f.strip() for f in
            userdata["just.attribute.indices"].split(",") if f.strip()]


# -- schema inference for STORE VIEW -----------------------------------------------

_INFER_ORDER = [
    (bool, FieldType.BOOLEAN),
    (int, FieldType.LONG),
    (float, FieldType.DOUBLE),
    (str, FieldType.STRING),
    (Point, FieldType.POINT),
    (LineString, FieldType.LINESTRING),
    (Polygon, FieldType.POLYGON),
    (Geometry, FieldType.GEOMETRY),
    (STSeries, FieldType.ST_SERIES),
    (TSeries, FieldType.T_SERIES),
]


def infer_schema(rows: list[dict], columns: list[str]) -> Schema:
    """Infer a stored-table schema from view rows.

    Numeric columns named like timestamps (``time``/``*_time``/``date``)
    become DATE so the inferred table gets a temporal index.  When no
    column is a usable primary key, a synthetic ``fid`` column is added.
    """
    if not rows:
        raise ExecutionError("cannot infer a schema from an empty view")
    fields: list[Field] = []
    for column in columns:
        sample = next((r[column] for r in rows
                       if r.get(column) is not None), None)
        if sample is None:
            fields.append(Field(column, FieldType.STRING))
            continue
        ftype = None
        for py_type, candidate in _INFER_ORDER:
            if isinstance(sample, py_type):
                ftype = candidate
                break
        if ftype is None:
            raise ExecutionError(
                f"cannot infer field type for column {column!r} "
                f"({type(sample).__name__})")
        lowered = column.lower()
        if ftype in (FieldType.LONG, FieldType.DOUBLE) and (
                lowered == "time" or lowered == "date"
                or lowered.endswith("_time") or lowered.endswith("_date")):
            ftype = FieldType.DATE
        fields.append(Field(column, ftype))
    pk_candidates = [f for f in fields
                     if f.name.lower() in ("fid", "id", "tid", "oid")
                     and f.ftype in (FieldType.STRING, FieldType.LONG,
                                     FieldType.INTEGER)]
    if pk_candidates:
        index = fields.index(pk_candidates[0])
        old = fields[index]
        fields[index] = Field(old.name, old.ftype, primary_key=True)
        return Schema(fields)
    return Schema([Field("fid", FieldType.LONG, primary_key=True)] + fields)


def _coerce_row(row: dict, schema: Schema, synthetic_fid: int) -> dict:
    """Fit a view row into a stored schema (adds a synthetic fid)."""
    out = {}
    for f in schema.fields:
        if f.name in row:
            out[f.name] = row[f.name]
        elif f.name == "fid" and f.primary_key:
            out[f.name] = synthetic_fid
        else:
            out[f.name] = None
    return out
