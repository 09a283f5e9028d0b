"""Virtual ``sys.*`` system tables (the ``performance_schema`` role).

Each system table is a named, read-only row provider over live engine
state — metrics, regions, catalog, events, slow queries, sessions —
held in the catalog beside the user's tables (kind ``"system"``) so
``SHOW``/``DESC`` see it, resolved by its bare name from any user
namespace, and executed as an in-memory DataFrame scan so WHERE /
ORDER BY / LIMIT / GROUP BY work on it unchanged::

    SELECT * FROM sys.regions ORDER BY read_rate DESC LIMIT 5
    SELECT kind, count(*) FROM sys.events GROUP BY kind

Providers are plain callables returning ``list[dict]``; the engine
installs cluster-level ones at construction and the service layer
re-registers ``sys.sessions`` / ``sys.slow_queries`` with live
server-backed providers when a :class:`~repro.service.server.JustServer`
wraps the engine.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.catalog import TABLE_KINDS
from repro.core.schema import FieldType, Schema
from repro.dataframe import DataFrame
from repro.observability.metrics import Counter, Histogram

#: Column name -> field type, for the catalog schemas of system tables.
_LONG = FieldType.LONG
_DOUBLE = FieldType.DOUBLE
_STRING = FieldType.STRING


@dataclass(frozen=True)
class SystemTable:
    """One virtual table: a name, typed columns, and a row provider."""

    kind = "system"

    name: str
    schema: Schema
    provider: object          # () -> list[dict]
    description: str = ""

    def columns(self) -> list[str]:
        return self.schema.names

    def describe(self) -> list[dict]:
        return self.schema.describe()

    def rows(self) -> list[dict]:
        return self.provider()

    def scan(self) -> DataFrame:
        """The provider's rows now, as a frame."""
        return DataFrame.from_rows(self.rows(), self.columns())


def _metrics_rows(engine) -> list[dict]:
    rows = []
    for key, metric in engine.metrics.items():
        if isinstance(metric, Histogram):
            stats = metric.as_dict()
            rows.append({"name": key, "kind": "histogram",
                         "value": stats["mean"], "count": stats["count"],
                         "sum": stats["sum"], "mean": stats["mean"],
                         "p50": stats["p50"], "p95": stats["p95"],
                         "p99": stats["p99"]})
        else:
            kind = "counter" if isinstance(metric, Counter) else "gauge"
            rows.append({"name": key, "kind": kind, "value": metric.value,
                         "count": None, "sum": None, "mean": None,
                         "p50": None, "p95": None, "p99": None})
    return rows


def _region_rows(engine) -> list[dict]:
    now_ms = engine.events.now_ms
    rows = []
    for kvtable in engine.store.tables():
        for region in kvtable.regions():
            rows.append({
                "table": kvtable.name,
                "region_id": region.region_id,
                "server": region.server,
                "start_key": region.start_key.hex(),
                "end_key": None if region.end_key is None
                else region.end_key.hex(),
                "memstore_bytes": region.memstore.size_bytes,
                "sstable_bytes": region.disk_bytes,
                "sstables": len(region.sstables),
                "reads": region.reads,
                "writes": region.writes,
                "read_rate": round(
                    region.read_rate.rate_per_s(now_ms), 6),
                "write_rate": round(
                    region.write_rate.rate_per_s(now_ms), 6),
            })
    return rows


def _table_rows(engine) -> list[dict]:
    rows = []
    for relation in engine.catalog.list(
            kinds=TABLE_KINDS + ("materialized_view",)):
        if relation.kind == "materialized_view":
            rows.append({
                "name": relation.name,
                "kind": relation.kind,
                "plugin_type": None,
                "indexes": "",
                "row_count": relation.row_count,
                "regions": 0,
                "storage_bytes": relation.estimated_bytes(),
                "analyzed_rows": None,
            })
            continue
        stats = relation.stats
        rows.append({
            "name": relation.name,
            "kind": relation.kind,
            "plugin_type": relation.plugin_type,
            "indexes": ",".join(relation.strategies),
            "row_count": relation.row_count,
            "regions": sum(t.num_regions
                           for t in relation.physical_tables()),
            "storage_bytes": relation.storage_bytes(),
            "analyzed_rows": None if stats is None else stats.row_count,
        })
    return rows


def _server_rows(engine) -> list[dict]:
    """One row per region server: state plus aggregated region load.

    The load columns are exactly what the balancer policy aggregates
    (:func:`repro.balancer.policy.server_loads`), so an operator can
    eyeball the same numbers the balancer acts on.
    """
    store = engine.store
    now_ms = engine.events.now_ms
    rows = []
    for server in range(store.num_servers):
        row = {"server": server,
               "state": ("dead" if server in store.dead_servers
                         and server not in store.recovering_servers
                         else "recovering"
                         if server in store.recovering_servers
                         else "alive"),
               "regions": 0, "memstore_bytes": 0, "sstable_bytes": 0,
               "reads": 0, "writes": 0,
               "read_rate": 0.0, "write_rate": 0.0,
               "cache_used_bytes": store.cache_for(server).used_bytes,
               "wal_live_records": 0}
        wal = store.wal_for(server)
        if wal is not None:
            row["wal_live_records"] = wal.live_records
        rows.append(row)
    for kvtable in store.tables():
        for region in kvtable.regions():
            row = rows[region.server]
            row["regions"] += 1
            row["memstore_bytes"] += region.memstore.size_bytes
            row["sstable_bytes"] += region.disk_bytes
            row["reads"] += region.reads
            row["writes"] += region.writes
            row["read_rate"] += region.read_rate.rate_per_s(now_ms)
            row["write_rate"] += region.write_rate.rate_per_s(now_ms)
    for row in rows:
        row["read_rate"] = round(row["read_rate"], 6)
        row["write_rate"] = round(row["write_rate"], 6)
    return rows


def _balancer_rows(engine) -> list[dict]:
    """The balancer's decision history (empty until one is enabled)."""
    balancer = engine.balancer
    return [] if balancer is None else balancer.history_rows()


def _replication_rows(engine) -> list[dict]:
    """One row per region replica (empty until replication is enabled)."""
    replication = engine.store.replication
    return [] if replication is None else replication.rows()


def _event_rows(engine) -> list[dict]:
    return engine.events.rows()


def _metrics_history_rows(engine) -> list[dict]:
    """Retained scrape points (empty until monitoring is enabled)."""
    monitor = engine.monitor
    return [] if monitor is None else monitor.history.rows()


def _slo_rows(engine) -> list[dict]:
    """One row per objective (empty until monitoring is enabled)."""
    monitor = engine.monitor
    return [] if monitor is None else monitor.slos.rows(engine.events.now_ms)


def _alert_rows(engine) -> list[dict]:
    """One row per (objective, severity) burn-rate alert."""
    monitor = engine.monitor
    return [] if monitor is None else monitor.slos.alert_rows()


def _stream_rows(engine) -> list[dict]:
    return [loader.stats_row() for loader in engine.stream_loaders()]


def _empty_rows() -> list[dict]:
    return []


#: (name, columns, types, description) for every built-in system table.
SYSTEM_TABLE_SPECS = [
    ("sys.metrics",
     ("name", "kind", "value", "count", "sum", "mean", "p50", "p95",
      "p99"),
     (_STRING, _STRING, _DOUBLE, _LONG, _DOUBLE, _DOUBLE, _DOUBLE,
      _DOUBLE, _DOUBLE),
     "Every registered metric (counters, gauges, histogram quantiles)."),
    ("sys.regions",
     ("table", "region_id", "server", "start_key", "end_key",
      "memstore_bytes", "sstable_bytes", "sstables", "reads", "writes",
      "read_rate", "write_rate"),
     (_STRING, _LONG, _LONG, _STRING, _STRING, _LONG, _LONG, _LONG,
      _LONG, _LONG, _DOUBLE, _DOUBLE),
     "Per-region key range, placement, size, and decayed hotness."),
    ("sys.tables",
     ("name", "kind", "plugin_type", "indexes", "row_count", "regions",
      "storage_bytes", "analyzed_rows"),
     (_STRING, _STRING, _STRING, _STRING, _LONG, _LONG, _LONG, _LONG),
     "Catalog tables with live size and ANALYZE snapshots."),
    ("sys.servers",
     ("server", "state", "regions", "memstore_bytes", "sstable_bytes",
      "reads", "writes", "read_rate", "write_rate",
      "cache_used_bytes", "wal_live_records"),
     (_LONG, _STRING, _LONG, _LONG, _LONG, _LONG, _LONG, _DOUBLE,
      _DOUBLE, _LONG, _LONG),
     "Per-server state and aggregated load (what the balancer sees)."),
    ("sys.balancer",
     ("run", "sim_ms", "action", "table", "region_id", "src_server",
      "dest_server", "reason"),
     (_LONG, _DOUBLE, _STRING, _STRING, _LONG, _LONG, _LONG, _STRING),
     "Balancer decision history: every move/split/merge with reason."),
    ("sys.replication",
     ("table", "region_id", "server", "role", "state",
      "applied_seqno", "lag_records", "reads", "shipped_records"),
     (_STRING, _LONG, _LONG, _STRING, _STRING, _LONG, _LONG, _LONG,
      _LONG),
     "Per-replica placement, state, applied seqno, and shipping lag."),
    ("sys.events",
     ("seq", "sim_ms", "kind", "table", "region_id", "server",
      "detail"),
     (_LONG, _DOUBLE, _STRING, _STRING, _LONG, _LONG, _STRING),
     "The bounded cluster event log (flush/compaction/split/...)."),
    ("sys.streams",
     ("loader", "topic", "table", "offset", "end_offset", "lag",
      "watermark", "open_windows", "finalized_windows", "late_events",
      "alerts", "views", "loaded", "dropped", "polls", "sim_ms"),
     (_STRING, _STRING, _STRING, _LONG, _LONG, _LONG, _DOUBLE, _LONG,
      _LONG, _LONG, _LONG, _STRING, _LONG, _LONG, _LONG, _DOUBLE),
     "Per-stream-loader offsets, watermark, window and alert stats."),
    ("sys.metrics_history",
     ("name", "kind", "tier", "ts_ms", "value", "rate_per_s"),
     (_STRING, _STRING, _LONG, _DOUBLE, _DOUBLE, _DOUBLE),
     "Retained metric scrapes per downsampling tier, with reset-aware "
     "adjacent rates for counters."),
    ("sys.slos",
     ("slo", "kind", "target", "signal", "state", "budget_remaining",
      "burn_short", "burn_long", "description"),
     (_STRING, _STRING, _DOUBLE, _STRING, _STRING, _DOUBLE, _DOUBLE,
      _DOUBLE, _STRING),
     "Service-level objectives with live error-budget burn state."),
    ("sys.alerts",
     ("slo", "severity", "state", "burn_short", "burn_long", "factor",
      "short_ms", "long_ms", "pending_since_ms", "fired_at_ms",
      "times_fired", "trace_id", "updated_ms"),
     (_STRING, _STRING, _STRING, _DOUBLE, _DOUBLE, _DOUBLE, _DOUBLE,
      _DOUBLE, _DOUBLE, _DOUBLE, _LONG, _STRING, _DOUBLE),
     "Multi-window burn-rate alert state per (SLO, severity)."),
    ("sys.slow_queries",
     ("seq", "user", "trace_id", "sim_ms", "statement"),
     (_LONG, _STRING, _STRING, _DOUBLE, _STRING),
     "Statements over the slow-query threshold."),
    ("sys.sessions",
     ("session_id", "user", "created_at", "idle_s"),
     (_STRING, _STRING, _DOUBLE, _DOUBLE),
     "Active service-layer user sessions."),
]


def install_system_tables(engine) -> None:
    """Register the built-in ``sys.*`` tables on a fresh engine.

    ``sys.sessions`` and ``sys.slow_queries`` are installed with empty
    providers here (they are service-layer concepts); a
    ``JustServer`` re-registers them with live providers.
    """
    providers = {
        "sys.metrics": lambda: _metrics_rows(engine),
        "sys.regions": lambda: _region_rows(engine),
        "sys.tables": lambda: _table_rows(engine),
        "sys.servers": lambda: _server_rows(engine),
        "sys.balancer": lambda: _balancer_rows(engine),
        "sys.replication": lambda: _replication_rows(engine),
        "sys.events": lambda: _event_rows(engine),
        "sys.streams": lambda: _stream_rows(engine),
        "sys.metrics_history": lambda: _metrics_history_rows(engine),
        "sys.slos": lambda: _slo_rows(engine),
        "sys.alerts": lambda: _alert_rows(engine),
        "sys.slow_queries": _empty_rows,
        "sys.sessions": _empty_rows,
    }
    for name, columns, types, description in SYSTEM_TABLE_SPECS:
        engine.register_system_table(name, columns, providers[name],
                                     description=description,
                                     types=types)
