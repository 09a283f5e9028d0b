"""JustEngine facade: DDL, views, loading, query operations."""

import ast
import inspect
from pathlib import Path

import pytest

from repro import Envelope, FieldType, JustEngine, Point, Schema, Field
from repro.curves.strategies import XZ2TStrategy, XZ3Strategy
from repro.curves.timeperiod import TimePeriod
from repro.dataframe import DataFrame
from repro.errors import (
    ExecutionError,
    SchemaError,
    TableExistsError,
    TableNotFoundError,
)
from repro.kvstore import KVStore, SyncPolicy
from repro.observability.events import EventLog
from repro.observability.history import (
    DEFAULT_TIERS,
    MetricsHistory,
    MetricsScraper,
)
from repro.observability.metrics import MetricsRegistry
from repro.observability.monitor import Monitor
from repro.replication import ReplicationManager
from repro.resilience import AdmissionController
from repro.service import JustServer

from conftest import POI_SCHEMA_FIELDS, T0, make_poi_rows


def _durable_store() -> KVStore:
    return KVStore(num_servers=3, wal_policy=SyncPolicy.SYNC)


#: Constructor options that were removed, each with the value it used to
#: default to: the values are constants now, so passing one is an error.
REMOVED_OPTIONS = [
    (JustEngine, "vectorized", True),
    (JustEngine, "memory_budget_bytes", 5 * 32 * 1024 ** 3),
    (JustEngine, "num_shards", 4),
    (JustEngine, "max_ranges", 256),
    (JustEngine, "default_period", TimePeriod.DAY),
    (JustEngine, "oltp_threshold_bytes", 64 * 1024),
    (JustEngine, "local_overhead_ms", 5.0),
    (JustEngine, "read_mode", "primary"),
    (JustEngine, "cost_based_planner", False),
    (JustEngine, "adaptive_execution", False),
    (lambda **kw: _durable_store().enable_replication(**kw),
     "interval_ms", 200.0),
    (lambda **kw: ReplicationManager(_durable_store(), **kw),
     "interval_ms", 200.0),
    (lambda **kw: ReplicationManager(_durable_store(), **kw),
     "lag_alert_records", 64),
    (lambda **kw: ReplicationManager(_durable_store(), **kw),
     "hedge_ms", 5.0),
    (lambda **kw: Monitor(JustEngine(), **kw), "tiers", DEFAULT_TIERS),
    (lambda **kw: Monitor(JustEngine(), **kw), "charge_clock", True),
    (lambda **kw: MetricsScraper(MetricsRegistry(), EventLog(),
                                 MetricsHistory(), **kw),
     "base_cost_ms", 0.05),
    (lambda **kw: MetricsScraper(MetricsRegistry(), EventLog(),
                                 MetricsHistory(), **kw),
     "cost_per_series_ms", 0.002),
    (lambda **kw: MetricsScraper(MetricsRegistry(), EventLog(),
                                 MetricsHistory(), **kw),
     "charge_clock", True),
    (JustServer, "admission", AdmissionController()),
    (JustServer, "profile_capacity", 64),
    (KVStore, "fault_injector", None),
    (XZ2TStrategy, "lookback_periods", 1),
    (XZ3Strategy, "lookback_periods", 1),
]
_OWNERS = ["JustEngine"] * 10 + ["KVStore.enable_replication"] + \
    ["ReplicationManager"] * 3 + ["Monitor"] * 2 + \
    ["MetricsScraper"] * 3 + ["JustServer"] * 2 + ["KVStore"] + \
    ["XZ2TStrategy", "XZ3Strategy"]


@pytest.mark.parametrize(
    "build, option, old_default", REMOVED_OPTIONS,
    ids=[f"{owner}-{option}"
         for owner, (_, option, _) in zip(_OWNERS, REMOVED_OPTIONS)])
def test_removed_constructor_option_is_a_type_error(build, option,
                                                    old_default):
    with pytest.raises(TypeError):
        build(**{option: old_default})


ROOT = Path(__file__).resolve().parent.parent


def _names_passed(path: Path) -> set[str]:
    """Keyword-argument names and string dict keys in one file."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.keyword) and node.arg:
            names.add(node.arg)
        elif isinstance(node, ast.Dict):
            names.update(key.value for key in node.keys
                         if isinstance(key, ast.Constant))
    return names


def test_every_engine_option_has_a_user():
    """An option only tests or examples set is an option nobody needs:
    each ``JustEngine`` parameter is passed by name (a keyword or a dict
    key) somewhere in ``src/`` outside ``engine.py``, or in
    ``benchmarks/``."""
    used = set()
    for path in [*(ROOT / "src").rglob("*.py"),
                 *(ROOT / "benchmarks").rglob("*.py")]:
        if path != ROOT / "src" / "repro" / "core" / "engine.py":
            used |= _names_passed(path)
    options = set(inspect.signature(JustEngine).parameters)
    assert options <= used, sorted(options - used)


def test_replication_is_switched_on_by_the_factor_alone():
    assert not hasattr(JustEngine, "enable_replication")
    engine = JustEngine(wal_policy=SyncPolicy.SYNC, replication_factor=3)
    assert engine.replication.factor == 3
    engine.create_table("t", Schema(list(POI_SCHEMA_FIELDS)))
    engine.insert("t", make_poi_rows(5))
    assert engine.metrics.snapshot()["replication.records_shipped"] > 0


class TestTableLifecycle:
    def test_create_drop(self, engine):
        engine.create_table("t", Schema(list(POI_SCHEMA_FIELDS)))
        assert engine.has_table("t")
        engine.drop_table("t")
        assert not engine.has_table("t")
        assert not engine.store.has_table("t__id")

    def test_duplicate_name_rejected(self, engine):
        engine.create_table("t", Schema(list(POI_SCHEMA_FIELDS)))
        with pytest.raises(TableExistsError):
            engine.create_table("t", Schema(list(POI_SCHEMA_FIELDS)))

    def test_view_table_name_collision(self, engine):
        engine.create_view("x", DataFrame.from_rows([{"a": 1}]))
        with pytest.raises(TableExistsError):
            engine.create_table("x", Schema(list(POI_SCHEMA_FIELDS)))

    def test_drop_missing(self, engine):
        with pytest.raises(TableNotFoundError):
            engine.drop_table("nope")


class TestIndexConfiguration:
    def test_point_with_time_gets_z2_z2t(self, engine):
        table = engine.create_table("t", Schema(list(POI_SCHEMA_FIELDS)))
        assert set(table.strategies) == {"z2", "z2t"}

    def test_point_without_time_gets_z2(self, engine):
        table = engine.create_table("t", Schema([
            Field("fid", FieldType.INTEGER, primary_key=True),
            Field("geom", FieldType.POINT),
        ]))
        assert set(table.strategies) == {"z2"}

    def test_polygon_gets_xz(self, engine):
        table = engine.create_table("t", Schema([
            Field("fid", FieldType.INTEGER, primary_key=True),
            Field("time", FieldType.DATE),
            Field("geom", FieldType.POLYGON),
        ]))
        assert set(table.strategies) == {"xz2", "xz2t"}

    def test_userdata_overrides_indexes(self, engine):
        table = engine.create_table(
            "t", Schema(list(POI_SCHEMA_FIELDS)),
            userdata={"geomesa.indices.enabled": "z3"})
        assert set(table.strategies) == {"z3"}

    def test_userdata_time_period(self, engine):
        table = engine.create_table(
            "t", Schema(list(POI_SCHEMA_FIELDS)),
            userdata={"just.time_period": "year"})
        assert table.strategies["z2t"].period is TimePeriod.YEAR

    @pytest.mark.parametrize("enabled", ["xz2,", "", " , "])
    @pytest.mark.parametrize("kind", ["common", "plugin"])
    def test_enabled_indices_parse_alike_for_every_table_kind(
            self, engine, kind, enabled):
        userdata = {"geomesa.indices.enabled": enabled}

        def create():
            if kind == "plugin":
                return engine.create_plugin_table("t", "trajectory",
                                                  userdata)
            return engine.create_table("t", Schema([
                Field("fid", FieldType.INTEGER, primary_key=True),
                Field("geom", FieldType.POLYGON),
            ]), userdata)

        if enabled.strip(" ,"):
            assert set(create().strategies) == {"xz2"}
        else:
            with pytest.raises(SchemaError, match="is empty"):
                create()
            assert not engine.has_table("t")

    def test_attribute_only_table(self, engine):
        table = engine.create_table("t", Schema([
            Field("fid", FieldType.INTEGER, primary_key=True),
            Field("name", FieldType.STRING),
        ]))
        assert table.strategies == {}
        engine.insert("t", [{"fid": 1, "name": "x"}])
        assert table.get("1")["name"] == "x"


class TestViews:
    def test_create_use_drop(self, engine):
        engine.create_view("v", DataFrame.from_rows([{"a": 1}, {"a": 2}]))
        assert engine.view("v").dataframe.count() == 2
        engine.drop_view("v")
        with pytest.raises(TableNotFoundError):
            engine.view("v")

    def test_store_view_infers_schema(self, poi_engine):
        poi_engine.create_view("v", DataFrame.from_rows(
            [{"name": "a", "score": 1.5}, {"name": "b", "score": 2.5}]))
        table = poi_engine.store_view_to_table("v", "scores")
        assert table.row_count == 2
        assert table.schema.primary_key.name == "fid"

    def test_store_view_time_column_becomes_date(self, engine):
        engine.create_view("v", DataFrame.from_rows(
            [{"id": 1, "time": T0, "geom": Point(116.0, 39.9)}]))
        table = engine.store_view_to_table("v", "stored")
        assert table.schema.field("time").ftype is FieldType.DATE
        assert set(table.strategies) == {"z2", "z2t"}


class TestQueries:
    def test_spatial_range(self, poi_engine, poi_rows):
        env = Envelope(116.1, 39.85, 116.3, 40.0)
        result = poi_engine.spatial_range_query("poi", env)
        expected = [r for r in poi_rows
                    if env.contains_point(r["geom"].lng, r["geom"].lat)]
        assert len(result.rows) == len(expected)
        assert result.sim_ms > 0

    def test_st_range(self, poi_engine, poi_rows):
        env = Envelope(116.0, 39.8, 116.5, 40.1)
        result = poi_engine.st_range_query("poi", env, T0, T0 + 86400)
        expected = [r for r in poi_rows if T0 <= r["time"] <= T0 + 86400]
        assert len(result.rows) == len(expected)

    def test_knn(self, poi_engine):
        result = poi_engine.knn("poi", 116.25, 39.9, 7)
        assert len(result.rows) == 7
        assert "areas_queried" in result.extra


class TestLoad:
    def test_load_from_source_with_mapping(self, engine):
        engine.create_table("t", Schema(list(POI_SCHEMA_FIELDS)))
        engine.register_source("src", [
            {"oid": "1", "lng": "116.1", "lat": "39.9",
             "ts": str(int(T0 * 1000))},
            {"oid": "2", "lng": "116.2", "lat": "39.95",
             "ts": str(int((T0 + 60) * 1000))},
        ])
        result = engine.load("hive:src", "t", {
            "fid": "to_int(oid)",
            "name": "oid",
            "time": "long_to_date_ms(ts)",
            "geom": "lng_lat_to_point(lng, lat)",
        })
        assert result.extra["loaded"] == 2
        assert engine.table("t").get("1")["time"] == pytest.approx(T0)

    def test_load_filter_and_limit(self, engine):
        engine.create_table("t", Schema(list(POI_SCHEMA_FIELDS)))
        engine.register_source("src", [
            {"oid": str(i), "lng": "116.1", "lat": "39.9",
             "ts": "1500000000000"} for i in range(10)])
        result = engine.load(
            "hive:src", "t",
            {"fid": "to_int(oid)", "name": "oid",
             "time": "long_to_date_ms(ts)",
             "geom": "lng_lat_to_point(lng, lat)"},
            row_filter=lambda r: int(r["oid"]) % 2 == 0, limit=3)
        assert result.extra["loaded"] == 3

    def test_unknown_scheme(self, engine):
        engine.create_table("t", Schema(list(POI_SCHEMA_FIELDS)))
        with pytest.raises(ExecutionError):
            engine.load("ftp:somewhere", "t", {})


class TestUpdateEnabled:
    """The paper's headline property: inserts and historical updates
    without index reconstruction."""

    def test_incremental_insert_visible(self, poi_engine):
        env = Envelope(100.0, 9.9, 100.1, 10.1)
        assert len(poi_engine.spatial_range_query("poi", env).rows) == 0
        poi_engine.insert("poi", [{
            "fid": 9_001, "name": "late", "time": T0,
            "geom": Point(100.05, 10.0)}])
        assert len(poi_engine.spatial_range_query("poi", env).rows) == 1

    def test_historical_update(self, poi_engine):
        """Re-writing a record with an *older* timestamp works — the case
        ST-Hadoop cannot handle."""
        old_time = T0 - 86400 * 365
        poi_engine.insert("poi", [{
            "fid": 5, "name": "historical", "time": old_time,
            "geom": Point(116.2, 39.9)}])
        result = poi_engine.st_range_query(
            "poi", Envelope(116.0, 39.8, 116.5, 40.1),
            old_time - 10, old_time + 10)
        assert [r["name"] for r in result.rows] == ["historical"]
