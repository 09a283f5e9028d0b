"""Common/plugin/view tables: inserts, updates, queries, storage."""

import math

import pytest

from repro import JustEngine, Schema
from repro.core.tables import ViewTable
from repro.curves import STQuery
from repro.dataframe import DataFrame
from repro.errors import (
    QueryTimeoutError,
    ReplicationQuorumError,
    SchemaError,
)
from repro.faults import FaultInjector, FaultPlan, PartitionedFollower
from repro.geometry import Envelope, Point
from repro.kvstore import ScanSpec, SyncPolicy
from repro.resilience import Deadline, RequestContext
from repro.trajectory import STSeries, Trajectory

from conftest import POI_SCHEMA_FIELDS, T0, all_rows, make_poi_rows


class TestInvalidRowWritesNothing:
    """Rows are validated, encoded and keyed before the first mutation:
    a batch whose third row has no geometry used to raise after storing
    the first two."""

    SCHEMA = ("CREATE TABLE t (fid integer:primary key, name string, "
              "time date, geom point)")

    @staticmethod
    def _assert_empty(engine):
        table = engine.table("t")
        assert table.row_count == 0
        assert all_rows(table) == []
        assert all(kv.count() == 0 for kv in table.physical_tables())

    def test_engine_insert(self, engine):
        engine.sql(self.SCHEMA)
        rows = [{"fid": i, "name": "n", "time": T0,
                 "geom": None if i == 2 else Point(116.3, 39.9)}
                for i in range(4)]
        with pytest.raises(SchemaError, match="no geometry"):
            engine.insert("t", rows)
        self._assert_empty(engine)

    def test_justql_insert_values(self, engine):
        engine.sql(self.SCHEMA)
        values = ", ".join(
            f"({i}, 'n', {T0}, "
            f"{'NULL' if i == 2 else 'st_makePoint(116.3, 39.9)'})"
            for i in range(4))
        with pytest.raises(SchemaError, match="no geometry"):
            engine.sql(f"INSERT INTO t VALUES {values}")
        self._assert_empty(engine)


class TestFailedBatchKeepsRowCount:
    """A batch that fails in the store partway (a SYNC quorum lost to a
    follower partition) counts exactly the rows that landed, so the
    retried batch leaves ``row_count`` and k-NN as a clean load would."""

    def test_quorum_failure_mid_batch_then_retry(self):
        engine = JustEngine(wal_policy=SyncPolicy.SYNC,
                            replication_factor=3, split_bytes=8 * 1024,
                            flush_bytes=4 * 1024)
        engine.create_table("poi", Schema(list(POI_SCHEMA_FIELDS)))
        table = engine.table("poi")
        rows = make_poi_rows(300, seed=5)
        # Every replication link breaks after 600 shipped records: the
        # batch's first chunks are acked, a later segment loses quorum.
        FaultInjector(FaultPlan(
            [PartitionedFollower(s, after_ships=600)
             for s in range(engine.store.num_servers)])).attach(engine.store)
        with pytest.raises(ReplicationQuorumError):
            table.insert_rows(rows)
        landed = len(all_rows(table))
        assert 0 < landed < len(rows)
        assert table.row_count == landed

        engine.store.fault_injector = None  # the partition heals
        assert table.insert_rows(rows) == len(rows)
        assert table.row_count == len(all_rows(table)) == len(rows)
        lng, lat = 116.25, 39.95
        nearest = sorted(rows, key=lambda r: math.hypot(
            r["geom"].lng - lng, r["geom"].lat - lat))[:10]
        result = engine.knn("poi", lng, lat, 10)
        assert [r["fid"] for r in result.rows] == \
            [r["fid"] for r in nearest]


class TestOneBatchEqualsOneRowAtATime:
    def test_upserts_within_one_batch(self):
        """Rows that replace stored rows and rows earlier in the same
        batch leave every physical table as one-row inserts would."""
        rows = make_poi_rows(60, seed=3)
        for i, row in enumerate(make_poi_rows(40, seed=4)):
            rows.append(dict(row, fid=i % 25, name=f"v{i}"))

        def loaded(batched: bool):
            engine = JustEngine(split_bytes=8 * 1024, flush_bytes=1024)
            engine.create_table("poi", Schema(list(POI_SCHEMA_FIELDS)),
                                userdata={"just.attribute.indices": "name"})
            table = engine.table("poi")
            table.insert_rows(rows[:30])
            if batched:
                table.insert_rows(rows[30:])
            else:
                for row in rows[30:]:
                    table.insert_rows([row])
            return table

        batched, single = loaded(True), loaded(False)
        assert [list(kv.scan(ScanSpec.full()))
                for kv in batched.physical_tables()] == \
            [list(kv.scan(ScanSpec.full()))
             for kv in single.physical_tables()]
        assert batched.row_count == single.row_count == 60
        assert batched.data_envelope == single.data_envelope
        assert batched.time_extent == single.time_extent


class TestCommonTable:
    def test_insert_and_count(self, poi_engine):
        table = poi_engine.table("poi")
        assert table.row_count == 500

    def test_get_by_fid(self, poi_engine, poi_rows):
        table = poi_engine.table("poi")
        row = table.get("17")
        assert row["name"] == poi_rows[17]["name"]
        assert table.get("99999") is None

    def test_update_replaces_index_entries(self, poi_engine):
        table = poi_engine.table("poi")
        moved = {"fid": 3, "name": "moved", "time": T0,
                 "geom": Point(100.0, 10.0)}
        table.insert_rows([moved])
        assert table.row_count == 500  # update, not insert
        hits = table.query(
            STQuery(envelope=Envelope(99.9, 9.9, 100.1, 10.1)))
        assert [r["name"] for r in hits] == ["moved"]

    def test_delete(self, poi_engine):
        table = poi_engine.table("poi")
        assert table.delete("3")
        assert not table.delete("3")
        assert table.get("3") is None
        assert table.row_count == 499

    def test_spatial_query_exact(self, poi_engine, poi_rows):
        table = poi_engine.table("poi")
        env = Envelope(116.1, 39.85, 116.25, 39.95)
        got = {r["fid"] for r in table.query(STQuery(envelope=env))}
        expected = {r["fid"] for r in poi_rows
                    if env.contains_point(r["geom"].lng, r["geom"].lat)}
        assert got == expected

    def test_st_query_exact(self, poi_engine, poi_rows):
        table = poi_engine.table("poi")
        env = Envelope(116.0, 39.8, 116.5, 40.1)
        t_lo, t_hi = T0 + 86400, T0 + 2 * 86400
        got = {r["fid"] for r in table.query(STQuery(env, t_lo, t_hi))}
        expected = {r["fid"] for r in poi_rows
                    if t_lo <= r["time"] <= t_hi}
        assert got == expected

    def test_time_only_query_widens_envelope(self, poi_engine, poi_rows):
        table = poi_engine.table("poi")
        t_lo, t_hi = T0, T0 + 86400
        got = {r["fid"] for r in table.query(
            STQuery(None, t_lo, t_hi))}
        expected = {r["fid"] for r in poi_rows
                    if t_lo <= r["time"] <= t_hi}
        assert got == expected

    def test_stats_tracked(self, poi_engine, poi_rows):
        table = poi_engine.table("poi")
        assert table.time_extent[0] == min(r["time"] for r in poi_rows)
        assert table.data_envelope.contains_point(
            poi_rows[0]["geom"].lng, poi_rows[0]["geom"].lat)

    def test_full_scan(self, poi_engine):
        assert len(all_rows(poi_engine.table("poi"))) == 500

    def test_storage_bytes_positive_after_flush(self, poi_engine):
        table = poi_engine.table("poi")
        table.flush()
        assert table.storage_bytes(include_memstore=False) > 0

    def test_missing_geometry_rejected(self, engine):
        from repro.core.schema import Field, FieldType, Schema
        engine.create_table("t", Schema([
            Field("fid", FieldType.INTEGER, primary_key=True),
            Field("geom", FieldType.POINT),
        ]))
        with pytest.raises(SchemaError):
            engine.table("t").insert_rows([{"fid": 1, "geom": None}])


class TestTrajectoryPlugin:
    def make_traj(self, tid="t1", n=20, lng0=116.2, t0=T0):
        points = [(lng0 + i * 0.001, 39.9 + i * 0.0005, t0 + i * 30.0)
                  for i in range(n)]
        return Trajectory(tid, "o1", STSeries(points))

    def test_insert_and_item(self, engine):
        table = engine.create_plugin_table("traj", "trajectory")
        table.insert_trajectories([self.make_traj()])
        row = table.get("t1")
        assert isinstance(row["item"], Trajectory)
        assert row["item"].tid == "t1"
        assert len(row["item"].points) == 20

    def test_st_query_matches_extent(self, engine):
        table = engine.create_plugin_table("traj", "trajectory")
        table.insert_trajectories([
            self.make_traj("early", t0=T0),
            self.make_traj("late", t0=T0 + 86400 * 3),
        ])
        hits = table.query(STQuery(Envelope(116.0, 39.8, 116.5, 40.0),
                                   T0 - 100, T0 + 3600))
        assert [r["tid"] for r in hits] == ["early"]

    def test_exact_line_filtering(self, engine):
        """The query envelope intersects the trajectory MBR but not the
        polyline itself: exact filtering must exclude it."""
        table = engine.create_plugin_table("traj", "trajectory")
        diagonal = Trajectory("diag", "o", STSeries(
            [(116.0, 39.8, T0), (116.2, 40.0, T0 + 600)]))
        table.insert_trajectories([diagonal])
        # A box in the MBR corner away from the diagonal.
        corner = Envelope(116.15, 39.8, 116.2, 39.85)
        assert table.query(STQuery(corner, T0, T0 + 600)) == []
        on_path = Envelope(116.09, 39.89, 116.11, 39.91)
        assert len(table.query(STQuery(on_path, T0, T0 + 600))) == 1

    def test_default_indexes(self, engine):
        table = engine.create_plugin_table("traj", "trajectory")
        assert set(table.strategies) == {"xz2", "xz2t"}

    def test_columns_include_item(self, engine):
        table = engine.create_plugin_table("traj", "trajectory")
        assert table.columns()[-1] == "item"


class _MidScanDeadline(RequestContext):
    """Expires at the first in-region cancellation check, i.e. after the
    scan has merged ``Region.CANCEL_CHECK_ROWS`` entries."""

    def __init__(self):
        super().__init__(deadline=Deadline(1e6))

    def check(self, operation: str = "") -> None:
        if operation.startswith("region "):
            self.deadline.charge(2e6)
        super().check(operation)


class TestScanAccounting:
    """Every read charges through one ``finally``: abandoned scans
    account for the work they did, on the row and the batch API alike."""

    WORLD = Envelope(116.0, 39.8, 116.5, 40.1)

    @pytest.fixture
    def cold_engine(self):
        from repro import JustEngine
        engine = JustEngine()
        engine.sql("CREATE TABLE poi (fid integer:primary key, "
                   "name string, time date, geom point) USERDATA "
                   "{'just.attribute.indices': 'name'}")
        engine.insert("poi", make_poi_rows(3000))
        engine.table("poi").flush()
        engine.store.clear_caches()
        return engine

    def test_cancelled_range_query_reports_its_io(self, cold_engine):
        ctx = _MidScanDeadline()
        with pytest.raises(QueryTimeoutError):
            cold_engine.st_range_query("poi", self.WORLD, T0,
                                       T0 + 5 * 86400, ctx=ctx)
        assert ctx.job.breakdown["disk_read"] > 0

    def test_cancelled_attribute_lookup_reports_its_io(self, cold_engine):
        ctx = _MidScanDeadline()
        with pytest.raises(QueryTimeoutError):
            cold_engine.sql("SELECT fid FROM poi WHERE name = 'poi3'",
                            ctx=ctx)
        assert ctx.job.breakdown["disk_read"] > 0

    def test_early_exit_charges_exactly_the_rows_pulled(self, cold_engine,
                                                        monkeypatch):
        table = cold_engine.table("poi")
        decode_row = table.codec.decode_row
        decoded = []
        monkeypatch.setattr(
            table.codec, "decode_row",
            lambda *args: decoded.append(1) or decode_row(*args))
        job = cold_engine.cluster.job()
        before = cold_engine.store.stats.snapshot()
        batches = table.query_batches(STQuery(envelope=self.WORLD),
                                      job=job)
        first = next(batches)
        assert job.breakdown == {}  # charged when the scan ends
        batches.close()
        delta = cold_engine.store.stats.snapshot().delta(before)
        assert len(first) == len(decoded) < table.row_count
        assert job.breakdown["cpu"] == pytest.approx(
            len(decoded) * job.model.cpu_us_per_record / 1000.0
            / job.num_servers)
        assert job.breakdown["network"] == pytest.approx(
            job.model.network_ms(delta.result_bytes) / job.num_servers)
        assert job.breakdown["disk_read"] > 0


class TestViewTable:
    def test_describe(self):
        view = ViewTable("v", DataFrame.from_rows([{"a": 1, "b": 2}]))
        assert [r["field"] for r in view.describe()] == ["a", "b"]
