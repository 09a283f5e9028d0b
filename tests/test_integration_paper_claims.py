"""Integration tests pinning the paper's qualitative claims.

Each test corresponds to a sentence in the paper; together they are the
executable summary of Sections IV-VIII.
"""

import pytest

from repro import (
    Envelope,
    JustEngine,
    Point,
    Schema,
    STQuery,
    TimePeriod,
)
from repro.curves.strategies import (
    IndexedRecord,
    XZ2TStrategy,
    XZ3Strategy,
    Z2TStrategy,
    Z3Strategy,
)

from conftest import POI_SCHEMA_FIELDS, T0, make_poi_rows


class TestSectionIVB_Z2TMotivation:
    """'The spatial filtering is invalidated' — Figure 4a's key range."""

    def test_z3_key_space_explodes_for_intra_day_query(self):
        z2t = Z2TStrategy(period=TimePeriod.DAY, num_shards=1)
        z3 = Z3Strategy(period=TimePeriod.DAY, num_shards=1)
        # The paper's example: 1km x 1km, 01:00..13:00 within one day.
        query = STQuery(Envelope(116.30, 39.90, 116.31, 39.91),
                        3600.0, 13 * 3600.0)

        def covered_key_space(strategy):
            total = 0
            for start, stop in strategy.ranges(query):
                lo = int.from_bytes(start[5:13], "big")
                hi = int.from_bytes(stop[5:13], "big")
                total += hi - lo + 1
            return total

        # Z2T covers orders of magnitude less key space.
        assert covered_key_space(z2t) * 1000 < covered_key_space(z3)

    def test_xz3_loses_spatial_filtering(self):
        xz2t = XZ2TStrategy(period=TimePeriod.DAY, num_shards=1)
        xz3 = XZ3Strategy(period=TimePeriod.DAY, num_shards=1)
        query = STQuery(Envelope(116.30, 39.90, 116.33, 39.93),
                        3600.0, 13 * 3600.0)
        # XZ3's covering ranges span a larger share of its key space
        # than XZ2T's do of its own.  (An XZ2T body is a 32-bit code
        # followed by the MBR signature; an XZ3 body a 64-bit code.)
        def share(strategy, code_bytes):
            covered = 0
            for start, stop in strategy.ranges(query):
                lo = int.from_bytes(start[5:5 + code_bytes], "big")
                hi = int.from_bytes(stop[5:5 + code_bytes], "big")
                covered += hi - lo + 1
            return covered / strategy.curve.max_code()

        assert share(xz2t, 4) * 10 < share(xz3, 8)


class TestSectionIVD_Compression:
    """'Compression ... only suitable for big fields.'"""

    def test_trajectory_table_shrinks(self, small_trajs):
        compressed = JustEngine(compression_enabled=True)
        plain = JustEngine(compression_enabled=False)
        for engine in (compressed, plain):
            table = engine.create_plugin_table("traj", "trajectory")
            table.insert_trajectories(small_trajs)
            table.flush()
        assert compressed.table("traj").storage_bytes() < \
            0.8 * plain.table("traj").storage_bytes()

    def test_query_results_identical_with_and_without(self, small_trajs):
        env = Envelope(116.0, 39.6, 116.8, 40.2)
        t_lo = min(t.start_time for t in small_trajs)
        results = []
        for compression in (True, False):
            engine = JustEngine(compression_enabled=compression)
            table = engine.create_plugin_table("traj", "trajectory")
            table.insert_trajectories(small_trajs)
            rows = engine.st_range_query("traj", env, t_lo,
                                         t_lo + 5 * 86400).rows
            results.append(sorted(r["tid"] for r in rows))
        assert results[0] == results[1]


class TestSectionIII_UpdateEnabled:
    """'JUST supports new data insertions or historical data updates'
    without index reconstruction."""

    def test_keys_are_independent_of_other_records(self):
        strategy = Z2TStrategy()
        record = IndexedRecord("r1", Point(116.4, 39.9), T0, T0)
        key_alone = strategy.key(record)
        # Insert unrelated records; the key must not change.
        for i in range(100):
            strategy.key(IndexedRecord(str(i), Point(116.0, 39.8),
                                       T0 + i, T0 + i))
        assert strategy.key(record) == key_alone

    def test_historical_insert_queryable(self, poi_engine):
        ancient = T0 - 86400 * 1000
        poi_engine.insert("poi", [{
            "fid": 77_001, "name": "ancient", "time": ancient,
            "geom": Point(116.2, 39.9)}])
        rows = poi_engine.st_range_query(
            "poi", Envelope(116.0, 39.8, 116.5, 40.1),
            ancient - 1, ancient + 1).rows
        assert [r["name"] for r in rows] == ["ancient"]


class TestSectionVIII_CacheElimination:
    """'HBase will cache results ... perform each query only once.'"""

    def test_repeat_query_hits_cache(self, poi_engine):
        table = poi_engine.table("poi")
        table.flush()
        env = Envelope(116.1, 39.85, 116.3, 40.0)
        poi_engine.spatial_range_query("poi", env)
        stats = poi_engine.store.stats
        before = stats.disk_bytes_read
        poi_engine.spatial_range_query("poi", env)
        assert stats.disk_bytes_read == before  # all blocks cached

    def test_clear_caches_restores_cold_reads(self, poi_engine):
        table = poi_engine.table("poi")
        table.flush()
        env = Envelope(116.1, 39.85, 116.3, 40.0)
        poi_engine.spatial_range_query("poi", env)
        poi_engine.store.clear_caches()
        before = poi_engine.store.stats.disk_bytes_read
        poi_engine.spatial_range_query("poi", env)
        assert poi_engine.store.stats.disk_bytes_read > before


class TestSectionVIIIF_Scalability:
    """'The efficiency of spatio-temporal query has nothing to do with
    the data size' — appending new periods leaves old periods' scans
    untouched."""

    def test_st_query_cost_flat_when_new_periods_appended(self):
        engine = JustEngine()
        engine.create_table("t", Schema(list(POI_SCHEMA_FIELDS)))
        base = make_poi_rows(400, seed=5)
        engine.insert("t", base)
        engine.table("t").flush()
        env = Envelope(116.0, 39.8, 116.5, 40.1)
        engine.store.clear_caches()
        before = engine.store.stats.snapshot()
        engine.st_range_query("t", env, T0, T0 + 3600)
        first = engine.store.stats.snapshot().delta(before)

        # Append the same volume again, 100 days later (new periods).
        later = [{**r, "fid": r["fid"] + 10_000,
                  "time": r["time"] + 100 * 86400} for r in base]
        engine.insert("t", later)
        engine.table("t").flush()
        engine.store.clear_caches()
        before = engine.store.stats.snapshot()
        engine.st_range_query("t", env, T0, T0 + 3600)
        second = engine.store.stats.snapshot().delta(before)

        # Same periods scanned, same bytes (up to region-split noise).
        assert second.disk_bytes_read <= first.disk_bytes_read * 1.6

    def test_spatial_query_cost_grows_with_data(self):
        engine = JustEngine()
        engine.create_table("t", Schema(list(POI_SCHEMA_FIELDS)))
        base = make_poi_rows(400, seed=5)
        engine.insert("t", base)
        engine.table("t").flush()
        env = Envelope(116.0, 39.8, 116.5, 40.1)
        engine.store.clear_caches()
        before = engine.store.stats.snapshot()
        engine.spatial_range_query("t", env)
        first = engine.store.stats.snapshot().delta(before)

        more = [{**r, "fid": r["fid"] + 10_000} for r in base]
        engine.insert("t", more)
        engine.table("t").flush()
        engine.store.clear_caches()
        before = engine.store.stats.snapshot()
        engine.spatial_range_query("t", env)
        second = engine.store.stats.snapshot().delta(before)
        assert second.result_bytes > 1.5 * first.result_bytes


class TestTableIII_StorageSettings:
    """Traj uses XZ2 + XZ2T on the MBR; Order uses Z2 + Z2T."""

    def test_default_settings_match_table3(self, small_trajs):
        engine = JustEngine()
        traj = engine.create_plugin_table("traj", "trajectory")
        assert set(traj.strategies) == {"xz2", "xz2t"}
        order = engine.create_table("orders", Schema(
            list(POI_SCHEMA_FIELDS)))
        assert set(order.strategies) == {"z2", "z2t"}
        # Z2T/XZ2T default period is a day (Section VIII-A).
        assert traj.strategies["xz2t"].period is TimePeriod.DAY
        assert order.strategies["z2t"].period is TimePeriod.DAY

    def test_trajectory_indexed_by_mbr_and_start_time(self, small_trajs):
        engine = JustEngine()
        table = engine.create_plugin_table("traj", "trajectory")
        trajectory = small_trajs[0]
        table.insert_trajectories([trajectory])
        row = table.get(trajectory.tid)
        # The MBR of the series as stored (1e-6 degree ticks).
        assert table.record_envelope(row) == \
            trajectory.series.as_stored().envelope
        assert table.record_time_extent(row) == pytest.approx(
            (trajectory.start_time, trajectory.end_time))
