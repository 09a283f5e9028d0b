"""Baseline systems: correctness, capabilities, cost shapes, OOM."""

import pytest

from repro.baselines import (
    FEATURE_MATRIX,
    GeoSpark,
    LocationSpark,
    Simba,
    SpatialHadoop,
    SpatialSpark,
    STHadoop,
    feature_table,
)
from repro.baselines.base import items_from_orders, items_from_trajectories
from repro.cluster import Cluster
from repro.errors import (
    SimulatedOutOfMemoryError,
    UnsupportedOperationError,
)
from repro.geometry import Envelope

ALL_SYSTEMS = (Simba, GeoSpark, SpatialSpark, LocationSpark,
               SpatialHadoop, STHadoop)

QUERY = Envelope(116.2, 39.8, 116.4, 40.0)


def big_cluster():
    return Cluster(memory_budget_bytes=10 ** 13)


@pytest.fixture(scope="module")
def order_items(small_orders):
    return items_from_orders(small_orders)


@pytest.fixture(scope="module")
def traj_items(small_trajs):
    return items_from_trajectories(small_trajs)


class TestCorrectness:
    @pytest.mark.parametrize("cls", ALL_SYSTEMS)
    def test_spatial_range_exact(self, cls, order_items):
        system = cls(big_cluster())
        system.load(order_items)
        expected = {i.fid for i in order_items
                    if i.envelope.intersects(QUERY)}
        got = {i.fid for i in system.spatial_range_query(QUERY).items}
        assert got == expected

    @pytest.mark.parametrize("cls", ALL_SYSTEMS)
    def test_trajectory_mbr_range(self, cls, traj_items):
        system = cls(big_cluster())
        system.load(traj_items)
        expected = {i.fid for i in traj_items
                    if i.envelope.intersects(QUERY)}
        got = {i.fid for i in system.spatial_range_query(QUERY).items}
        assert got == expected

    @pytest.mark.parametrize("cls", [c for c in ALL_SYSTEMS
                                     if c.supports_knn])
    def test_knn_distances(self, cls, order_items):
        system = cls(big_cluster())
        system.load(order_items)
        k = 20
        got = system.knn(116.3, 39.9, k).items
        assert len(got) == k
        ranked = sorted(order_items, key=lambda i: i.envelope
                        .min_distance_to_point(116.3, 39.9))
        expected_d = [i.envelope.min_distance_to_point(116.3, 39.9)
                      for i in ranked[:k]]
        got_d = [i.envelope.min_distance_to_point(116.3, 39.9)
                 for i in got]
        assert got_d == pytest.approx(expected_d)

    def test_st_hadoop_temporal_filter(self, order_items):
        system = STHadoop(big_cluster())
        system.load(order_items)
        t_lo = min(i.t_min for i in order_items)
        t_hi = t_lo + 86400 * 7
        got = {i.fid for i in
               system.st_range_query(QUERY, t_lo, t_hi).items}
        expected = {i.fid for i in order_items
                    if i.envelope.intersects(QUERY)
                    and i.t_max >= t_lo and i.t_min <= t_hi}
        assert got == expected


class TestCapabilities:
    def test_spatialspark_no_knn(self, order_items):
        system = SpatialSpark(big_cluster())
        system.load(order_items)
        with pytest.raises(UnsupportedOperationError):
            system.knn(116.3, 39.9, 5)

    @pytest.mark.parametrize("cls", [Simba, GeoSpark, SpatialSpark,
                                     LocationSpark, SpatialHadoop])
    def test_no_st_support(self, cls, order_items):
        system = cls(big_cluster())
        system.load(order_items)
        with pytest.raises(UnsupportedOperationError):
            system.st_range_query(QUERY, 0.0, 1.0)


class TestCostShapes:
    def test_hadoop_queries_dominated_by_job_launch(self, order_items):
        hadoop = SpatialHadoop(big_cluster())
        hadoop.load(order_items)
        spark = Simba(big_cluster())
        spark.load(order_items)
        assert hadoop.spatial_range_query(QUERY).sim_ms > \
            10 * spark.spatial_range_query(QUERY).sim_ms

    def test_hadoop_indexing_much_slower(self, order_items):
        hadoop_job = SpatialHadoop(big_cluster()).load(order_items)
        spark_job = Simba(big_cluster()).load(order_items)
        assert hadoop_job.elapsed_ms > 5 * spark_job.elapsed_ms

    def test_geospark_visits_all_partitions(self, order_items):
        geospark = GeoSpark(big_cluster())
        geospark.load(order_items)
        tiny = Envelope(116.30, 39.90, 116.301, 39.901)
        assert len(geospark._candidate_partitions(tiny,
                                                  geospark.cluster.job())) \
            == len(geospark.partitions)
        simba = Simba(big_cluster())
        simba.load(order_items)
        assert len(simba._candidate_partitions(tiny,
                                               simba.cluster.job())) < \
            len(simba.partitions)


class TestMemoryBudget:
    """The OOM crossovers of Section VIII (Figures 10d/11b/13b)."""

    def budget_for(self, traj_items):
        return int(0.9 * sum(i.raw_bytes for i in traj_items))

    def fraction(self, traj_items, percent):
        count = int(len(traj_items) * percent / 100)
        return traj_items[:count]

    @pytest.mark.parametrize("cls,percent,expect_oom", [
        (LocationSpark, 20, True),
        (Simba, 20, False),
        (Simba, 40, True),
        (SpatialSpark, 80, False),
        (SpatialSpark, 100, True),
        (GeoSpark, 100, False),
    ])
    def test_paper_oom_points(self, traj_items, cls, percent, expect_oom):
        cluster = Cluster(memory_budget_bytes=self.budget_for(traj_items))
        system = cls(cluster)
        subset = self.fraction(traj_items, percent)
        if expect_oom:
            with pytest.raises(SimulatedOutOfMemoryError):
                system.load(subset)
        else:
            system.load(subset)
            assert system.loaded

    def test_hadoop_never_ooms(self, traj_items):
        cluster = Cluster(memory_budget_bytes=1)  # essentially no memory
        system = SpatialHadoop(cluster)
        system.load(traj_items)  # disk-based: fine
        assert system.loaded

    def test_unload_releases_memory(self, traj_items):
        cluster = Cluster(memory_budget_bytes=self.budget_for(traj_items))
        system = GeoSpark(cluster)
        system.load(traj_items)
        system.unload()
        assert cluster.memory_in_use == 0


class TestRegistry:
    def test_twelve_systems(self):
        assert len(FEATURE_MATRIX) == 12
        assert [f.name for f in FEATURE_MATRIX][0] == "JUST"

    def test_feature_rows(self):
        rows = feature_table()
        just = rows[0]
        assert just["data_update"] == "Yes"
        assert just["s_or_st"] == "S/ST"
        sthadoop = next(r for r in rows if r["system"] == "ST-Hadoop")
        assert sthadoop["data_update"] == "Limited"

