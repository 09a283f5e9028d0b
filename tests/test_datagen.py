"""Dataset generators: determinism, shape, statistics."""

import pytest

from repro.datagen import (
    dataset_statistics,
    generate_order_dataset,
    generate_synthetic_dataset,
    generate_traj_dataset,
)
from repro.datagen.ordergen import ORDER_TIME_END, ORDER_TIME_START
from repro.datagen.trajgen import AREA, TRAJ_TIME_END, TRAJ_TIME_START
from repro.datagen.synthetic import SYNTHETIC_TIME_END


class TestTrajGenerator:
    def test_deterministic(self):
        a = generate_traj_dataset(5, 50, seed=42)
        b = generate_traj_dataset(5, 50, seed=42)
        assert [t.tid for t in a] == [t.tid for t in b]
        assert a[0].points == b[0].points

    def test_seed_changes_data(self):
        a = generate_traj_dataset(5, 50, seed=1)
        b = generate_traj_dataset(5, 50, seed=2)
        assert a[0].points != b[0].points

    def test_within_area_and_time_span(self):
        for trajectory in generate_traj_dataset(10, 60, seed=3):
            for p in trajectory.points:
                assert AREA[0] <= p.lng <= AREA[2]
                assert AREA[1] <= p.lat <= AREA[3]
            assert trajectory.start_time >= TRAJ_TIME_START
            assert trajectory.end_time <= TRAJ_TIME_END + 86400

    def test_time_monotone(self):
        for trajectory in generate_traj_dataset(5, 60, seed=4):
            times = [p.time for p in trajectory.points]
            assert times == sorted(times)

    def test_plausible_speeds(self):
        for trajectory in generate_traj_dataset(5, 80, seed=5):
            for a, b in zip(trajectory.points, trajectory.points[1:]):
                assert a.speed_to_mps(b) < 60.0  # under 216 km/h


class TestOrderGenerator:
    def test_deterministic(self):
        assert generate_order_dataset(100, seed=9) == \
            generate_order_dataset(100, seed=9)

    def test_schema_and_ranges(self):
        rows = generate_order_dataset(200, seed=9)
        assert len(rows) == 200
        for row in rows:
            assert set(row) == {"fid", "time", "geom", "amount",
                                "category"}
            assert ORDER_TIME_START <= row["time"] <= ORDER_TIME_END
            assert row["amount"] > 0

    def test_spatial_skew(self):
        """Hotspots make the distribution non-uniform: the densest small
        cell should hold far more than the uniform share."""
        rows = generate_order_dataset(3000, seed=9)
        from collections import Counter
        cells = Counter((round(r["geom"].lng, 2), round(r["geom"].lat, 2))
                        for r in rows)
        densest = cells.most_common(1)[0][1]
        uniform_share = 3000 / (80 * 60)  # area is 0.8 x 0.6 degrees
        assert densest > 10 * uniform_share


class TestSynthetic:
    def test_multiplier_scales_count(self, small_trajs):
        doubled = generate_synthetic_dataset(small_trajs, 2)
        assert len(doubled) == 2 * len(small_trajs)

    def test_ids_unique(self, small_trajs):
        synthetic = generate_synthetic_dataset(small_trajs, 3)
        tids = [t.tid for t in synthetic]
        assert len(set(tids)) == len(tids)

    def test_copies_spread_over_extended_span(self, small_trajs):
        synthetic = generate_synthetic_dataset(small_trajs, 4)
        latest = max(t.end_time for t in synthetic)
        base_latest = max(t.end_time for t in small_trajs)
        assert latest > base_latest
        assert latest <= SYNTHETIC_TIME_END + 86400 * 30

    def test_multiplier_validation(self, small_trajs):
        with pytest.raises(ValueError):
            generate_synthetic_dataset(small_trajs, 0)


class TestStatistics:
    def test_table2_rows(self, small_trajs, small_orders):
        stats = dataset_statistics(trajectories=small_trajs,
                                   orders=small_orders,
                                   synthetic=generate_synthetic_dataset(
                                       small_trajs, 2))
        names = [s.name for s in stats]
        assert names == ["Traj", "Order", "Synthetic"]
        traj, order, synthetic = stats
        assert traj.num_points == sum(len(t.points) for t in small_trajs)
        assert traj.num_records == len(small_trajs)
        assert order.num_points == order.num_records == len(small_orders)
        assert synthetic.num_points == pytest.approx(2 * traj.num_points,
                                                     rel=0.01)
        assert traj.raw_size_bytes > 0
