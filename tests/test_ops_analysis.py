"""1-1, 1-N and N-M analysis operations."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.geometry import Point, haversine_distance_m
from repro.ops import (
    dbscan,
    st_gcj02_to_wgs84,
    st_wgs84_to_gcj02,
    traj_noise_filter,
    traj_segment,
    traj_stay_points,
)
from repro.ops.analysis.dbscan import NOISE
from repro.trajectory import STSeries, Trajectory


def make_traj(points, tid="t", oid="o"):
    return Trajectory(tid, oid, STSeries(points))


class TestTransforms:
    def test_roundtrip_beijing(self):
        p = Point(116.397, 39.908)
        there = st_wgs84_to_gcj02(p)
        back = st_gcj02_to_wgs84(there)
        assert haversine_distance_m(p.lng, p.lat, back.lng, back.lat) < 5.0

    def test_time_preserved(self):
        p = Point(116.4, 39.9, time=123.0)
        assert st_wgs84_to_gcj02(p).time == 123.0


class TestNoiseFilter:
    def test_removes_single_jump(self):
        points = [(116.0, 39.9, 0.0), (116.001, 39.9, 30.0),
                  (116.5, 39.9, 60.0),        # 43 km in 30 s: noise
                  (116.002, 39.9, 90.0)]
        cleaned = traj_noise_filter(make_traj(points))
        assert len(cleaned.points) == 3
        assert all(abs(p.lng - 116.0) < 0.01 for p in cleaned.points)

    def test_keeps_clean_trajectory(self):
        points = [(116.0 + i * 0.0001, 39.9, i * 30.0) for i in range(20)]
        cleaned = traj_noise_filter(make_traj(points))
        assert len(cleaned.points) == 20

    def test_reanchors_after_streak(self):
        # The vehicle genuinely teleports (data gap): after the streak
        # limit the filter accepts the new location.
        points = [(116.0, 39.9, i * 10.0) for i in range(3)]
        points += [(117.0 + i * 1e-7, 39.9, 30.0 + i * 10.0)
                   for i in range(10)]
        cleaned = traj_noise_filter(make_traj(sorted(points,
                                                     key=lambda p: p[2])))
        assert any(p.lng > 116.9 for p in cleaned.points)

    def test_single_point(self):
        cleaned = traj_noise_filter(make_traj([(116.0, 39.9, 0.0)]))
        assert len(cleaned.points) == 1


class TestSegmentation:
    def test_time_gap_split(self):
        points = ([(116.0, 39.9, i * 10.0) for i in range(5)]
                  + [(116.0, 39.9, 10_000.0 + i * 10.0)
                     for i in range(5)])
        segments = traj_segment(make_traj(points))
        assert len(segments) == 2
        assert all(len(s.points) == 5 for s in segments)

    def test_distance_gap_split(self):
        points = [(116.0, 39.9, 0.0), (116.001, 39.9, 30.0),
                  (116.2, 39.9, 60.0), (116.201, 39.9, 90.0)]
        segments = traj_segment(make_traj(points),
                                max_distance_gap_m=1000.0)
        assert len(segments) == 2

    def test_short_segments_dropped(self):
        points = [(116.0, 39.9, 0.0),
                  (116.0, 39.9, 10_000.0),
                  (116.0, 39.9, 20_000.0)]
        segments = traj_segment(make_traj(points), min_points=2)
        assert segments == []

    def test_ids_are_ordered(self):
        points = ([(116.0, 39.9, i * 10.0) for i in range(3)]
                  + [(116.0, 39.9, 9_000.0 + i * 10.0) for i in range(3)])
        segments = traj_segment(make_traj(points, tid="T"))
        assert [s.tid for s in segments] == ["T#0", "T#1"]

    @settings(max_examples=20)
    @given(gap_count=st.integers(0, 5))
    def test_segment_count_matches_gaps(self, gap_count):
        points = []
        t = 0.0
        for g in range(gap_count + 1):
            for i in range(3):
                points.append((116.0, 39.9, t))
                t += 10.0
            t += 10_000.0  # gap
        segments = traj_segment(make_traj(points))
        assert len(segments) == gap_count + 1


class TestStayPoints:
    def test_detects_single_stay(self):
        stay = [(116.1, 39.9, i * 120.0) for i in range(15)]
        move = [(116.1 + i * 0.01, 39.9, 1800.0 + i * 60.0)
                for i in range(1, 8)]
        stays = traj_stay_points(make_traj(stay + move))
        assert len(stays) == 1
        assert stays[0].duration_s >= 20 * 60.0
        assert stays[0].num_points == 15
        assert stays[0].lng == pytest.approx(116.1, abs=1e-6)

    def test_moving_trajectory_has_no_stays(self):
        move = [(116.0 + i * 0.01, 39.9, i * 60.0) for i in range(30)]
        assert traj_stay_points(make_traj(move)) == []

    def test_brief_pause_not_a_stay(self):
        pause = [(116.1, 39.9, i * 60.0) for i in range(5)]  # 5 minutes
        move = [(116.1 + i * 0.01, 39.9, 300.0 + i * 60.0)
                for i in range(1, 8)]
        assert traj_stay_points(make_traj(pause + move)) == []

    def test_two_separate_stays(self):
        stay1 = [(116.1, 39.9, i * 120.0) for i in range(15)]
        move = [(116.1 + i * 0.02, 39.9, 1800.0 + i * 60.0)
                for i in range(1, 6)]
        stay2 = [(116.3, 39.95, 2200.0 + i * 120.0) for i in range(15)]
        stays = traj_stay_points(make_traj(stay1 + move + stay2))
        assert len(stays) == 2
        assert stays[0].leave_time <= stays[1].arrive_time


class TestDBSCAN:
    def test_two_gaussian_clusters(self):
        rng = random.Random(4)
        a = [(116.0 + rng.gauss(0, 0.002), 39.8 + rng.gauss(0, 0.002))
             for _ in range(60)]
        b = [(116.3 + rng.gauss(0, 0.002), 40.0 + rng.gauss(0, 0.002))
             for _ in range(60)]
        labels = dbscan(a + b, min_pts=5, radius=0.01)
        assert len({label for label in labels if label != NOISE}) == 2
        assert len(set(labels[:60])) == 1  # cluster a is coherent

    def test_isolated_points_are_noise(self):
        points = [(0.0, 0.0), (10.0, 10.0), (20.0, 20.0)]
        assert dbscan(points, min_pts=2, radius=0.1) == [NOISE] * 3

    def test_min_pts_one_makes_everything_core(self):
        labels = dbscan([(0.0, 0.0), (50.0, 50.0)], min_pts=1, radius=1.0)
        assert labels == [0, 1]

    def test_border_points_join_cluster(self):
        # A dense core plus one point on the rim.
        core = [(0.0, 0.0), (0.01, 0.0), (0.0, 0.01), (0.01, 0.01)]
        border = [(0.05, 0.0)]
        labels = dbscan(core + border, min_pts=4, radius=0.05)
        assert labels[-1] == labels[0]

    def test_validation(self):
        with pytest.raises(ValueError):
            dbscan([(0, 0)], min_pts=0, radius=1.0)
        with pytest.raises(ValueError):
            dbscan([(0, 0)], min_pts=1, radius=0.0)

    def test_empty_input(self):
        assert dbscan([], min_pts=3, radius=1.0) == []

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 500))
    def test_labels_partition_input(self, seed):
        rng = random.Random(seed)
        points = [(rng.uniform(0, 1), rng.uniform(0, 1))
                  for _ in range(100)]
        labels = dbscan(points, min_pts=4, radius=0.08)
        assert len(labels) == 100
        clusters = {label for label in labels if label != NOISE}
        assert clusters == set(range(len(clusters)))
