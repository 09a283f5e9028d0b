"""In-memory spatial indexes vs brute force."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.geometry import Envelope
from repro.spatial_index import GridIndex, QuadTree, RTree


def random_points(n, seed=0):
    rng = random.Random(seed)
    return [(116.0 + rng.random(), 39.0 + rng.random(), i)
            for i in range(n)]


def random_boxes(n, seed=0):
    rng = random.Random(seed)
    out = []
    for i in range(n):
        lng = 116.0 + rng.random()
        lat = 39.0 + rng.random()
        out.append((Envelope(lng, lat, lng + rng.random() * 0.05,
                             lat + rng.random() * 0.05), i))
    return out


QUERY = Envelope(116.3, 39.3, 116.6, 39.6)


def brute_force_boxes(boxes, query):
    return {v for e, v in boxes if e.intersects(query)}


def brute_force_points(points, query):
    return {v for x, y, v in points if query.contains_point(x, y)}


class TestRTree:
    def test_range_matches_brute_force(self):
        boxes = random_boxes(500, seed=1)
        tree = RTree(boxes)
        assert set(tree.range_query(QUERY)) == \
            brute_force_boxes(boxes, QUERY)

    def test_empty_tree(self):
        tree = RTree([])
        assert tree.range_query(QUERY) == []
        assert tree.knn(0, 0, 5) == []

    def test_knn_matches_brute_force(self):
        boxes = random_boxes(300, seed=2)
        tree = RTree(boxes)
        got = tree.knn(116.5, 39.5, 10)
        ranked = sorted(
            boxes, key=lambda bv: bv[0].min_distance_to_point(116.5, 39.5))
        expected_d = [e.min_distance_to_point(116.5, 39.5)
                      for e, _v in ranked[:10]]
        # Values may tie; compare distances.
        got_d = sorted(
            next(e for e, v in boxes if v == value)
            .min_distance_to_point(116.5, 39.5) for value in got)
        assert got_d == pytest.approx(sorted(expected_d))

    def test_height_grows_logarithmically(self):
        small = RTree(random_boxes(10))
        large = RTree(random_boxes(2000))
        assert small.height <= large.height <= 4

    def test_memory_estimate_scales(self):
        assert RTree(random_boxes(1000)).memory_bytes() > \
            RTree(random_boxes(10)).memory_bytes()

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 100))
    def test_property_range_correct(self, seed):
        boxes = random_boxes(120, seed=seed)
        tree = RTree(boxes, node_capacity=4)
        assert set(tree.range_query(QUERY)) == \
            brute_force_boxes(boxes, QUERY)


class TestQuadTree:
    def make(self, points):
        tree = QuadTree(Envelope(116.0, 39.0, 117.01, 40.01),
                        leaf_capacity=16)
        for x, y, v in points:
            assert tree.insert(x, y, v)
        return tree

    def test_range_matches_brute_force(self):
        points = random_points(800, seed=3)
        tree = self.make(points)
        assert set(tree.range_query(QUERY)) == \
            brute_force_points(points, QUERY)

    def test_out_of_bounds_rejected(self):
        tree = QuadTree(Envelope(0, 0, 1, 1))
        assert not tree.insert(5.0, 5.0, "x")
        assert tree.size == 0

    def test_splitting_occurred(self):
        tree = self.make(random_points(800, seed=4))
        assert tree.node_count() > 1

    def test_max_depth_bounds_degeneracy(self):
        tree = QuadTree(Envelope(0, 0, 1, 1), leaf_capacity=1,
                        max_depth=3)
        for i in range(20):
            tree.insert(0.5, 0.5, i)  # identical points cannot split
        assert set(tree.range_query(Envelope(0.4, 0.4, 0.6, 0.6))) == \
            set(range(20))


class TestGridIndex:
    def test_range_matches_brute_force(self):
        boxes = random_boxes(400, seed=5)
        grid = GridIndex(Envelope(116.0, 39.0, 117.1, 40.1), 16, 16)
        for envelope, value in boxes:
            grid.insert(envelope, value)
        assert set(grid.range_query(QUERY)) == \
            brute_force_boxes(boxes, QUERY)

    def test_deduplication_across_cells(self):
        grid = GridIndex(Envelope(0, 0, 10, 10), 10, 10)
        wide = Envelope(1, 1, 9, 9)  # spans many cells
        grid.insert(wide, "wide")
        assert grid.range_query(Envelope(0, 0, 10, 10)) == ["wide"]

    def test_validation(self):
        with pytest.raises(ValueError):
            GridIndex(Envelope(0, 0, 1, 1), 0, 5)

    def test_occupied_cells(self):
        grid = GridIndex(Envelope(0, 0, 10, 10), 10, 10)
        grid.insert(Envelope.of_point(0.5, 0.5), "a")
        assert grid.occupied_cells() == 1

