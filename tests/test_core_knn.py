"""k-NN query (Algorithm 1) vs brute force."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.knn import knn_query
from repro.errors import ExecutionError
from repro.geometry import Envelope

from conftest import make_poi_rows


def brute_force(rows, lng, lat, k):
    ranked = sorted(rows, key=lambda r: ((r["geom"].lng - lng) ** 2
                                         + (r["geom"].lat - lat) ** 2))
    return [r["fid"] for r in ranked[:k]]


class TestKNN:
    def test_matches_brute_force(self, poi_engine, poi_rows):
        table = poi_engine.table("poi")
        result = knn_query(table, 116.25, 39.9, 10)
        assert {r["fid"] for r in result.rows} == \
            set(brute_force(poi_rows, 116.25, 39.9, 10))

    def test_distances_sorted(self, poi_engine):
        table = poi_engine.table("poi")
        result = knn_query(table, 116.25, 39.9, 25)
        assert result.distances == sorted(result.distances)

    def test_k_larger_than_dataset(self, poi_engine):
        table = poi_engine.table("poi")
        result = knn_query(table, 116.25, 39.9, 10_000)
        assert len(result.rows) == 500

    def test_query_point_outside_data(self, poi_engine, poi_rows):
        table = poi_engine.table("poi")
        result = knn_query(table, 116.9, 40.3, 5)
        assert {r["fid"] for r in result.rows} == \
            set(brute_force(poi_rows, 116.9, 40.3, 5))

    def test_pruning_happens(self, poi_engine):
        table = poi_engine.table("poi")
        result = knn_query(table, 116.25, 39.9, 5)
        assert result.areas_pruned > 0

    def test_invalid_k(self, poi_engine):
        with pytest.raises(ExecutionError):
            knn_query(poi_engine.table("poi"), 116.25, 39.9, 0)

    def test_explicit_search_area(self, poi_engine, poi_rows):
        table = poi_engine.table("poi")
        area = Envelope(116.0, 39.8, 116.5, 40.1)
        result = knn_query(table, 116.25, 39.9, 3, search_area=area)
        assert {r["fid"] for r in result.rows} == \
            set(brute_force(poi_rows, 116.25, 39.9, 3))

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 1000), k=st.integers(1, 30))
    def test_property_matches_brute_force(self, poi_engine_factory,
                                          seed, k):
        engine, rows = poi_engine_factory
        rng = random.Random(seed)
        lng = 116.0 + rng.random() * 0.5
        lat = 39.8 + rng.random() * 0.3
        table = engine.table("poi")
        result = knn_query(table, lng, lat, k)
        expected = brute_force(rows, lng, lat, k)
        # Sets compare (ties at equal distance may reorder).
        got_d = result.distances
        exp_d = sorted(((r["geom"].lng - lng) ** 2
                        + (r["geom"].lat - lat) ** 2) ** 0.5
                       for r in rows)[:k]
        assert got_d == pytest.approx(exp_d)
        del expected


@pytest.fixture(scope="module")
def poi_engine_factory():
    from repro import JustEngine, Schema
    from conftest import POI_SCHEMA_FIELDS
    engine = JustEngine()
    rows = make_poi_rows(300, seed=23)
    engine.create_table("poi", Schema(list(POI_SCHEMA_FIELDS)))
    engine.insert("poi", rows)
    return engine, rows
