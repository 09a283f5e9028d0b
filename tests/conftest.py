"""Shared fixtures: a small engine and deterministic datasets."""

from __future__ import annotations

import random

import pytest

from repro import JustEngine, Point, Schema, Field, FieldType
from repro.datagen import generate_order_dataset, generate_traj_dataset
from repro.sql.parser import _Parser

POI_SCHEMA_FIELDS = [
    Field("fid", FieldType.INTEGER, primary_key=True),
    Field("name", FieldType.STRING),
    Field("time", FieldType.DATE),
    Field("geom", FieldType.POINT),
]

#: Default spatio-temporal extent of the fixture points.
T0 = 1_500_000_000.0


def make_poi_rows(n: int = 500, seed: int = 11) -> list[dict]:
    rng = random.Random(seed)
    return [{
        "fid": i,
        "name": f"poi{i % 10}",
        "time": T0 + rng.random() * 86400 * 5,
        "geom": Point(116.0 + rng.random() * 0.5,
                      39.8 + rng.random() * 0.3),
    } for i in range(n)]


def all_rows(table) -> list[dict]:
    """Every row of ``table``, in its id-table key order: its full scan's
    batches, flattened."""
    return [row for batch in table.full_scan_batches()
            for row in batch.iter_rows()]


def parse_expression(text: str):
    """``text`` parsed as one JustQL expression and nothing more."""
    parser = _Parser(text)
    expr = parser._parse_expr()
    parser.expect_end()
    return expr


def cache_state(caches):
    """What twin runs over one store restore between them: each block
    cache's entries in LRU order, and its byte counts."""
    return [(list(cache._entries.items()), cache.used_bytes,
             cache.evicted_bytes) for cache in caches]


def restore(caches, state):
    """Put the block caches back to a :func:`cache_state`."""
    for cache, (entries, used, evicted) in zip(caches, state):
        cache._entries.clear()
        cache._entries.update(entries)
        cache._used = used
        cache.evicted_bytes = evicted


def on_the_stored_grid(points) -> list[tuple]:
    """``(lng, lat, t)`` samples quantized to what the ``st_series``
    codec stores (1e-6 degree, 1 ms): what a decode hands back, and the
    exact geometry an oracle must test."""
    return [(round(x * 1e6) / 1e6, round(y * 1e6) / 1e6,
             round(t * 1000.0) / 1000.0) for x, y, t in points]


@pytest.fixture
def engine() -> JustEngine:
    return JustEngine()


@pytest.fixture
def poi_rows() -> list[dict]:
    return make_poi_rows()


@pytest.fixture
def poi_engine(engine, poi_rows) -> JustEngine:
    """An engine with a populated point table named ``poi``."""
    engine.create_table("poi", Schema(list(POI_SCHEMA_FIELDS)))
    engine.insert("poi", poi_rows)
    return engine


@pytest.fixture(scope="session")
def small_orders() -> list[dict]:
    return generate_order_dataset(2_000, seed=7)


@pytest.fixture(scope="session")
def small_trajs():
    return generate_traj_dataset(40, 80, seed=7)


@pytest.fixture
def decompress_calls(monkeypatch) -> list:
    """One entry per ``decompress_bytes`` call the row codec makes."""
    from repro.core import codec
    calls: list = []
    real = codec.decompress_bytes

    def counting(data, method):
        calls.append(method)
        return real(data, method)
    monkeypatch.setattr(codec, "decompress_bytes", counting)
    return calls


@pytest.fixture
def gps_points_built(monkeypatch) -> list:
    """One entry per ``GPSPoint`` constructed, by anyone; ``clear()`` it
    after set-up and assert on what the code under test added."""
    from repro.trajectory import GPSPoint
    built: list = []
    real = GPSPoint.__init__

    def counting(self, *args, **kwargs):
        built.append(1)
        real(self, *args, **kwargs)
    monkeypatch.setattr(GPSPoint, "__init__", counting)
    return built
