"""The range paths read through the store's one scan primitive.

``CommonTable._range_chunks`` decodes the region-local lists of
``KVTable.scan_batches``.  The composition it replaced — the pair walk
of one scan, cut into 256-pair chunks across regions, each pair decoded
by ``decode_row`` — lives on as ``tests/oracles.py::
range_chunks_reference``.  Twin runs of ``query``, ``query_batches``,
``knn_query`` and ``attribute_query`` over one engine (the block caches
restored between them) must agree on the rows, the ``IOStats`` deltas,
the block-cache LRU order and ``SimJob.breakdown``: on tables split
over many regions, on XZ2 keys behind a key filter, from followers, and
with a dead region skipped under ``partial_results``.
"""

from functools import partial

import pytest
from hypothesis import given, settings, strategies as st

from conftest import POI_SCHEMA_FIELDS, cache_state, make_poi_rows, restore
from oracles import range_chunks_reference
from repro import JustEngine, Schema
from repro.core.knn import knn_query
from repro.core.plugins import TrajectoryPlugin
from repro.core.query import STQuery
from repro.datagen import generate_traj_dataset
from repro.geometry import Envelope
from repro.kvstore import SyncPolicy
from repro.resilience import RequestContext


def _load(engine):
    """A point table with an attribute index and a trajectory table
    (XZ2/XZ2T keys, scanned behind a key filter)."""
    engine.create_table("poi", Schema(POI_SCHEMA_FIELDS),
                        userdata={"just.attribute.indices": "name"})
    engine.insert("poi", make_poi_rows(600, seed=3))
    trips = engine.create_plugin_table("trips", "trajectory")
    trips.insert_rows([TrajectoryPlugin.row_of(trip) for trip in
                       generate_traj_dataset(60, 30, seed=3)])
    if engine.store.replication is not None:
        engine.store.replication.tick()  # followers caught up
    return engine


@pytest.fixture(scope="module")
def engine():
    return _load(JustEngine(num_servers=3, split_bytes=4 * 1024,
                            flush_bytes=1024, wal_policy=SyncPolicy.SYNC,
                            replication_factor=2))


def twin(engine, table, run, make_ctx=RequestContext):
    """``run(job, ctx)`` through the store's lists, then through the
    reference composition, from one cache state: what each returned,
    charged, left in the caches and reported skipped."""
    caches = engine.store._caches
    start = cache_state(caches)
    observed = []
    for reference in (True, False):
        restore(caches, start)
        if reference:
            table._range_chunks = partial(range_chunks_reference, table)
        job, ctx = engine.cluster.job(), make_ctx()
        before = engine.store.stats.snapshot()
        try:
            out = run(job, ctx)
        finally:
            table.__dict__.pop("_range_chunks", None)
        observed.append((out, engine.store.stats.snapshot().delta(before),
                         job.breakdown, cache_state(caches),
                         ctx.skipped_report))
    assert observed[1] == observed[0]
    return observed[0]


def _window(table, box, times):
    data, (t_lo, t_hi) = table.data_envelope, table.time_extent
    xs = sorted(data.min_lng + f * data.width for f in box[:2])
    ys = sorted(data.min_lat + f * data.height for f in box[2:])
    envelope = Envelope(xs[0], ys[0], xs[1], ys[1])
    if times is None:
        return STQuery(envelope)
    lo, hi = sorted(t_lo + f * (t_hi - t_lo) for f in times)
    return STQuery(envelope, lo, hi)


def _api(name, table, query, point, k, value):
    """One range path as ``run(job, ctx)``, returning what it hands out."""
    if name == "query":
        return lambda job, ctx: table.query(query, "intersects", job,
                                            ctx=ctx)
    if name == "query_batches":
        return lambda job, ctx: [
            list(batch.iter_rows()) for batch in table.query_batches(
                query, "intersects", job, ctx=ctx)]
    if name == "knn":
        return lambda job, ctx: knn_query(table, *point, k, job, ctx=ctx)
    return lambda job, ctx: table.attribute_query("name", value, job, ctx)


fractions = st.floats(0.0, 1.0)


class TestSameAsThePairPath:
    @settings(max_examples=120, deadline=None)
    @given(api=st.sampled_from(["query", "query_batches", "knn",
                                "attribute"]),
           table_name=st.sampled_from(["poi", "trips"]),
           box=st.tuples(fractions, fractions, fractions, fractions),
           times=st.none() | st.tuples(fractions, fractions),
           point=st.tuples(fractions, fractions), k=st.integers(1, 40),
           value=st.sampled_from(["poi3", "poi7", "nobody"]),
           read_mode=st.sampled_from(["primary", "follower"]),
           cold=st.booleans())
    def test_rows_reads_and_sim_time(self, engine, api, table_name, box,
                                     times, point, k, value, read_mode,
                                     cold):
        if api == "attribute":
            table_name = "poi"
        table = engine.table(table_name)
        data = table.data_envelope
        point = (data.min_lng + point[0] * data.width,
                 data.min_lat + point[1] * data.height)
        if cold:
            engine.store.clear_caches()
        twin(engine, table,
             _api(api, table, _window(table, box, times), point, k, value),
             lambda: RequestContext(read_mode=read_mode))

    def test_spans_regions_and_rejects_keys(self, engine):
        """The cases above are the ones they claim to be: lists cut at
        region ends, and a key filter turning keys away."""
        trips = engine.table("trips")
        query = _window(trips, (0.4, 0.6, 0.4, 0.6), None)
        _, delta, *_ = twin(engine, trips,
                            _api("query", trips, query, None, 0, None))
        assert delta.scan_keys_rejected > 0
        poi = engine.table("poi")
        query = _window(poi, (0.0, 1.0, 0.0, 1.0), (0.0, 1.0))
        rows, *_ = twin(engine, poi,
                        _api("query", poi, query, None, 0, None))
        assert len(rows) == 600
        strategy, _ = engine._plan(poi, query)
        assert poi._index_tables[strategy].num_regions > 3


class TestPartialResults:
    def test_a_dead_region_is_skipped_alike(self):
        engine = _load(JustEngine(num_servers=3, split_bytes=4 * 1024,
                                  flush_bytes=1024))
        poi = engine.table("poi")
        query = _window(poi, (0.0, 1.0, 0.0, 1.0), (0.0, 1.0))
        strategy, _ = engine._plan(poi, query)
        regions = poi._index_tables[strategy].regions()
        victim = regions[len(regions) // 2].server
        engine.store.crash_server(victim, defer_failover=True)
        skipped_by = dict.fromkeys(["query", "query_batches", "knn",
                                    "attribute"], False)
        for api, value in [(api, None) for api in skipped_by if
                           api != "attribute"] + \
                [("attribute", f"poi{i}") for i in range(10)]:
            out, _, _, _, skipped = twin(
                engine, poi, _api(api, poi, query, (116.2, 39.9), 30,
                                  value),
                lambda: RequestContext(partial_results=True))
            skipped_by[api] |= bool(skipped)
            if api == "query":
                assert 0 < len(out) < 600
        assert all(skipped_by.values())
