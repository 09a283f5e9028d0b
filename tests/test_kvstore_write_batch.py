"""Oracle: one N-mutation write batch has exactly the effect of N puts.

``KVStore.write_batch`` cuts a batch into chunks at predicted splits and
each region's share of a chunk into segments at flushes, then writes
each segment as one WAL group commit and one replica ship (DESIGN
§7.1).  Hypothesis draws puts and deletes over a salted and a presplit
table on three servers with tiny flush, split and group-commit sizes,
under every sync policy and replication factors 1 and 3, and applies
them to twin stores: as one batch, and one mutation at a time.
Everything but the number of WAL syncs must come out the same —
contents, region boundaries and placement, SSTable runs,
flush/compaction/split events, I/O counters — and the syncs may only
fall.  Every live follower then holds its primary's memstore, and after
a crash and failover every key still reads as its last write.  A batch
that fails partway reports exactly the mutations that landed.
"""

import random

from hypothesis import given, settings, strategies as st

from repro.errors import ReplicationQuorumError
from repro.faults import FaultInjector, FaultPlan, PartitionedFollower
from repro.kvstore import KVStore, ScanSpec, SyncPolicy
from repro.kvstore.iostats import COUNTERS
from repro.observability.events import EventLog
from repro.replication.replica import LIVE

_SERVERS = 3


def _batch(seed: int, count: int, keys: int, max_value: int,
           delete_share: float) -> list:
    """``count`` seeded ``(table, key, value-or-None)`` draws: repeated
    keys, mixed value sizes, a share of deletes."""
    rng = random.Random(seed)
    return [(rng.choice(("salted", "presplit")),
             b"k%03d" % rng.randrange(keys),
             None if rng.random() < delete_share
             else rng.randbytes(rng.randint(0, max_value)))
            for _ in range(count)]


def _store(policy, factor, flush_bytes, split_bytes, periodic) -> KVStore:
    store = KVStore(num_servers=_SERVERS, wal_policy=policy,
                    flush_bytes=flush_bytes, split_bytes=split_bytes,
                    block_bytes=64, wal_periodic_bytes=periodic,
                    events=EventLog(capacity=100_000),
                    replication_factor=factor)
    store.create_table("salted", salt_buckets=3)
    store.create_table("presplit", presplit=3)
    store.initial_region_ids = [region.region_id
                                for table in store.tables()
                                for region in table.regions()]
    return store


def _regions(store):
    """Every region: (table, start, end, server, SSTable key lists)."""
    return [(table.name, region.start_key, region.end_key, region.server,
             [[key for key, _ in sstable.entries()]
              for sstable in region.sstables])
            for table in store.tables() for region in table.regions()]


def _events(store):
    """Flush and compaction events per region (in that region's order)
    and the split events in global order.  Region ids come from one
    process-wide counter, so each is replaced by its rank in the store's
    creation order: the initial regions, then each split's daughters."""
    events = store.events.events()
    created = list(store.initial_region_ids)
    for event in events:
        if event.kind == "split":
            created += [event.left_region_id, event.right_region_id]
    rank = {region_id: i for i, region_id in enumerate(created)}
    per_region: dict[int, list] = {}
    splits = []
    for event in events:
        if event.kind == "flush":
            per_region.setdefault(rank[event.region_id], []).append(
                ("flush", event.server, event.bytes_flushed,
                 event.entries))
        elif event.kind == "compaction":
            per_region.setdefault(rank[event.region_id], []).append(
                ("compaction", event.server, event.runs,
                 event.read_bytes, event.bytes_after))
        elif event.kind == "split":
            splits.append((event.table, rank[event.region_id],
                           event.server, event.split_key))
    return per_region, splits


def _contents(store):
    return {table.name: list(table.scan(ScanSpec.full()))
            for table in store.tables()}


def _followers_match(store, drained: bool) -> None:
    """Every LIVE follower with nothing queued holds its primary's
    memstore (``drained``: every LIVE follower must have nothing
    queued)."""
    replication = store.replication
    for table in store.tables():
        for region in table.regions():
            for follower in replication.followers(region.region_id):
                if follower.state != LIVE:
                    continue
                if drained:
                    assert not follower.pending
                elif follower.pending:
                    continue
                assert list(follower.memstore.items_sorted()) == \
                    list(region.memstore.items_sorted())


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2 ** 32),
       count=st.integers(0, 300),
       keys=st.integers(1, 60),
       max_value=st.integers(0, 64),
       delete_share=st.sampled_from([0.0, 0.1, 0.3]),
       policy=st.sampled_from(list(SyncPolicy)),
       factor=st.sampled_from([1, 3]),
       flush_bytes=st.integers(40, 400),
       split_bytes=st.integers(150, 1500),
       periodic=st.integers(30, 400),
       victim=st.integers(0, _SERVERS - 1))
def test_a_write_batch_equals_one_mutation_at_a_time(
        seed, count, keys, max_value, delete_share, policy, factor,
        flush_bytes, split_bytes, periodic, victim):
    batch = _batch(seed, count, keys, max_value, delete_share)
    batched = _store(policy, factor, flush_bytes, split_bytes, periodic)
    single = _store(policy, factor, flush_bytes, split_bytes, periodic)

    batched.write_batch([(batched.table(name), key, value)
                         for name, key, value in batch])
    for name, key, value in batch:
        if value is None:
            single.table(name).delete(key)
        else:
            single.table(name).put(key, value)

    got, want = batched.stats.snapshot(), single.stats.snapshot()
    for name in COUNTERS:
        if name == "wal_syncs":
            assert getattr(got, name) <= getattr(want, name)
        else:
            assert getattr(got, name) == getattr(want, name), name
    assert got.per_server_wal == want.per_server_wal
    assert _regions(batched) == _regions(single)
    assert _events(batched) == _events(single)
    assert _contents(batched) == _contents(single)
    if factor > 1:
        _followers_match(batched, drained=False)
        batched.replication.tick()
        _followers_match(batched, drained=True)

    # Durability: once the logs are synced (a no-op under SYNC), a crash
    # and failover of any server keeps the last write to every key.
    last = {(name, key): value for name, key, value in batch}
    batched.sync_wals()
    batched.crash_server(victim)
    for (name, key), value in last.items():
        assert batched.table(name).get(key) == value


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32),
       count=st.integers(1, 200),
       flush_bytes=st.integers(40, 400),
       split_bytes=st.integers(150, 1500),
       after_ships=st.integers(0, 150))
def test_a_failed_batch_names_the_mutations_that_landed(
        seed, count, flush_bytes, split_bytes, after_ships):
    """Under ``SYNC`` a follower partition fails a segment's quorum
    partway through a batch.  The error's ``landed`` lists exactly the
    mutations that took effect (each key is written once, so a mutation
    took effect iff its key reads back its value)."""
    rng = random.Random(seed)
    store = _store(SyncPolicy.SYNC, 3, flush_bytes, split_bytes, 64)
    batch = [(store.table(rng.choice(("salted", "presplit"))),
              b"k%03d" % i, rng.randbytes(rng.randint(1, 48)))
             for i in range(count)]
    FaultInjector(FaultPlan(
        [PartitionedFollower(s, after_ships=after_ships)
         for s in range(_SERVERS)])).attach(store)
    try:
        store.write_batch(batch)
        landed = list(range(count))
    except ReplicationQuorumError as exc:
        landed = exc.landed
    store.fault_injector = None
    assert landed == [i for i, (table, key, value) in enumerate(batch)
                      if table.get(key) == value]
