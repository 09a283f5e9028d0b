"""Model-based testing: the KV store vs a plain dict reference model.

Random interleavings of put/delete/flush/compact/split/scan must behave
exactly like a sorted dict, across memstore/SSTable boundaries and
region splits — on a plain and on a salted table, from the primary and
from follower replicas — and one multi-range scan must return what the
single-range scans of its ranges return, one after another.
"""

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from repro.kvstore import KVStore, ScanSpec, SyncPolicy
from repro.resilience import RequestContext

keys = st.binary(min_size=1, max_size=6)
values = st.binary(min_size=0, max_size=40)


@st.composite
def range_lists(draw):
    """Sorted, disjoint half-open ranges: a subset of the gaps between
    sorted cut points (so neighbours may be adjacent), the last one
    possibly unbounded."""
    cuts = sorted(draw(st.lists(keys, min_size=2, max_size=10,
                                unique=True)))
    gaps = list(zip(cuts, cuts[1:]))
    if draw(st.booleans()):
        gaps.append((cuts[-1], None))
    return [gap for gap in gaps if draw(st.booleans())]


class KVStoreMachine(RuleBasedStateMachine):
    @initialize()
    def setup(self):
        # Tiny thresholds force frequent flushes and region splits;
        # replication gives every region followers to read from.
        self.store = KVStore(num_servers=3, flush_bytes=512,
                             split_bytes=2048, block_bytes=128,
                             wal_policy=SyncPolicy.SYNC,
                             replication_factor=3)
        self.tables = [self.store.create_table("t"),
                       self.store.create_table("s", salt_buckets=3)]
        self.table = self.tables[0]
        self.model: dict[bytes, bytes] = {}

    @rule(key=keys, value=values)
    def put(self, key, value):
        for table in self.tables:
            table.put(key, value)
        self.model[key] = value

    @rule(key=keys)
    def delete(self, key):
        for table in self.tables:
            table.delete(key)
        self.model.pop(key, None)

    @rule()
    def flush(self):
        for table in self.tables:
            table.flush()

    @rule()
    def compact(self):
        for table in self.tables:
            table.compact()

    @rule(pick=st.integers(min_value=0))
    def split(self, pick):
        for table in self.tables:
            regions = table.regions()
            table.split_region(regions[pick % len(regions)])

    @rule(key=keys)
    def get_matches_model(self, key):
        for table in self.tables:
            assert table.get(key) == self.model.get(key)

    @rule(lo=keys, hi=keys)
    def scan_matches_model(self, lo, hi):
        lo, hi = min(lo, hi), max(lo, hi)
        expected = sorted((k, v) for k, v in self.model.items()
                          if lo <= k <= hi)
        for table in self.tables:
            assert list(table.scan(
                ScanSpec(ranges=[(lo, hi + b"\x00")]))) == expected

    @rule(ranges=range_lists(),
          read_mode=st.sampled_from(["primary", "follower"]))
    def multi_range_scan_is_the_single_scans_in_a_row(self, ranges,
                                                       read_mode):
        def context():
            return RequestContext(read_mode=read_mode)

        expected = sorted(
            (k, v) for k, v in self.model.items()
            if any(start <= k and (stop is None or k < stop)
                   for start, stop in ranges))
        for table in self.tables:
            singles = [pair for bounds in ranges
                       for pair in table.scan(ScanSpec(ranges=[bounds]),
                                              context())]
            multi = list(table.scan(ScanSpec(ranges=ranges), context()))
            assert multi == singles
            # SYNC quorum writes keep the best follower caught up, so
            # either replica also agrees with the model.
            assert multi == expected

    @invariant()
    def full_scan_matches_model(self):
        for table in self.tables:
            got = list(table.scan(ScanSpec.full()))
            assert got == sorted(self.model.items())


TestKVStoreModel = KVStoreMachine.TestCase
TestKVStoreModel.settings = settings(max_examples=25,
                                     stateful_step_count=30,
                                     deadline=None)
