"""MemStore behaviour: ordering, tombstones, size accounting."""

from hypothesis import given
from hypothesis import strategies as st

from repro.kvstore.memstore import MemStore


def test_put_get():
    ms = MemStore()
    ms.put(b"b", b"2")
    ms.put(b"a", b"1")
    assert ms.get(b"a") == (True, b"1")
    assert ms.get(b"missing") == (False, None)


def test_overwrite_updates_size():
    ms = MemStore()
    ms.put(b"k", b"xx")
    first = ms.size_bytes
    ms.put(b"k", b"xxxx")
    assert ms.size_bytes == first + 2
    assert len(ms) == 1


def test_tombstone_found():
    ms = MemStore()
    ms.put(b"k", b"v")
    ms.put(b"k", None)
    assert ms.get(b"k") == (True, None)


def scan(memstore, ranges):
    """The entries of ``memstore.spans``, as ``(key, value)`` pairs."""
    return [pair for keys, values in memstore.spans(ranges)
            for pair in zip(keys, values)]


def test_scan_sorted_half_open():
    ms = MemStore()
    for key in (b"d", b"a", b"c", b"b", b"e"):
        ms.put(key, key.upper())
    got = scan(ms, [(b"b", b"d")])
    assert got == [(b"b", b"B"), (b"c", b"C")]
    assert scan(ms, [(b"b", b"d\x00")]) == \
        [(b"b", b"B"), (b"c", b"C"), (b"d", b"D")]


def test_scan_empty_range():
    ms = MemStore()
    ms.put(b"a", b"1")
    assert scan(ms, [(b"x", b"z")]) == []


def test_items_sorted():
    ms = MemStore()
    for key in (b"z", b"m", b"a"):
        ms.put(key, b"v")
    assert [k for k, _v in ms.items_sorted()] == [b"a", b"m", b"z"]


def test_clear():
    ms = MemStore()
    ms.put(b"a", b"1")
    ms.clear()
    assert len(ms) == 0
    assert ms.size_bytes == 0


def _ground_truth_size(ms: MemStore) -> int:
    """Recompute size_bytes from scratch: keys plus live value bytes
    (a tombstone contributes only its key)."""
    return sum(len(k) + (len(v) if v is not None else 0)
               for k, v in ms.items_sorted())


_ops = st.lists(
    st.tuples(st.binary(min_size=1, max_size=4),
              st.one_of(st.none(), st.binary(max_size=12))),
    max_size=60)


@given(_ops)
def test_size_accounting_matches_ground_truth(ops):
    """Property audit of incremental size accounting.

    Random interleavings of puts, overwrites, and tombstones — including
    put -> delete -> put sequences on the same key — must keep the
    incrementally-maintained ``size_bytes`` equal to a recomputation
    from the live contents after every single operation.
    """
    ms = MemStore()
    for key, value in ops:
        ms.put(key, value)
        assert ms.size_bytes == _ground_truth_size(ms)
    assert ms.size_bytes == _ground_truth_size(ms)


def test_put_delete_put_size_sequence():
    # The tombstone overwrite sequence called out in the audit: the
    # tombstone drops the value's bytes but keeps charging the key, and
    # re-putting restores exactly the new value's bytes.
    ms = MemStore()
    ms.put(b"key", b"0123456789")
    assert ms.size_bytes == 3 + 10
    ms.put(b"key", None)
    assert ms.size_bytes == 3
    ms.put(b"key", b"xy")
    assert ms.size_bytes == 3 + 2
    assert len(ms) == 1
