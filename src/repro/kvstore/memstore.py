"""The in-memory write buffer of a region."""

from __future__ import annotations

from bisect import insort

from repro.kvstore.scan import seek_spans

#: Sentinel value marking a deleted key until compaction discards it.
TOMBSTONE = None


class MemStore:
    """Sorted in-memory key-value buffer.

    Writes are absorbed here and flushed to an SSTable once
    ``size_bytes`` crosses the region's flush threshold.  Deletions are
    tombstones so they can mask older SSTable entries during merges.
    """

    def __init__(self) -> None:
        self._data: dict[bytes, bytes | None] = {}
        self._sorted_keys: list[bytes] = []
        self.size_bytes = 0

    def put(self, key: bytes, value: bytes | None) -> None:
        """Insert or overwrite ``key``; ``None`` writes a tombstone."""
        if key in self._data:
            old = self._data[key]
            self.size_bytes -= len(key) + (len(old) if old is not None else 0)
        else:
            insort(self._sorted_keys, key)
        self._data[key] = value
        self.size_bytes += len(key) + (len(value) if value is not None else 0)

    def entry_bytes(self, key: bytes) -> int:
        """What ``key``'s entry adds to ``size_bytes`` (0 when absent)."""
        if key not in self._data:
            return 0
        value = self._data[key]
        return len(key) + (len(value) if value is not None else 0)

    def get(self, key: bytes) -> tuple[bool, bytes | None]:
        """``(found, value)``; found tombstones return ``(True, None)``."""
        if key in self._data:
            return True, self._data[key]
        return False, None

    def spans(self, ranges):
        """Yield ``(keys, values)`` of each span of keys in ``ranges``
        (sorted, disjoint half-open bounds), found in one forward pass
        that seeks past the ranges holding no key (:func:`seek_spans`).
        ``values`` holds tombstones as ``None``; both lists are copies."""
        keys = self._sorted_keys
        value_of = self._data.__getitem__
        for lo, hi in seek_spans(keys, ranges):
            span = keys[lo:hi]
            yield span, list(map(value_of, span))

    def items_sorted(self):
        """All entries in key order (used by flush)."""
        for key in self._sorted_keys:
            yield key, self._data[key]

    def clear(self) -> None:
        self._data.clear()
        self._sorted_keys.clear()
        self.size_bytes = 0

    def __len__(self) -> int:
        return len(self._data)
