"""I/O accounting for the simulated store."""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field, fields
from operator import attrgetter, sub


@dataclass
class IOSnapshot:
    """An immutable copy of the counters at one instant."""

    disk_bytes_read: int = 0
    disk_bytes_written: int = 0
    cache_bytes_read: int = 0
    memstore_bytes_read: int = 0
    result_bytes: int = 0
    scans_started: int = 0
    #: Live keys a scan's ``key_filter`` turned away inside the region.
    scan_keys_rejected: int = 0
    blocks_read: int = 0
    cache_hits: int = 0
    wal_bytes_written: int = 0
    wal_appends: int = 0
    wal_syncs: int = 0
    wal_bytes_replayed: int = 0
    per_server_read: dict[int, int] = field(default_factory=dict)
    #: WAL bytes (appends + replay reads) attributed to each server, so
    #: recovery benchmarks can see which log a crash actually drained.
    per_server_wal: dict[int, int] = field(default_factory=dict)

    def delta(self, earlier: "IOSnapshot") -> "IOSnapshot":
        """Counter increments between ``earlier`` and this snapshot."""
        return IOSnapshot(
            *map(sub, _counters(self), _counters(earlier)),
            {server: value - earlier.per_server_read.get(server, 0)
             for server, value in self.per_server_read.items()},
            {server: value - earlier.per_server_wal.get(server, 0)
             for server, value in self.per_server_wal.items()})


#: The scalar counters, declared once as :class:`IOSnapshot`'s leading
#: fields; :class:`IOStats`, ``delta`` and the ``kvstore.*`` metric
#: series (one per name) all follow this tuple.
COUNTERS = tuple(f.name for f in fields(IOSnapshot) if f.type == "int")
_counters = attrgetter(*COUNTERS)


class IOStats:
    """Mutable counters shared by every component of one store.

    The store owns these numbers; an engine's metrics registry reads
    them as ``kvstore.<counter>`` (see ``MetricsRegistry.expose``), so
    there is no second accounting path to keep in step.
    """

    def __init__(self) -> None:
        for name in COUNTERS:
            setattr(self, name, 0)
        self.per_server_read: dict[int, int] = defaultdict(int)
        #: WAL bytes (appends + replay reads) per region server.
        self.per_server_wal: dict[int, int] = defaultdict(int)

    def record_disk_read(self, nbytes: int, server: int = 0) -> None:
        self.disk_bytes_read += nbytes
        self.blocks_read += 1
        self.per_server_read[server] += nbytes

    def record_cache_read(self, nbytes: int) -> None:
        self.cache_bytes_read += nbytes
        self.cache_hits += 1

    def record_disk_write(self, nbytes: int) -> None:
        self.disk_bytes_written += nbytes

    def record_memstore_read(self, nbytes: int) -> None:
        self.memstore_bytes_read += nbytes

    def record_result(self, nbytes: int) -> None:
        self.result_bytes += nbytes

    def record_scan(self) -> None:
        self.scans_started += 1

    def record_key_rejected(self, count: int = 1) -> None:
        self.scan_keys_rejected += count

    def record_wal_append(self, nbytes: int, server: int = 0,
                          records: int = 1) -> None:
        self.wal_bytes_written += nbytes
        self.wal_appends += records
        self.per_server_wal[server] += nbytes

    def record_wal_sync(self) -> None:
        self.wal_syncs += 1

    def record_wal_replay(self, nbytes: int, server: int = 0) -> None:
        self.wal_bytes_replayed += nbytes
        self.per_server_wal[server] += nbytes

    def snapshot(self) -> IOSnapshot:
        return IOSnapshot(*_counters(self), dict(self.per_server_read),
                          dict(self.per_server_wal))

    def reset(self) -> None:
        self.__init__()
