"""Index strategies: records -> sortable byte keys, queries -> key ranges.

An index strategy encodes the spatio-temporal part of a record into the
*row key* of the underlying key-value store so that a spatio-temporal query
becomes a small set of key-range SCANs.  Because a record's key depends
only on the record itself (never on other records), inserting new data or
rewriting historical data never requires index reconstruction — this is the
paper's "update-enabled" property.

Strategies provided:

* ``Z2Strategy``   — spatial points (Z-ordering).
* ``XZ2Strategy``  — spatial extended objects (XZ-ordering).
* ``Z3Strategy``   — ST points, one interleaved space-time curve per period
                     (native GeoMesa; the paper's JUSTd/JUSTy/JUSTc use this
                     with day/year/century periods).
* ``XZ3Strategy``  — ST extended objects, space-time XZ curve per period.
* ``Z2TStrategy``  — **the paper's Z2T**: per-period Z2 index (Section IV-B).
* ``XZ2TStrategy`` — **the paper's XZ2T**: per-period XZ2 index (Sec. IV-C).
* ``AttributeStrategy`` — secondary index on a scalar field.

Key layout (all integers big-endian so byte order equals numeric order)::

    [shard: 1][period: 4, biased][curve body: 8][0x00][feature id utf-8]

The curve body is the 64-bit curve value, except for XZ2/XZ2T, whose
sequence code needs 32 bits: there it is ``code:u32`` followed by the
record's MBR signature ``min_x:u8 min_y:u8 max_x:u8 max_y:u8`` (see
:class:`~repro.curves.xz.XZ2Curve`), which a scan tests against the
query window before it touches the value (:meth:`IndexStrategy.key_filter`).

The one-byte shard prefix is GeoMesa's random-prefix load-balancing trick:
records spread across ``num_shards`` contiguous key spaces (and therefore
across region servers); every query fans out one range set per shard.
"""

from __future__ import annotations

import math
import struct
from abc import ABC, abstractmethod
from dataclasses import dataclass
from functools import cached_property
from itertools import repeat
from math import floor
from operator import add
from zlib import crc32

from repro.errors import IndexError_
from repro.curves.timeperiod import (
    REF_TIME,
    TimePeriod,
    period_bin,
    period_bins_covering,
    period_start,
)
from repro.curves.xz import XZ2Curve, XZ3Curve
from repro.curves.zorder import Z2Curve, Z3Curve, interleave2, interleave3
from repro.curves.zranges import DEFAULT_MAX_RANGES, z2_ranges, z3_ranges
from repro.geometry.base import Geometry
from repro.geometry.envelope import Envelope

_PERIOD_BIAS = 1 << 31  # biased so negative bins still sort correctly
_Z2_GRID = Z2Curve()


@dataclass(frozen=True, slots=True)
class STQuery:
    """A (possibly partial) spatio-temporal range predicate."""

    envelope: Envelope | None = None
    t_min: float | None = None
    t_max: float | None = None

    @property
    def has_spatial(self) -> bool:
        return self.envelope is not None

    @property
    def has_temporal(self) -> bool:
        return self.t_min is not None and self.t_max is not None

    @property
    def is_empty(self) -> bool:
        """An inverted time window: no instant satisfies it."""
        return self.has_temporal and self.t_min > self.t_max


#: Half-open ``(start, stop)`` key bounds, the element of the store's
#: ``ScanSpec.ranges``.  The inclusive body interval ``lo..hi`` becomes
#: ``(lo, hi + _STOP_PAD)``, which sorts past every key with body ``hi``
#: (those go on with ``0x00`` and the feature id).
KeyBounds = tuple[bytes, bytes]
_STOP_PAD = b"\xff\x00"


@dataclass(frozen=True, slots=True)
class IndexedRecord:
    """The index-relevant projection of one row, what
    :meth:`IndexStrategy.key` reads (a :class:`KeyBatch` of one)."""

    fid: str
    geometry: Geometry
    t_min: float | None = None
    t_max: float | None = None


class KeyBatch:
    """The index-relevant columns of a batch of rows, what
    :meth:`IndexStrategy.keys` reads: per row its feature id, its MBR
    bounds, whether its geometry is a point and its time extent
    (``None`` for a row without one).

    The parts that several indexes of one table share — the UTF-8 fids,
    the shards per shard count, the ``0x00`` + fid suffixes, the Z2
    values, the period bins, the XZ2 bodies per resolution — are built
    once per batch, on first use, so z2 and z2t (xz2 and xz2t) key a
    row from one Z2 value (XZ2 body).
    """

    def __init__(self, fids, min_lng, min_lat, max_lng, max_lat,
                 points, t_min, t_max, envelopes=None):
        self.fids = fids
        self.min_lng, self.min_lat = min_lng, min_lat
        self.max_lng, self.max_lat = max_lng, max_lat
        self.points = points
        self.t_min, self.t_max = t_min, t_max
        if envelopes is not None:
            self.envelopes = envelopes
        self._parts: dict = {}

    @classmethod
    def of_points(cls, fids, lngs, lats, t_min, t_max):
        """A batch of point geometries given by their coordinates."""
        return cls(fids, lngs, lats, lngs, lats, [True] * len(fids),
                   t_min, t_max)

    @classmethod
    def of_envelopes(cls, fids, envelopes, points, t_min, t_max):
        """A batch of geometries given by their MBRs."""
        return cls(fids,
                   [e.min_lng for e in envelopes],
                   [e.min_lat for e in envelopes],
                   [e.max_lng for e in envelopes],
                   [e.max_lat for e in envelopes],
                   points, t_min, t_max, envelopes)

    @classmethod
    def of_records(cls, records) -> "KeyBatch":
        return cls.of_envelopes(
            [r.fid for r in records],
            [r.geometry.envelope for r in records],
            [r.geometry.is_point() for r in records],
            [r.t_min for r in records], [r.t_max for r in records])

    def __len__(self) -> int:
        return len(self.fids)

    def part(self, name, build):
        """The shared part ``name``, built by ``build()`` once."""
        value = self._parts.get(name)
        if value is None:
            value = self._parts[name] = build()
        return value

    @cached_property
    def envelopes(self) -> list[Envelope]:
        return list(map(Envelope, self.min_lng, self.min_lat,
                        self.max_lng, self.max_lat))

    @cached_property
    def fid_bytes(self) -> list[bytes]:
        return [fid.encode("utf-8") for fid in self.fids]

    @cached_property
    def suffixes(self) -> list[bytes]:
        """Each key's ``0x00`` + feature id tail."""
        return [b"\x00" + fid for fid in self.fid_bytes]

    @cached_property
    def z2_values(self) -> list[int]:
        """The Z2 value of each row's MBR corner (of a point: itself)."""
        return list(map(interleave2,
                        _Z2_GRID.lng_dim.normalize_all(self.min_lng),
                        _Z2_GRID.lat_dim.normalize_all(self.min_lat)))

    def shards(self, num_shards: int) -> list[int]:
        """Each row's shard (:func:`shard_of`)."""
        return self.part(("shards", num_shards), lambda: [
            crc32(fid) % num_shards for fid in self.fid_bytes])

    def bins(self, period: TimePeriod) -> list[int]:
        """The period bin of each row's start (Equation 1)."""
        seconds = period.seconds
        return self.part(("bins", period), lambda: [
            floor((t - REF_TIME) / seconds) for t in self.t_min])

    def require_points(self, index: str) -> None:
        if not all(self.points):
            raise IndexError_(f"{index} indexes point geometries only")

    def require_times(self, message: str) -> None:
        if None in self.t_min:
            raise IndexError_(message)


def shard_of(fid: str, num_shards: int) -> int:
    """Deterministic shard for a feature id."""
    return crc32(fid.encode("utf-8")) % num_shards


_SHARD_PERIOD_CURVE = struct.Struct(">BIQ")
_SHARD_CURVE = struct.Struct(">BQ")
_SHARD_BYTES = [bytes([shard]) for shard in range(256)]


def _pack_period(bin_number: int) -> bytes:
    return struct.pack(">I", bin_number + _PERIOD_BIAS)


def period_keyable(t: float, period: TimePeriod) -> bool:
    """Whether the period bin of ``t`` fits a key's period field
    (:func:`_pack_period`); NaN and the infinities have no bin."""
    return -_PERIOD_BIAS <= (t - REF_TIME) / period.seconds < _PERIOD_BIAS


def _pack_curve(value: int) -> bytes:
    return struct.pack(">Q", value)


_XZ2_BODY = struct.Struct(">IBBBB")  # sequence code, MBR signature


def _xz2_curve(g: int) -> XZ2Curve:
    curve = XZ2Curve(g)
    if curve.max_code() >= 1 << 32:
        raise IndexError_(
            f"xz2 key bodies hold a 32-bit sequence code: g must be "
            f"<= 15, got {g}")
    return curve


def _xz2_bodies(curve: XZ2Curve, batch: KeyBatch) -> list[bytes]:
    """The XZ2 code and MBR signature of each row, built once per batch
    and resolution."""
    def build():
        bodies = []
        for envelope in batch.envelopes:
            code = curve.index(envelope)
            bodies.append(_XZ2_BODY.pack(
                code, *curve.signature(envelope, code)))
        return bodies
    return batch.part(("xz2", curve.g), build)


def _keys(strategy: "IndexStrategy", batch: KeyBatch, bodies) -> list[bytes]:
    """Shard byte + body + ``0x00`` + feature id, row by row."""
    prefixes = map(_SHARD_BYTES.__getitem__,
                   batch.shards(strategy.num_shards))
    return list(map(add, map(add, prefixes, bodies), batch.suffixes))


def _xz2_code_bounds(lo: int, hi: int) -> tuple[bytes, bytes]:
    """Body bounds covering every signature of the codes ``lo..hi``."""
    return (_XZ2_BODY.pack(lo, 0, 0, 0, 0),
            _XZ2_BODY.pack(hi, 255, 255, 255, 255))


def _xz2_key_filter(curve: XZ2Curve, window: Envelope, offset: int):
    """Key test for bodies that start ``offset`` bytes into the key."""
    meets = curve.signature_test(window)
    unpack_from = _XZ2_BODY.unpack_from

    def key_filter(key: bytes) -> bool:
        return meets(*unpack_from(key, offset))

    return key_filter


class IndexStrategy(ABC):
    """Interface every index strategy implements."""

    #: Short name used in USERDATA hints, e.g. ``"z2t"``.
    name: str = "abstract"
    #: The period whose bin prefixes each key body (``None``: none).
    period: TimePeriod | None = None

    def __init__(self, num_shards: int = 4,
                 max_ranges: int = DEFAULT_MAX_RANGES):
        if num_shards < 1 or num_shards > 255:
            raise IndexError_("num_shards must be in [1, 255]")
        self.num_shards = num_shards
        self.max_ranges = max_ranges

    # -- write path --------------------------------------------------------
    @abstractmethod
    def keys(self, batch: KeyBatch) -> list[bytes]:
        """Full row keys (shard + body + feature id) of every row of
        ``batch``, in its order."""

    def key(self, record: IndexedRecord) -> bytes:
        """The full row key of one record: :meth:`keys` of a batch of
        one."""
        return self.keys(KeyBatch.of_records([record]))[0]

    # -- read path ---------------------------------------------------------
    @abstractmethod
    def supports(self, query: STQuery) -> bool:
        """True when this strategy can serve ``query`` via key ranges."""

    def ranges(self, query: STQuery) -> list[KeyBounds]:
        """Half-open key bounds whose union covers every possibly-matching
        record, built once in the form the store scans
        (``ScanSpec(ranges=...)``).

        Sorted by start, pairwise disjoint: the store serves the whole
        list in one forward pass and rejects any other order.
        """
        if not self.supports(query):
            raise IndexError_(
                f"index {self.name!r} cannot serve query {query!r}")
        if query.is_empty:
            return []
        return self._per_shard(self._body_ranges(query))

    def _per_shard(self, bodies: list[tuple[bytes, bytes]]
                   ) -> list[KeyBounds]:
        """Key bounds of inclusive body ranges under every shard prefix."""
        bodies = [(lo, hi + _STOP_PAD) for lo, hi in bodies]
        out: list[KeyBounds] = []
        for shard in range(self.num_shards):
            prefix = bytes([shard])
            out += [(prefix + lo, prefix + stop) for lo, stop in bodies]
        return out

    @abstractmethod
    def _body_ranges(self, query: STQuery) -> list[tuple[bytes, bytes]]:
        """Inclusive (start, end) ranges over the key body, sorted by
        start and pairwise disjoint."""

    def key_filter(self, query: STQuery):
        """A ``key -> bool`` test a scan of :meth:`ranges` applies to
        each key before it hands the value over, or ``None`` when the
        key says no more than its range does (every point strategy).

        Conservative: False only for keys whose record cannot meet the
        query's spatial window; the exact test still runs on the rest.
        """
        return None

    # -- k-NN cells (core/knn.py) ------------------------------------------
    #: Deepest quadtree level with keys of its own (XZ2: its ``g``).
    cell_depth: int = Z2Curve.BITS_PER_DIM
    #: Cell sides past a cell, towards larger lng and lat, that a record
    #: :meth:`cell_ranges` finds under the cell may reach (XZ2: 1, the
    #: enlarged element).
    cell_reach: int = 0
    #: True when :meth:`cell_ranges` finds exactly the records filed
    #: under the cell.  False: its ranges over-cover, and the walk keeps
    #: a record only in the cell that holds its MBR centre.
    cell_exact: bool = False

    def cell_ranges(self, level: int, ix: int, iy: int, subtree: bool,
                    time_extent: tuple[float, float] | None
                    ) -> list[KeyBounds]:
        """Key bounds of the records filed under quadtree cell
        ``(ix, iy)`` of ``level`` — the Z2 grid's cells, ``2**level``
        columns of longitude by rows of latitude — and, with
        ``subtree``, under every cell below it.

        This default files a record by its MBR centre, so only a subtree
        holds records: it covers the cell's box, over the table's
        ``time_extent`` on a temporal index, with :meth:`ranges`.
        """
        if not subtree:
            return []
        envelope = _Z2_GRID.cell_envelope(level, ix, iy)
        return self.ranges(STQuery(envelope, *time_extent)
                           if time_extent is not None
                           else STQuery(envelope))

    def observe_extent(self, t_min: float, t_max: float) -> None:
        """A record lasting from ``t_min`` to ``t_max`` was stored.
        Strategies that bin by start time widen their look-back to keep
        reaching it (see :class:`_BinnedByStart`)."""


def _z2_cover(curve: Z2Curve, envelope: Envelope,
              budget: int) -> list[tuple[bytes, bytes]]:
    """Inclusive Z2 body ranges covering ``envelope`` (Z2, Z2T)."""
    return [(_pack_curve(lo), _pack_curve(hi))
            for lo, hi in z2_ranges(*curve.cell_of(envelope),
                                    max_ranges=budget)]


def _xz2_cover(curve: XZ2Curve, envelope: Envelope,
               budget: int) -> list[tuple[bytes, bytes]]:
    """Inclusive XZ2 body ranges covering ``envelope`` (XZ2, XZ2T)."""
    return [_xz2_code_bounds(lo, hi)
            for lo, hi in curve.ranges(envelope, budget)]


# ---------------------------------------------------------------------------
# Spatial-only strategies
# ---------------------------------------------------------------------------

class Z2Strategy(IndexStrategy):
    """Z-ordering over point geometries (spatial range queries)."""

    name = "z2"
    cell_exact = True
    curve = _Z2_GRID

    def keys(self, batch: KeyBatch) -> list[bytes]:
        batch.require_points("z2")
        return list(map(add, map(_SHARD_CURVE.pack,
                                 batch.shards(self.num_shards),
                                 batch.z2_values), batch.suffixes))

    def supports(self, query: STQuery) -> bool:
        return query.has_spatial

    def _body_ranges(self, query: STQuery) -> list[tuple[bytes, bytes]]:
        return _z2_cover(self.curve, query.envelope, self.max_ranges)

    def cell_ranges(self, level, ix, iy, subtree, time_extent):
        """A cell is a key prefix: ``z << 2s … | (1 << 2s) − 1`` under
        each shard, ``s`` levels above the curve's finest cells."""
        if not subtree:
            return []
        shift = 2 * (self.curve.BITS_PER_DIM - level)
        z = interleave2(ix, iy) << shift
        return self._per_shard([(_pack_curve(z),
                                 _pack_curve(z | ((1 << shift) - 1)))])


class XZ2Strategy(IndexStrategy):
    """XZ-ordering over extended geometries (spatial range queries)."""

    name = "xz2"
    cell_exact = True
    cell_reach = 1

    def __init__(self, g: int = 12, **kwargs):
        super().__init__(**kwargs)
        self.curve = _xz2_curve(g)

    def keys(self, batch: KeyBatch) -> list[bytes]:
        return _keys(self, batch, _xz2_bodies(self.curve, batch))

    def supports(self, query: STQuery) -> bool:
        return query.has_spatial

    def _body_ranges(self, query: STQuery) -> list[tuple[bytes, bytes]]:
        return _xz2_cover(self.curve, query.envelope, self.max_ranges)

    def key_filter(self, query: STQuery):
        if not query.has_spatial:
            return None
        return _xz2_key_filter(self.curve, query.envelope, offset=1)

    @property
    def cell_depth(self) -> int:
        return self.curve.g

    def cell_ranges(self, level, ix, iy, subtree, time_extent):
        """The cell's own sequence code or, with ``subtree``, the one
        contiguous code range of its subtree, under each shard."""
        lo, hi = self.curve.subtree_codes(level, ix, iy)
        return self._per_shard([_xz2_code_bounds(lo, hi if subtree else lo)])


# ---------------------------------------------------------------------------
# Spatio-temporal strategies: a period bin before the curve body
# ---------------------------------------------------------------------------

class _PerPeriod(IndexStrategy):
    """A strategy whose key body is the record's period bin followed by
    a curve body (Z3, XZ3, Z2T, XZ2T).  A window scans each bin it
    covers: the bin's period prefix before that bin's body ranges.  A
    subclass supplies only the per-bin cover (:meth:`_bin_covers`).
    """

    #: Most body ranges one bin's cover may have.  Octree decomposition
    #: spends its budget across three dimensions, so real planners
    #: (GeoMesa) produce far coarser covers per period than a 2D planner
    #: would: Z3 and XZ3 cap it at 32, which is what makes the
    #: interleaved strategies over-scan (Section IV-B).  Z2T and XZ2T
    #: leave it uncapped.
    RANGE_BUDGET_CAP = math.inf

    def __init__(self, period: TimePeriod = TimePeriod.DAY, **kwargs):
        super().__init__(**kwargs)
        self.period = period

    def supports(self, query: STQuery) -> bool:
        return query.has_spatial and query.has_temporal

    def _bins(self, query: STQuery) -> range:
        """The period bins whose records can meet ``query``'s window."""
        return period_bins_covering(query.t_min, query.t_max, self.period)

    def _body_ranges(self, query: STQuery) -> list[tuple[bytes, bytes]]:
        bins = self._bins(query)
        budget = max(8, min(self.RANGE_BUDGET_CAP,
                            self.max_ranges // len(bins)))
        out: list[tuple[bytes, bytes]] = []
        for bin_number, cover in zip(bins,
                                     self._bin_covers(query, bins, budget)):
            prefix = _pack_period(bin_number)
            out += [(prefix + lo, prefix + hi) for lo, hi in cover]
        return out

    @abstractmethod
    def _bin_covers(self, query: STQuery, bins: range, budget: int):
        """Each of ``bins``' inclusive body ranges after the period
        prefix, sorted and disjoint, at most ``budget`` per bin."""

    def _fractions(self, query: STQuery,
                   bin_number: int) -> tuple[float, float]:
        """The part of bin ``bin_number`` that ``query``'s window covers,
        as fractions of the period clamped to ``[0, 1]``."""
        start = period_start(bin_number, self.period)
        seconds = self.period.seconds
        return (max(0.0, (query.t_min - start) / seconds),
                min(1.0, (query.t_max - start) / seconds))


class _BinnedByStart(_PerPeriod):
    """Look-back of a strategy that files a record under the period of
    its *start* (XZ3, XZ2T): a window must also scan the periods in
    which records still running at its start were filed.

    One period of look-back, as GeoMesa assumes, covers every record no
    longer than a period.  Longer ones are a table statistic, grow-only
    like ``time_extent``: the longest seen, in periods, and the earliest
    period one of them was filed under — the extra look-back stops
    there, so a long record (a fence valid for years) costs the periods
    since it began, not the periods it lasts.  An extent is finite and
    ordered: a table rejects any other before it stores the row.
    """

    _long_reach = 0
    _long_first_bin = 0

    def observe_extent(self, t_min: float, t_max: float) -> None:
        reach = math.ceil((t_max - t_min) / self.period.seconds)
        if reach <= 1:
            return
        first_bin = period_bin(t_min, self.period)
        if not self._long_reach or first_bin < self._long_first_bin:
            self._long_first_bin = first_bin
        self._long_reach = max(self._long_reach, reach)

    def _bins(self, query: STQuery) -> range:
        bins = super()._bins(query)
        start = bins.start - 1
        if self._long_reach:
            start = min(start, max(bins.start - self._long_reach,
                                   self._long_first_bin))
        return range(start, bins.stop)


class Z3Strategy(_PerPeriod):
    """Per-period interleaved space-time curve for points (Figure 3e).

    The paper's analysis (Section IV-B) shows why this struggles: within a
    period the time bits dominate the interleaved code for typical urban
    queries, invalidating the spatial filter.  Reproduced faithfully so the
    JUSTd/JUSTy/JUSTc ablations behave as in Figure 12.
    """

    name = "z3"
    RANGE_BUDGET_CAP = 32
    curve = Z3Curve()

    def keys(self, batch: KeyBatch) -> list[bytes]:
        batch.require_points("z3")
        batch.require_times("z3 requires a timestamp")
        bins = batch.bins(self.period)
        seconds = self.period.seconds
        # period_offset: the start of the bin, then the fraction past it.
        fractions = [(t - (REF_TIME + b * seconds)) / seconds
                     for t, b in zip(batch.t_min, bins)]
        curve = self.curve
        z = map(interleave3, curve.lng_dim.normalize_all(batch.min_lng),
                curve.lat_dim.normalize_all(batch.min_lat),
                curve.time_dim.normalize_all(fractions))
        return list(map(add, map(
            _SHARD_PERIOD_CURVE.pack, batch.shards(self.num_shards),
            [b + _PERIOD_BIAS for b in bins], z), batch.suffixes))

    def _bin_covers(self, query, bins, budget):
        curve, env = self.curve, query.envelope
        x_lo = curve.lng_dim.normalize(env.min_lng)
        x_hi = curve.lng_dim.normalize(env.max_lng)
        y_lo = curve.lat_dim.normalize(env.min_lat)
        y_hi = curve.lat_dim.normalize(env.max_lat)
        for bin_number in bins:
            lo_frac, hi_frac = self._fractions(query, bin_number)
            t_lo = curve.time_dim.normalize(lo_frac)
            t_hi = curve.time_dim.normalize(hi_frac)
            yield [(_pack_curve(lo), _pack_curve(hi))
                   for lo, hi in z3_ranges(x_lo, y_lo, t_lo, x_hi, y_hi,
                                           t_hi, max_ranges=budget)]


class XZ3Strategy(_BinnedByStart):
    """Per-period space-time XZ curve for extended objects (Figure 5a).

    Objects are binned by their start time (``t_min``); queries therefore
    scan one extra preceding period — more once longer objects are
    stored, see :class:`_BinnedByStart` — to catch objects that started
    earlier but extend into the query window.
    """

    name = "xz3"
    RANGE_BUDGET_CAP = 32

    def __init__(self, period: TimePeriod = TimePeriod.DAY, g: int = 8,
                 **kwargs):
        super().__init__(period, **kwargs)
        self.curve = XZ3Curve(g)

    def keys(self, batch: KeyBatch) -> list[bytes]:
        batch.require_times("xz3 requires a time extent")
        seconds = self.period.seconds
        bodies = []
        for envelope, t_min, t_max, bin_number in zip(
                batch.envelopes, batch.t_min, batch.t_max,
                batch.bins(self.period)):
            if t_max is None:
                t_max = t_min
            start = period_start(bin_number, self.period)
            lo_frac = (t_min - start) / seconds
            hi_frac = min(1.0, (t_max - start) / seconds)
            code = self.curve.index(envelope, lo_frac, hi_frac)
            bodies.append(_pack_period(bin_number) + _pack_curve(code))
        return _keys(self, batch, bodies)

    def _bin_covers(self, query, bins, budget):
        for bin_number in bins:
            lo_frac, hi_frac = self._fractions(query, bin_number)
            if hi_frac <= 0.0:
                # Look-back period: objects binned here may still reach the
                # query window, so scan their full time extent.
                lo_frac, hi_frac = 0.0, 1.0
            yield [(_pack_curve(lo), _pack_curve(hi))
                   for lo, hi in self.curve.ranges(query.envelope, lo_frac,
                                                   hi_frac, budget)]


# ---------------------------------------------------------------------------
# The paper's strategies: Z2T and XZ2T
# ---------------------------------------------------------------------------

class Z2TStrategy(_PerPeriod):
    """Z2T (Section IV-B): a separate Z2 index inside each time period.

    Key = ``Num(t) :: Z2(lng, lat)`` (Equation 2).  Temporal filtering is
    done by the period prefix; spatial filtering keeps the full 31-bit Z2
    resolution because the time offset is *not* interleaved into the curve.
    """

    name = "z2t"
    curve = _Z2_GRID

    def keys(self, batch: KeyBatch) -> list[bytes]:
        batch.require_points("z2t")
        batch.require_times("z2t requires a timestamp")
        return list(map(add, map(
            _SHARD_PERIOD_CURVE.pack, batch.shards(self.num_shards),
            [b + _PERIOD_BIAS for b in batch.bins(self.period)],
            batch.z2_values), batch.suffixes))

    def _bin_covers(self, query, bins, budget):
        """One spatial cover, the same in every bin."""
        return repeat(_z2_cover(self.curve, query.envelope, budget))


class XZ2TStrategy(_BinnedByStart):
    """XZ2T (Section IV-C): a separate XZ2 index inside each time period.

    Key = ``Num(t_min) :: XZ2(mbr) :: signature(mbr)`` (Equation 3 plus
    the MBR signature).  Like XZ3, binning is by start time, so queries
    also scan earlier periods (:class:`_BinnedByStart`).
    """

    name = "xz2t"

    def __init__(self, period: TimePeriod = TimePeriod.DAY, g: int = 12,
                 **kwargs):
        super().__init__(period, **kwargs)
        self.curve = _xz2_curve(g)

    def keys(self, batch: KeyBatch) -> list[bytes]:
        batch.require_times("xz2t requires a time extent")
        periods = map(_pack_period, batch.bins(self.period))
        return _keys(self, batch, map(add, periods,
                                      _xz2_bodies(self.curve, batch)))

    def key_filter(self, query: STQuery):
        if not query.has_spatial:
            return None
        return _xz2_key_filter(self.curve, query.envelope, offset=5)

    def _bin_covers(self, query, bins, budget):
        """One spatial cover, the same in every bin."""
        return repeat(_xz2_cover(self.curve, query.envelope, budget))


# ---------------------------------------------------------------------------
# Attribute index
# ---------------------------------------------------------------------------

#: Stop suffix of an attribute range: UTF-8 holds no 0xff byte, so it
#: sorts past every ``0x00`` + feature id that follows the value.
_ATTR_STOP = b"\xff" * 8 + b"\x00"


class AttributeStrategy:
    """Secondary index over one scalar attribute of the table.

    Values are encoded order-preservingly: strings as UTF-8, numbers as
    biased big-endian doubles.  Serves equality predicates.
    """

    def __init__(self, field: str, num_shards: int = 4):
        self.field = field
        self.num_shards = num_shards

    @staticmethod
    def encode_value(value) -> bytes:
        if isinstance(value, str):
            return b"s" + value.encode("utf-8")
        if isinstance(value, bool):
            return b"b" + (b"\x01" if value else b"\x00")
        if isinstance(value, (int, float)):
            # Order-preserving double encoding: flip the sign bit for
            # non-negatives, complement for negatives.
            bits = struct.unpack(">Q", struct.pack(">d", float(value)))[0]
            if bits & (1 << 63):
                bits = bits ^ ((1 << 64) - 1)
            else:
                bits = bits | (1 << 63)
            return b"n" + struct.pack(">Q", bits)
        raise IndexError_(
            f"attribute index cannot encode {type(value).__name__}")

    def key_for_value(self, fid: str, value) -> bytes:
        shard = shard_of(fid, self.num_shards)
        return (bytes([shard]) + self.encode_value(value) + b"\x00"
                + fid.encode("utf-8"))

    def ranges_for_value(self, value) -> list[KeyBounds]:
        """Key bounds for an equality predicate on the indexed field,
        sorted by start, pairwise disjoint (one per shard)."""
        body = self.encode_value(value) + b"\x00"
        return [(bytes([s]) + body, bytes([s]) + body + _ATTR_STOP)
                for s in range(self.num_shards)]


# ---------------------------------------------------------------------------
# Factory
# ---------------------------------------------------------------------------

_STRATEGY_NAMES = {
    "z2": Z2Strategy,
    "z3": Z3Strategy,
    "xz2": XZ2Strategy,
    "xz3": XZ3Strategy,
    "z2t": Z2TStrategy,
    "xz2t": XZ2TStrategy,
}


def strategy_from_name(name: str, *, period: TimePeriod = TimePeriod.DAY,
                       num_shards: int = 4,
                       max_ranges: int = DEFAULT_MAX_RANGES) -> IndexStrategy:
    """Build a strategy from a USERDATA hint such as ``'z2t'``.

    A period suffix is accepted for temporal strategies, e.g. ``'z3:year'``.
    """
    base, _, period_name = name.lower().partition(":")
    if period_name:
        period = TimePeriod.from_name(period_name)
    try:
        cls = _STRATEGY_NAMES[base]
    except KeyError:
        valid = ", ".join(sorted(_STRATEGY_NAMES))
        raise IndexError_(
            f"unknown index strategy {name!r}; expected one of {valid}"
        ) from None
    if not issubclass(cls, _PerPeriod):
        return cls(num_shards=num_shards, max_ranges=max_ranges)
    return cls(period=period, num_shards=num_shards, max_ranges=max_ranges)
