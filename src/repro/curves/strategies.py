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
import zlib
from abc import ABC, abstractmethod
from dataclasses import dataclass, field

from repro.errors import IndexError_
from repro.curves.timeperiod import (
    TimePeriod,
    period_bin,
    period_bins_covering,
    period_offset,
    period_start,
)
from repro.curves.xz import XZ2Curve, XZ3Curve
from repro.curves.zorder import Z2Curve, Z3Curve, interleave2
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
    """The index-relevant projection of a stored row.

    ``parts`` holds the key parts already built for this record — the
    shard byte and fid bytes per shard count, the Z2 value, the XZ2 body
    per resolution — so the indexes of one row (z2 and z2t, xz2 and
    xz2t) build each once (:meth:`IndexStrategy.key`).
    """

    fid: str
    geometry: Geometry
    t_min: float | None = None
    t_max: float | None = None
    parts: dict = field(default_factory=dict, compare=False, repr=False)


def shard_of(fid: str, num_shards: int) -> int:
    """Deterministic shard for a feature id."""
    return zlib.crc32(fid.encode("utf-8")) % num_shards


def _pack_period(bin_number: int) -> bytes:
    return struct.pack(">I", bin_number + _PERIOD_BIAS)


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


def _xz2_body(curve: XZ2Curve, record: IndexedRecord) -> bytes:
    """The XZ2 code and MBR signature of a record, built once per
    record and resolution."""
    part = ("xz2", curve.g)
    body = record.parts.get(part)
    if body is None:
        envelope = record.geometry.envelope
        code = curve.index(envelope)
        body = record.parts[part] = _XZ2_BODY.pack(
            code, *curve.signature(envelope, code))
    return body


def _z2_body(curve: Z2Curve, record: IndexedRecord) -> bytes:
    """The packed Z2 value of a point record, built once per record."""
    body = record.parts.get("z2")
    if body is None:
        env = record.geometry.envelope
        body = record.parts["z2"] = _pack_curve(
            curve.index(env.min_lng, env.min_lat))
    return body


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

    def __init__(self, num_shards: int = 4,
                 max_ranges: int = DEFAULT_MAX_RANGES):
        if num_shards < 1 or num_shards > 255:
            raise IndexError_("num_shards must be in [1, 255]")
        self.num_shards = num_shards
        self.max_ranges = max_ranges

    # -- write path --------------------------------------------------------
    def key(self, record: IndexedRecord) -> bytes:
        """Full row key for a record (shard + body + feature id).

        The parts one row's indexes share are built once per record
        (:attr:`IndexedRecord.parts`); the key bytes are the same.
        """
        ends = record.parts.get(self.num_shards)
        if ends is None:
            ends = record.parts[self.num_shards] = (
                bytes([shard_of(record.fid, self.num_shards)]),
                b"\x00" + record.fid.encode("utf-8"))
        return ends[0] + self._key_body(record) + ends[1]

    @abstractmethod
    def _key_body(self, record: IndexedRecord) -> bytes:
        """Strategy-specific key body (period/curve bytes)."""

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


class _BinnedByStart:
    """Look-back of a strategy that files a record under the period of
    its *start* (XZ3, XZ2T): a window must also scan the periods in
    which records still running at its start were filed.

    ``lookback_periods`` (one, as GeoMesa assumes) covers every record
    no longer than that many periods.  Longer ones are a table
    statistic, grow-only like ``time_extent``: the longest seen, in
    periods, and the earliest period one of them was filed under — the
    extra look-back stops there, so a fence valid "forever" costs the
    periods since it began, not the periods it will last.
    """

    period: TimePeriod
    lookback_periods: int
    _long_reach = 0
    _long_first_bin = 0

    def observe_extent(self, t_min: float, t_max: float) -> None:
        reach = math.ceil((t_max - t_min) / self.period.seconds)
        if reach <= self.lookback_periods:
            return
        first_bin = period_bin(t_min, self.period)
        if not self._long_reach or first_bin < self._long_first_bin:
            self._long_first_bin = first_bin
        self._long_reach = max(self._long_reach, reach)

    def _bins_reaching(self, query: STQuery) -> range:
        """The period bins whose records can reach ``query``'s window."""
        bins = period_bins_covering(query.t_min, query.t_max, self.period)
        start = bins.start - self.lookback_periods
        if self._long_reach:
            start = min(start, max(bins.start - self._long_reach,
                                   self._long_first_bin))
        return range(start, bins.stop)


# ---------------------------------------------------------------------------
# Spatial-only strategies
# ---------------------------------------------------------------------------

class Z2Strategy(IndexStrategy):
    """Z-ordering over point geometries (spatial range queries)."""

    name = "z2"
    cell_exact = True

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.curve = Z2Curve()

    def _key_body(self, record: IndexedRecord) -> bytes:
        if not record.geometry.is_point():
            raise IndexError_("z2 indexes point geometries only")
        return _z2_body(self.curve, record)

    def supports(self, query: STQuery) -> bool:
        return query.has_spatial

    def _body_ranges(self, query: STQuery) -> list[tuple[bytes, bytes]]:
        x_lo, y_lo, x_hi, y_hi = self.curve.cell_of(query.envelope)
        return [(_pack_curve(lo), _pack_curve(hi))
                for lo, hi in z2_ranges(x_lo, y_lo, x_hi, y_hi,
                                        max_ranges=self.max_ranges)]

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

    def _key_body(self, record: IndexedRecord) -> bytes:
        return _xz2_body(self.curve, record)

    def supports(self, query: STQuery) -> bool:
        return query.has_spatial

    def _body_ranges(self, query: STQuery) -> list[tuple[bytes, bytes]]:
        return [_xz2_code_bounds(lo, hi)
                for lo, hi in self.curve.ranges(query.envelope,
                                                self.max_ranges)]

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
# Native GeoMesa spatio-temporal strategies (Z3 / XZ3)
# ---------------------------------------------------------------------------

class Z3Strategy(IndexStrategy):
    """Per-period interleaved space-time curve for points (Figure 3e).

    The paper's analysis (Section IV-B) shows why this struggles: within a
    period the time bits dominate the interleaved code for typical urban
    queries, invalidating the spatial filter.  Reproduced faithfully so the
    JUSTd/JUSTy/JUSTc ablations behave as in Figure 12.
    """

    name = "z3"

    #: Per-period range budget.  Octree decomposition spends its budget
    #: across three dimensions, so real planners (GeoMesa) produce far
    #: coarser covers per period than a 2D planner would — this cap is
    #: what makes the interleaved strategies over-scan (Section IV-B).
    RANGE_BUDGET_CAP = 32

    def __init__(self, period: TimePeriod = TimePeriod.DAY, **kwargs):
        super().__init__(**kwargs)
        self.period = period
        self.curve = Z3Curve()

    def _key_body(self, record: IndexedRecord) -> bytes:
        if not record.geometry.is_point():
            raise IndexError_("z3 indexes point geometries only")
        if record.t_min is None:
            raise IndexError_("z3 requires a timestamp")
        env = record.geometry.envelope
        bin_number = period_bin(record.t_min, self.period)
        fraction = period_offset(record.t_min, self.period)
        z = self.curve.index(env.min_lng, env.min_lat, fraction)
        return _pack_period(bin_number) + _pack_curve(z)

    def supports(self, query: STQuery) -> bool:
        return query.has_spatial and query.has_temporal

    def _body_ranges(self, query: STQuery) -> list[tuple[bytes, bytes]]:
        env = query.envelope
        x_lo = self.curve.lng_dim.normalize(env.min_lng)
        x_hi = self.curve.lng_dim.normalize(env.max_lng)
        y_lo = self.curve.lat_dim.normalize(env.min_lat)
        y_hi = self.curve.lat_dim.normalize(env.max_lat)
        bins = period_bins_covering(query.t_min, query.t_max, self.period)
        out: list[tuple[bytes, bytes]] = []
        per_bin_budget = max(8, min(self.RANGE_BUDGET_CAP,
                                    self.max_ranges // max(1, len(bins))))
        for bin_number in bins:
            start = period_start(bin_number, self.period)
            lo_frac = max(0.0, (query.t_min - start) / self.period.seconds)
            hi_frac = min(1.0, (query.t_max - start) / self.period.seconds)
            t_lo = self.curve.time_dim.normalize(lo_frac)
            t_hi = self.curve.time_dim.normalize(hi_frac)
            prefix = _pack_period(bin_number)
            for lo, hi in z3_ranges(x_lo, y_lo, t_lo, x_hi, y_hi, t_hi,
                                    max_ranges=per_bin_budget):
                out.append((prefix + _pack_curve(lo),
                            prefix + _pack_curve(hi)))
        return out


class XZ3Strategy(_BinnedByStart, IndexStrategy):
    """Per-period space-time XZ curve for extended objects (Figure 5a).

    Objects are binned by their start time (``t_min``); queries therefore
    scan ``lookback_periods`` extra preceding periods — more once longer
    objects are stored, see :class:`_BinnedByStart` — to catch objects
    that started earlier but extend into the query window.
    """

    name = "xz3"

    #: See Z3Strategy.RANGE_BUDGET_CAP: 3D planners produce coarse covers.
    RANGE_BUDGET_CAP = 32

    def __init__(self, period: TimePeriod = TimePeriod.DAY, g: int = 8,
                 lookback_periods: int = 1, **kwargs):
        super().__init__(**kwargs)
        self.period = period
        self.curve = XZ3Curve(g)
        self.lookback_periods = lookback_periods

    def _key_body(self, record: IndexedRecord) -> bytes:
        if record.t_min is None:
            raise IndexError_("xz3 requires a time extent")
        t_max = record.t_max if record.t_max is not None else record.t_min
        bin_number = period_bin(record.t_min, self.period)
        start = period_start(bin_number, self.period)
        lo_frac = (record.t_min - start) / self.period.seconds
        hi_frac = min(1.0, (t_max - start) / self.period.seconds)
        code = self.curve.index(record.geometry.envelope, lo_frac, hi_frac)
        return _pack_period(bin_number) + _pack_curve(code)

    def supports(self, query: STQuery) -> bool:
        return query.has_spatial and query.has_temporal

    def _body_ranges(self, query: STQuery) -> list[tuple[bytes, bytes]]:
        bins = self._bins_reaching(query)
        out: list[tuple[bytes, bytes]] = []
        per_bin_budget = max(8, min(self.RANGE_BUDGET_CAP,
                                    self.max_ranges // max(1, len(bins))))
        for bin_number in bins:
            start = period_start(bin_number, self.period)
            lo_frac = max(0.0, (query.t_min - start) / self.period.seconds)
            hi_frac = min(1.0, (query.t_max - start) / self.period.seconds)
            if hi_frac <= 0.0:
                # Lookback period: objects binned here may still reach the
                # query window, so scan their full time extent.
                lo_frac, hi_frac = 0.0, 1.0
            prefix = _pack_period(bin_number)
            for lo, hi in self.curve.ranges(query.envelope, lo_frac, hi_frac,
                                            per_bin_budget):
                out.append((prefix + _pack_curve(lo),
                            prefix + _pack_curve(hi)))
        return out


# ---------------------------------------------------------------------------
# The paper's strategies: Z2T and XZ2T
# ---------------------------------------------------------------------------

class Z2TStrategy(IndexStrategy):
    """Z2T (Section IV-B): a separate Z2 index inside each time period.

    Key = ``Num(t) :: Z2(lng, lat)`` (Equation 2).  Temporal filtering is
    done by the period prefix; spatial filtering keeps the full 31-bit Z2
    resolution because the time offset is *not* interleaved into the curve.
    """

    name = "z2t"

    def __init__(self, period: TimePeriod = TimePeriod.DAY, **kwargs):
        super().__init__(**kwargs)
        self.period = period
        self.curve = Z2Curve()

    def _key_body(self, record: IndexedRecord) -> bytes:
        if not record.geometry.is_point():
            raise IndexError_("z2t indexes point geometries only")
        if record.t_min is None:
            raise IndexError_("z2t requires a timestamp")
        bin_number = period_bin(record.t_min, self.period)
        return _pack_period(bin_number) + _z2_body(self.curve, record)

    def supports(self, query: STQuery) -> bool:
        return query.has_spatial and query.has_temporal

    def _body_ranges(self, query: STQuery) -> list[tuple[bytes, bytes]]:
        x_lo, y_lo, x_hi, y_hi = self.curve.cell_of(query.envelope)
        bins = period_bins_covering(query.t_min, query.t_max, self.period)
        per_bin_budget = max(8, self.max_ranges // max(1, len(bins)))
        spatial = z2_ranges(x_lo, y_lo, x_hi, y_hi,
                            max_ranges=per_bin_budget)
        out: list[tuple[bytes, bytes]] = []
        for bin_number in bins:
            prefix = _pack_period(bin_number)
            for lo, hi in spatial:
                out.append((prefix + _pack_curve(lo),
                            prefix + _pack_curve(hi)))
        return out


class XZ2TStrategy(_BinnedByStart, IndexStrategy):
    """XZ2T (Section IV-C): a separate XZ2 index inside each time period.

    Key = ``Num(t_min) :: XZ2(mbr) :: signature(mbr)`` (Equation 3 plus
    the MBR signature).  Like XZ3, binning is by start time, so queries
    scan ``lookback_periods`` preceding periods (:class:`_BinnedByStart`).
    """

    name = "xz2t"

    def __init__(self, period: TimePeriod = TimePeriod.DAY, g: int = 12,
                 lookback_periods: int = 1, **kwargs):
        super().__init__(**kwargs)
        self.period = period
        self.curve = _xz2_curve(g)
        self.lookback_periods = lookback_periods

    def _key_body(self, record: IndexedRecord) -> bytes:
        if record.t_min is None:
            raise IndexError_("xz2t requires a time extent")
        bin_number = period_bin(record.t_min, self.period)
        return _pack_period(bin_number) + _xz2_body(self.curve, record)

    def supports(self, query: STQuery) -> bool:
        return query.has_spatial and query.has_temporal

    def key_filter(self, query: STQuery):
        if not query.has_spatial:
            return None
        return _xz2_key_filter(self.curve, query.envelope, offset=5)

    def _body_ranges(self, query: STQuery) -> list[tuple[bytes, bytes]]:
        bins = self._bins_reaching(query)
        per_bin_budget = max(8, self.max_ranges // max(1, len(bins)))
        spatial = self.curve.ranges(query.envelope, per_bin_budget)
        out: list[tuple[bytes, bytes]] = []
        spatial = [_xz2_code_bounds(lo, hi) for lo, hi in spatial]
        for bin_number in bins:
            prefix = _pack_period(bin_number)
            for lo, hi in spatial:
                out.append((prefix + lo, prefix + hi))
        return out


# ---------------------------------------------------------------------------
# Attribute index
# ---------------------------------------------------------------------------

#: Stop suffix of an attribute range: UTF-8 holds no 0xff byte, so it
#: sorts past every ``0x00`` + feature id that follows the value.
_ATTR_STOP = b"\xff" * 8 + b"\x00"


class AttributeStrategy(IndexStrategy):
    """Secondary index over one scalar attribute of the table.

    Values are encoded order-preservingly: strings as UTF-8, numbers as
    biased big-endian doubles.  Serves equality and BETWEEN predicates.
    """

    name = "attr"

    def __init__(self, field: str, **kwargs):
        super().__init__(**kwargs)
        self.field = field
        self._values: dict[str, object] = {}

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

    def _key_body(self, record: IndexedRecord) -> bytes:
        raise IndexError_(
            "attribute index keys are built via key_for_value()")

    def supports(self, query: STQuery) -> bool:
        return False  # never used for spatio-temporal predicates

    def _body_ranges(self, query: STQuery) -> list[tuple[bytes, bytes]]:
        raise IndexError_("attribute index serves value ranges only")

    def ranges_for_value(self, value) -> list[KeyBounds]:
        """Key bounds for an equality predicate on the indexed field,
        sorted by start, pairwise disjoint (one per shard)."""
        body = self.encode_value(value) + b"\x00"
        return [(bytes([s]) + body, bytes([s]) + body + _ATTR_STOP)
                for s in range(self.num_shards)]

    def ranges_for_between(self, low, high) -> list[KeyBounds]:
        """Key bounds for a BETWEEN predicate on the indexed field,
        sorted by start, pairwise disjoint (one per shard)."""
        lo = self.encode_value(low)
        hi = self.encode_value(high)
        return [(bytes([s]) + lo, bytes([s]) + hi + _ATTR_STOP)
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
    if cls in (Z2Strategy, XZ2Strategy):
        return cls(num_shards=num_shards, max_ranges=max_ranges)
    return cls(period=period, num_shards=num_shards, max_ranges=max_ranges)
