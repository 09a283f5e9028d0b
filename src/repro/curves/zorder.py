"""Z-order (Morton) curves for point data.

``Z2Curve`` maps a ``(lng, lat)`` pair to a single 62-bit integer by
encoding each dimension with 31 bits (a binary search over the coordinate
range, exactly Figure 3a of the paper) and interleaving the bits
(Figure 3b).  ``Z3Curve`` adds a 21-bit normalized time-within-period
dimension and interleaves three 21-bit values into a 63-bit integer
(Figure 3e), matching GeoMesa's resolution choices.

Bit spreading uses the standard magic-mask technique so encoding is O(1)
per record rather than O(bits).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.geometry.envelope import Envelope

# -- 2D bit interleaving (31 bits per dimension) ---------------------------

_MASK64 = (1 << 64) - 1


def split2(value: int) -> int:
    """Spread the low 32 bits of ``value`` onto the even bit positions."""
    x = value & 0xFFFFFFFF
    x = (x | (x << 16)) & 0x0000FFFF0000FFFF
    x = (x | (x << 8)) & 0x00FF00FF00FF00FF
    x = (x | (x << 4)) & 0x0F0F0F0F0F0F0F0F
    x = (x | (x << 2)) & 0x3333333333333333
    x = (x | (x << 1)) & 0x5555555555555555
    return x


def combine2(value: int) -> int:
    """Inverse of :func:`split2`: gather even bit positions."""
    x = value & 0x5555555555555555
    x = (x | (x >> 1)) & 0x3333333333333333
    x = (x | (x >> 2)) & 0x0F0F0F0F0F0F0F0F
    x = (x | (x >> 4)) & 0x00FF00FF00FF00FF
    x = (x | (x >> 8)) & 0x0000FFFF0000FFFF
    x = (x | (x >> 16)) & 0x00000000FFFFFFFF
    return x


def interleave2(x: int, y: int) -> int:
    """Interleave two integers bitwise; ``x`` occupies the even bits."""
    return split2(x) | (split2(y) << 1)


def deinterleave2(z: int) -> tuple[int, int]:
    """Inverse of :func:`interleave2`."""
    return combine2(z), combine2(z >> 1)


# -- 3D bit interleaving (21 bits per dimension) ---------------------------

def split3(value: int) -> int:
    """Spread the low 21 bits of ``value`` onto every third bit position."""
    x = value & 0x1FFFFF
    x = (x | (x << 32)) & 0x1F00000000FFFF
    x = (x | (x << 16)) & 0x1F0000FF0000FF
    x = (x | (x << 8)) & 0x100F00F00F00F00F
    x = (x | (x << 4)) & 0x10C30C30C30C30C3
    x = (x | (x << 2)) & 0x1249249249249249
    return x


def combine3(value: int) -> int:
    """Inverse of :func:`split3`."""
    x = value & 0x1249249249249249
    x = (x | (x >> 2)) & 0x10C30C30C30C30C3
    x = (x | (x >> 4)) & 0x100F00F00F00F00F
    x = (x | (x >> 8)) & 0x1F0000FF0000FF
    x = (x | (x >> 16)) & 0x1F00000000FFFF
    x = (x | (x >> 32)) & 0x1FFFFF
    return x


def interleave3(x: int, y: int, z: int) -> int:
    """Interleave three 21-bit integers; ``x`` occupies bits 0, 3, 6, ..."""
    return split3(x) | (split3(y) << 1) | (split3(z) << 2)


def deinterleave3(code: int) -> tuple[int, int, int]:
    """Inverse of :func:`interleave3`."""
    return combine3(code), combine3(code >> 1), combine3(code >> 2)


# -- coordinate normalization ----------------------------------------------

@dataclass(frozen=True, slots=True)
class Dimension:
    """A bounded continuous dimension discretized to ``bits`` bits."""

    low: float
    high: float
    bits: int

    @property
    def max_index(self) -> int:
        return (1 << self.bits) - 1

    def normalize(self, value: float) -> int:
        """Map a continuous value to its cell index (clamped to bounds)."""
        if value <= self.low:
            return 0
        if value >= self.high:
            return self.max_index
        fraction = (value - self.low) / (self.high - self.low)
        return min(self.max_index, int(fraction * (self.max_index + 1)))

    def normalize_all(self, values) -> list[int]:
        """:meth:`normalize` over a column, in the same float steps."""
        low, high, top = self.low, self.high, self.max_index
        span, cells = high - low, top + 1
        return [0 if v <= low else top if v >= high
                else min(top, int((v - low) / span * cells))
                for v in values]

    def denormalize(self, index: int) -> tuple[float, float]:
        """Continuous ``[low, high)`` interval covered by cell ``index``."""
        span = (self.high - self.low) / (self.max_index + 1)
        return (self.low + index * span, self.low + (index + 1) * span)


class Z2Curve:
    """The Z2 curve over WGS84 longitude/latitude with 31 bits per axis."""

    BITS_PER_DIM = 31

    def __init__(self) -> None:
        self.lng_dim = Dimension(-180.0, 180.0, self.BITS_PER_DIM)
        self.lat_dim = Dimension(-90.0, 90.0, self.BITS_PER_DIM)

    def index(self, lng: float, lat: float) -> int:
        """Z2 value of a coordinate (Equation Z2(lng, lat) of the paper)."""
        return interleave2(self.lng_dim.normalize(lng),
                           self.lat_dim.normalize(lat))

    def invert(self, z: int) -> tuple[float, float]:
        """Lower-left corner of the cell encoded by ``z``."""
        xi, yi = deinterleave2(z)
        return (self.lng_dim.denormalize(xi)[0],
                self.lat_dim.denormalize(yi)[0])

    def cell_of(self, envelope: Envelope) -> tuple[int, int, int, int]:
        """Integer cell bounds covered by an envelope (inclusive)."""
        return (self.lng_dim.normalize(envelope.min_lng),
                self.lat_dim.normalize(envelope.min_lat),
                self.lng_dim.normalize(envelope.max_lng),
                self.lat_dim.normalize(envelope.max_lat))

    def cell_envelope(self, level: int, ix: int, iy: int) -> Envelope:
        """The box of the quadtree cell ``(ix, iy)`` at ``level``: the
        finest cells ``ix << s … ((ix + 1) << s) − 1`` per axis, ``s``
        levels below it."""
        shift = self.BITS_PER_DIM - level
        min_lng = self.lng_dim.denormalize(ix << shift)[0]
        min_lat = self.lat_dim.denormalize(iy << shift)[0]
        max_lng = self.lng_dim.denormalize(((ix + 1) << shift) - 1)[1]
        max_lat = self.lat_dim.denormalize(((iy + 1) << shift) - 1)[1]
        return Envelope(min_lng, min_lat, max_lng, max_lat)


class Z3Curve:
    """The Z3 curve: lng/lat/time-in-period, 21 bits per axis.

    The time axis covers exactly one time period; callers bin the timestamp
    first (``timeperiod.period_bin``) and pass the offset fraction here.
    """

    BITS_PER_DIM = 21

    def __init__(self) -> None:
        self.lng_dim = Dimension(-180.0, 180.0, self.BITS_PER_DIM)
        self.lat_dim = Dimension(-90.0, 90.0, self.BITS_PER_DIM)
        self.time_dim = Dimension(0.0, 1.0, self.BITS_PER_DIM)

    def index(self, lng: float, lat: float, time_fraction: float) -> int:
        """Z3 value of a record whose time offset fraction is known."""
        return interleave3(self.lng_dim.normalize(lng),
                           self.lat_dim.normalize(lat),
                           self.time_dim.normalize(time_fraction))

    def invert(self, z: int) -> tuple[float, float, float]:
        """Lower corner (lng, lat, time fraction) of the encoded cell."""
        xi, yi, ti = deinterleave3(z)
        return (self.lng_dim.denormalize(xi)[0],
                self.lat_dim.denormalize(yi)[0],
                self.time_dim.denormalize(ti)[0])
