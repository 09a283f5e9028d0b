"""GeoHash encoding.

The Urban Block Indicator System (Section VII-B) partitions space into
~150 m grids "where the GeoHash code has a length of 7"; this module
provides the standard base-32 GeoHash so applications can name blocks the
way the paper's deployment does.
"""

from __future__ import annotations

from repro.errors import GeometryError

_BASE32 = "0123456789bcdefghjkmnpqrstuvwxyz"


def encode(lng: float, lat: float, precision: int = 7) -> str:
    """GeoHash of a coordinate at the given character precision."""
    if not (1 <= precision <= 12):
        raise GeometryError("geohash precision must be in [1, 12]")
    if not (-180.0 <= lng <= 180.0 and -90.0 <= lat <= 90.0):
        raise GeometryError(f"coordinate out of bounds: ({lng}, {lat})")
    lng_lo, lng_hi = -180.0, 180.0
    lat_lo, lat_hi = -90.0, 90.0
    out = []
    bit = 0
    value = 0
    even = True  # longitude first
    while len(out) < precision:
        if even:
            mid = (lng_lo + lng_hi) / 2.0
            if lng >= mid:
                value = (value << 1) | 1
                lng_lo = mid
            else:
                value <<= 1
                lng_hi = mid
        else:
            mid = (lat_lo + lat_hi) / 2.0
            if lat >= mid:
                value = (value << 1) | 1
                lat_lo = mid
            else:
                value <<= 1
                lat_hi = mid
        even = not even
        bit += 1
        if bit == 5:
            out.append(_BASE32[value])
            bit = 0
            value = 0
    return "".join(out)

