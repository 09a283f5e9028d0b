"""Row serialization and the field compression mechanism (Section IV-D).

Rows are serialized field-by-field in schema order.  Fields declared with
``compress=gzip`` or ``compress=zip`` have their serialized bytes run
through the codec before storage — the paper's observation is that this
pays off only for big fields (the trajectory ``gpsList``), while tiny
fields can *grow* under compression (Figure 10a's ``JUSTcompress`` line);
both behaviours fall out of real codecs here.

``st_series`` values are delta-encoded over the series' fixed-point
columns (1e-6 degree ticks, millisecond timestamps — see
:class:`~repro.trajectory.model.STSeries`), which is byte-efficient on
its own and leaves the long runs of small deltas that DEFLATE then
shrinks several-fold.  Every sequence is packed and unpacked with one
``struct`` call, not one per element.
"""

from __future__ import annotations

import gzip as _gzip
import struct
import zlib
from itertools import accumulate, chain
from operator import sub

from repro.errors import SchemaError
from repro.core.schema import FieldType, Schema
from repro.geometry.linestring import LineString
from repro.geometry.point import Point
from repro.geometry.polygon import Polygon
from repro.trajectory.model import STSeries, TSeries

_FLAG_NULL = 0
_FLAG_PLAIN = 1
_FLAG_COMPRESSED = 2

_GEOM_TAGS = {Point: 0, LineString: 1, Polygon: 2}
_unpack_long = struct.Struct(">q").unpack
_unpack_double = struct.Struct(">d").unpack
_unpack_point = struct.Struct(">dd").unpack
_I32_MIN, _I32_MAX = -(1 << 31), (1 << 31) - 1


# -- varints ----------------------------------------------------------------

def write_varint(value: int, out: bytearray) -> None:
    """Append an unsigned LEB128 varint."""
    if value < 0:
        raise SchemaError("varint cannot encode negatives")
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


def read_varint(data: bytes, pos: int) -> tuple[int, int]:
    """Read an unsigned LEB128 varint; returns ``(value, new_pos)``."""
    result = 0
    shift = 0
    while True:
        byte = data[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, pos
        shift += 7


# -- compression codecs -------------------------------------------------------

def compress_bytes(data: bytes, method: str) -> bytes:
    if method == "gzip":
        return _gzip.compress(data, compresslevel=6)
    if method == "zip":
        return zlib.compress(data, level=6)
    raise SchemaError(f"unknown compression method {method!r}")


#: ``zlib.decompress`` window arguments.  31 = a gzip member: header,
#: CRC-32 and length trailer are checked in C, without ``gzip.py``'s
#: per-call ``BytesIO`` + ``GzipFile`` framing.
_WBITS = {"gzip": 31, "zip": zlib.MAX_WBITS}


def decompress_bytes(data: bytes, method: str) -> bytes:
    try:
        wbits = _WBITS[method]
    except KeyError:
        raise SchemaError(
            f"unknown compression method {method!r}") from None
    try:
        return zlib.decompress(data, wbits=wbits)
    except zlib.error as exc:  # truncated, bit-flipped, not a stream
        raise SchemaError(f"corrupt {method} payload: {exc}") from exc


# -- per-type value encodings --------------------------------------------------

def _encode_st_series(series: STSeries) -> bytes:
    lng6, lat6, t_ms = series.fixed_point()
    out = bytearray()
    write_varint(len(t_ms), out)
    if not t_ms:
        return bytes(out)
    deltas = list(chain.from_iterable(zip(
        map(sub, lng6[1:], lng6), map(sub, lat6[1:], lat6),
        map(sub, t_ms[1:], t_ms))))
    if not deltas or (_I32_MIN <= min(deltas) and max(deltas) <= _I32_MAX):
        out.append(0)  # delta layout
        out += struct.pack(">iiq%di" % len(deltas),
                           lng6[0], lat6[0], t_ms[0], *deltas)
    else:
        out.append(1)  # absolute layout
        out += struct.pack(">" + "iiq" * len(t_ms),
                           *chain.from_iterable(zip(lng6, lat6, t_ms)))
    return bytes(out)


def _decode_st_series(data: bytes) -> STSeries:
    count, pos = read_varint(data, 0)
    if count == 0:
        return STSeries.from_fixed_point([], [], [])
    if data[pos] == 0:  # delta layout: first sample, then i32 deltas
        first = struct.unpack_from(">iiq", data, pos + 1)
        deltas = struct.unpack_from(">%di" % (3 * (count - 1)), data,
                                    pos + 17)
        columns = [list(accumulate(deltas[i::3], initial=first[i]))
                   for i in range(3)]
    else:
        flat = struct.unpack_from(">" + "iiq" * count, data, pos + 1)
        columns = [list(flat[i::3]) for i in range(3)]
    return STSeries.from_fixed_point(*columns)


def _encode_pairs(pairs) -> bytes:
    """A counted sequence of float pairs: coordinates or samples."""
    return struct.pack(">I%dd" % (2 * len(pairs)), len(pairs),
                       *chain.from_iterable(pairs))


def _decode_pairs(data: bytes) -> list[tuple[float, float]]:
    (count,) = struct.unpack_from(">I", data, 0)
    flat = struct.unpack_from(">%dd" % (2 * count), data, 4)
    return list(zip(flat[0::2], flat[1::2]))


def encode_value(value, ftype: FieldType) -> bytes:
    """Serialize one non-null value of the given type."""
    if ftype in (FieldType.INTEGER, FieldType.LONG):
        return struct.pack(">q", value)
    if ftype in (FieldType.DOUBLE, FieldType.DATE):
        return struct.pack(">d", float(value))
    if ftype == FieldType.STRING:
        return value.encode("utf-8")
    if ftype == FieldType.BOOLEAN:
        return b"\x01" if value else b"\x00"
    if ftype == FieldType.POINT:
        return struct.pack(">dd", value.lng, value.lat)
    if ftype == FieldType.LINESTRING:
        return _encode_pairs(value.coords)
    if ftype == FieldType.POLYGON:
        return _encode_pairs(value.ring)
    if ftype == FieldType.GEOMETRY:
        tag = _GEOM_TAGS[type(value)]
        inner_type = (FieldType.POINT, FieldType.LINESTRING,
                      FieldType.POLYGON)[tag]
        return bytes([tag]) + encode_value(value, inner_type)
    if ftype == FieldType.ST_SERIES:
        return _encode_st_series(value)
    if ftype == FieldType.T_SERIES:
        return _encode_pairs(value.samples)
    raise SchemaError(f"cannot encode type {ftype}")


def _decode_long(data: bytes) -> int:
    return _unpack_long(data)[0]


def _decode_double(data: bytes) -> float:
    return _unpack_double(data)[0]


def _decode_geometry(data: bytes):
    inner_type = (FieldType.POINT, FieldType.LINESTRING,
                  FieldType.POLYGON)[data[0]]
    return _DECODERS[inner_type](data[1:])


#: One decoder per field type; :class:`RowCodec` binds them per field
#: once, so the scan path pays no type dispatch per value.
_DECODERS = {
    FieldType.INTEGER: _decode_long,
    FieldType.LONG: _decode_long,
    FieldType.DOUBLE: _decode_double,
    FieldType.DATE: _decode_double,
    FieldType.STRING: lambda data: data.decode("utf-8"),
    FieldType.BOOLEAN: lambda data: data == b"\x01",
    FieldType.POINT: lambda data: Point(*_unpack_point(data)),
    FieldType.LINESTRING: lambda data: LineString(_decode_pairs(data)),
    FieldType.POLYGON: lambda data: Polygon(_decode_pairs(data)),
    FieldType.GEOMETRY: _decode_geometry,
    FieldType.ST_SERIES: _decode_st_series,
    FieldType.T_SERIES: lambda data: TSeries(_decode_pairs(data)),
}


def decode_value(data: bytes, ftype: FieldType):
    """Inverse of :func:`encode_value`."""
    return _DECODERS[ftype](data)


# -- row codec -----------------------------------------------------------------

class RowCodec:
    """Serializes full rows against a schema, honouring field compression.

    ``compression_enabled=False`` produces the paper's ``JUSTnc`` variant:
    the same layout with every field stored plain.
    """

    def __init__(self, schema: Schema, compression_enabled: bool = True):
        self.schema = schema
        self.compression_enabled = compression_enabled
        self._decode_plan = [(f.name, _DECODERS[f.ftype], f.compress)
                             for f in schema.fields]

    def encode_row(self, row: dict) -> bytes:
        out = bytearray()
        for f in self.schema.fields:
            value = row.get(f.name)
            if value is None:
                out.append(_FLAG_NULL)
                continue
            payload = encode_value(value, f.ftype)
            if self.compression_enabled and f.compress != "none":
                compressed = compress_bytes(payload, f.compress)
                out.append(_FLAG_COMPRESSED)
                write_varint(len(compressed), out)
                out += compressed
            else:
                out.append(_FLAG_PLAIN)
                write_varint(len(payload), out)
                out += payload
        return bytes(out)

    def decode_row(self, data: bytes, wanted=None) -> dict:
        """The row's fields named in ``wanted`` (``None``: every field).

        A field that is not wanted is stepped over by its length prefix:
        never sliced, decompressed or decoded.  Names in ``wanted`` that
        are not schema fields (a plugin table's ``item``) are ignored.
        """
        row: dict = {}
        pos = 0
        for name, decode, compress in self._decode_plan:
            flag = data[pos]
            pos += 1
            skip = wanted is not None and name not in wanted
            if flag == _FLAG_NULL:
                if not skip:
                    row[name] = None
                continue
            length = data[pos]
            pos += 1
            if length >= 0x80:  # a multi-byte varint
                length, pos = read_varint(data, pos - 1)
            if not skip:
                payload = data[pos:pos + length]
                if flag == _FLAG_COMPRESSED:
                    payload = decompress_bytes(payload, compress)
                row[name] = decode(payload)
            pos += length
        return row
