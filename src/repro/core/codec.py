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
shrinks several-fold.  A delta-layout value decodes into one ``array``
of i32 deltas (one ``frombytes``, byte-swapped on little-endian hosts)
behind the first sample: the series sums it into columns only when
asked, and its exact window test runs on the deltas in ticks.  Every
other sequence is packed and unpacked with one ``struct`` call, not one
per element.

A stored value shorter than its type or its count says is corrupt, and
decodes to a :class:`SchemaError`, as a corrupt compressed payload does.
"""

from __future__ import annotations

import gzip as _gzip
import struct
import sys
import zlib
from array import array
from functools import partial
from itertools import chain, repeat
from operator import add, attrgetter, itemgetter, sub

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
_pack_long = struct.Struct(">q").pack
_pack_double = struct.Struct(">d").pack
_pack_point = struct.Struct(">dd").pack
_unpack_long = struct.Struct(">q").unpack
_unpack_double = struct.Struct(">d").unpack
_unpack_point = struct.Struct(">dd").unpack
_unpack_count = struct.Struct(">I").unpack_from
_unpack_first = struct.Struct(">iiq").unpack_from
#: The ``array`` typecode of a 4-byte signed int, and whether the host
#: must byte-swap the stored big-endian ones.
_I32 = next(code for code in "il" if array(code).itemsize == 4)
_SWAP = sys.byteorder == "little"
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
        try:
            byte = data[pos]
        except IndexError:
            raise SchemaError("truncated varint") from None
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


def _truncated(what: str, data: bytes) -> SchemaError:
    return SchemaError(f"truncated {what} value ({len(data)} bytes)")


def _decode_st_series(data: bytes) -> STSeries:
    count, pos = read_varint(data, 0)
    if count == 0:
        return STSeries.from_fixed_point([], [], [])
    layout = data[pos:pos + 1]
    if layout == b"\x00":  # delta layout: first sample, then i32 deltas
        end = pos + 17 + 12 * (count - 1)
        if len(data) < end:
            raise _truncated("st_series", data)
        deltas = array(_I32)
        deltas.frombytes(memoryview(data)[pos + 17:end])
        if _SWAP:
            deltas.byteswap()
        return STSeries.from_deltas(_unpack_first(data, pos + 1), deltas)
    if not layout or len(data) < pos + 1 + 16 * count:
        raise _truncated("st_series", data)
    flat = struct.unpack_from(">" + "iiq" * count, data, pos + 1)
    return STSeries.from_fixed_point(*(list(flat[i::3]) for i in range(3)))


def _encode_pairs(pairs) -> bytes:
    """A counted sequence of float pairs: coordinates or samples."""
    return struct.pack(">I%dd" % (2 * len(pairs)), len(pairs),
                       *chain.from_iterable(pairs))


def _decode_pairs(data: bytes) -> list[tuple[float, float]]:
    try:
        (count,) = _unpack_count(data)
    except struct.error:
        raise _truncated("counted", data) from None
    if len(data) < 4 + 16 * count:
        raise _truncated("counted", data)
    flat = struct.unpack_from(">%dd" % (2 * count), data, 4)
    return list(zip(flat[0::2], flat[1::2]))


def _encode_double(value) -> bytes:
    return _pack_double(float(value))


def _encode_geometry(value) -> bytes:
    tag = _GEOM_TAGS[type(value)]
    return bytes((tag,)) + _ENCODERS[_GEOM_TYPES[tag]](value)


#: One encoder per field type, bound per field once by :class:`RowCodec`
#: (as :data:`_DECODERS` is): no type dispatch per value.
_ENCODERS = {
    FieldType.INTEGER: _pack_long,
    FieldType.LONG: _pack_long,
    FieldType.DOUBLE: _encode_double,
    FieldType.DATE: _encode_double,
    FieldType.STRING: lambda value: value.encode("utf-8"),
    FieldType.BOOLEAN: lambda value: b"\x01" if value else b"\x00",
    FieldType.POINT: lambda value: _pack_point(value.lng, value.lat),
    FieldType.LINESTRING: lambda value: _encode_pairs(value.coords),
    FieldType.POLYGON: lambda value: _encode_pairs(value.ring),
    FieldType.GEOMETRY: _encode_geometry,
    FieldType.ST_SERIES: _encode_st_series,
    FieldType.T_SERIES: lambda value: _encode_pairs(value.samples),
}


def encode_value(value, ftype: FieldType) -> bytes:
    """Serialize one non-null value of the given type."""
    try:
        encode = _ENCODERS[ftype]
    except KeyError:
        raise SchemaError(f"cannot encode type {ftype}") from None
    return encode(value)


def _decode_long(data: bytes) -> int:
    try:
        return _unpack_long(data)[0]
    except struct.error:
        raise _truncated("long", data) from None


def _decode_double(data: bytes) -> float:
    try:
        return _unpack_double(data)[0]
    except struct.error:
        raise _truncated("double", data) from None


def _decode_string(data: bytes) -> str:
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:  # cut inside a multi-byte char
        raise SchemaError(f"corrupt string value: {exc}") from None


_BOOLEANS = {b"\x01": True, b"\x00": False}


def _decode_boolean(data: bytes) -> bool:
    try:
        return _BOOLEANS[data]
    except KeyError:
        raise _truncated("boolean", data) from None


def _decode_point(data: bytes) -> Point:
    try:
        return Point(*_unpack_point(data))
    except struct.error:
        raise _truncated("point", data) from None


_GEOM_TYPES = (FieldType.POINT, FieldType.LINESTRING, FieldType.POLYGON)


def _decode_geometry(data: bytes):
    if not data or data[0] >= len(_GEOM_TYPES):
        raise _truncated("geometry", data)
    return _DECODERS[_GEOM_TYPES[data[0]]](data[1:])


#: One decoder per field type; :class:`RowCodec` binds them per field
#: once, so the scan path pays no type dispatch per value.
_DECODERS = {
    FieldType.INTEGER: _decode_long,
    FieldType.LONG: _decode_long,
    FieldType.DOUBLE: _decode_double,
    FieldType.DATE: _decode_double,
    FieldType.STRING: _decode_string,
    FieldType.BOOLEAN: _decode_boolean,
    FieldType.POINT: _decode_point,
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

#: Field types stored at one fixed width: their ``struct`` code.  A
#: schema's leading run of these (stored plain) is read in one call.
_FIXED_CODES = {
    FieldType.INTEGER: "q",
    FieldType.LONG: "q",
    FieldType.DOUBLE: "d",
    FieldType.DATE: "d",
    FieldType.POINT: "dd",
}


def _walk(rows, pos: int, steps) -> list:
    """The one field walker: read the fields ``steps`` describes
    (``(wanted, decode, compress)`` each) from offset ``pos`` of every
    row in ``rows``; returns the wanted values row after row, in one
    flat list.  A field that is not wanted is stepped over by its length
    prefix: never sliced, decompressed or decoded."""
    values: list = []
    append = values.append
    try:
        for data in rows:
            at = pos
            for wanted, decode, compress in steps:
                flag = data[at]
                at += 1
                if flag == _FLAG_NULL:
                    if wanted:
                        append(None)
                    continue
                length = data[at]
                at += 1
                if length >= 0x80:  # a multi-byte varint
                    length, at = read_varint(data, at - 1)
                if wanted:
                    payload = data[at:at + length]
                    if flag == _FLAG_COMPRESSED:
                        payload = decompress_bytes(payload, compress)
                    append(decode(payload))
                at += length
            if at > len(data):  # the last value walked was cut short
                raise SchemaError("truncated row")
    except IndexError:  # the row ends inside a flag or a length
        raise SchemaError("truncated row") from None
    return values


def _split(values: list, width: int) -> list[list]:
    """A flat row-after-row list of ``width`` fields as its columns."""
    return [values[i::width] for i in range(width)]


class _DecodePlan:
    """How the fields of one ``wanted`` set are read out of stored rows.

    The schema's leading run of fixed-width fields that are stored
    plain is read with one ``struct.unpack_from`` per row, whose flag
    and length bytes must equal the plain full-width header; the fields
    after the run go through :func:`_walk`.  A row whose header differs
    (a NULL or compressed field in the run) is walked field by field
    from its first byte, and so is every row of a chunk that holds one.
    Either way the walk stops after the last wanted field.
    """

    __slots__ = ("names", "_unpack", "_size", "_header", "_expected",
                 "_picks", "_tail", "_tail_width", "_steps")

    def __init__(self, fields, run: int, wanted):
        def want(name):
            return wanted is None or name in wanted
        self.names = [name for name, *_ in fields if want(name)]
        steps = [(want(name), decode, compress)
                 for name, _code, decode, compress in fields]
        while steps and not steps[-1][0]:
            steps.pop()  # nothing wanted after here: stop walking
        self._steps = steps
        self._tail = steps[run:]
        self._tail_width = sum(wanted for wanted, *_ in self._tail)
        if not self._tail:  # the run need only reach its last wanted field
            run = min(run, len(steps))
        self._unpack = None
        if not run:
            return
        fmt, header, expected, picks = ">", [], [], []
        index = 0
        for name, code, _decode, _compress in fields[:run]:
            fmt += "BB" + code
            header += [index, index + 1]
            expected += [_FLAG_PLAIN, 8 * len(code)]
            if want(name):
                picks.append((index + 2, len(code) == 2))
            index += 2 + len(code)
        layout = struct.Struct(fmt)
        self._unpack = layout.unpack_from
        self._size = layout.size
        self._header = itemgetter(*header)
        self._expected = tuple(expected)
        self._picks = picks

    def row(self, data: bytes) -> list:
        """One row's wanted values, in schema order."""
        if self._unpack is not None:
            try:
                head = self._unpack(data)
            except struct.error:  # shorter than a plain run: a NULL in it
                head = None
            if head is not None and self._header(head) == self._expected:
                return [Point(head[i], head[i + 1]) if point else head[i]
                        for i, point in self._picks] \
                    + _walk((data,), self._size, self._tail)
        return _walk((data,), 0, self._steps)

    def columns(self, rows: list[bytes]) -> list[list]:
        """Every row's wanted values, one list per field."""
        if self._unpack is not None:
            try:
                heads = list(map(self._unpack, rows))
            except struct.error:
                heads = None
            if heads is not None and list(map(self._header, heads)).count(
                    self._expected) == len(heads):
                columns = []
                for i, point in self._picks:
                    values = map(itemgetter(i), heads)
                    columns.append(list(
                        map(Point, values, map(itemgetter(i + 1), heads))
                        if point else values))
                return columns + _split(_walk(rows, self._size, self._tail),
                                        self._tail_width)
        return _split(_walk(rows, 0, self._steps), len(self.names))


# -- encode plan -----------------------------------------------------------------

#: The flag and length bytes of a plain value of ``n < 128`` bytes.
_PLAIN_HEADS = [bytes((_FLAG_PLAIN, n)) for n in range(0x80)]
_NULL_SEGMENT = bytes((_FLAG_NULL,))


def _head(flag: int, length: int) -> bytes:
    """A stored value's flag byte and varint length."""
    if length < 0x80:
        return bytes((flag, length))
    out = bytearray((flag,))
    write_varint(length, out)
    return bytes(out)


def _value_segments(name: str, encode, compress, columns) -> list[bytes]:
    """Field ``name`` of every row as it is stored: its flag, its
    length and its (compressed) payload, or the NULL flag alone."""
    out = []
    for value in columns[name]:
        if value is None:
            out.append(_NULL_SEGMENT)
            continue
        payload = encode(value)
        if compress is None:
            out.append(_head(_FLAG_PLAIN, len(payload)) + payload)
        else:
            payload = compress_bytes(payload, compress)
            out.append(_head(_FLAG_COMPRESSED, len(payload)) + payload)
    return out


#: What the packed paths meet in a NULL (``None`` has no ``encode``,
#: ``lng`` or ``float``; ``struct`` refuses it) or in a value that
#: cannot be stored; the per-value path then stores the NULLs and raises
#: what one value's encoder raises.
_UNPACKABLE = (AttributeError, TypeError, ValueError, OverflowError,
               struct.error)


def _string_segments(name: str, columns) -> list[bytes]:
    """A plain string field: while no value is NULL or 128 bytes long,
    each row's UTF-8 under its one-byte head, at C speed."""
    try:
        data = [value.encode("utf-8") for value in columns[name]]
    except _UNPACKABLE:
        data = None
    if data is not None:
        lengths = list(map(len, data))
        if not lengths or max(lengths) < 0x80:
            return list(map(add, map(_PLAIN_HEADS.__getitem__, lengths),
                            data))
    return _value_segments(name, _ENCODERS[FieldType.STRING], None, columns)


class _FixedRun:
    """A run of fixed-width fields stored plain: every row's run is one
    ``struct`` pack, whose format holds each field's flag and length
    bytes (as one ``H``).  A run with a NULL in it is encoded field by
    field (:data:`_UNPACKABLE`).  ``d`` packs an int as ``float()``
    converts it; one past a double's range fails the pack, and the
    per-value path raises what ``float()`` raises."""

    __slots__ = ("_fields", "_names", "_pack", "_args")

    def __init__(self, fields):
        self._fields = fields
        self._names = [f.name for f in fields]
        fmt, args = ">", []
        for f in fields:
            code = _FIXED_CODES[f.ftype]
            fmt += "H" + code
            args.append((_FLAG_PLAIN << 8 | 8 * len(code),
                         _point_args if f.ftype is FieldType.POINT
                         else _column_args))
        self._pack = struct.Struct(fmt).pack
        self._args = args

    def __call__(self, columns) -> list[bytes]:
        args = []
        for name, (head, spread) in zip(self._names, self._args):
            args.append(repeat(head))
            args += spread(columns[name])
        try:
            return list(map(self._pack, *args))
        except _UNPACKABLE:
            return _joined([_value_segments(f.name, _ENCODERS[f.ftype], None,
                                            columns) for f in self._fields])


def _point_args(column):
    return map(_LNG, column), map(_LAT, column)


def _column_args(column):
    return (column,)


_LNG, _LAT = attrgetter("lng"), attrgetter("lat")


def _joined(segments: list[list[bytes]]) -> list[bytes]:
    """Each row's segments, field after field, as one byte string."""
    if len(segments) == 1:
        return segments[0]
    if len(segments) == 2:
        return list(map(add, *segments))
    return list(map(b"".join, zip(*segments)))


def _encode_plan(schema: Schema, compression_enabled: bool) -> list:
    """How a batch is encoded: one callable per run of plain fixed-width
    fields (:class:`_FixedRun`) and per other field, each mapping the
    batch's columns to every row's bytes of its fields."""
    plan, run = [], []
    for f in schema.fields:
        compress = f.compress if compression_enabled and \
            f.compress != "none" else None
        if compress is None and f.ftype in _FIXED_CODES:
            run.append(f)
            continue
        if run:
            plan.append(_FixedRun(run))
            run = []
        if compress is None and f.ftype is FieldType.STRING:
            plan.append(partial(_string_segments, f.name))
        else:
            plan.append(partial(_value_segments, f.name,
                                _ENCODERS[f.ftype], compress))
    if run:
        plan.append(_FixedRun(run))
    return plan


class RowCodec:
    """Serializes full rows against a schema, honouring field compression.

    ``compression_enabled=False`` produces the paper's ``JUSTnc`` variant:
    the same layout with every field stored plain.
    """

    def __init__(self, schema: Schema, compression_enabled: bool = True):
        self.schema = schema
        self.compression_enabled = compression_enabled
        self._fields = [(f.name, _FIXED_CODES.get(f.ftype),
                         _DECODERS[f.ftype], f.compress)
                        for f in schema.fields]
        run = 0
        for f in schema.fields:
            if f.ftype not in _FIXED_CODES or (
                    compression_enabled and f.compress != "none"):
                break
            run += 1
        self._run = run
        self._plans: dict = {}
        self._encode_plan = _encode_plan(schema, compression_enabled)

    def encode_columns(self, columns: dict[str, list]) -> list[bytes]:
        """Every row of a column-major batch (``{field: [value of each
        row]}``, every schema field present, ``None`` for NULL) as its
        stored bytes: a pass per run of plain fixed-width fields and per
        other field, then one join per row."""
        return _joined([part(columns) for part in self._encode_plan])

    def encode_rows(self, rows: list[dict]) -> list[bytes]:
        """:meth:`encode_columns` of row dicts (a missing field is
        NULL)."""
        return self.encode_columns({
            f.name: [row.get(f.name) for row in rows]
            for f in self.schema.fields})

    def encode_row(self, row: dict) -> bytes:
        return self.encode_rows([row])[0]

    def _plan(self, wanted) -> _DecodePlan:
        """The compiled plan of ``wanted``, cached by its frozenset."""
        if wanted.__class__ is set:
            wanted = frozenset(wanted)
        plan = self._plans.get(wanted)
        if plan is None:
            plan = self._plans[wanted] = _DecodePlan(self._fields,
                                                     self._run, wanted)
        return plan

    def decode_row(self, data: bytes, wanted=None) -> dict:
        """The row's fields named in ``wanted`` (``None``: every field).

        A field that is not wanted is never sliced, decompressed or
        decoded.  Names in ``wanted`` that are not schema fields (a
        plugin table's ``item``) are ignored.
        """
        plan = self._plans.get(wanted) if wanted.__class__ is not set \
            else None
        if plan is None:
            plan = self._plan(wanted)
        return dict(zip(plan.names, plan.row(data)))

    def decode_columns(self, payloads: list[bytes],
                       wanted=None) -> dict[str, list]:
        """:meth:`decode_row` over a chunk of rows, column-major:
        ``{field: [value of each row]}`` for the fields in ``wanted``."""
        plan = self._plan(wanted)
        return dict(zip(plan.names, plan.columns(payloads)))
