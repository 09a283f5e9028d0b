"""Row serialization and field compression."""

import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.codec import (
    RowCodec,
    compress_bytes,
    decode_value,
    decompress_bytes,
    encode_value,
    read_varint,
    write_varint,
)
from repro.core.schema import Field, FieldType, Schema
from repro.errors import SchemaError
from repro.geometry import LineString, Point, Polygon
from repro.trajectory import STSeries, TSeries

from conftest import on_the_stored_grid


class TestVarint:
    @given(value=st.integers(0, 2 ** 64))
    def test_roundtrip(self, value):
        buf = bytearray()
        write_varint(value, buf)
        decoded, pos = read_varint(bytes(buf), 0)
        assert decoded == value and pos == len(buf)

    def test_negative_rejected(self):
        with pytest.raises(Exception):
            write_varint(-1, bytearray())


class TestValueRoundtrip:
    def test_scalars(self):
        cases = [
            (FieldType.INTEGER, -12345),
            (FieldType.LONG, 2 ** 40),
            (FieldType.DOUBLE, 3.14159),
            (FieldType.DATE, 1_500_000_000.5),
            (FieldType.STRING, "héllo wörld"),
            (FieldType.BOOLEAN, True),
            (FieldType.BOOLEAN, False),
        ]
        for ftype, value in cases:
            assert decode_value(encode_value(value, ftype), ftype) == value

    def test_geometries(self):
        point = Point(116.397, 39.908)
        decoded = decode_value(encode_value(point, FieldType.POINT),
                               FieldType.POINT)
        assert decoded == point
        line = LineString([(0, 0), (1.5, 2.5)])
        assert decode_value(encode_value(line, FieldType.LINESTRING),
                            FieldType.LINESTRING) == line
        poly = Polygon([(0, 0), (1, 0), (0, 1)])
        assert decode_value(encode_value(poly, FieldType.POLYGON),
                            FieldType.POLYGON) == poly

    def test_generic_geometry_tags(self):
        for geom in (Point(1, 2), LineString([(0, 0), (1, 1)]),
                     Polygon([(0, 0), (1, 0), (0, 1)])):
            data = encode_value(geom, FieldType.GEOMETRY)
            assert decode_value(data, FieldType.GEOMETRY) == geom

    def test_t_series(self):
        series = TSeries([(1.0, 10.0), (2.0, 20.0)])
        assert decode_value(encode_value(series, FieldType.T_SERIES),
                            FieldType.T_SERIES) == series


class TestSTSeriesCodec:
    def test_delta_roundtrip_precision(self):
        points = [(116.0 + i * 0.0001, 39.9 + i * 0.00005,
                   1_500_000_000.0 + i * 30.0) for i in range(100)]
        series = STSeries(points)
        decoded = decode_value(encode_value(series, FieldType.ST_SERIES),
                               FieldType.ST_SERIES)
        assert len(decoded) == 100
        for original, back in zip(series, decoded):
            assert back.lng == pytest.approx(original.lng, abs=1e-6)
            assert back.lat == pytest.approx(original.lat, abs=1e-6)
            assert back.time == pytest.approx(original.time, abs=1e-3)

    def test_absolute_fallback_for_huge_gaps(self):
        # A >24-day gap overflows the int32 millisecond delta.
        series = STSeries([(0.0, 0.0, 0.0),
                           (1.0, 1.0, 86400.0 * 60)])
        data = encode_value(series, FieldType.ST_SERIES)
        decoded = decode_value(data, FieldType.ST_SERIES)
        assert decoded[1].time == pytest.approx(86400.0 * 60)

    def test_empty_series(self):
        data = encode_value(STSeries([]), FieldType.ST_SERIES)
        assert len(decode_value(data, FieldType.ST_SERIES)) == 0

    def test_delta_encoding_is_compact(self):
        points = [(116.0 + i * 1e-5, 39.9, 1e9 + i * 30.0)
                  for i in range(1000)]
        data = encode_value(STSeries(points), FieldType.ST_SERIES)
        # Delta layout: ~12 bytes/point versus 24 for raw doubles.
        assert len(data) < 1000 * 16

    @settings(max_examples=25)
    @given(n=st.integers(1, 50), seed=st.integers(0, 999))
    def test_random_roundtrip(self, n, seed):
        import random
        rng = random.Random(seed)
        t = 1_400_000_000.0
        points = []
        lng, lat = 116.0, 39.9
        for _ in range(n):
            lng += rng.uniform(-0.001, 0.001)
            lat += rng.uniform(-0.001, 0.001)
            t += rng.uniform(0.001, 100.0)
            points.append((lng, lat, t))
        series = STSeries(points)
        decoded = decode_value(encode_value(series, FieldType.ST_SERIES),
                               FieldType.ST_SERIES)
        assert len(decoded) == n


class TestCompression:
    def test_gzip_zip_roundtrip(self):
        data = b"hello " * 1000
        for method in ("gzip", "zip"):
            packed = compress_bytes(data, method)
            assert len(packed) < len(data)
            assert decompress_bytes(packed, method) == data

    @pytest.mark.parametrize("method", ["gzip", "zip"])
    def test_a_damaged_payload_is_a_typed_error(self, method):
        """Truncated or bit-flipped: ``SchemaError``, whatever zlib
        calls it — gzip members still have their CRC-32 and length
        trailer checked, without ``gzip.py`` framing them."""
        data = bytes(range(256)) * 40
        packed = compress_bytes(data, method)
        middle = len(packed) // 2
        damaged = {
            "truncated": packed[:-5],
            "cut in half": packed[:middle],
            "empty": b"",
            "bit flip in the stream": packed[:middle]
            + bytes([packed[middle] ^ 0x10]) + packed[middle + 1:],
            "bit flip in the checksum": packed[:-6]
            + bytes([packed[-6] ^ 0x01]) + packed[-5:],
            "not a stream": b"xx" + packed[2:],
        }
        if method == "gzip":    # the length trailer is gzip's own
            damaged["bit flip in the length"] = \
                packed[:-1] + bytes([packed[-1] ^ 0x01])
        for what, payload in damaged.items():
            with pytest.raises(SchemaError, match=f"corrupt {method}"):
                decompress_bytes(payload, method)
            assert what  # names the case in a failure's locals

    def test_a_damaged_field_fails_the_row_not_its_neighbours(self):
        from repro.core.plugins import TRAJECTORY_SCHEMA
        codec = RowCodec(TRAJECTORY_SCHEMA)
        row = {"tid": "t1", "oid": "o", "start_time": 1.0, "end_time": 2.0,
               "start_point": None, "end_point": None,
               "gps_list": STSeries([(116.0, 39.9, 1.0), (116.1, 39.9, 2.0)])}
        payload = codec.encode_row(row)
        damaged = payload[:-3] + bytes([payload[-3] ^ 0xFF]) + payload[-2:]
        with pytest.raises(SchemaError, match="corrupt gzip"):
            codec.decode_row(damaged)
        assert codec.decode_row(damaged, {"tid"}) == {"tid": "t1"}

    def test_unknown_method(self):
        with pytest.raises(SchemaError, match="unknown compression"):
            decompress_bytes(b"", "lz4")

    def test_compression_helps_big_series_only(self):
        """The Figure 10a lesson: compression shrinks big fields but can
        grow tiny ones."""
        big = encode_value(STSeries(
            [(116.0 + i * 1e-5, 39.9 + i * 1e-5, 1e9 + i * 30.0)
             for i in range(2000)]), FieldType.ST_SERIES)
        assert len(compress_bytes(big, "gzip")) < len(big) * 0.7
        tiny = encode_value(Point(116.0, 39.9), FieldType.POINT)
        assert len(compress_bytes(tiny, "gzip")) > len(tiny)


class TestRowCodec:
    def schema(self):
        return Schema([
            Field("fid", FieldType.INTEGER, primary_key=True),
            Field("name", FieldType.STRING),
            Field("time", FieldType.DATE),
            Field("geom", FieldType.POINT),
            Field("gps", FieldType.ST_SERIES, compress="gzip"),
        ])

    def row(self):
        return {
            "fid": 7,
            "name": "alpha",
            "time": 1_500_000_000.0,
            "geom": Point(116.4, 39.9),
            "gps": STSeries([(116.4, 39.9, 1_500_000_000.0 + i)
                             for i in range(50)]),
        }

    def test_roundtrip(self):
        codec = RowCodec(self.schema())
        row = self.row()
        decoded = codec.decode_row(codec.encode_row(row))
        assert decoded["fid"] == 7
        assert decoded["name"] == "alpha"
        assert decoded["geom"] == row["geom"]
        assert len(decoded["gps"]) == 50

    def test_null_fields(self):
        codec = RowCodec(self.schema())
        row = {"fid": 1, "name": None, "time": None, "geom": Point(0, 0),
               "gps": None}
        decoded = codec.decode_row(codec.encode_row(row))
        assert decoded["name"] is None and decoded["gps"] is None

    def test_nc_variant_is_larger_for_big_fields(self):
        row = {
            "fid": 1, "name": "x", "time": 0.0, "geom": Point(0, 0),
            "gps": STSeries([(116.0 + i * 1e-5, 39.9, 1e9 + i * 30.0)
                             for i in range(2000)]),
        }
        compressed = RowCodec(self.schema(), compression_enabled=True)
        plain = RowCodec(self.schema(), compression_enabled=False)
        assert len(compressed.encode_row(row)) < \
            len(plain.encode_row(row)) * 0.8
        # Both decode to the same values.
        assert len(compressed.decode_row(
            compressed.encode_row(row))["gps"]) == 2000
        assert len(plain.decode_row(plain.encode_row(row))["gps"]) == 2000


class TestSequenceCodecs:
    """LineString/Polygon/TSeries share one bulk pack of float pairs."""

    def test_long_sequences_round_trip(self):
        coords = [(116.0 + i * 1e-4, 39.9 - i * 1e-5) for i in range(500)]
        samples = [(1e9 + i * 0.5, i * 0.25) for i in range(500)]
        for value, ftype in [(LineString(coords), FieldType.LINESTRING),
                             (Polygon(coords), FieldType.POLYGON),
                             (LineString(coords), FieldType.GEOMETRY),
                             (TSeries(samples), FieldType.T_SERIES)]:
            data = encode_value(value, ftype)
            assert decode_value(data, ftype) == value
            assert encode_value(decode_value(data, ftype), ftype) == data

    def test_pair_layout_is_count_then_big_endian_doubles(self):
        data = encode_value(TSeries([(1.0, 2.0), (3.0, 4.0)]),
                            FieldType.T_SERIES)
        assert data == struct.pack(">Idddd", 2, 1.0, 2.0, 3.0, 4.0)
        assert encode_value(LineString([(1.0, 2.0), (3.0, 4.0)]),
                            FieldType.LINESTRING) == data


#: A fixed trajectory row and its stored bytes with every field plain
#: (the ``JUSTnc`` layout; gzip framing carries a timestamp, so the
#: compressed form is pinned through its decompressed payload instead).
GOLDEN_ROW = {
    "tid": "t1", "oid": "lorry-7",
    "start_time": 1_400_000_000.25, "end_time": 1_400_000_060.5,
    "start_point": Point(116.397128, 39.916527),
    "end_point": Point(116.39, 39.92),
    "gps_list": STSeries([(116.397128, 39.916527, 1_400_000_000.25),
                          (116.3975, 39.917, 1_400_000_030.0),
                          (116.39, 39.92, 1_400_000_060.5)]),
}
GOLDEN_SERIES_HEX = (
    "0300"                              # 3 samples, delta layout
    "06f01448" "026113ef" "00000145f680b0fa"   # first sample (i32 i32 i64)
    "00000174" "000001d9" "00007436"    # +372, +473 ticks, +29 750 ms
    "ffffe2b4" "00000bb8" "00007724")   # -7 500, +3 000 ticks, +30 500 ms
GOLDEN_ROW_HEX = (
    "01" "02" "7431"                    # tid: plain, 2 bytes
    "01" "07" "6c6f7272792d37"          # oid
    "01" "08" "41d4dc9380100000"        # start_time
    "01" "08" "41d4dc938f200000"        # end_time
    "01" "10" "405d196a8b8f14db" "4043f550c1b97354"   # start_point
    "01" "10" "405d18f5c28f5c29" "4043f5c28f5c28f6"   # end_point
    "01" "2a" + GOLDEN_SERIES_HEX)      # gps_list: plain, 42 bytes


class TestStoredFormatIsPinned:
    """Fails if the stored format moves (it must not: rows written by an
    older build stay readable, and ``storage_amp`` stays put)."""

    def trajectory_codec(self, compression_enabled):
        from repro.core.plugins import TRAJECTORY_SCHEMA
        return RowCodec(TRAJECTORY_SCHEMA, compression_enabled)

    def test_plain_row_bytes(self):
        codec = self.trajectory_codec(False)
        data = codec.encode_row(GOLDEN_ROW)
        assert data.hex() == GOLDEN_ROW_HEX
        assert codec.encode_row(codec.decode_row(data)) == data

    def test_compressed_row_wraps_the_same_series_bytes(self):
        data = self.trajectory_codec(True).encode_row(GOLDEN_ROW)
        head = len(GOLDEN_ROW_HEX) // 2 - 44   # up to gps_list's flag
        assert data[:head].hex() == GOLDEN_ROW_HEX[:2 * head]
        assert data[head] == 2                 # compressed
        length, pos = read_varint(data, head + 1)
        assert pos + length == len(data)
        assert data[pos:pos + 4] == b"\x1f\x8b\x08\x00"  # gzip, deflate
        assert decompress_bytes(data[pos:], "gzip").hex() == \
            GOLDEN_SERIES_HEX

    def test_reencoding_a_decoded_row_is_the_identity(self, monkeypatch):
        import gzip
        import types
        # gzip stamps the current time into its header.
        monkeypatch.setattr(gzip, "time",
                            types.SimpleNamespace(time=lambda: 1.6e9))
        codec = self.trajectory_codec(True)
        data = codec.encode_row(GOLDEN_ROW)
        assert codec.encode_row(codec.decode_row(data)) == data

    def test_absolute_layout_bytes(self):
        series = STSeries([(0.0, 0.0, 0.0), (1.0, -1.0, 86400.0 * 60)])
        data = encode_value(series, FieldType.ST_SERIES)
        assert data == b"\x02\x01" + struct.pack(
            ">iiqiiq", 0, 0, 0, 1_000_000, -1_000_000, 5_184_000_000)
        decoded = decode_value(data, FieldType.ST_SERIES)
        assert encode_value(decoded, FieldType.ST_SERIES) == data


PROJECTION_SCHEMA = Schema([
    Field("fid", FieldType.INTEGER, primary_key=True),
    Field("name", FieldType.STRING),
    Field("time", FieldType.DATE),
    Field("geom", FieldType.POINT),
    Field("note", FieldType.STRING, compress="zip"),
    Field("gps_list", FieldType.ST_SERIES, compress="gzip"),
    Field("tail", FieldType.BOOLEAN),
])
PROJECTION_ROW = {
    "fid": 7, "name": "alpha", "time": 1_500_000_000.0,
    "geom": Point(116.4, 39.9), "note": "n" * 300,   # a 2-byte varint
    "gps_list": STSeries([(116.4, 39.9, 1_500_000_000.0 + i)
                          for i in range(50)]),
    "tail": True,
}
_NULLABLE = [n for n in PROJECTION_SCHEMA.names if n != "fid"]


class TestDecodeProjection:
    """``decode_row(data, wanted)``: the late-materialization contract."""

    @given(wanted=st.sets(st.sampled_from(PROJECTION_SCHEMA.names
                                          + ["item"])),
           nulls=st.sets(st.sampled_from(_NULLABLE)),
           compression_enabled=st.booleans())
    def test_equals_the_full_decode_restricted_to_wanted(
            self, wanted, nulls, compression_enabled):
        codec = RowCodec(PROJECTION_SCHEMA, compression_enabled)
        row = {k: None if k in nulls else v
               for k, v in PROJECTION_ROW.items()}
        data = codec.encode_row(row)
        full = codec.decode_row(data)
        assert list(full) == PROJECTION_SCHEMA.names
        assert codec.decode_row(data, frozenset(wanted)) == \
            {k: v for k, v in full.items() if k in wanted}

    def test_an_unwanted_compressed_field_is_never_decompressed(
            self, decompress_calls):
        codec = RowCodec(PROJECTION_SCHEMA)
        data = codec.encode_row(PROJECTION_ROW)
        row = codec.decode_row(data, {"fid", "name", "tail"})
        assert row == {"fid": 7, "name": "alpha", "tail": True}
        assert decompress_calls == []
        codec.decode_row(data, {"fid", "note"})
        assert decompress_calls == ["zip"]
        codec.decode_row(data)
        assert decompress_calls == ["zip", "zip", "gzip"]

    def test_names_that_are_not_schema_fields_are_ignored(self):
        codec = RowCodec(PROJECTION_SCHEMA)
        data = codec.encode_row(PROJECTION_ROW)
        assert codec.decode_row(data, {"item", "fid", "ghost"}) == \
            {"fid": 7}
        assert codec.decode_row(data, frozenset()) == {}


_WALK = [(116.0 + i * 1.37e-4, 39.9 - (i % 7) * 2.1e-5,
          1_500_000_000.0 + i * 30.125) for i in range(40)]
_GAPPED = _WALK[:3] + [(117.0, 40.0, 1_500_000_000.0 + 86400.0 * 60)]


class TestDecodedSeriesIsItsColumns:
    """A codec-built ``STSeries`` answers from the stored integer
    columns; ``GPSPoint``s exist only once something reads them."""

    @pytest.mark.parametrize("points", [
        _WALK, _GAPPED, _WALK[:2], _WALK[:1], []],
        ids=["delta", "absolute", "two", "one", "empty"])
    def test_summaries_build_no_points_and_equal_the_eager_ones(
            self, points, gps_points_built):
        eager = STSeries(on_the_stored_grid(points))
        data = encode_value(STSeries(points), FieldType.ST_SERIES)
        gps_points_built.clear()
        decoded = decode_value(data, FieldType.ST_SERIES)
        assert len(decoded) == len(eager)
        if points:
            assert decoded.envelope == eager.envelope
            assert decoded.time_extent == eager.time_extent
        else:
            with pytest.raises(SchemaError):
                decoded.envelope
            with pytest.raises(SchemaError):
                decoded.time_extent
        if len(points) >= 2:
            assert decoded.as_linestring() == eager.as_linestring()
        else:
            with pytest.raises(SchemaError):
                decoded.as_linestring()
        assert encode_value(decoded, FieldType.ST_SERIES) == data
        assert gps_points_built == []
        # Reading the points materializes them, once.
        assert decoded.points == eager.points
        assert len(gps_points_built) == len(points)
        assert list(decoded) == list(eager) and decoded.points is \
            decoded.points
        if points:
            assert decoded[0] == eager[0] and decoded[-1] == eager[-1]
        assert len(gps_points_built) == len(points)

    @pytest.mark.parametrize("points", [_WALK, _GAPPED, _WALK[:1], []],
                             ids=["delta", "absolute", "one", "empty"])
    def test_equality_and_hash_span_both_constructions(self, points):
        eager = STSeries(on_the_stored_grid(points))
        decoded = decode_value(
            encode_value(STSeries(points), FieldType.ST_SERIES),
            FieldType.ST_SERIES)
        assert decoded == eager and eager == decoded
        assert hash(decoded) == hash(eager)
        assert decoded.length_m() == eager.length_m()
        if points:
            other = STSeries(on_the_stored_grid(points[:-1]))
            assert decoded != other

    def test_a_negative_time_delta_is_rejected_at_decode(self):
        from repro.core.plugins import TRAJECTORY_SCHEMA
        good = bytes.fromhex(GOLDEN_ROW_HEX)
        bad = good[:-4] + struct.pack(">i", -31_000)   # the last dt
        codec = RowCodec(TRAJECTORY_SCHEMA, compression_enabled=False)
        assert len(codec.decode_row(good)["gps_list"]) == 3
        with pytest.raises(SchemaError):
            codec.decode_row(bad)
        # ... but a row that never decodes the field never sees it.
        assert codec.decode_row(bad, {"tid"}) == {"tid": "t1"}

    def test_unordered_absolute_timestamps_are_rejected_too(self):
        data = b"\x02\x01" + struct.pack(">iiqiiq", 0, 0, 5_000,
                                         1, 1, 4_999)
        with pytest.raises(SchemaError):
            decode_value(data, FieldType.ST_SERIES)


_TICK_SERIES = st.integers(1, 140).flatmap(lambda n: st.tuples(
    st.lists(st.integers(-180_000_000, 180_000_000), min_size=n,
             max_size=n),
    st.lists(st.integers(-90_000_000, 90_000_000), min_size=n, max_size=n),
    st.lists(st.integers(0, 4_000_000_000), min_size=n,
             max_size=n).map(sorted)))


class TestLazySeriesEqualsEager:
    """A decoded series holds its first sample and the deltas; every
    view of it equals the one an eagerly built series over the same
    stored values gives."""

    @given(columns=_TICK_SERIES)
    @settings(max_examples=150, deadline=None)
    def test_every_view_matches(self, columns):
        lng6, lat6, t_ms = columns
        eager = STSeries([(x / 1e6, y / 1e6, t / 1000.0)
                          for x, y, t in zip(lng6, lat6, t_ms)])
        data = encode_value(eager, FieldType.ST_SERIES)
        decoded = decode_value(data, FieldType.ST_SERIES)
        assert len(decoded) == len(eager) == len(t_ms)
        assert decoded.envelope == eager.envelope
        assert decoded.time_extent == eager.time_extent
        assert decoded.fixed_point() == eager.fixed_point() == \
            (lng6, lat6, t_ms)
        assert decoded == eager and hash(decoded) == hash(eager)
        assert decoded.points == eager.points
        assert decoded.as_stored() is decoded
        assert eager.as_stored() == decoded
        assert encode_value(decoded, FieldType.ST_SERIES) == data
        assert encode_value(eager.as_stored(), FieldType.ST_SERIES) == data

    @given(columns=_TICK_SERIES.filter(lambda c: len(c[2]) >= 2),
           data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_time_running_backwards_fails_at_decode(self, columns, data):
        lng6, lat6, t_ms = columns
        t_ms = sorted(t % 1_000_000 for t in t_ms)  # the delta layout
        good = encode_value(STSeries.from_fixed_point(lng6, lat6, t_ms),
                            FieldType.ST_SERIES)
        start = len(good) - 12 * (len(t_ms) - 1)
        assert good[start - 17] == 0  # the delta layout
        # The i-th sample steps one millisecond back in time.
        i = data.draw(st.integers(1, len(t_ms) - 1))
        bad = bytearray(good)
        dt = start + 12 * (i - 1) + 8
        bad[dt:dt + 4] = struct.pack(">i", -1)
        with pytest.raises(SchemaError):
            decode_value(bytes(bad), FieldType.ST_SERIES)


_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_XY = st.tuples(st.floats(-180.0, 180.0), st.floats(-90.0, 90.0))
#: A value of every type whose stored length is fixed or counted.
_VALUES = st.one_of(
    st.tuples(st.sampled_from([FieldType.INTEGER, FieldType.LONG]),
              st.integers(-2 ** 63, 2 ** 63 - 1)),
    st.tuples(st.sampled_from([FieldType.DOUBLE, FieldType.DATE]),
              _FINITE),
    st.tuples(st.just(FieldType.BOOLEAN), st.booleans()),
    st.tuples(st.sampled_from([FieldType.POINT, FieldType.GEOMETRY]),
              _XY.map(lambda xy: Point(*xy))),
    st.tuples(st.sampled_from([FieldType.LINESTRING, FieldType.GEOMETRY]),
              st.lists(_XY, min_size=2, max_size=6).map(LineString)),
    st.tuples(st.sampled_from([FieldType.POLYGON, FieldType.GEOMETRY]),
              st.lists(_XY, min_size=3, max_size=6, unique=True)
              .map(Polygon)),
    st.tuples(st.just(FieldType.T_SERIES),
              st.lists(_FINITE, max_size=6).map(
                  lambda ts: TSeries((t, 1.0) for t in sorted(ts)))),
    st.tuples(st.just(FieldType.ST_SERIES), _TICK_SERIES.map(
        lambda c: STSeries.from_fixed_point(*c))),
    st.tuples(st.just(FieldType.ST_SERIES), st.just(STSeries([]))),
)


class TestTruncatedValuesAreSchemaErrors:
    """A stored value cut short — a fixed-width value, a count, a
    varint, an ``st_series`` header or its deltas — decodes to a
    ``SchemaError``, as a corrupt compressed payload does; never to a
    raw ``struct.error`` or ``IndexError``, nor to a shorter value."""

    @given(case=_VALUES)
    @settings(max_examples=300, deadline=None)
    def test_every_proper_prefix_fails_typed(self, case):
        ftype, value = case
        data = encode_value(value, ftype)
        assert decode_value(data, ftype) == value
        for cut in range(len(data)):
            with pytest.raises(SchemaError):
                decode_value(data[:cut], ftype)

    def test_every_proper_prefix_of_a_row_fails_typed(self):
        # The row ends in a fixed-width field, so no prefix is a row.
        codec = RowCodec(PROJECTION_SCHEMA)
        data = codec.encode_row(PROJECTION_ROW)
        for cut in range(len(data)):
            with pytest.raises(SchemaError):
                codec.decode_row(data[:cut])
            with pytest.raises(SchemaError):
                codec.decode_columns([data, data[:cut]])

    @pytest.mark.parametrize("wanted", [None, {"name"}])
    def test_a_row_cut_inside_its_last_string_fails_typed(self, wanted):
        # A string decodes from any slice, so only the walk's end tells:
        # cut by 2 bytes, this row used to decode to name 'alp'.
        codec = RowCodec(Schema([
            Field("fid", FieldType.INTEGER, primary_key=True),
            Field("name", FieldType.STRING)]))
        data = codec.encode_row({"fid": 1, "name": "alpha"})
        for cut in (1, 2, 4):
            with pytest.raises(SchemaError, match="truncated row"):
                codec.decode_row(data[:-cut], wanted)
            with pytest.raises(SchemaError, match="truncated row"):
                codec.decode_columns([data, data[:-cut]], wanted)
