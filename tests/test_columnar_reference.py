"""The column-major scan tail against the row-at-a-time code it replaced.

A full scan decodes each chunk straight into batch columns
(``RowCodec.decode_columns``), GROUP BY folds each group's run of a
batch (``dataframe.functions.fold_batch``) and ORDER BY sorts an index
permutation (``DataFrame.order_by``).  Each is held here to its old
row-at-a-time form in ``tests/oracles.py``: equal values, equal types,
floats equal to the last bit (compared by ``repr``), the same errors.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from oracles import (
    decode_row_reference,
    group_by_reference,
    order_by_reference,
)
from repro import JustEngine, Point, Schema
from repro.core.codec import RowCodec
from repro.core.schema import Field, FieldType
from repro.dataframe import (
    DataFrame,
    agg_avg,
    agg_collect,
    agg_count,
    agg_max,
    agg_min,
    agg_sum,
)
from repro.errors import ExecutionError, SchemaError
from repro.geometry import LineString, Polygon
from repro.kvstore.scan import ScanSpec
from repro.trajectory import STSeries, TSeries, Trajectory

from conftest import POI_SCHEMA_FIELDS, T0, make_poi_rows


def exact(value):
    """A value with its type, floats by ``repr`` (``-0.0``, last bit)."""
    if isinstance(value, float):
        return ("float", repr(value))
    if isinstance(value, (list, tuple)):
        return (type(value).__name__, [exact(v) for v in value])
    if isinstance(value, dict):
        return {k: exact(v) for k, v in value.items()}
    return (type(value).__name__, value)


def exact_rows(rows):
    return [list(exact(row).items()) for row in rows]


# -- decode -------------------------------------------------------------------

_FIXED = [FieldType.INTEGER, FieldType.LONG, FieldType.DOUBLE,
          FieldType.DATE, FieldType.POINT]
_ANY = _FIXED + [FieldType.STRING, FieldType.BOOLEAN, FieldType.LINESTRING,
                 FieldType.POLYGON, FieldType.GEOMETRY, FieldType.ST_SERIES,
                 FieldType.T_SERIES]

_lng = st.floats(-180.0, 180.0)
_lat = st.floats(-90.0, 90.0)
_points = st.builds(Point, _lng, _lat)
_coords = st.lists(st.tuples(_lng, _lat), min_size=3, max_size=12,
                   unique=True)


def _series(min_t=1_500_000_000.0):
    steps = st.lists(st.tuples(_lng, _lat, st.floats(0.0, 600.0)),
                     max_size=40)
    return steps.map(lambda samples: STSeries(
        [(x, y, min_t + sum(dt for _x, _y, dt in samples[:i + 1]))
         for i, (x, y, _dt) in enumerate(samples)]))


_VALUES = {
    FieldType.INTEGER: st.integers(-(1 << 63), (1 << 63) - 1),
    FieldType.LONG: st.integers(-(1 << 63), (1 << 63) - 1),
    FieldType.DOUBLE: st.floats(allow_nan=False),
    FieldType.DATE: st.floats(0.0, 4e9),
    FieldType.POINT: _points,
    # Up to 300 characters: lengths of 128 and more take a 2-byte varint.
    FieldType.STRING: st.text(max_size=300),
    FieldType.BOOLEAN: st.booleans(),
    FieldType.LINESTRING: _coords.map(LineString),
    FieldType.POLYGON: _coords.map(Polygon),
    FieldType.GEOMETRY: st.one_of(_points, _coords.map(LineString),
                                  _coords.map(Polygon)),
    FieldType.ST_SERIES: _series(),
    FieldType.T_SERIES: st.lists(st.floats(0.0, 999.0), max_size=20).map(
        lambda ts: TSeries([(i * 1e3 + t, t) for i, t in enumerate(ts)])),
}


@st.composite
def tables(draw):
    """A schema that opens with a run of fixed-width fields, its rows
    (NULLs anywhere) and a ``wanted`` set (``None``: every field)."""
    types = draw(st.lists(st.sampled_from(_FIXED), max_size=5)) \
        + draw(st.lists(st.sampled_from(_ANY), max_size=5))
    if not types:
        types = [FieldType.INTEGER]
    fields = [Field(f"f{i}", ftype, compress=draw(st.sampled_from(
        ["none", "none", "gzip", "zip"])))
        for i, ftype in enumerate(types)]
    rows = draw(st.lists(st.fixed_dictionaries({
        f.name: st.one_of(st.none(), _VALUES[f.ftype]) for f in fields}),
        min_size=0, max_size=6))
    names = [f.name for f in fields]
    wanted = draw(st.none() | st.frozensets(
        st.sampled_from(names + ["item"])))
    return Schema(fields), rows, wanted


def _reference_columns(codec, payloads, wanted):
    refs = [decode_row_reference(codec, p, wanted) for p in payloads]
    names = [f.name for f in codec.schema.fields
             if wanted is None or f.name in wanted]
    return refs, {name: [ref[name] for ref in refs] for name in names}


class TestDecodeColumns:
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(table=tables(), write_compressed=st.booleans(),
           read_compressed=st.booleans())
    def test_equals_the_row_walk(self, table, write_compressed,
                                 read_compressed):
        """Encoded with one ``compression_enabled``, decoded with either:
        a compressed field in the fixed run is a header that differs."""
        schema, rows, wanted = table
        writer = RowCodec(schema, write_compressed)
        reader = RowCodec(schema, read_compressed)
        payloads = [writer.encode_row(row) for row in rows]
        refs, columns = _reference_columns(reader, payloads, wanted)
        decoded = reader.decode_columns(payloads, wanted)
        assert list(decoded) == list(columns)
        assert exact(decoded) == exact(columns)
        for payload, ref in zip(payloads, refs):
            assert exact_rows([reader.decode_row(payload, wanted)]) == \
                exact_rows([ref])
            plain = None if wanted is None else set(wanted)
            assert exact_rows([reader.decode_row(payload, plain)]) == \
                exact_rows([ref])

    def test_nulls_in_and_after_the_fixed_run(self):
        schema = Schema([Field("a", FieldType.INTEGER),
                         Field("b", FieldType.POINT),
                         Field("c", FieldType.DOUBLE),
                         Field("s", FieldType.STRING),
                         Field("d", FieldType.DATE)])
        codec = RowCodec(schema)
        full = {"a": 1, "b": Point(1.0, 2.0), "c": -0.0, "s": "x" * 200,
                "d": 5.5}
        rows = [full, dict(full, b=None), dict(full, a=None, c=None),
                dict(full, s=None), dict(full, d=None), full]
        payloads = [codec.encode_row(row) for row in rows]
        for wanted in (None, frozenset({"a"}), frozenset({"c", "d"}),
                       frozenset({"s"}), frozenset()):
            _refs, columns = _reference_columns(codec, payloads, wanted)
            assert exact(codec.decode_columns(payloads, wanted)) == \
                exact(columns)
        assert codec.decode_columns(payloads)["b"][1] is None
        assert codec.decode_columns([], frozenset({"a", "s"})) == \
            {"a": [], "s": []}

    @pytest.mark.parametrize("method", ["gzip", "zip"])
    def test_a_damaged_field_fails_as_its_own_row_does(self, method):
        schema = Schema([Field("fid", FieldType.INTEGER),
                         Field("time", FieldType.DATE),
                         Field("note", FieldType.STRING, compress=method)])
        codec = RowCodec(schema)
        good = [codec.encode_row({"fid": i, "time": 1.0, "note": "n" * 300})
                for i in range(3)]
        bad = good[1][:-3] + bytes([good[1][-3] ^ 0xFF]) + good[1][-2:]
        with pytest.raises(SchemaError, match=f"corrupt {method}") as ref:
            decode_row_reference(codec, bad)
        with pytest.raises(SchemaError) as row:
            codec.decode_row(bad)
        with pytest.raises(SchemaError) as chunk:
            codec.decode_columns([good[0], bad, good[2]])
        assert str(row.value) == str(chunk.value) == str(ref.value)
        # Its neighbours decode; so does the row itself without the field.
        assert codec.decode_columns([good[0], good[2]])["fid"] == [0, 2]
        assert codec.decode_columns([good[0], bad, good[2]],
                                    frozenset({"fid", "time"})) == \
            {"fid": [0, 1, 2], "time": [1.0, 1.0, 1.0]}


# -- GROUP BY -----------------------------------------------------------------

_cells = {
    "g": st.one_of(st.none(), st.integers(0, 3)),
    "h": st.one_of(st.none(), st.sampled_from(["x", "y"])),
    # Ties across types (1 and 1.0, 0.0 and -0.0) show which value
    # MIN/MAX keep, not just what it equals.
    "v": st.one_of(st.none(), st.floats(-1e6, 1e6), st.integers(-100, 100),
                   st.sampled_from([0, 0.0, -0.0, 1, 1.0])),
    "w": st.one_of(st.none(), st.floats(allow_nan=False,
                                        allow_infinity=False)),
}
_group_rows = st.lists(st.fixed_dictionaries(_cells), max_size=40)

_SPECS = {
    "count": agg_count, "sum": agg_sum, "avg": agg_avg, "min": agg_min,
    "max": agg_max, "collect_list": agg_collect,
}


def _specs(aggregates):
    return [agg_count(None, output) if column is None
            else _SPECS[name](column, output)
            for name, column, output in aggregates]


_aggregates = st.lists(st.tuples(
    st.sampled_from(sorted(_SPECS)), st.sampled_from(["v", "w", None])),
    min_size=1, max_size=5).map(lambda calls: [
        (name if column is not None else "count", column, f"out{i}")
        for i, (name, column) in enumerate(calls)])


class TestGroupBy:
    @settings(max_examples=150, deadline=None)
    @given(rows=_group_rows, keys=st.sampled_from(
        [[], ["g"], ["h"], ["g", "h"], ["h", "g"]]),
        aggregates=_aggregates, partitions=st.integers(1, 5))
    def test_equals_the_row_fold(self, rows, keys, aggregates, partitions):
        df = DataFrame.from_rows(rows, ["g", "h", "v", "w"], partitions)
        # The output frame deals its rows over the input's partitions.
        expected = DataFrame.from_rows(
            group_by_reference(df.collect(), keys, aggregates),
            keys + [output for _n, _c, output in aggregates],
            df.num_partitions).collect()
        got = df.group_by(keys, _specs(aggregates)).collect()
        assert exact_rows(got) == exact_rows(expected)

    def test_null_inputs_empty_and_global_groups(self):
        rows = [{"g": 1, "v": None}, {"g": 2, "v": 1.5}, {"g": 1, "v": None}]
        aggregates = [("count", None, "n"), ("count", "v", "nv"),
                      ("sum", "v", "s"), ("avg", "v", "a"),
                      ("min", "v", "lo"), ("max", "v", "hi")]
        df = DataFrame.from_rows(rows, ["g", "v"], 2)
        got = df.group_by(["g"], _specs(aggregates)).collect()
        assert got == group_by_reference(df.collect(), ["g"], aggregates)
        assert got[0] == {"g": 1, "n": 2, "nv": 0, "s": 0, "a": None,
                          "lo": None, "hi": None}
        assert df.group_by([], _specs(aggregates)).collect() == \
            group_by_reference(df.collect(), [], aggregates)
        empty = DataFrame.empty(["g", "v"])
        assert empty.group_by(["g"], _specs(aggregates)).collect() == []
        assert empty.group_by([], _specs(aggregates)).collect() == []

    @pytest.mark.parametrize("partitions", [1, 2, 3])
    def test_ties_keep_the_value_seen_first(self, partitions):
        """MIN/MAX compare the accumulator before a batch's run."""
        rows = [{"g": 1, "v": v} for v in (1, 0.0, 1.0, -0.0, True, 1)]
        aggregates = [("min", "v", "lo"), ("max", "v", "hi")]
        df = DataFrame.from_rows(rows, ["g", "v"], partitions)
        assert exact_rows(df.group_by(["g"], _specs(aggregates)).collect()) \
            == exact_rows(group_by_reference(df.collect(), ["g"],
                                             aggregates))

    @given(values=st.lists(st.one_of(st.none(), st.integers(0, 9),
                                     st.text(max_size=2)), max_size=12),
           name=st.sampled_from(["sum", "avg", "min", "max"]))
    def test_values_that_do_not_combine_fail_typed(self, values, name):
        """SUM over strings and numbers, MIN over both: an
        ``ExecutionError`` exactly when the row fold raises."""
        rows = [{"g": i % 2, "v": v} for i, v in enumerate(values)]
        df = DataFrame.from_rows(rows, ["g", "v"], 1)
        try:
            expected = group_by_reference(rows, ["g"], [(name, "v", "o")])
        except TypeError:
            with pytest.raises(ExecutionError):
                df.group_by(["g"], _specs([(name, "v", "o")]))
        else:
            got = df.group_by(["g"], _specs([(name, "v", "o")])).collect()
            assert exact_rows(got) == exact_rows(expected)


# -- ORDER BY -----------------------------------------------------------------

_sortable = st.one_of(st.none(), st.booleans(), st.integers(-3, 3),
                      st.floats(-3.0, 3.0), st.sampled_from(["a", "B", "1"]))


class TestOrderBy:
    @settings(max_examples=150, deadline=None)
    @given(rows=st.lists(st.fixed_dictionaries(
        {"a": _sortable, "b": _sortable, "i": st.integers()}),
        max_size=40),
        keys=st.lists(st.sampled_from(["a", "b", "i"]), min_size=1,
                      max_size=3),
        directions=st.lists(st.booleans(), min_size=3, max_size=3),
        partitions=st.integers(1, 4), limit=st.integers(0, 45))
    def test_equals_the_row_sort(self, rows, keys, directions, partitions,
                                 limit):
        """Ties keep their input order; NULLs first ascending, last
        descending; ``True`` ties ``1``."""
        ascending = directions[:len(keys)]
        df = DataFrame.from_rows(rows, ["a", "b", "i"], partitions)
        expected = order_by_reference(df.collect(), keys, ascending)
        ordered = df.order_by(keys, ascending)
        assert ordered.num_batches == (1 if rows else 0)
        assert exact_rows(ordered.collect()) == exact_rows(expected)
        assert exact_rows(ordered.limit(limit).collect()) == \
            exact_rows(expected[:limit])


# -- the SQL full scan --------------------------------------------------------

@pytest.fixture(scope="module")
def regions_engine():
    """A point table cut into several regions whose sizes are not
    multiples of a batch; ``score`` (NULL in every 7th row) ends the
    fixed-width run ``fid, time, geom, score``."""
    engine = JustEngine(split_bytes=8 * 1024, flush_bytes=1024)
    engine.create_table("poi", Schema([
        *(f for f in POI_SCHEMA_FIELDS if f.name != "name"),
        Field("score", FieldType.DOUBLE), Field("name", FieldType.STRING)]))
    rows = make_poi_rows(900, seed=5)
    for i, row in enumerate(rows):
        row["score"] = None if i % 7 == 0 else (i % 13) * 0.1
        if i % 11 == 0:
            row["name"] = None
    engine.insert("poi", rows)
    return engine


def _stored_rows(table):
    """The id table's rows in scan order, by the reference walk."""
    return [decode_row_reference(table.codec, payload)
            for _key, payload in table._id_table.scan(ScanSpec.full())]


class TestFullScan:
    def test_batches_fill_across_regions_as_rows_did(self, regions_engine):
        table = regions_engine.table("poi")
        chunks = [len(c) for c in
                  table._id_table.scan_batches(ScanSpec.full())]
        assert table._id_table.num_regions > 2
        assert any(size % 256 for size in chunks[:-1])  # region ends
        total = sum(chunks)
        sizes = [len(b) for b in table.full_scan_batches(
            columns=["fid", "score"])]
        assert sizes == [256] * (total // 256) + \
            ([total % 256] if total % 256 else [])
        assert exact_rows(table.full_scan()) == \
            exact_rows(_stored_rows(table))

    @pytest.mark.parametrize("statement, keys, aggregates", [
        ("SELECT name, count(*) AS n, count(score) AS ns, avg(score) AS a, "
         "min(fid) AS lo FROM poi GROUP BY name", ["name"],
         [("count", None, "n"), ("count", "score", "ns"),
          ("avg", "score", "a"), ("min", "fid", "lo")]),
        ("SELECT count(score) AS ns, sum(score) AS s FROM poi", [],
         [("count", "score", "ns"), ("sum", "score", "s")]),
    ])
    def test_group_by_equals_the_row_fold(self, regions_engine, statement,
                                          keys, aggregates):
        expected = group_by_reference(
            _stored_rows(regions_engine.table("poi")), keys, aggregates)
        assert exact_rows(list(regions_engine.sql(statement))) == \
            exact_rows(expected)

    def test_order_by_limit_equals_the_row_sort(self, regions_engine):
        rows = regions_engine.sql(
            "SELECT name, score, fid FROM poi ORDER BY name DESC, score "
            "LIMIT 40")
        expected = order_by_reference(
            _stored_rows(regions_engine.table("poi")), ["name", "score"],
            [False, True])[:40]
        assert exact_rows(list(rows)) == exact_rows(
            [{k: r[k] for k in ("name", "score", "fid")} for r in expected])


class TestCountColumn:
    """``COUNT(expr)`` counts the non-NULL values, as Spark SQL does."""

    def test_counts_non_nulls(self, regions_engine):
        stored = _stored_rows(regions_engine.table("poi"))
        rows = list(regions_engine.sql(
            "SELECT count(*) AS n, count(score) AS ns, count(name) AS nn, "
            "count(fid + 1) AS nf FROM poi"))
        assert rows == [{
            "n": len(stored),
            "ns": sum(r["score"] is not None for r in stored),
            "nn": sum(r["name"] is not None for r in stored),
            "nf": len(stored)}]

    @pytest.mark.parametrize("statement", [
        "SELECT count(name) FROM poi",
        "SELECT sum(name) FROM poi",
        "SELECT min(name), max(fid) FROM poi GROUP BY score",
        "SELECT avg(geom) FROM poi",
    ])
    def test_no_builtin_error_escapes(self, regions_engine, statement):
        try:
            list(regions_engine.sql(statement))
        except ExecutionError:
            pass  # a typed error is an answer; a builtin one is a bug


# -- plugin tables ------------------------------------------------------------

class TestPluginItems:
    """``SELECT item`` through the full scan equals the row API's."""

    def test_trajectory(self, small_trajs):
        engine = JustEngine(split_bytes=16 * 1024, flush_bytes=4 * 1024)
        engine.sql("CREATE TABLE trips AS trajectory")
        table = engine.table("trips")
        table.insert_trajectories(small_trajs)
        rows = list(engine.sql("SELECT tid, item FROM trips"))
        assert len(rows) == len(small_trajs)
        for row in rows:
            assert isinstance(row["item"], Trajectory)
            assert row["item"] == table.get(row["tid"])["item"]
        assert [r["item"] for r in engine.sql("SELECT item FROM trips")] \
            == [r["item"] for r in rows]
        assert table.full_scan() == [table.get(r["tid"]) for r in rows]

    def test_geofence(self):
        engine = JustEngine()
        table = engine.create_plugin_table("fences", "geofence")
        table.insert_rows([
            {"gid": f"z{i}", "name": f"zone {i}", "category": "delivery",
             "valid_from": T0, "valid_to": T0 + 86400,
             "area": Polygon([(116.0 + i * 0.01, 39.9),
                              (116.005 + i * 0.01, 39.9),
                              (116.005 + i * 0.01, 39.905)])}
            for i in range(30)])
        rows = list(engine.sql("SELECT gid, item FROM fences"))
        assert len(rows) == 30
        for row in rows:
            assert row["item"] == table.get(row["gid"])["item"]
        assert table.full_scan() == [table.get(r["gid"]) for r in rows]
