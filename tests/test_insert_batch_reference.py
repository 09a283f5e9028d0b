"""An insert batch is prepared a column at a time, with the effect of the
row-at-a-time loop it replaced (``oracles.insert_mutations_reference``).

Twin tables take the same batches, one through ``insert_rows`` and one
through the reference.  Every batch must write the same mutation list
(table, key bytes, value bytes, order), leave the same statistics
(``data_envelope``, ``time_extent``, each strategy's look-back,
``row_count``) and raise the same exception (type and message); a batch
that raises must not have read the store.
"""

from __future__ import annotations

import gzip
import math
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.codec import RowCodec
from repro.core.plugins import (
    GEOFENCE_SCHEMA,
    TRAJECTORY_SCHEMA,
    GeofencePlugin,
    TrajectoryPlugin,
)
from repro.core.schema import Field, FieldType, Schema
from repro.core.tables import CommonTable
from repro.curves.strategies import IndexedRecord, strategy_from_name
from repro.errors import SchemaError
from repro.geometry import LineString, Point, Polygon
from repro.kvstore.store import KVStore
from repro.trajectory import STSeries, Trajectory
from repro.trajectory.model import TSeries

from oracles import index_key_reference, insert_mutations_reference

T0 = 1_500_000_000.0
DAY = 86400.0


class _FixedClock:
    """``gzip`` stamps the current second into its header: fixed here so
    two encodes of one row are byte-identical."""

    @staticmethod
    def time() -> float:
        return T0


# -- values --------------------------------------------------------------------

def _mostly(common, rare, odds: int = 20):
    """``common``, and once in about ``odds`` draws ``rare``."""
    return st.integers(0, odds - 1).flatmap(
        lambda i: rare if i == 0 else common)


lngs = st.one_of(st.floats(-180.0, 180.0, allow_nan=False),
                 st.sampled_from([-180.0, 180.0, 0.0, -0.0, 116.3]))
lats = st.one_of(st.floats(-90.0, 90.0, allow_nan=False),
                 st.sampled_from([-90.0, 90.0, 0.0, -0.0, 39.9]))
points = st.builds(Point, lngs, lats)
times = _mostly(
    st.one_of(st.floats(T0 - 3 * DAY, T0 + 3 * DAY),
              st.integers(0, 4_000_000_000),
              st.sampled_from([T0, T0 + DAY, -1.5 * DAY, -0.0])),
    st.sampled_from([math.inf, -math.inf, math.nan, 1e300]))


def _line(coords):
    return LineString(coords) if len(set(coords)) >= 2 else None


lines = st.lists(st.tuples(lngs, lats), min_size=2, max_size=4).map(
    _line).filter(lambda line: line is not None)


@st.composite
def boxes(draw):
    x1, x2 = sorted((draw(lngs), draw(lngs)))
    y1, y2 = sorted((draw(lats), draw(lats)))
    return Polygon([(x1, y1), (x2, y1), (x2, y2), (x1, y2)])


@st.composite
def series(draw, max_size=5):
    count = draw(st.integers(0, max_size))
    t = T0 + draw(st.floats(-DAY, DAY))
    fixes = []
    for _ in range(count):
        t += draw(st.sampled_from([0.0, 1.0, 30.0, 7200.0, 3 * DAY]))
        fixes.append((draw(lngs), draw(lats), t))
    return STSeries(fixes)


strings = _mostly(
    st.one_of(st.text(max_size=6),
              st.text(alphabet="aé漢😀", min_size=40, max_size=80),
              st.sampled_from(["x" * 127, "é" * 64])),  # 128+ bytes, edges
    st.just("\ud800"))  # UTF-8 cannot hold it

VALUES = {
    FieldType.INTEGER: _mostly(st.integers(-2**63, 2**63 - 1),
                               st.sampled_from([True, 2**70])),
    FieldType.LONG: st.integers(-2**63, 2**63 - 1),
    FieldType.DOUBLE: _mostly(st.one_of(st.floats(), st.integers(-10, 10)),
                              st.just(10**400)),
    FieldType.DATE: times,
    FieldType.STRING: strings,
    FieldType.BOOLEAN: st.booleans(),
    FieldType.POINT: points,
    FieldType.LINESTRING: lines,
    FieldType.POLYGON: boxes(),
    FieldType.GEOMETRY: st.one_of(points, lines, boxes()),
    FieldType.ST_SERIES: series(),
    FieldType.T_SERIES: st.lists(st.tuples(st.floats(0, 1e9),
                                           st.floats(-1e6, 1e6)),
                                 max_size=3).map(
        lambda samples: TSeries(sorted(samples))),
}
#: A value of the wrong type for most field types.
WRONG = st.sampled_from(["text", 1.5, Point(1.0, 2.0), b"raw"])


# -- schemas and tables --------------------------------------------------------

ATTRIBUTE_TYPES = (FieldType.STRING, FieldType.INTEGER, FieldType.DOUBLE,
                   FieldType.DATE, FieldType.BOOLEAN, FieldType.POINT)


#: Index sets by the type of a table's geometry: the ones its rows fit,
#: and (rarely) any.
FITTING = {
    FieldType.POINT: ["z2", "z2t", "z3", "xz2", "z2t:hour", "z3:year"],
    FieldType.LINESTRING: ["xz2", "xz2t", "xz3", "xz2t:week"],
    FieldType.POLYGON: ["xz2", "xz2t", "xz3", "xz2t:week"],
}
ANY_INDEX = ["z2", "z2t", "z3", "xz2", "xz2t", "xz3"]


@st.composite
def common_tables(draw):
    pk = draw(st.sampled_from([FieldType.INTEGER, FieldType.STRING]))
    shape = draw(st.sampled_from(list(FITTING)))
    fields = [Field("fid", pk, primary_key=True),
              Field("when", FieldType.DATE), Field("where", shape)]
    for i in range(draw(st.integers(0, 5))):
        ftype = draw(st.sampled_from(list(FieldType)))
        compress = draw(st.sampled_from(["none", "none", "gzip", "zip"]))
        fields.append(Field(f"f{i}", ftype, compress=compress))
    fields[1:] = draw(st.permutations(fields[1:]))
    indexes = draw(st.lists(st.sampled_from(
        draw(_mostly(st.just(FITTING[shape]), st.just(ANY_INDEX), 8))),
        unique=True, max_size=3))
    attributes = draw(st.lists(st.sampled_from(
        [f.name for f in fields[1:] if f.ftype in ATTRIBUTE_TYPES]
        or ["fid"]), unique=True, max_size=2))
    compression = draw(st.booleans())
    return ("common", Schema(fields), indexes, attributes, compression)


PLUGINS = {"trajectory": (TrajectoryPlugin, TRAJECTORY_SCHEMA),
           "geofence": (GeofencePlugin, GEOFENCE_SCHEMA)}


@st.composite
def plugin_tables(draw):
    kind = draw(st.sampled_from(sorted(PLUGINS)))
    indexes = draw(st.sampled_from([["xz2", "xz2t"], ["xz2", "xz2t"],
                                    ["xz2t:hour"], ["xz3"], ["z2"], []]))
    return (kind, PLUGINS[kind][1], indexes, None, draw(st.booleans()))


def build(spec) -> CommonTable:
    """A table of ``spec`` that records its write batches, counts its
    id-table reads and notes whether its last batch was prepared."""
    kind, schema, indexes, attributes, compression = spec
    store = KVStore(num_servers=2)
    strategies = {name: strategy_from_name(name) for name in indexes}
    if kind == "common":
        table = CommonTable("t", schema, store, strategies, compression,
                            attribute_fields=attributes)
    else:
        table = PLUGINS[kind][0]("t", schema, store, strategies, compression)
    table.writes = []
    table.gets = 0
    write_batch, get = store.write_batch, table._id_table.get

    def recording_write(mutations):
        table.writes.append([(kv.name, key, value)
                             for kv, key, value in mutations])
        write_batch(mutations)

    def counting_get(key, *args):
        table.gets += 1
        return get(key, *args)

    def noting_prepare(rows):
        table.prepared = False
        prepared = prepare(rows)
        table.prepared = True
        return prepared

    prepare = table._prepare
    store.write_batch = recording_write
    table._id_table.get = counting_get
    table._prepare = noting_prepare
    return table


@st.composite
def rows_for(draw, schema, fids):
    rows = []
    for _ in range(draw(st.integers(0, 6))):
        row = {}
        for f in schema.fields:
            if f.primary_key:
                fid = draw(fids)
                row[f.name] = fid if f.ftype is not FieldType.STRING \
                    else str(fid)
                continue
            choice = draw(st.integers(0, 39))
            if choice == 0:
                continue  # a missing field is NULL
            if choice == 1:
                row[f.name] = None
            else:
                row[f.name] = draw(VALUES[f.ftype])
        fault = draw(st.integers(0, 59))
        if fault == 0:
            row[draw(st.sampled_from(schema.names))] = draw(WRONG)
        elif fault == 1:
            row["extra"] = 1
        elif fault == 2:
            row[schema.primary_key.name] = None
        rows.append(row)
    return rows


@st.composite
def scenarios(draw):
    spec = draw(st.one_of(common_tables(), plugin_tables()))
    fids = st.integers(0, 8)  # few ids: duplicates and upserts
    batches = draw(st.lists(rows_for(spec[1], fids), min_size=1,
                            max_size=3))
    return spec, batches


def _outcome(call):
    try:
        call()
    except Exception as exc:  # compared, type and message
        return type(exc), str(exc)
    return None


def _stats(table):
    lookback = [(getattr(s, "_long_reach", None),
                 getattr(s, "_long_first_bin", None))
                for s in table.strategies.values()]
    return (repr(table.data_envelope), repr(table.time_extent),
            table.row_count, lookback)


@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large])
@given(scenarios())
def test_a_batch_writes_and_raises_as_the_row_loop_did(scenario):
    spec, batches = scenario
    new, reference = build(spec), build(spec)
    with mock.patch.object(gzip, "time", _FixedClock):
        for rows in batches:
            gets = new.gets
            got = _outcome(lambda: new.insert_rows(rows))
            want = _outcome(lambda: insert_mutations_reference(reference,
                                                               rows))
            assert got == want
            assert new.writes == reference.writes
            assert _stats(new) == _stats(reference)
            if got is not None and not new.prepared:
                assert new.gets == gets, "a rejected batch read the store"


# -- explicit cases -------------------------------------------------------------

ORDERS = Schema([
    Field("fid", FieldType.INTEGER, primary_key=True),
    Field("time", FieldType.DATE),
    Field("geom", FieldType.POINT),
    Field("amount", FieldType.DOUBLE),
    Field("category", FieldType.STRING),
])


def _order(fid, **changes):
    row = {"fid": fid, "time": T0 + fid % 97,
           "geom": Point(116.3, 39.9 + fid % 97 / 1e3), "amount": 1.5,
           "category": "c"}
    row.update(changes)
    return row


@pytest.mark.parametrize("rows", [
    # the second row fails twice: its unknown key is its first error
    [_order(1), {**_order(2, geom="x"), "extra": 1}, _order(3, time="y")],
    # a later field of an earlier row beats an earlier field of a later row
    [_order(1), _order(2, category=5), _order(3, time="y")],
    # validation passes; the third row's geometry is NULL, the second's
    # timestamp cannot be binned: the earlier row wins
    [_order(1), _order(2, time=math.nan), _order(3, geom=None)],
    # an encode failure (out of i64) before a key failure of a later row
    [_order(1), _order(2 ** 70), _order(3, time=math.inf)],
    # an in-batch duplicate, then an upsert of a stored row
    [_order(1), _order(1, amount=2.0), _order(0)],
])
def test_explicit_batches(rows):
    spec = ("common", ORDERS, ["z2", "z2t"], ["category"], True)
    new, reference = build(spec), build(spec)
    for table in (new, reference):
        table.insert_rows([_order(0, amount=9.0)])
        table.writes.clear()
        table.gets = 0
    got = _outcome(lambda: new.insert_rows(rows))
    assert got == _outcome(lambda: insert_mutations_reference(reference,
                                                              rows))
    assert new.writes == reference.writes
    assert _stats(new) == _stats(reference)
    if got is not None:
        assert new.gets == 0


def test_nan_times_fold_into_the_time_extent_in_row_order():
    """``min``/``max`` meet a NaN by position: the batch folds its
    column onto the stored extent, as the rows did one by one."""
    spec = ("common", ORDERS, ["z2"], [], True)
    new, reference = build(spec), build(spec)
    batches = [[_order(1)], [_order(2, time=math.nan), _order(3, time=T0 - 5),
                             _order(4, time=T0 + 50)]]
    for rows in batches:
        new.insert_rows(rows)
        insert_mutations_reference(reference, rows)
    assert _stats(new) == _stats(reference)
    assert new.time_extent == (T0 - 5, T0 + 50)


@pytest.mark.parametrize("index", ["xz2t", "xz3"])
@pytest.mark.parametrize("valid_to", [math.inf, math.nan, T0 - 1.0],
                         ids=["infinite", "nan", "inverted"])
def test_a_bad_extent_is_rejected_before_a_read(index, valid_to):
    """A fence valid "forever", or ending before it starts, has no
    period reach a look-back could take in: its batch is rejected as
    invalid, naming the row, before the store is read, and the
    statistics stay as they were."""
    spec = ("geofence", GEOFENCE_SCHEMA, [index], None, True)
    area = Polygon([(116.0, 39.0), (116.1, 39.0), (116.1, 39.1)])

    def fence(gid, valid_to):
        return {"gid": gid, "name": "n", "category": "c",
                "valid_from": T0 + 1, "valid_to": valid_to, "area": area}

    new, reference = build(spec), build(spec)
    stored = [fence("0", T0 + 3 * DAY)]
    new.insert_rows(stored)
    insert_mutations_reference(reference, stored)
    before, gets, writes = _stats(new), new.gets, len(new.writes)
    rows = [fence("2", T0 + DAY), fence("1", valid_to), fence("3", T0)]
    got = _outcome(lambda: new.insert_rows(rows))
    assert got is not None and got[0] is SchemaError
    assert "row '1' has time extent" in got[1]
    assert got == _outcome(lambda: insert_mutations_reference(reference,
                                                              rows))
    assert new.gets == gets and len(new.writes) == writes
    assert _stats(new) == before == _stats(reference)


POINTS = Schema([Field("fid", FieldType.INTEGER, primary_key=True),
                 Field("geom", FieldType.POINT),
                 Field("time", FieldType.DATE)])
SCALARS = Schema([Field("fid", FieldType.INTEGER, primary_key=True),
                  Field("d", FieldType.DATE),
                  Field("x", FieldType.DOUBLE)])
_AREA = Polygon([(116.0, 39.0), (116.1, 39.0), (116.1, 39.1)])
#: Each table shape, and a valid row of it by feature id.
SHAPES = {
    "fence-xz2t": (("geofence", GEOFENCE_SCHEMA, ["xz2", "xz2t"], None,
                    True),
                   lambda gid: {"gid": gid, "name": "n", "category": "c",
                                "valid_from": T0, "valid_to": T0 + DAY,
                                "area": _AREA}),
    "fence-xz3": (("geofence", GEOFENCE_SCHEMA, ["xz2", "xz3"], None,
                   True),
                  lambda gid: {"gid": gid, "name": "n", "category": "c",
                               "valid_from": T0, "valid_to": T0 + DAY,
                               "area": _AREA}),
    "points-z2t": (("common", POINTS, ["z2t"], [], True),
                   lambda fid: {"fid": int(fid), "geom": Point(116.3, 39.9),
                                "time": T0}),
    "scalars": (("common", SCALARS, [], [], True),
                lambda fid: {"fid": int(fid), "d": T0, "x": 1.5}),
}
_TOO_LARGE = "an integer too large for a float"
_UNKEYABLE = "outside the period bins an index key holds"


@pytest.mark.parametrize("shape, field, value, error", [
    *((fence, field, value, error)
      for fence in ("fence-xz2t", "fence-xz3")
      for field, value, error in (
          ("valid_from", 10**400, _TOO_LARGE),
          ("valid_to", 10**400, _TOO_LARGE),
          ("valid_from", -1e300, _UNKEYABLE),
          ("valid_to", 1e300, _UNKEYABLE))),
    ("points-z2t", "time", 10**400, _TOO_LARGE),
    ("points-z2t", "time", 1e300, _UNKEYABLE),
    ("points-z2t", "time", -1e300, _UNKEYABLE),
    ("scalars", "d", 10**400, _TOO_LARGE),
    ("scalars", "x", 10**400, _TOO_LARGE),
    ("scalars", "d", 1e300, None),
    ("scalars", "x", -1e300, None),
])
def test_a_value_a_column_cannot_hold_is_rejected_before_a_read(
        shape, field, value, error):
    """A DATE or DOUBLE int no float holds, and on a table with a
    per-period index a time whose period bin no key holds, fail
    validation: a SchemaError naming the first such row, before the
    store is read, with the statistics as they were."""
    spec, row = SHAPES[shape]
    new, reference = build(spec), build(spec)
    stored = [row("0")]
    new.insert_rows(stored)
    insert_mutations_reference(reference, stored)
    before, gets, writes = _stats(new), new.gets, len(new.writes)
    rows = [row("2"), {**row("1"), field: value}, row("3")]
    got = _outcome(lambda: new.insert_rows(rows))
    assert got == _outcome(lambda: insert_mutations_reference(reference,
                                                              rows))
    if error is None:
        assert got is None
        return
    assert got[0] is SchemaError
    assert "row '1' has" in got[1] and error in got[1]
    assert new.gets == gets and len(new.writes) == writes
    assert _stats(new) == before == _stats(reference)


@pytest.mark.parametrize("shape, field", [
    ("fence-xz2t", "valid_to"), ("fence-xz3", "valid_to"),
    ("points-z2t", "time")])
def test_the_last_time_a_day_period_key_holds_is_accepted(shape, field):
    spec, row = SHAPES[shape]
    table = build(spec)
    limit = 2**31 * DAY  # the start of the first bin past the period field
    table.insert_rows([{**row("1"), field: math.nextafter(limit, 0.0)}])
    assert table.time_extent[1] == math.nextafter(limit, 0.0)
    with pytest.raises(SchemaError, match=_UNKEYABLE):
        table.insert_rows([{**row("2"), field: limit}])


def test_trajectories_are_keyed_from_their_mbr_without_a_line():
    fixes = [[(116.3 + i * 1e-3, 39.9 + i * 1e-3 * k, T0 + i * 30.0)
              for i in range(n)] for k, n in ((1, 40), (2, 1), (3, 2))]
    trajectories = [Trajectory(f"t{k}", "o", STSeries(f))
                    for k, f in enumerate(fixes)]
    spec = ("trajectory", TRAJECTORY_SCHEMA, ["xz2", "xz2t", "xz3"], None,
            True)
    new, reference = build(spec), build(spec)
    lines = []
    original = STSeries.as_linestring

    def counted(self):
        lines.append(self)
        return original(self)

    with mock.patch.object(STSeries, "as_linestring", counted):
        new.insert_trajectories(trajectories)
        assert lines == []
        new.insert_trajectories(trajectories)  # upserts decode and re-key
        assert lines == []
    for _ in range(2):
        insert_mutations_reference(
            reference, [TrajectoryPlugin.row_of(t) for t in trajectories])
    strip = [[(name, key) for name, key, _value in batch]
             for batch in new.writes]
    assert strip == [[(name, key) for name, key, _value in batch]
                     for batch in reference.writes]


def test_one_row_entries_run_the_batch_plans():
    """``encode_row`` and ``key`` stay, as batches of one."""
    row = _order(7, category="é" * 70)
    codec = RowCodec(ORDERS)
    assert codec.encode_row(row) == codec.encode_rows([row, row])[1]
    # One ulp under a Z2 cell edge on each axis, where a reciprocal
    # (``* (1 / 360)`` for ``/ 360``) lands in the next cell; and the
    # bounds of the world.
    for lng, lat in ((116.3, 39.9), (44.24460997804997, 26.81542041711508),
                     (0.0, -0.0), (-180.0, -90.0), (180.0, 90.0)):
        record = IndexedRecord("7", Point(lng, lat), T0, T0)
        for name in ("z2", "z2t", "z3", "xz2", "xz2t", "xz3"):
            strategy = strategy_from_name(name)
            assert strategy.key(record) == index_key_reference(strategy,
                                                               record)


def test_a_geometry_column_of_mixed_types_keys_each_by_its_mbr():
    schema = Schema([Field("fid", FieldType.INTEGER, primary_key=True),
                     Field("when", FieldType.DATE),
                     Field("shape", FieldType.GEOMETRY)])
    line = LineString([(116.3, 39.9), (116.4, 40.0)])
    rows = [{"fid": 1, "when": T0, "shape": Point(116.3, 39.9)},
            {"fid": 2, "when": T0, "shape": line}]
    spec = ("common", schema, ["xz2", "xz2t"], [], True)
    new, reference = build(spec), build(spec)
    new.insert_rows(rows)
    insert_mutations_reference(reference, rows)
    assert new.writes == reference.writes
    assert _stats(new) == _stats(reference)
