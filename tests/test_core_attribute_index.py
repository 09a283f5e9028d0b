"""Secondary attribute indexes (the Figure 1 'Attribute Indexing' box)."""

import pytest

from repro import JustEngine, Point, Schema
from repro.curves import STQuery
from repro.datagen import generate_traj_dataset
from repro.errors import SchemaError

from conftest import POI_SCHEMA_FIELDS, make_poi_rows


@pytest.fixture
def attr_engine():
    engine = JustEngine()
    engine.create_table("poi", Schema(list(POI_SCHEMA_FIELDS)),
                        userdata={"just.attribute.indices": "name"})
    engine.insert("poi", make_poi_rows(300, seed=13))
    return engine


class TestAttributeIndexMaintenance:
    def test_equality_lookup(self, attr_engine):
        table = attr_engine.table("poi")
        rows = table.attribute_query("name", "poi4")
        assert rows
        assert all(r["name"] == "poi4" for r in rows)
        assert len(rows) == sum(1 for r in make_poi_rows(300, seed=13)
                                if r["name"] == "poi4")

    def test_missing_index_rejected(self, attr_engine):
        with pytest.raises(SchemaError):
            attr_engine.table("poi").attribute_query("time", 0.0)

    def test_unknown_field_rejected(self):
        engine = JustEngine()
        with pytest.raises(SchemaError):
            engine.create_table(
                "t", Schema(list(POI_SCHEMA_FIELDS)),
                userdata={"just.attribute.indices": "ghost"})

    def test_update_moves_index_entry(self, attr_engine):
        table = attr_engine.table("poi")
        row = dict(table.get("7"))
        row["name"] = "renamed"
        table.insert_rows([row])
        assert not any(r["fid"] == 7
                       for r in table.attribute_query("name", "poi7"))
        assert [r["fid"] for r in
                table.attribute_query("name", "renamed")] == [7]

    def test_upsert_decodes_only_what_the_old_keys_need(self,
                                                        monkeypatch):
        """The old row is read for its primary key, filter fields and
        attribute-indexed fields — and every old entry still goes."""
        from repro.core.schema import Field, FieldType
        engine = JustEngine()
        engine.create_table(
            "poi", Schema(list(POI_SCHEMA_FIELDS)
                          + [Field("note", FieldType.STRING)]),
            userdata={"just.attribute.indices": "name"})
        engine.insert("poi", [dict(r, note=f"note {r['fid']}")
                              for r in make_poi_rows(300, seed=13)])
        table = engine.table("poi")
        old = dict(table.get("7"))
        asked = []
        decode_row = table.codec.decode_row
        monkeypatch.setattr(
            table.codec, "decode_row",
            lambda data, wanted=None: asked.append(wanted)
            or decode_row(data, wanted))
        new = dict(old, name="renamed", time=old["time"] + 86400.0,
                   geom=Point(old["geom"].lng + 0.2, old["geom"].lat))
        before = table.row_count
        table.insert_rows([new])
        assert asked == [frozenset({"fid", "name", "time", "geom"})]
        monkeypatch.undo()
        assert table.row_count == before
        assert table.get("7") == new
        assert table.attribute_query("name", "renamed") == [new]
        assert not any(r["fid"] == 7
                       for r in table.attribute_query("name", "poi7"))
        # No index table keeps an entry under the old position or time.
        around_old = STQuery(old["geom"].envelope.buffer(1e-6, 1e-6),
                             old["time"] - 1.0, old["time"] + 1.0)
        around_new = STQuery(new["geom"].envelope.buffer(1e-6, 1e-6),
                             new["time"] - 1.0, new["time"] + 1.0)
        for strategy_name in table.strategies:
            assert not any(
                r["fid"] == 7 for r in table.query(
                    around_old, strategy_name=strategy_name))
            assert [r["fid"] for r in table.query(
                around_new, strategy_name=strategy_name)] == [7]

    def test_delete_removes_index_entry(self, attr_engine):
        table = attr_engine.table("poi")
        victim = table.attribute_query("name", "poi2")[0]["fid"]
        table.delete(str(victim))
        assert not any(r["fid"] == victim
                       for r in table.attribute_query("name", "poi2"))


class TestTrajMesaIdQuery:
    def test_trajectories_of(self):
        engine = JustEngine()
        table = engine.create_plugin_table("fleet", "trajectory")
        trajs = generate_traj_dataset(30, 40, seed=3)
        table.insert_trajectories(trajs)
        oid = trajs[5].oid
        got = table.attribute_query("oid", oid)
        expected = sorted(t.tid for t in trajs if t.oid == oid)
        assert sorted(r["tid"] for r in got) == expected
        assert all(r["item"].oid == oid for r in got)

    def test_sql_uses_attribute_index(self):
        engine = JustEngine()
        table = engine.create_plugin_table("fleet", "trajectory")
        trajs = generate_traj_dataset(30, 40, seed=3)
        table.insert_trajectories(trajs)
        table.flush()
        oid = trajs[0].oid
        engine.store.clear_caches()
        before = engine.store.stats.snapshot()
        rs = engine.sql(f"SELECT tid FROM fleet WHERE oid = '{oid}'")
        delta = engine.store.stats.snapshot().delta(before)
        expected = sorted(t.tid for t in trajs if t.oid == oid)
        assert sorted(r["tid"] for r in rs.rows) == expected
        # Far fewer bytes than the table's total: the index scan, not a
        # full scan, served the query.
        assert delta.disk_bytes_read < table.storage_bytes() / 3

    def test_attr_combined_with_st_predicate_still_correct(self):
        engine = JustEngine()
        table = engine.create_plugin_table("fleet", "trajectory")
        trajs = generate_traj_dataset(30, 40, seed=3)
        table.insert_trajectories(trajs)
        oid = trajs[0].oid
        t0 = min(t.start_time for t in trajs)
        rs = engine.sql(
            f"SELECT tid FROM fleet WHERE oid = '{oid}' AND "
            f"start_time BETWEEN {t0} AND {t0 + 86400 * 40}")
        expected = sorted(t.tid for t in trajs if t.oid == oid)
        assert sorted(r["tid"] for r in rs.rows) == expected
