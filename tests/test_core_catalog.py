"""Meta-table (catalog) behaviour."""

import pytest

from repro.core.catalog import TABLE_KINDS, VIEW_KINDS, Catalog
from repro.core.schema import Field, FieldType, Schema
from repro.core.tables import CommonTable, ViewTable
from repro.dataframe import DataFrame
from repro.errors import TableExistsError, TableNotFoundError
from repro.kvstore import KVStore


def meta(name="t"):
    schema = Schema([Field("fid", FieldType.INTEGER, primary_key=True),
                     Field("geom", FieldType.POINT)])
    return CommonTable(name, schema, KVStore(1), {})


def view(name="v"):
    return ViewTable(name, DataFrame.from_rows([], ["a"]))


def test_create_get_drop():
    catalog = Catalog()
    catalog.create(meta("a"))
    assert catalog.get("a").kind == "common"
    dropped = catalog.drop("a")
    assert dropped.name == "a"
    assert not catalog.exists("a")


def test_duplicate_rejected():
    catalog = Catalog()
    catalog.create(meta("a"))
    with pytest.raises(TableExistsError):
        catalog.create(meta("a"))
    with pytest.raises(TableExistsError):
        catalog.create(view("a"))


def test_missing_raises():
    catalog = Catalog()
    with pytest.raises(TableNotFoundError):
        catalog.get("ghost")
    with pytest.raises(TableNotFoundError):
        catalog.drop("ghost")


def test_wrong_kind_is_not_found_and_changes_nothing():
    catalog = Catalog()
    catalog.create(meta("t"))
    catalog.create(view("v"))
    with pytest.raises(TableNotFoundError):
        catalog.drop("v", TABLE_KINDS)
    with pytest.raises(TableNotFoundError):
        catalog.get("t", VIEW_KINDS)
    assert [r.name for r in catalog.list()] == ["t", "v"]


def test_list_tables_creation_order():
    catalog = Catalog()
    for name in ("zebra", "alpha", "middle"):
        catalog.create(meta(name))
    assert [m.name for m in catalog.list()] == \
        ["zebra", "alpha", "middle"]


def test_list_tables_prefix_filter():
    catalog = Catalog()
    catalog.create(meta("u1__t"))
    catalog.create(meta("u2__t"))
    catalog.create(view("u1__v"))
    assert [m.name for m in catalog.list("u1__")] == ["u1__t", "u1__v"]
    assert [m.name for m in catalog.list("u1__", VIEW_KINDS)] == ["u1__v"]


def test_describe_delegates_to_schema():
    catalog = Catalog()
    catalog.create(meta("a"))
    rows = catalog.get("a").describe()
    assert rows[0]["field"] == "fid"


def test_sequence_survives_drops():
    catalog = Catalog()
    catalog.create(meta("a"))
    catalog.create(meta("b"))
    catalog.drop("a")
    catalog.create(meta("a"))
    assert [m.name for m in catalog.list()] == ["b", "a"]


def test_replace_keeps_position_and_kind():
    catalog = Catalog()
    catalog.create(view("v"))
    catalog.create(meta("t"))
    replacement = view("v")
    catalog.replace(replacement)
    assert catalog.list() == [replacement, catalog.get("t")]
    with pytest.raises(TableExistsError):
        catalog.replace(meta("v"))


def test_resolve_reads_system_names_outside_namespaces():
    catalog = Catalog()
    catalog.create(meta("u__t"))
    catalog.create(meta("sys.t"))
    assert catalog.resolve("t", "u__").name == "u__t"
    # A user table named like a system table stays in its namespace.
    with pytest.raises(TableNotFoundError):
        catalog.resolve("sys.t", "u__")
    assert catalog.resolve("sys.t").name == "sys.t"
