"""Schema and field parsing (JustQL column specs)."""

import pytest

from repro.core.schema import Field, FieldType, Schema
from repro.errors import SchemaError
from repro.geometry import LineString, Point
from repro.trajectory import STSeries


class TestFieldParse:
    def test_simple_types(self):
        assert Field.parse("a", "integer").ftype is FieldType.INTEGER
        assert Field.parse("a", "string").ftype is FieldType.STRING
        assert Field.parse("a", "date").ftype is FieldType.DATE

    def test_primary_key(self):
        field = Field.parse("fid", "integer:primary key")
        assert field.primary_key

    def test_srid_option(self):
        field = Field.parse("geom", "point:srid=4326")
        assert field.ftype is FieldType.POINT
        assert field.srid == 4326

    def test_compress_option_with_alternatives(self):
        field = Field.parse("gpsList", "st_series:compress=gzip|zip")
        assert field.compress == "gzip"

    def test_unknown_type(self):
        with pytest.raises(SchemaError):
            Field.parse("a", "varchar")

    def test_bad_compression(self):
        with pytest.raises(SchemaError):
            Field(name="x", ftype=FieldType.STRING, compress="lz77")

    def test_extra_options_preserved(self):
        field = Field.parse("a", "string:foo=bar")
        assert field.options == {"foo": "bar"}


class TestFieldValidate:
    def test_type_check(self):
        field = Field("geom", FieldType.POINT)
        field.validate(Point(1, 2))
        with pytest.raises(SchemaError):
            field.validate("POINT (1 2)")

    def test_null_allowed_except_pk(self):
        Field("x", FieldType.STRING).validate(None)
        with pytest.raises(SchemaError):
            Field("fid", FieldType.STRING, primary_key=True).validate(None)

    def test_geometry_accepts_any_shape(self):
        field = Field("g", FieldType.GEOMETRY)
        field.validate(Point(0, 0))
        field.validate(LineString([(0, 0), (1, 1)]))

    def test_st_series(self):
        field = Field("s", FieldType.ST_SERIES)
        field.validate(STSeries([(0, 0, 1.0)]))
        with pytest.raises(SchemaError):
            field.validate([(0, 0, 1.0)])


class TestSchema:
    def make(self):
        return Schema([
            Field("fid", FieldType.INTEGER, primary_key=True),
            Field("name", FieldType.STRING),
            Field("time", FieldType.DATE),
            Field("geom", FieldType.POINT),
        ])

    def test_accessors(self):
        schema = self.make()
        assert schema.names == ["fid", "name", "time", "geom"]
        assert schema.primary_key.name == "fid"
        assert schema.geometry_field.name == "geom"
        assert schema.time_field.name == "time"
        assert "name" in schema
        assert len(schema) == 4

    def test_duplicate_names_rejected(self):
        with pytest.raises(SchemaError):
            Schema([Field("a", FieldType.STRING),
                    Field("a", FieldType.STRING)])

    def test_two_primary_keys_rejected(self):
        with pytest.raises(SchemaError):
            Schema([Field("a", FieldType.STRING, primary_key=True),
                    Field("b", FieldType.STRING, primary_key=True)])

    def test_empty_rejected(self):
        with pytest.raises(SchemaError):
            Schema([])

    def test_validate_row(self):
        schema = self.make()
        schema.validate_rows([{"fid": 1, "name": "x", "time": 0.0,
                               "geom": Point(0, 0)}])
        with pytest.raises(SchemaError):
            schema.validate_rows([{"fid": 1, "extra": True}])
        with pytest.raises(SchemaError):
            schema.validate_rows([{"fid": None}])

    def test_fid_of(self):
        schema = self.make()
        assert schema.fids({"fid": [42, 7]}) == ["42", "7"]

    def test_describe(self):
        rows = self.make().describe()
        assert rows[0] == {"field": "fid", "type": "integer",
                           "flags": "primary key"}

    def test_unknown_field_lookup(self):
        with pytest.raises(SchemaError):
            self.make().field("missing")
