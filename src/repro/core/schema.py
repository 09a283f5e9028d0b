"""Table schemas and field types.

A JustQL column definition looks like ``geom point:srid=4326`` or
``gpsList st_series:compress=gzip``; :func:`Field.parse` understands that
syntax, and :class:`Schema` validates rows against the declared fields.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import partial
from itertools import chain

from repro.errors import SchemaError
from repro.geometry.base import Geometry
from repro.geometry.linestring import LineString
from repro.geometry.point import Point
from repro.geometry.polygon import Polygon
from repro.trajectory.model import STSeries, TSeries


class FieldType(enum.Enum):
    """Column types supported by JustQL CREATE TABLE."""

    INTEGER = "integer"
    LONG = "long"
    DOUBLE = "double"
    STRING = "string"
    BOOLEAN = "boolean"
    DATE = "date"                # epoch seconds (float)
    POINT = "point"
    LINESTRING = "linestring"
    POLYGON = "polygon"
    GEOMETRY = "geometry"        # any of the above geometry types
    ST_SERIES = "st_series"      # sequence of (lng, lat, t)
    T_SERIES = "t_series"        # sequence of (t, value)

    @classmethod
    def from_name(cls, name: str) -> "FieldType":
        try:
            return cls(name.lower())
        except ValueError:
            valid = ", ".join(t.value for t in cls)
            raise SchemaError(
                f"unknown field type {name!r}; expected one of {valid}"
            ) from None

    @property
    def is_geometry(self) -> bool:
        return self in (FieldType.POINT, FieldType.LINESTRING,
                        FieldType.POLYGON, FieldType.GEOMETRY)


_PY_TYPES = {
    FieldType.INTEGER: (int,),
    FieldType.LONG: (int,),
    FieldType.DOUBLE: (int, float),
    FieldType.STRING: (str,),
    FieldType.BOOLEAN: (bool,),
    FieldType.DATE: (int, float),
    FieldType.POINT: (Point,),
    FieldType.LINESTRING: (LineString,),
    FieldType.POLYGON: (Polygon,),
    FieldType.GEOMETRY: (Geometry,),
    FieldType.ST_SERIES: (STSeries,),
    FieldType.T_SERIES: (TSeries,),
}

_VALID_COMPRESSION = ("none", "gzip", "zip")


@dataclass(frozen=True)
class Field:
    """One column: name, type, and options."""

    name: str
    ftype: FieldType
    primary_key: bool = False
    srid: int = 4326
    compress: str = "none"
    options: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.compress not in _VALID_COMPRESSION:
            raise SchemaError(
                f"field {self.name!r}: unknown compression "
                f"{self.compress!r}; expected one of {_VALID_COMPRESSION}")
        # The exact value types :meth:`invalid_at` passes without a look
        # at each value (subclasses take the per-value check).
        passing = set(_PY_TYPES[self.ftype])
        if not self.primary_key:
            passing.add(type(None))
        object.__setattr__(self, "_passing", frozenset(passing))

    @classmethod
    def parse(cls, name: str, type_spec: str) -> "Field":
        """Parse a JustQL column spec such as ``'point:srid=4326'``.

        Options after the type are colon-separated; ``primary key`` marks
        the feature-id column, ``srid=N`` and ``compress=M`` set options.
        """
        parts = [p.strip() for p in type_spec.split(":")]
        ftype = FieldType.from_name(parts[0])
        primary_key = False
        srid = 4326
        compress = "none"
        options: dict = {}
        for option in parts[1:]:
            lowered = option.lower()
            if lowered in ("primary key", "primary_key"):
                primary_key = True
            elif lowered.startswith("srid="):
                srid = int(option.split("=", 1)[1])
            elif lowered.startswith("compress="):
                compress = option.split("=", 1)[1].split("|")[0].lower()
            else:
                key, _, value = option.partition("=")
                options[key.strip()] = value.strip()
        return cls(name, ftype, primary_key, srid, compress, options)

    def invalid_at(self, column: list) -> int | None:
        """Where :meth:`validate` first rejects a value of ``column``
        (``None``: nowhere).  A column of the field's own types (and
        NULLs, unless it is the primary key) passes at C speed."""
        if self._passing.issuperset(map(type, column)):
            return None
        expected = _PY_TYPES[self.ftype]
        for index, value in enumerate(column):
            if value is None:
                if self.primary_key:
                    return index
            elif not isinstance(value, expected):
                return index
        return None

    def validate(self, value) -> None:
        """Raise SchemaError when ``value`` cannot live in this column."""
        if value is None:
            if self.primary_key:
                raise SchemaError(
                    f"primary key {self.name!r} must not be NULL")
            return
        expected = _PY_TYPES[self.ftype]
        if not isinstance(value, expected):
            names = "/".join(t.__name__ for t in expected)
            raise SchemaError(
                f"field {self.name!r} expects {names}, got "
                f"{type(value).__name__}")


def _first(fields: list[Field], test) -> Field | None:
    """The first of ``fields`` whose type passes ``test``."""
    return next((f for f in fields if test(f.ftype)), None)


class Schema:
    """An ordered collection of fields with at most one primary key."""

    def __init__(self, fields: list[Field]):
        if not fields:
            raise SchemaError("a schema needs at least one field")
        names = [f.name for f in fields]
        if len(set(names)) != len(names):
            raise SchemaError(f"duplicate field names in schema: {names}")
        pks = [f for f in fields if f.primary_key]
        if len(pks) > 1:
            raise SchemaError("at most one primary key field is allowed")
        self.fields = list(fields)
        self._by_name = {f.name: f for f in fields}
        self.primary_key = pks[0] if pks else None
        # A schema never changes once built, so the default columns are
        # found once here rather than on every row an exact filter tests.
        #: The first geometry-typed field (the default spatial column).
        self.geometry_field = _first(fields, lambda t: t.is_geometry)
        #: The first date-typed field (the default temporal column).
        self.time_field = _first(fields, lambda t: t == FieldType.DATE)
        self.st_series_field = _first(
            fields, lambda t: t == FieldType.ST_SERIES)

    def __iter__(self):
        return iter(self.fields)

    def __len__(self) -> int:
        return len(self.fields)

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def field(self, name: str) -> Field:
        try:
            return self._by_name[name]
        except KeyError:
            raise SchemaError(f"no field named {name!r}") from None

    @property
    def names(self) -> list[str]:
        return [f.name for f in self.fields]

    def validate_rows(self, rows: list[dict]) -> dict[str, list]:
        """Check a batch of rows a column at a time, and return it as
        columns: ``{field: [value of each row]}``, ``None`` where a row
        omits the field.

        Raises the :class:`SchemaError` that checking row after row
        raises: of the first row with an unknown key or a bad value, and
        in that row the unknown keys before the fields in schema order.
        """
        known = self._by_name.keys()
        first = None  # (row index, a call raising its first failure)
        if not known >= set(chain.from_iterable(rows)):
            index, row = next((i, row) for i, row in enumerate(rows)
                              if not known >= row.keys())
            first = (index, partial(self._reject_unknown, row))
        columns = {}
        for f in self.fields:
            column = columns[f.name] = [row.get(f.name) for row in rows]
            index = f.invalid_at(column)
            if index is not None and (first is None or index < first[0]):
                first = (index, partial(f.validate, column[index]))
        if first is not None:
            first[1]()
        return columns

    def _reject_unknown(self, row: dict) -> None:
        extras = set(row) - set(self._by_name)
        raise SchemaError(f"row has unknown fields: {sorted(extras)}")

    def fids(self, columns: dict[str, list]) -> list[str]:
        """The feature ids (stringified primary keys) of a column-major
        batch (:meth:`validate_rows`)."""
        if self.primary_key is None:
            raise SchemaError("schema has no primary key")
        return list(map(str, columns[self.primary_key.name]))

    def describe(self) -> list[dict]:
        """Rows for the DESC statement."""
        out = []
        for f in self.fields:
            flags = []
            if f.primary_key:
                flags.append("primary key")
            if f.srid != 4326 and f.ftype.is_geometry:
                flags.append(f"srid={f.srid}")
            if f.compress != "none":
                flags.append(f"compress={f.compress}")
            out.append({"field": f.name, "type": f.ftype.value,
                        "flags": ", ".join(flags)})
        return out
