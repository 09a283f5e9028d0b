"""Data-source loaders and LOAD-statement field mapping (Section V-B).

Supports CSV and GeoJSON file sources plus
"hive-like" external sources: any iterable of dict rows registered with
the engine under a name, addressable as ``hive:<name>`` in LOAD
statements.  The CONFIG mapping uses the paper's preset transform
functions (``lng_lat_to_point``, ``long_to_date_ms``, ...) to convert
source columns into JUST field values.
"""

from __future__ import annotations

import csv
import json
import re
from pathlib import Path
from typing import Callable, Iterable

from repro.errors import ExecutionError, SchemaError
from repro.geometry.linestring import LineString
from repro.geometry.point import Point
from repro.geometry.polygon import Polygon
from repro.geometry.wkt import from_wkt
from repro.trajectory.model import STSeries


# -- transform functions ------------------------------------------------------

def _lng_lat_to_point(lng, lat) -> Point:
    return Point(float(lng), float(lat))


def _long_to_date_ms(value) -> float:
    return float(value) / 1000.0


def _long_to_date_s(value) -> float:
    return float(value)


def _st_series_from_json(value) -> STSeries:
    """Parse ``[[lng, lat, t], ...]`` JSON text into an st_series."""
    data = json.loads(value) if isinstance(value, str) else value
    return STSeries([(float(p[0]), float(p[1]), float(p[2])) for p in data])


TRANSFORMS: dict[str, Callable] = {
    "lng_lat_to_point": _lng_lat_to_point,
    "long_to_date_ms": _long_to_date_ms,
    "long_to_date_s": _long_to_date_s,
    "wkt_to_geom": lambda v: from_wkt(v),
    "to_int": lambda v: int(float(v)),
    "to_long": lambda v: int(float(v)),
    "to_double": lambda v: float(v),
    "to_string": lambda v: str(v),
    "to_bool": lambda v: str(v).strip().lower() in ("1", "true", "t", "yes"),
    "st_series_from_json": _st_series_from_json,
}

_CALL_RE = re.compile(r"^\s*(\w+)\s*\(\s*([^)]*)\s*\)\s*$")


def apply_config(source_row: dict, config: dict[str, str]) -> dict:
    """Map one source row through a LOAD CONFIG field mapping.

    Each config value is either a bare source column name or a transform
    call over source columns, e.g. ``'lng_lat_to_point(lng, lat)'``.
    """
    out = {}
    for target, expression in config.items():
        match = _CALL_RE.match(expression)
        if match:
            fn_name, args_text = match.groups()
            try:
                fn = TRANSFORMS[fn_name]
            except KeyError:
                valid = ", ".join(sorted(TRANSFORMS))
                raise ExecutionError(
                    f"unknown LOAD transform {fn_name!r}; expected one of "
                    f"{valid}") from None
            args = [a.strip() for a in args_text.split(",") if a.strip()]
            values = []
            for arg in args:
                if arg not in source_row:
                    raise ExecutionError(
                        f"LOAD transform references missing source column "
                        f"{arg!r}")
                values.append(source_row[arg])
            out[target] = fn(*values)
        else:
            column = expression.strip()
            if column not in source_row:
                raise ExecutionError(
                    f"LOAD mapping references missing source column "
                    f"{column!r}")
            out[target] = source_row[column]
    return out


# -- file sources ----------------------------------------------------------------

def load_csv(path: str | Path, delimiter: str = ",") -> list[dict]:
    """Read a headered CSV into string-valued dict rows."""
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.DictReader(handle, delimiter=delimiter))


def load_geojson(path: str | Path) -> list[dict]:
    """Read a GeoJSON FeatureCollection into rows.

    Each row carries the feature's properties plus a ``geometry`` object.
    """
    with open(path, encoding="utf-8") as handle:
        doc = json.load(handle)
    if doc.get("type") != "FeatureCollection":
        raise ExecutionError("GeoJSON source must be a FeatureCollection")
    rows = []
    for feature in doc.get("features", []):
        row = dict(feature.get("properties") or {})
        row["geometry"] = _geojson_geometry(feature.get("geometry"))
        rows.append(row)
    return rows


def _geojson_geometry(geometry: dict | None):
    if geometry is None:
        return None
    gtype = geometry.get("type")
    coords = geometry.get("coordinates")
    if gtype == "Point":
        return Point(coords[0], coords[1])
    if gtype == "LineString":
        return LineString(coords)
    if gtype == "Polygon":
        return Polygon(coords[0])
    raise SchemaError(f"unsupported GeoJSON geometry type {gtype!r}")


FILE_LOADERS: dict[str, Callable[[str], list[dict]]] = {
    "csv": load_csv,
    "geojson": load_geojson,
}


def load_file(path: str | Path, fmt: str | None = None) -> list[dict]:
    """Load any supported file format (inferred from the extension)."""
    path = Path(path)
    fmt = (fmt or path.suffix.lstrip(".")).lower()
    if fmt == "json":
        fmt = "geojson"
    try:
        loader = FILE_LOADERS[fmt]
    except KeyError:
        valid = ", ".join(sorted(FILE_LOADERS))
        raise ExecutionError(
            f"unsupported file format {fmt!r}; expected one of {valid}"
        ) from None
    return loader(path)


class SourceRegistry:
    """Named external sources (the engine's stand-in for Hive/HBase)."""

    def __init__(self) -> None:
        self._sources: dict[str, list[dict]] = {}

    def register(self, name: str, rows: Iterable[dict]) -> None:
        self._sources[name] = list(rows)

    def rows(self, name: str) -> list[dict]:
        try:
            return self._sources[name]
        except KeyError:
            raise ExecutionError(
                f"unknown external source {name!r}; register it with "
                f"engine.register_source()") from None

    def names(self) -> list[str]:
        return sorted(self._sources)
