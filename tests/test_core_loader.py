"""File loaders and LOAD field mapping."""

import pytest

from repro.core.loader import (
    SourceRegistry,
    apply_config,
    load_csv,
    load_file,
    load_geojson,
)
from repro.errors import ExecutionError
from repro.geometry import LineString, Point, Polygon


class TestApplyConfig:
    def test_bare_column(self):
        out = apply_config({"a": "1"}, {"x": "a"})
        assert out == {"x": "1"}

    def test_transforms(self):
        row = {"lng": "116.3", "lat": "39.9", "ts": "1500000000000",
               "n": "7"}
        out = apply_config(row, {
            "geom": "lng_lat_to_point(lng, lat)",
            "time": "long_to_date_ms(ts)",
            "fid": "to_int(n)",
        })
        assert out["geom"] == Point(116.3, 39.9)
        assert out["time"] == 1_500_000_000.0
        assert out["fid"] == 7

    def test_wkt_transform(self):
        out = apply_config({"w": "POINT (1 2)"}, {"g": "wkt_to_geom(w)"})
        assert out["g"] == Point(1, 2)

    def test_unknown_transform(self):
        with pytest.raises(ExecutionError):
            apply_config({"a": 1}, {"x": "no_such(a)"})

    def test_missing_column(self):
        with pytest.raises(ExecutionError):
            apply_config({"a": 1}, {"x": "b"})
        with pytest.raises(ExecutionError):
            apply_config({"a": 1}, {"x": "to_int(b)"})


class TestFileLoaders:
    def test_csv(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("id,lng,lat\n1,116.3,39.9\n2,116.4,40.0\n")
        rows = load_csv(path)
        assert rows == [{"id": "1", "lng": "116.3", "lat": "39.9"},
                        {"id": "2", "lng": "116.4", "lat": "40.0"}]

    def test_geojson(self, tmp_path):
        path = tmp_path / "data.geojson"
        path.write_text("""{
          "type": "FeatureCollection",
          "features": [
            {"type": "Feature", "properties": {"name": "a"},
             "geometry": {"type": "Point", "coordinates": [116.3, 39.9]}},
            {"type": "Feature", "properties": {"name": "b"},
             "geometry": {"type": "LineString",
                          "coordinates": [[0, 0], [1, 1]]}},
            {"type": "Feature", "properties": {"name": "c"},
             "geometry": {"type": "Polygon",
                          "coordinates": [[[0,0],[1,0],[0,1],[0,0]]]}}
          ]}""")
        rows = load_geojson(path)
        assert rows[0]["geometry"] == Point(116.3, 39.9)
        assert isinstance(rows[1]["geometry"], LineString)
        assert isinstance(rows[2]["geometry"], Polygon)

    def test_geojson_requires_collection(self, tmp_path):
        path = tmp_path / "bad.geojson"
        path.write_text('{"type": "Feature"}')
        with pytest.raises(ExecutionError):
            load_geojson(path)

    def test_load_file_dispatch(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("a\n1\n")
        assert load_file(path) == [{"a": "1"}]
        with pytest.raises(ExecutionError):
            load_file(tmp_path / "x.parquet")


class TestSourceRegistry:
    def test_register_and_read(self):
        registry = SourceRegistry()
        registry.register("src", [{"a": 1}])
        assert registry.rows("src") == [{"a": 1}]
        assert registry.names() == ["src"]

    def test_unknown_source(self):
        with pytest.raises(ExecutionError):
            SourceRegistry().rows("ghost")
