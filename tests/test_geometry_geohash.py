"""GeoHash encoding."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import GeometryError
from repro.geometry.geohash import encode

lngs = st.floats(-180, 180, allow_nan=False)
lats = st.floats(-90, 90, allow_nan=False)


class TestKnownValues:
    def test_reference_hashes(self):
        # Well-known reference values from the geohash literature.
        assert encode(-5.6, 42.6, 5) == "ezs42"
        assert encode(112.5584, 37.8324, 9) == "ww8p1r4t8"


class TestRoundtrip:
    @given(lng=lngs, lat=lats, precision=st.integers(1, 9))
    def test_prefix_property(self, lng, lat, precision):
        # A longer geohash refines the shorter one.
        assert encode(lng, lat, precision) == \
            encode(lng, lat, 9)[:precision]


class TestValidation:
    def test_bad_precision(self):
        with pytest.raises(GeometryError):
            encode(0, 0, 0)
        with pytest.raises(GeometryError):
            encode(0, 0, 13)

    def test_bad_coordinate(self):
        with pytest.raises(GeometryError):
            encode(200, 0)
