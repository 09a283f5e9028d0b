"""Coordinate transform properties."""

from hypothesis import given, strategies as st

from repro.geometry import (
    bd09_to_gcj02,
    gcj02_to_bd09,
    gcj02_to_wgs84,
    haversine_distance_m,
    wgs84_to_gcj02,
)

# Coordinates inside mainland China where GCJ02 applies.
china_lngs = st.floats(75.0, 130.0)
china_lats = st.floats(20.0, 50.0)


def test_beijing_offset_is_hundreds_of_meters():
    lng, lat = 116.397, 39.908  # Tiananmen
    glng, glat = wgs84_to_gcj02(lng, lat)
    shift = haversine_distance_m(lng, lat, glng, glat)
    assert 100.0 < shift < 1000.0


def test_out_of_china_is_identity():
    assert wgs84_to_gcj02(-73.97, 40.78) == (-73.97, 40.78)
    assert gcj02_to_wgs84(-73.97, 40.78) == (-73.97, 40.78)


@given(lng=china_lngs, lat=china_lats)
def test_gcj02_roundtrip_within_meters(lng, lat):
    glng, glat = wgs84_to_gcj02(lng, lat)
    back_lng, back_lat = gcj02_to_wgs84(glng, glat)
    assert haversine_distance_m(lng, lat, back_lng, back_lat) < 5.0


@given(lng=china_lngs, lat=china_lats)
def test_bd09_roundtrip_within_meters(lng, lat):
    blng, blat = gcj02_to_bd09(lng, lat)
    back_lng, back_lat = bd09_to_gcj02(blng, blat)
    assert haversine_distance_m(lng, lat, back_lng, back_lat) < 2.0


def test_bd09_offset_direction():
    blng, blat = gcj02_to_bd09(116.4, 39.9)
    assert blng > 116.4 and blat > 39.9  # Baidu shifts north-east
