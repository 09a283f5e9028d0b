"""Z-order curve bit manipulation and locality properties."""

from hypothesis import given, strategies as st

from repro.curves.zorder import (
    Dimension,
    Z2Curve,
    Z3Curve,
    combine2,
    combine3,
    deinterleave2,
    deinterleave3,
    interleave2,
    interleave3,
    split2,
    split3,
)

u31 = st.integers(0, (1 << 31) - 1)
u21 = st.integers(0, (1 << 21) - 1)
lngs = st.floats(-180, 180, allow_nan=False)
lats = st.floats(-90, 90, allow_nan=False)


class TestBitInterleaving:
    @given(x=u31)
    def test_split2_roundtrip(self, x):
        assert combine2(split2(x)) == x

    @given(x=u21)
    def test_split3_roundtrip(self, x):
        assert combine3(split3(x)) == x

    @given(x=u31, y=u31)
    def test_interleave2_roundtrip(self, x, y):
        assert deinterleave2(interleave2(x, y)) == (x, y)

    @given(x=u21, y=u21, z=u21)
    def test_interleave3_roundtrip(self, x, y, z):
        assert deinterleave3(interleave3(x, y, z)) == (x, y, z)

    def test_interleave2_bit_layout(self):
        # x bits land on even positions, y on odd.
        assert interleave2(0b1, 0b0) == 0b01
        assert interleave2(0b0, 0b1) == 0b10
        assert interleave2(0b11, 0b00) == 0b0101

    @given(x=u31, y=u31)
    def test_z_value_fits_62_bits(self, x, y):
        assert interleave2(x, y) < (1 << 62)

    @given(x=u21, y=u21, z=u21)
    def test_z3_value_fits_63_bits(self, x, y, z):
        assert interleave3(x, y, z) < (1 << 63)


class TestDimension:
    def test_normalize_bounds(self):
        dim = Dimension(0.0, 10.0, 4)
        assert dim.normalize(-1.0) == 0
        assert dim.normalize(0.0) == 0
        assert dim.normalize(10.0) == dim.max_index
        assert dim.normalize(11.0) == dim.max_index

    def test_normalize_monotone(self):
        dim = Dimension(-180.0, 180.0, 31)
        values = [-180.0, -30.5, 0.0, 1e-9, 120.0, 180.0]
        indexes = [dim.normalize(v) for v in values]
        assert indexes == sorted(indexes)

    def test_denormalize_contains_value(self):
        dim = Dimension(-180.0, 180.0, 16)
        for value in (-179.9, -1.0, 0.0, 55.5, 179.9):
            lo, hi = dim.denormalize(dim.normalize(value))
            assert lo <= value < hi + 1e-9


class TestZ2Curve:
    @given(lng=lngs, lat=lats)
    def test_invert_is_cell_corner(self, lng, lat):
        curve = Z2Curve()
        z = curve.index(lng, lat)
        corner_lng, corner_lat = curve.invert(z)
        cell_w = 360.0 / (1 << 31)
        cell_h = 180.0 / (1 << 31)
        # 1e-6 degree slack: float64 rounding in normalize() can move a
        # coordinate across a cell boundary thinner than its own ULP.
        assert corner_lng - 1e-6 <= lng <= corner_lng + 2 * cell_w + 1e-6
        assert corner_lat - 1e-6 <= lat <= corner_lat + 2 * cell_h + 1e-6

    def test_locality_same_cell(self):
        curve = Z2Curve()
        # Two points ~1cm apart should share a long z prefix.
        z1 = curve.index(116.400000, 39.900000)
        z2 = curve.index(116.4000001, 39.9000001)
        assert abs(z1 - z2) < (1 << 12)

    def test_cell_of(self):
        curve = Z2Curve()
        from repro.geometry import Envelope
        x0, y0, x1, y1 = curve.cell_of(Envelope(-10, -10, 10, 10))
        assert x0 <= x1 and y0 <= y1
        assert x0 == curve.lng_dim.normalize(-10)


class TestZ3Curve:
    @given(lng=lngs, lat=lats, t=st.floats(0, 1, exclude_max=True))
    def test_invert_cell_contains_input(self, lng, lat, t):
        curve = Z3Curve()
        z = curve.index(lng, lat, t)
        clng, clat, ct = curve.invert(z)
        assert clng <= lng + 360.0 / (1 << 21)
        assert clat <= lat + 180.0 / (1 << 21)
        assert ct <= t + 1.0 / (1 << 21) + 1e-12

    def test_time_fraction_clamped(self):
        curve = Z3Curve()
        assert curve.index(0, 0, -0.5) == curve.index(0, 0, 0.0)
        z_max = curve.index(0, 0, 2.0)
        assert z_max == curve.index(0, 0, 1.0)
