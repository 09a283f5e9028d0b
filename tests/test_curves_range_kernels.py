"""The integer range-planning kernels return the reference walks' ranges.

``curves/zranges.py`` and ``curves/xz.py`` compute key ranges level by
level over integer cell indexes; ``tests/oracles.py`` keeps the
tuple-and-deque walks they replaced.  Equality here is exact — same
merged list for every window, budget and depth limit — because which
cells the budget is spent on decides the scan's seeks, its sim-ms and
every reproduced figure (DESIGN §17).
"""

import pytest
from hypothesis import given, settings, strategies as st

from oracles import xz_ranges_reference, z_ranges_reference
from repro.curves.xz import XZ2Curve, XZ3Curve
from repro.curves.zranges import z2_ranges, z3_ranges
from repro.geometry import Envelope

# Budgets below the fan-out walk from the root, the rest from the
# common-prefix cell: draw small ones as often as large ones.
budgets = st.one_of(st.integers(1, 9), st.integers(1, 1024))
recursions = st.integers(0, 31)


@st.composite
def cell_boxes(draw, dims, bit_choices):
    """``(bits, lo, hi)``: an inclusive cell box of one of the shapes the
    walk treats differently."""
    bits = draw(st.sampled_from(bit_choices))
    top = (1 << bits) - 1
    half = 1 << (bits - 1)
    shape = draw(st.sampled_from(
        ["any", "small", "cell", "space", "slab", "straddle"]))
    lo, hi = [], []
    thin = draw(st.integers(0, dims - 1))
    for d in range(dims):
        a, b = draw(st.integers(0, top)), draw(st.integers(0, top))
        a, b = min(a, b), max(a, b)
        if shape == "small":
            b = min(top, a + draw(st.integers(0, 40)))
        elif shape == "cell":
            b = a
        elif shape == "space":
            a, b = 0, top
        elif shape == "slab" and d == thin:
            b = a  # one cell thin in this dimension, any width in others
        elif shape == "straddle":
            # Both sides of the top-level split: common-prefix level 0.
            a = half - 1 - draw(st.integers(0, min(half - 1, 30)))
            b = half + draw(st.integers(0, min(half - 1, 30)))
        lo.append(a)
        hi.append(b)
    return bits, tuple(lo), tuple(hi)


Z2_BITS = [*range(3, 13), 21, 31]
Z3_BITS = [*range(3, 13), 21]  # the Z3 curve interleaves 21 bits a side


class TestZKernelsMatchTheReferenceWalk:
    @given(box=cell_boxes(2, Z2_BITS), max_ranges=budgets,
           max_recurse=recursions)
    @settings(max_examples=400, deadline=None)
    def test_z2(self, box, max_ranges, max_recurse):
        bits, lo, hi = box
        assert z2_ranges(*lo, *hi, bits, max_ranges, max_recurse) == \
            z_ranges_reference(bits, lo, hi, max_ranges, max_recurse)

    @given(box=cell_boxes(3, Z3_BITS), max_ranges=budgets,
           max_recurse=recursions)
    @settings(max_examples=300, deadline=None)
    def test_z3(self, box, max_ranges, max_recurse):
        bits, lo, hi = box
        assert z3_ranges(*lo, *hi, bits, max_ranges, max_recurse) == \
            z_ranges_reference(bits, lo, hi, max_ranges, max_recurse)

    @pytest.mark.parametrize("max_ranges", [1, 2, 3, 4, 7, 8, 9, 256])
    @pytest.mark.parametrize("lo, hi", [
        ((5, 9), (5, 9)),                # a single cell
        ((0, 0), (255, 255)),            # the whole space
        ((0, 77), (255, 77)),            # one-cell-thin slabs
        ((77, 0), (77, 255)),
        ((127, 127), (128, 128)),        # straddles the top-level split
        ((64, 64), (127, 127)),          # exactly one level-2 cell
        ((65, 64), (127, 126)),          # ... minus one row and column
        ((3, 200), (250, 203)),
    ])
    def test_z2_named_windows_from_both_start_levels(self, lo, hi,
                                                     max_ranges):
        for max_recurse in (0, 1, 3, 8):
            assert z2_ranges(*lo, *hi, 8, max_ranges, max_recurse) == \
                z_ranges_reference(8, lo, hi, max_ranges, max_recurse)

    @pytest.mark.parametrize("max_ranges", [1, 4, 7, 8, 9, 32, 256])
    @pytest.mark.parametrize("lo, hi", [
        ((5, 9, 3), (5, 9, 3)),
        ((0, 0, 0), (63, 63, 63)),
        ((10, 10, 0), (11, 11, 63)),     # thin in space, long in time
        ((0, 0, 31), (63, 63, 32)),      # a thin time slab over the split
        ((32, 32, 32), (47, 47, 47)),
        ((1, 2, 3), (60, 50, 40)),
    ])
    def test_z3_named_windows_from_both_start_levels(self, lo, hi,
                                                     max_ranges):
        for max_recurse in (0, 2, 7):
            assert z3_ranges(*lo, *hi, 6, max_ranges, max_recurse) == \
                z_ranges_reference(6, lo, hi, max_ranges, max_recurse)


@st.composite
def unit_intervals(draw, g):
    """``(lo, hi)`` in [0, 1]: arbitrary, degenerate, or on the
    boundaries of the level-``g`` grid."""
    shape = draw(st.sampled_from(["any", "point", "grid", "all"]))
    if shape == "all":
        return 0.0, 1.0
    if shape == "grid":
        cells = 1 << g
        a, b = draw(st.integers(0, cells)), draw(st.integers(0, cells))
        return min(a, b) / cells, max(a, b) / cells
    a = draw(st.floats(0.0, 1.0))
    if shape == "point":
        return a, a
    b = draw(st.floats(0.0, 1.0))
    return min(a, b), max(a, b)


@st.composite
def xz_windows(draw, max_g):
    g = draw(st.integers(1, max_g))
    (x_lo, x_hi), (y_lo, y_hi), (t_lo, t_hi) = (
        draw(unit_intervals(g)) for _ in range(3))
    envelope = Envelope(-180.0 + 360.0 * x_lo, -90.0 + 180.0 * y_lo,
                        -180.0 + 360.0 * x_hi, -90.0 + 180.0 * y_hi)
    return g, envelope, t_lo, t_hi


class TestXZKernelMatchesTheReferenceWalk:
    @given(window=xz_windows(12), max_ranges=budgets)
    @settings(max_examples=400, deadline=None)
    def test_xz2(self, window, max_ranges):
        g, envelope, _t_lo, _t_hi = window
        q_lo, q_hi = XZ2Curve._normalize(envelope)
        assert XZ2Curve(g).ranges(envelope, max_ranges) == \
            xz_ranges_reference(g, q_lo, q_hi, max_ranges)

    @given(window=xz_windows(12), max_ranges=budgets)
    @settings(max_examples=300, deadline=None)
    def test_xz3(self, window, max_ranges):
        g, envelope, t_lo, t_hi = window
        q_lo, q_hi = XZ3Curve._normalize(envelope, t_lo, t_hi)
        assert XZ3Curve(g).ranges(envelope, t_lo, t_hi, max_ranges) == \
            xz_ranges_reference(g, q_lo, q_hi, max_ranges)

    @pytest.mark.parametrize("max_ranges", [1, 3, 4, 8, 9, 32, 256])
    @pytest.mark.parametrize("envelope", [
        Envelope(-180.0, -90.0, 180.0, 90.0),          # the world
        Envelope(116.4, 39.9, 116.4, 39.9),            # a point
        Envelope(0.0, 0.0, 0.0, 0.0),                  # ... on the split
        Envelope(-90.0, -45.0, 90.0, 45.0),            # on cell boundaries
        Envelope(0.0, -90.0, 180.0, 90.0),
        Envelope(116.30, 39.85, 116.33, 39.88),
        Envelope(-0.004, -0.004, 0.004, 0.004),
        Envelope(-500.0, -300.0, 500.0, 300.0),        # beyond the world
        Envelope(100.0, 0.0, float("inf"), 45.0),      # ... unbounded
        Envelope(float("-inf"), -1e308, 0.0, 1e308),
        Envelope(200.0, 0.0, 300.0, 10.0),             # ... outside it
    ])
    def test_named_windows(self, envelope, max_ranges):
        for g in (1, 2, 5, 12):
            q_lo, q_hi = XZ2Curve._normalize(envelope)
            assert XZ2Curve(g).ranges(envelope, max_ranges) == \
                xz_ranges_reference(g, q_lo, q_hi, max_ranges)
        for t_lo, t_hi in ((0.0, 1.0), (0.25, 0.5), (0.3, 0.3)):
            q_lo, q_hi = XZ3Curve._normalize(envelope, t_lo, t_hi)
            assert XZ3Curve(6).ranges(envelope, t_lo, t_hi,
                                      max_ranges) == \
                xz_ranges_reference(6, q_lo, q_hi, max_ranges)
