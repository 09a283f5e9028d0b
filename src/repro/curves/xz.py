"""XZ-ordering for extended (non-point) objects.

XZ-ordering (Böhm et al., SSD 1999) assigns an object to the largest
quad-tree cell whose *enlarged* square (the cell doubled in width and
height, anchored at the cell's lower-left corner) still contains the
object's MBR.  Each cell is identified by a sequence code laid out so that
a cell's code immediately precedes all of its descendants' codes — a scan
over a code interval therefore covers a whole subtree.

``XZ2Curve`` is the 2D variant (Figure 3f of the paper); ``XZ3Curve`` adds
the normalized time-within-period axis and is the index the paper's
JUSTd/JUSTy/JUSTc variants use for trajectories.
"""

from __future__ import annotations

import math
from operator import add

from repro.curves.zranges import DEFAULT_MAX_RANGES, _merge_ranges
from repro.errors import IndexError_
from repro.geometry.envelope import Envelope


class _XZBase:
    """Shared machinery for XZ curves of any dimensionality."""

    def __init__(self, g: int, dims: int):
        if g < 1:
            raise IndexError_("XZ resolution g must be >= 1")
        self.g = g
        self.dims = dims
        f = self._fanout = 1 << dims  # 4 for XZ2, 8 for XZ3
        #: Per level: codes owned by a cell including itself, and the
        #: code distance between sibling children of a cell.
        self._subtree_sizes = [(f ** (g - level + 1) - 1) // (f - 1)
                               for level in range(g + 1)]
        self._child_steps = [(f ** (g - level) - 1) // (f - 1)
                             for level in range(g + 1)]
        #: Per quadrant number: which half of the cell, per dimension.
        self._quadrant_halves = [tuple((quadrant >> d) & 1
                                       for d in range(dims))
                                 for quadrant in range(f)]

    def max_code(self) -> int:
        """Largest sequence code the curve can produce."""
        return self._subtree_sizes[0] - 1

    # -- element length ----------------------------------------------------
    def _element_length(self, mins: list[float], spans: list[float]) -> int:
        """Number of quadrant digits for an object with the given extents.

        This is the l(s) of the XZ-ordering paper: the deepest level whose
        enlarged cell (side ``2 * 0.5^l``) can contain the object.
        """
        max_span = max(spans)
        if max_span <= 0.0:
            return self.g
        l1 = int(math.floor(math.log(max_span) / math.log(0.5)))
        if l1 >= self.g:
            return self.g
        if l1 < 0:
            return 0
        # Check whether the object still fits an enlarged cell one level
        # deeper (the object may straddle a cell boundary).
        w2 = 0.5 ** (l1 + 1)

        def fits(lo: float, hi: float) -> bool:
            return hi <= math.floor(lo / w2) * w2 + 2.0 * w2

        deeper_fits = all(fits(lo, lo + span)
                          for lo, span in zip(mins, spans))
        return min(self.g, l1 + 1 if deeper_fits else l1)

    def _sequence_code(self, mins: list[float], length: int) -> int:
        """Code of the cell reached by ``length`` quadrant steps."""
        cell_lo = [0.0] * self.dims
        cell_hi = [1.0] * self.dims
        cs = 0
        for i in range(length):
            step = self._child_steps[i]
            quadrant = 0
            for d in range(self.dims):
                center = (cell_lo[d] + cell_hi[d]) / 2.0
                if mins[d] < center:
                    cell_hi[d] = center
                else:
                    quadrant |= 1 << d
                    cell_lo[d] = center
            cs += 1 + quadrant * step
        return cs

    def _index_normalized(self, mins: list[float],
                          maxs: list[float]) -> int:
        for lo, hi in zip(mins, maxs):
            if hi < lo:
                raise IndexError_("XZ element with inverted bounds")
        spans = [hi - lo for lo, hi in zip(mins, maxs)]
        length = self._element_length(mins, spans)
        return self._sequence_code(mins, length)

    # -- query ranges ------------------------------------------------------
    def _ranges_normalized(self, q_lo: list[float], q_hi: list[float],
                           max_ranges: int) -> list[tuple[int, int]]:
        """Covering code ranges for a normalized query box.

        A cell's *extended* square is its own square doubled in each
        dimension.  Every descendant's extended square lies inside the
        parent's extended square, so pruning on the extended square is
        exact for whole subtrees.

        The walk is the breadth-first one of ``curves/zranges.py`` (same
        budget rule; children in quadrant-number order; depth limit
        ``g``), one level at a time over integer cell indexes: a cell of
        index ``ix`` at ``level`` spans ``ix * 0.5**level`` to
        ``(ix + 2) * 0.5**level`` once extended, and both products — like
        ``q * 2**level`` — are exact in floating point, so comparing
        ``ix`` with the rounded scaled window decides exactly what
        comparing the corners with the window would.
        """
        g = self.g
        dims = range(self.dims)
        halves = self._quadrant_halves
        # Cell corners lie in [0, 2]: a bound beyond [-1, 3] decides
        # every comparison as -1 or 3 does, and stays finite to scale.
        q_lo = [min(3.0, max(-1.0, q)) for q in q_lo]
        q_hi = [min(3.0, max(-1.0, q)) for q in q_hi]
        ranges: list[tuple[int, int]] = []
        cells = [(0,) * self.dims]  # lower-corner index per dimension
        codes = [0]
        level = 0
        while codes:
            scale = 2.0 ** level
            # First / last index whose lower corner is inside the window.
            first = [math.ceil(lo * scale) for lo in q_lo]
            last = [math.floor(hi * scale) for hi in q_hi]
            size = self._subtree_sizes[level]
            step = self._child_steps[level]
            next_cells: list[tuple[int, ...]] = []
            next_codes: list[int] = []
            behind = len(codes)  # cells of this level still queued
            for cell, cs in zip(cells, codes):
                behind -= 1
                contained = True
                for d in dims:
                    ix = cell[d]
                    if ix > last[d] or ix + 2 < first[d]:
                        break  # extended cell misses the window
                    if ix < first[d] or ix + 2 > last[d]:
                        contained = False
                else:
                    queued = behind + len(next_codes)
                    if contained or level == g \
                            or max_ranges - len(ranges) - queued <= 0:
                        ranges.append((cs, cs + size - 1))
                        continue
                    # The element stored exactly at this cell may
                    # intersect the query even when no single child
                    # subtree fully covers it.
                    ranges.append((cs, cs))
                    doubled = [2 * ix for ix in cell]
                    for quadrant, half in enumerate(halves):
                        next_cells.append(tuple(map(add, doubled, half)))
                        next_codes.append(cs + 1 + quadrant * step)
            cells, codes = next_cells, next_codes
            level += 1
        return _merge_ranges(ranges)


#: A signature coordinate counts 1/256ths of the enlarged element's side,
#: i.e. 1/128ths of the cell's: ``2 ** (level + 7)`` steps per unit.
_SIGNATURE_SHIFT = 7


class XZ2Curve(_XZBase):
    """XZ-ordering over 2D envelopes, resolution ``g`` (default 12).

    Beside the sequence code an MBR has a *signature*: its own corners
    relative to the lower-left corner of its enlarged element, as four
    bytes ``(min_x, min_y, max_x, max_y)`` counting 1/256ths of the
    element's side.  Lower corners round down and upper corners up, on
    the power-of-two-scaled coordinates of :meth:`_ranges_normalized`
    (exact in floating point), so the box the bytes spell out covers
    the MBR; a byte that saturates (0 below, 255 above) reads as "no
    bound", which keeps that true even for an MBR the float arithmetic
    of :meth:`index` let poke out of its element.
    """

    def __init__(self, g: int = 12):
        super().__init__(g, dims=2)

    def element(self, code: int) -> tuple[int, int, int]:
        """``(level, ix, iy)`` of the cell a sequence code names: the
        quadrant digits of :meth:`_sequence_code`, read back."""
        level = ix = iy = 0
        while code:
            quadrant, code = divmod(code - 1, self._child_steps[level])
            ix = 2 * ix + (quadrant & 1)
            iy = 2 * iy + (quadrant >> 1)
            level += 1
        return level, ix, iy

    def subtree_codes(self, level: int, ix: int,
                      iy: int) -> tuple[int, int]:
        """First and last sequence code of the subtree under the cell
        ``(ix, iy)`` of ``level``; the first is the cell's own code (the
        inverse of :meth:`element`)."""
        code = 0
        for depth in range(level):
            shift = level - 1 - depth
            quadrant = ((ix >> shift) & 1) | (((iy >> shift) & 1) << 1)
            code += 1 + quadrant * self._child_steps[depth]
        return code, code + self._subtree_sizes[level] - 1

    def _signature_frame(self, code: int) -> tuple[float, int, int]:
        """``(scale, x0, y0)``: signature steps per unit, and the corner
        of ``code``'s element in those steps."""
        level, ix, iy = self.element(code)
        return (2.0 ** (level + _SIGNATURE_SHIFT),
                ix << _SIGNATURE_SHIFT, iy << _SIGNATURE_SHIFT)

    def signature(self, envelope: Envelope,
                  code: int) -> tuple[int, int, int, int]:
        """The signature of ``envelope`` inside the element of ``code``
        (its own :meth:`index`)."""
        scale, x0, y0 = self._signature_frame(code)
        (x_lo, y_lo), (x_hi, y_hi) = self._normalize(envelope)
        return (min(255, max(0, math.floor(x_lo * scale) - x0)),
                min(255, max(0, math.floor(y_lo * scale) - y0)),
                min(255, max(0, math.ceil(x_hi * scale) - x0 - 1)),
                min(255, max(0, math.ceil(y_hi * scale) - y0 - 1)))

    def signature_test(self, window: Envelope):
        """``(code, min_x, min_y, max_x, max_y) -> bool``: can an MBR
        with that code and signature meet ``window``?

        Never False for an MBR that does (normalizing is monotone, the
        rounding is outward).  What the window looks like from inside
        an element is worked out once per distinct code: the candidates
        of one statement share a few dozen.
        """
        # As in _ranges_normalized: beyond [-1, 3] decides as -1 or 3.
        (qx_lo, qy_lo), (qx_hi, qy_hi) = (
            [min(3.0, max(-1.0, q)) for q in corner]
            for corner in self._normalize(window))
        bounds: dict[int, tuple[int, int, int, int]] = {}

        def meets(code, min_x, min_y, max_x, max_y):
            try:
                below_x, below_y, above_x, above_y = bounds[code]
            except KeyError:
                scale, x0, y0 = self._signature_frame(code)
                # A saturated byte carries no bound: it passes whatever
                # side of the element the window lies on.
                below_x, below_y, above_x, above_y = bounds[code] = (
                    max(0, math.floor(qx_hi * scale) - x0),
                    max(0, math.floor(qy_hi * scale) - y0),
                    min(255, math.ceil(qx_lo * scale) - x0 - 1),
                    min(255, math.ceil(qy_lo * scale) - y0 - 1))
            return (min_x <= below_x and min_y <= below_y
                    and max_x >= above_x and max_y >= above_y)

        return meets

    @staticmethod
    def _normalize(envelope: Envelope) -> tuple[list[float], list[float]]:
        return ([(envelope.min_lng + 180.0) / 360.0,
                 (envelope.min_lat + 90.0) / 180.0],
                [(envelope.max_lng + 180.0) / 360.0,
                 (envelope.max_lat + 90.0) / 180.0])

    def index(self, envelope: Envelope) -> int:
        """Sequence code of an object's MBR (XZ2 of the paper)."""
        mins, maxs = self._normalize(envelope)
        return self._index_normalized(mins, maxs)

    def ranges(self, query: Envelope,
               max_ranges: int = DEFAULT_MAX_RANGES) -> list[tuple[int, int]]:
        """Covering code ranges for a rectangular spatial query."""
        mins, maxs = self._normalize(query)
        return self._ranges_normalized(mins, maxs, max_ranges)


class XZ3Curve(_XZBase):
    """XZ-ordering over space-time boxes, resolution ``g`` (default 8).

    The time axis is the fraction of a time period, so one ``XZ3Curve``
    instance serves every period.  Objects whose duration exceeds one
    period are clamped to the period end; the strategy layer compensates by
    also scanning the preceding period at query time.
    """

    def __init__(self, g: int = 8):
        super().__init__(g, dims=3)

    @staticmethod
    def _normalize(envelope: Envelope, t_lo: float,
                   t_hi: float) -> tuple[list[float], list[float]]:
        return ([(envelope.min_lng + 180.0) / 360.0,
                 (envelope.min_lat + 90.0) / 180.0,
                 max(0.0, min(1.0, t_lo))],
                [(envelope.max_lng + 180.0) / 360.0,
                 (envelope.max_lat + 90.0) / 180.0,
                 max(0.0, min(1.0, t_hi))])

    def index(self, envelope: Envelope, t_lo_fraction: float,
              t_hi_fraction: float) -> int:
        """Sequence code of a space-time MBR within one period."""
        mins, maxs = self._normalize(envelope, t_lo_fraction, t_hi_fraction)
        return self._index_normalized(mins, maxs)

    def ranges(self, query: Envelope, t_lo_fraction: float,
               t_hi_fraction: float,
               max_ranges: int = DEFAULT_MAX_RANGES) -> list[tuple[int, int]]:
        """Covering code ranges for a space-time query within one period."""
        mins, maxs = self._normalize(query, t_lo_fraction, t_hi_fraction)
        return self._ranges_normalized(mins, maxs, max_ranges)
