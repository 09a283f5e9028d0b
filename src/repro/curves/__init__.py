"""Space-filling-curve indexing (the GeoMesa layer plus the paper's Z2T/XZ2T).

``zorder``     — bit-interleaving Z curves for 2D points (Z2) and
                 3D space-time points (Z3).
``zranges``    — decomposition of query windows into covering key ranges.
``xz``         — XZ-ordering sequence codes for extended objects (XZ2/XZ3).
``timeperiod`` — binning of the unbounded time axis into fixed periods.
``strategies`` — the index strategies that turn records into sortable byte
                 keys and queries into key ranges: Z2, Z3, XZ2, XZ3 and the
                 paper's novel Z2T and XZ2T, plus a simple attribute index.
"""

from repro.curves.zorder import Z2Curve, Z3Curve
from repro.curves.xz import XZ2Curve, XZ3Curve
from repro.curves.timeperiod import TimePeriod, period_bin, period_offset
from repro.curves.strategies import (
    STQuery,
    IndexedRecord,
    IndexStrategy,
    Z2Strategy,
    Z3Strategy,
    XZ2Strategy,
    XZ3Strategy,
    Z2TStrategy,
    XZ2TStrategy,
    AttributeStrategy,
    strategy_from_name,
)

__all__ = [
    "Z2Curve",
    "Z3Curve",
    "XZ2Curve",
    "XZ3Curve",
    "TimePeriod",
    "period_bin",
    "period_offset",
    "STQuery",
    "IndexedRecord",
    "IndexStrategy",
    "Z2Strategy",
    "Z3Strategy",
    "XZ2Strategy",
    "XZ3Strategy",
    "Z2TStrategy",
    "XZ2TStrategy",
    "AttributeStrategy",
    "strategy_from_name",
]
