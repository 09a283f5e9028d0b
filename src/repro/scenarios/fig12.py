"""Figure 12: spatio-temporal range queries.

The paper's headline result: Z2T/XZ2T (JUST) beats the native-GeoMesa
Z3/XZ3 strategies at day/year/century periods (JUSTd/JUSTy/JUSTc),
because interleaving a dominant time dimension invalidates spatial
filtering; ST-Hadoop is an order of magnitude slower even on 20 % of the
data (MapReduce job launch); bigger spatial/temporal windows cost more;
JUST beats JUSTnc on Traj thanks to compression.
"""

from __future__ import annotations

from repro.baselines import STHadoop
from repro.scenarios.paper import (
    DEFAULT_TIME_WINDOW_S,
    DEFAULT_WINDOW_KM,
    FRACTIONS,
    ORDER_SCHEMA,
    SPATIAL_WINDOWS_KM,
    TIME_WINDOWS,
    baseline_st_ms,
    exceeds,
    figure,
    grows,
    just_st_ms,
    measure,
    time_ranges,
)
from repro.scenarios.report import ScenarioResult, Shape

_VARIANTS = ("JUST", "JUSTd", "JUSTy", "JUSTc")
_Z3 = _VARIANTS[1:]


def _order_queries(data, window_km=DEFAULT_WINDOW_KM,
                   time_window_s=DEFAULT_TIME_WINDOW_S):
    return (data.order_query_windows(window_km),
            time_ranges(data.order_stats, time_window_s))


def _traj_queries(data, window_km=DEFAULT_WINDOW_KM):
    return (data.traj_query_windows(window_km),
            time_ranges(data.traj_stats, DEFAULT_TIME_WINDOW_S))


def _leads(table, params, slack=1.0) -> bool:
    """JUST <= slack x the best Z3 variant at each of ``params``."""
    return all(table.value("JUST", p)
               <= slack * min(table.value(v, p) for v in _Z3)
               for p in params)


@figure("Fig 12a", "ST range query vs data size (Order), sim ms",
        "data size %",
        Shape("JUST <= every Z3 variant at >= 60 % data",
              lambda t: _leads(t, (60, 80, 100)), expected_fail=3),
        Shape("longer Z3 periods do better at 100 %: "
              "JUSTc <= JUSTy <= JUSTd",
              lambda t: t.value("JUSTc", 100) <= t.value("JUSTy", 100)
              <= t.value("JUSTd", 100)),
        Shape("JUSTd > 1.5x JUST at every fraction",
              lambda t: exceeds(t, "JUSTd", "JUST", 1.5)),
        Shape("JUST grows with data", lambda t: grows(t, "JUST")))
def fig12a(data, table):
    """ST range (Order) vs data size: JUST fastest; among Z3 variants
    longer periods do better (JUSTc < JUSTy < JUSTd).

    Each fraction is a fresh engine holding all four variants.  At the
    smallest fractions fixed per-range costs tie JUST with the
    near-empty variants, so JUST's lead is claimed where data volume
    matters.
    """
    windows, times = _order_queries(data)
    for percent in FRACTIONS:
        engine = data.engine()
        engine.create_table("JUST", ORDER_SCHEMA)
        for name, period in (("JUSTd", "day"), ("JUSTy", "year"),
                             ("JUSTc", "century")):
            engine.create_table(
                name, ORDER_SCHEMA,
                {"geomesa.indices.enabled": f"z3:{period}"})
        rows = data.order_fraction(percent)
        for name in _VARIANTS:
            engine.insert(name, rows)
            engine.table(name).flush()
            table.add(name, percent,
                      just_st_ms(engine, name, windows, times))


@figure("Fig 12b", "ST range query vs spatial window (Order), sim ms",
        "window km",
        Shape("ST-Hadoop(20%) > 5x JUST at every window",
              lambda t: exceeds(t, "ST-Hadoop(20%)", "JUST", 5)),
        Shape("JUST <= 1.1x the best Z3 variant at every window",
              lambda t: _leads(t, SPATIAL_WINDOWS_KM, 1.1),
              expected_fail=3))
def fig12b(data, table):
    """ST range vs window (Order): JUST an order of magnitude under
    ST-Hadoop (which holds only 20% of the data)."""
    engine = data.order_just["engine"]
    sthadoop = data.baseline(STHadoop, "order", 20)
    for window_km in SPATIAL_WINDOWS_KM:
        windows, times = _order_queries(data, window_km=window_km)
        for name in _VARIANTS:
            table.add(name, window_km,
                      just_st_ms(engine, f"order_{name}", windows, times))
        table.add("ST-Hadoop(20%)", window_km,
                  baseline_st_ms(sthadoop, windows, times))


@figure("Fig 12c", "ST range query vs spatial window (Traj), sim ms",
        "window km",
        Shape("JUST < JUSTnc < every XZ3 variant at every window",
              lambda t: exceeds(t, "JUSTnc", "JUST")
              and all(exceeds(t, v, "JUSTnc") for v in _Z3)))
def fig12c(data, table):
    """ST range vs window (Traj): JUST < JUSTnc < XZ3 variants.

    The XZ3 year/century gaps are larger here than the paper's: at g=8
    the century-period XZ3 cannot filter time at all and degenerates to
    a full scan.
    """
    engine = data.traj_just["engine"]
    nc_engine = data.traj_just_nc["engine"]
    for window_km in SPATIAL_WINDOWS_KM:
        windows, times = _traj_queries(data, window_km=window_km)
        for name in _VARIANTS:
            table.add(name, window_km,
                      just_st_ms(engine, f"traj_{name}", windows, times))
        table.add("JUSTnc", window_km,
                  just_st_ms(nc_engine, "traj_JUST", windows, times))


@figure("Fig 12d", "ST range query vs time window (Order), sim ms",
        "time window",
        Shape("JUST grows with the time window", lambda t: grows(t, "JUST")),
        Shape("ST-Hadoop(20%) > 5x JUST up to 1d windows",
              lambda t: exceeds(t, "ST-Hadoop(20%)", "JUST", 5,
                               ("1h", "6h", "1d"))),
        Shape("JUSTd > 3x JUST at 1m",
              lambda t: exceeds(t, "JUSTd", "JUST", 3, ["1m"])))
def fig12d(data, table):
    """ST range vs time window (Order): all grow; ST-Hadoop ~10x slower
    (11.3 s at 20% data); JUSTd degrades fastest.

    On month-long windows the result volume itself dominates, so
    ST-Hadoop's job-launch gap is claimed up to one day.
    """
    engine = data.order_just["engine"]
    sthadoop = data.baseline(STHadoop, "order", 20)
    for label, seconds in TIME_WINDOWS:
        windows, times = _order_queries(data, time_window_s=seconds)
        for name in _VARIANTS:
            table.add(name, label,
                      just_st_ms(engine, f"order_{name}", windows, times))
        table.add("ST-Hadoop(20%)", label,
                  baseline_st_ms(sthadoop, windows, times))


FIGURES = (fig12a, fig12b, fig12c, fig12d)


def run(out) -> ScenarioResult:
    """Fig 12: ST range queries vs data size, spatial and time window."""
    return measure(FIGURES)
