"""Figure 11: spatial range queries vs data size and window.

All systems grow with data size and window; JUST is competitive with the
Spark systems and far faster than SpatialHadoop; memory-bound systems
OOM on Traj (Simba above 20 %, LocationSpark even at 20 %); JUST beats
JUSTnc because compression saves disk reads.
"""

from __future__ import annotations

from repro.baselines import (
    GeoSpark,
    LocationSpark,
    Simba,
    SpatialHadoop,
    SpatialSpark,
)
from repro.scenarios.paper import (
    DEFAULT_WINDOW_KM,
    FRACTIONS,
    ORDER_SCHEMA,
    SPATIAL_WINDOWS_KM,
    baseline_spatial_ms,
    exceeds,
    figure,
    fits,
    grows,
    just_spatial_ms,
    measure,
)
from repro.scenarios.report import ScenarioResult, Shape

_ORDER_SYSTEMS = (GeoSpark, LocationSpark, SpatialSpark, Simba,
                  SpatialHadoop)
_IN_MEMORY = ("LocationSpark", "SpatialSpark", "Simba")


def _windows(data, dataset: str, window_km: float):
    if dataset == "order":
        return data.order_query_windows(window_km)
    return data.traj_query_windows(window_km)


def _data_size(data, table, dataset: str, systems) -> None:
    """JUST on a fresh engine per fraction, the baselines per fraction."""
    windows = _windows(data, dataset, DEFAULT_WINDOW_KM)
    for percent in FRACTIONS:
        engine = data.engine()
        if dataset == "order":
            engine.create_table("t", ORDER_SCHEMA)
            engine.insert("t", data.order_fraction(percent))
            engine.table("t").flush()
        else:
            plugin = engine.create_plugin_table("t", "trajectory")
            plugin.insert_trajectories(data.traj_fraction(percent))
            plugin.flush()
        table.add("JUST", percent, just_spatial_ms(engine, "t", windows))
        if dataset == "traj":
            nc = data.engine(compression=False)
            plugin = nc.create_plugin_table("t", "trajectory")
            plugin.insert_trajectories(data.traj_fraction(percent))
            plugin.flush()
            table.add("JUSTnc", percent,
                      just_spatial_ms(nc, "t", windows))
        for cls in systems:
            loaded = data.baseline(cls, dataset, percent)
            table.add(cls.name, percent,
                      baseline_spatial_ms(loaded, windows))


def _window(data, table, dataset: str, systems) -> None:
    """JUST on the shared 100 % engines; SpatialSpark holds 80 % of Traj."""
    built = data.order_just if dataset == "order" else data.traj_just
    just_table = "order_JUST" if dataset == "order" else "traj_JUST"
    baseline_percent = {"SpatialSpark": 80} if dataset == "traj" else {}
    for window_km in SPATIAL_WINDOWS_KM:
        windows = _windows(data, dataset, window_km)
        table.add("JUST", window_km,
                  just_spatial_ms(built["engine"], just_table, windows))
        if dataset == "traj":
            table.add("JUSTnc", window_km,
                      just_spatial_ms(data.traj_just_nc["engine"],
                                      "traj_JUST", windows))
        for cls in systems:
            percent = baseline_percent.get(cls.name, 100)
            loaded = data.baseline(cls, dataset, percent)
            label = cls.name if percent == 100 else \
                f"{cls.name}({percent}%)"
            table.add(label, window_km,
                      baseline_spatial_ms(loaded, windows))


@figure("Fig 11a", "Spatial range query vs data size (Order), sim ms",
        "data size %",
        Shape("every system grows with data",
              lambda t: all(grows(t, s) for s in t.series)),
        Shape("SpatialHadoop > 3x JUST at 100 %",
              lambda t: exceeds(t, "SpatialHadoop", "JUST", 3, [100])))
def fig11a(data, table):
    """Spatial range (Order) vs data size: all grow; JUST competitive
    with Spark systems, far ahead of SpatialHadoop.

    The paper's SpatialHadoop gap is larger still: its job launch
    dominates a longer-running cluster.
    """
    _data_size(data, table, "order", _ORDER_SYSTEMS)


@figure("Fig 11b", "Spatial range query vs data size (Traj), sim ms",
        "data size %",
        Shape("Simba OOMs above 20 %",
              lambda t: fits(t, "Simba") == [20]),
        Shape("JUST < JUSTnc at every fraction",
              lambda t: exceeds(t, "JUSTnc", "JUST")))
def fig11b(data, table):
    """Spatial range (Traj): Simba OOM > 20%, LocationSpark OOM at 20%;
    JUST < JUSTnc (decompression beats the extra disk I/O).

    LocationSpark is not run on Traj.
    """
    _data_size(data, table, "traj", (GeoSpark, SpatialSpark, Simba))


@figure("Fig 11c", "Spatial range query vs window (Order), sim ms",
        "window km",
        Shape("every system's cost grows with the window",
              lambda t: all(grows(t, s) for s in t.series)),
        Shape("JUST competitive with the in-memory Spark systems: "
              "< 2x each at every window",
              lambda t: all(exceeds(t, s, "JUST", 0.5) for s in _IN_MEMORY)))
def fig11c(data, table):
    """Bigger windows cost more for all systems (Order); Simba/
    SpatialSpark slightly faster than JUST (all-in-memory).

    Here JUST is the faster one at every window (about 3x at 1 km).
    """
    _window(data, table, "order", _ORDER_SYSTEMS)


@figure("Fig 11d", "Spatial range query vs window (Traj), sim ms",
        "window km",
        Shape("JUST below GeoSpark and SpatialSpark(80%) at every window",
              lambda t: exceeds(t, "GeoSpark", "JUST")
              and exceeds(t, "SpatialSpark(80%)", "JUST")),
        Shape("JUST grows with the window", lambda t: grows(t, "JUST")))
def fig11d(data, table):
    """Traj windows: JUST faster than SpatialSpark even with SpatialSpark
    holding only 80% of the data."""
    _window(data, table, "traj", (GeoSpark, SpatialSpark))


FIGURES = (fig11a, fig11b, fig11c, fig11d)


def run(out) -> ScenarioResult:
    """Fig 11: spatial range queries vs data size and window."""
    return measure(FIGURES)
