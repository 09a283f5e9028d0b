"""Figure 13: k-NN queries vs data size and k.

Time grows with data size (each expansion's range query scans more) and
mildly with k; JUST beats GeoSpark and LocationSpark by locating
qualified records directly and scanning in parallel; Simba OOMs on Traj
above 20 %; JUST edges JUSTnc thanks to compression.
"""

from __future__ import annotations

from repro.baselines import GeoSpark, LocationSpark, Simba, SpatialHadoop
from repro.scenarios.paper import (
    DEFAULT_K,
    FRACTIONS,
    K_VALUES,
    ORDER_SCHEMA,
    TRAJ_DEFAULT_K,
    TRAJ_K_VALUES,
    TRAJ_KNN_CELL_KM,
    baseline_knn_ms,
    exceeds,
    figure,
    fits,
    grows,
    just_knn_ms,
    measure,
    query_points,
)
from repro.scenarios.report import ScenarioResult, Shape

_ORDER_SYSTEMS = (GeoSpark, LocationSpark, Simba, SpatialHadoop)


@figure("Fig 13a", "k-NN vs data size (Order), sim ms", "data size %",
        Shape("JUST < GeoSpark at 100 %",
              lambda t: exceeds(t, "GeoSpark", "JUST", at=[100])),
        Shape("JUST grows with data", lambda t: grows(t, "JUST"),
              expected_fail=4),
        Shape("SpatialHadoop > 5x JUST at 100 % (expanding MapReduce "
              "rounds)",
              lambda t: exceeds(t, "SpatialHadoop", "JUST", 5, [100]),
              expected_fail=4))
def fig13a(data, table):
    """k-NN (Order) vs data size: grows with data; JUST far below
    GeoSpark/LocationSpark, competitive with Simba.

    Still inverted at 20 %: k = 150 over the sparse 20 % sample (150/2k
    against 150/71M) expands through many empty 1 km leaf cells before
    it holds 150 candidates, so JUST peaks there (4 780 sim-ms).  From
    40 % on it grows with data (3 033 to 3 400), one key range per
    shard per cell, which leaves SpatialHadoop 3.9x above it at 100 %,
    not 5x.
    """
    points = query_points(data.order_centers)
    for percent in FRACTIONS:
        engine = data.engine()
        engine.create_table("t", ORDER_SCHEMA)
        engine.insert("t", data.order_fraction(percent))
        engine.table("t").flush()
        table.add("JUST", percent,
                  just_knn_ms(engine, "t", DEFAULT_K, points))
        for cls in _ORDER_SYSTEMS:
            loaded = data.baseline(cls, "order", percent)
            table.add(cls.name, percent,
                      baseline_knn_ms(loaded, DEFAULT_K, points))


@figure("Fig 13b", "k-NN vs data size (Traj), sim ms", "data size %",
        Shape("Simba OOMs above 20 %",
              lambda t: fits(t, "Simba") == [20]),
        Shape("JUST < JUSTnc at every fraction",
              lambda t: exceeds(t, "JUSTnc", "JUST")))
def fig13b(data, table):
    """k-NN (Traj): Simba OOM at 40%; JUST slightly beats JUSTnc."""
    points = query_points(data.traj_centers)
    for percent in FRACTIONS:
        engine = data.engine()
        plugin = engine.create_plugin_table("t", "trajectory")
        plugin.insert_trajectories(data.traj_fraction(percent))
        plugin.flush()
        table.add("JUST", percent,
                  just_knn_ms(engine, "t", TRAJ_DEFAULT_K, points,
                              min_cell_km=TRAJ_KNN_CELL_KM))
        nc = data.engine(compression=False)
        plugin = nc.create_plugin_table("t", "trajectory")
        plugin.insert_trajectories(data.traj_fraction(percent))
        plugin.flush()
        table.add("JUSTnc", percent,
                  just_knn_ms(nc, "t", TRAJ_DEFAULT_K, points,
                              min_cell_km=TRAJ_KNN_CELL_KM))
        for cls in (GeoSpark, Simba):
            loaded = data.baseline(cls, "traj", percent)
            table.add(cls.name, percent,
                      baseline_knn_ms(loaded, TRAJ_DEFAULT_K, points))


@figure("Fig 13c", "k-NN vs k (Order), sim ms", "k",
        Shape("JUST grows with k", lambda t: grows(t, "JUST")),
        Shape("JUST < GeoSpark at every k",
              lambda t: exceeds(t, "GeoSpark", "JUST")))
def fig13c(data, table):
    """k-NN vs k (Order): all grow mildly with k."""
    engine = data.order_just["engine"]
    points = query_points(data.order_centers)
    for k in K_VALUES:
        table.add("JUST", k, just_knn_ms(engine, "order_JUST", k, points))
        for cls in (GeoSpark, LocationSpark, Simba):
            loaded = data.baseline(cls, "order", 100)
            table.add(cls.name, k, baseline_knn_ms(loaded, k, points))


@figure("Fig 13d", "k-NN vs k (Traj), sim ms", "k",
        Shape("JUST < JUSTnc at every k",
              lambda t: exceeds(t, "JUSTnc", "JUST")))
def fig13d(data, table):
    """k-NN vs k (Traj): JUST a little better than JUSTnc.

    k is rescaled to the generated record count (``TRAJ_K_VALUES``).
    """
    engine = data.traj_just["engine"]
    nc_engine = data.traj_just_nc["engine"]
    points = query_points(data.traj_centers)
    for k in TRAJ_K_VALUES:
        table.add("JUST", k,
                  just_knn_ms(engine, "traj_JUST", k, points,
                              min_cell_km=TRAJ_KNN_CELL_KM))
        table.add("JUSTnc", k,
                  just_knn_ms(nc_engine, "traj_JUST", k, points,
                              min_cell_km=TRAJ_KNN_CELL_KM))
        loaded = data.baseline(GeoSpark, "traj", 100)
        table.add("GeoSpark", k, baseline_knn_ms(loaded, k, points))


FIGURES = (fig13a, fig13b, fig13c, fig13d)


def run(out) -> ScenarioResult:
    """Fig 13: k-NN queries vs data size and k."""
    return measure(FIGURES)
