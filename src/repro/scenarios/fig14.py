"""Figure 14: scalability on the Synthetic (copy & sample) dataset.

Indexing time and storage grow linearly with the data; k-NN and spatial
range queries grow with it too, while the spatio-temporal query stays
*flat*: Z2T locates the qualified time periods directly, and the record
count per period does not change when more periods are appended.
"""

from __future__ import annotations

from repro.datagen.datasets import traj_statistics
from repro.scenarios.paper import (
    DEFAULT_TIME_WINDOW_S,
    DEFAULT_WINDOW_KM,
    FRACTIONS,
    MB,
    exceeds,
    figure,
    just_knn_ms,
    just_spatial_ms,
    just_st_ms,
    linear,
    measure,
    midpoints,
    query_points,
    time_ranges,
)
from repro.scenarios.report import ScenarioResult, Shape


def _build_fraction(data, percent):
    engine = data.engine()
    plugin = engine.create_plugin_table("t", "trajectory")
    job = engine.cluster.job()
    plugin.insert_trajectories(data.synthetic_fraction(percent), job)
    plugin.flush()
    return engine, plugin, job


@figure("Fig 14a", "Synthetic: indexing time (sim ms) and storage (MB)",
        "data size %",
        Shape("indexing time and storage both grow linearly (5x data -> "
              "~5x cost)",
              lambda t: linear(t, "indexing_ms")
              and linear(t, "storage_mb")))
def fig14a(data, table):
    """Synthetic: indexing time and storage grow linearly; 1 TB indexed
    in ~1.5 h into 313 GB."""
    for percent in FRACTIONS:
        _engine, plugin, job = _build_fraction(data, percent)
        table.add("indexing_ms", percent, job.elapsed_ms)
        table.add("storage_mb", percent, plugin.storage_bytes() / MB)


@figure("Fig 14b", "Synthetic: query time vs data size, sim ms",
        "data size %",
        Shape("S and k-NN grow > 1.5x from 20 % to 100 %",
              lambda t: all(t.value(s, 100) > 1.5 * t.value(s, 20)
                            for s in ("S", "k-NN"))),
        Shape("ST stays within 1.5x of its 20 % value",
              lambda t: all(t.value("ST", p) <= 1.5 * t.value("ST", 20)
                            for p in FRACTIONS)),
        Shape("ST(100 %) < S(100 %)",
              lambda t: exceeds(t, "S", "ST", at=[100])))
def fig14b(data, table):
    """Synthetic queries: k-NN and spatial range grow with data; the ST
    range query is flat — per-period record counts do not change when
    more periods are appended.

    The ST time ranges are drawn from the span the 20 % prefix covers,
    which every fraction holds.  k-NN uses one query point per fraction,
    k = 10 for the generated record count, and Algorithm 1's cell
    parameter g widened to 15 km so each expanding search probes a
    bounded number of cells (every probed cell decodes all the
    trajectory rows filed in it).
    """
    windows = data.traj_query_windows(DEFAULT_WINDOW_KM)
    prefix = traj_statistics(data.synthetic_fraction(FRACTIONS[0]))
    times = time_ranges(prefix, DEFAULT_TIME_WINDOW_S)
    points = query_points(midpoints(data.synthetic[::17]), 1)
    for percent in FRACTIONS:
        engine, _plugin, _job = _build_fraction(data, percent)
        table.add("k-NN", percent,
                  just_knn_ms(engine, "t", 10, points, min_cell_km=15.0))
        table.add("S", percent, just_spatial_ms(engine, "t", windows))
        table.add("ST", percent, just_st_ms(engine, "t", windows, times))


FIGURES = (fig14a, fig14b)


def run(out) -> ScenarioResult:
    """Fig 14: indexing, storage and queries on the Synthetic dataset."""
    return measure(FIGURES)
