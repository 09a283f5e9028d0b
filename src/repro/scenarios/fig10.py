"""Figure 10: storage size and indexing time vs data size.

Compressing the Traj GPS list shrinks storage several-fold while
compressing the Order dataset's tiny fields slightly *grows* it; JUST
indexes slower than the in-memory Spark systems (it writes to disk),
memory-bound systems OOM on Traj, and JUSTnc indexes slower than JUST
because uncompressed rows cost more write I/O.
"""

from __future__ import annotations

from repro.baselines import GeoSpark, LocationSpark, Simba, SpatialSpark
from repro.scenarios.paper import (
    FRACTIONS,
    MB,
    OOM,
    exceeds,
    figure,
    fits,
    grows,
    linear,
    measure,
)
from repro.scenarios.report import ScenarioResult, Shape

_ORDER_SYSTEMS = (GeoSpark, LocationSpark, SpatialSpark, Simba)
_TRAJ_SYSTEMS = (GeoSpark, SpatialSpark, Simba)


@figure("Fig 10a", "Storage size (Order), MB", "data size %",
        Shape("JUSTcompress >= JUST at every fraction",
              lambda t: all(t.value("JUSTcompress", p) >= t.value("JUST", p)
                            for p in FRACTIONS)),
        Shape("JUST grows linearly",
              lambda t: grows(t, "JUST") and linear(t, "JUST")))
def fig10a(data, table):
    """Order storage grows linearly; compressing the tiny Order fields
    *increases* storage slightly."""
    just = data.order_just
    compressed = data.order_just_compressed
    for percent in FRACTIONS:
        table.add("JUST", percent, just["storage"]["JUST"][percent] / MB)
        table.add("JUSTcompress", percent, compressed[percent] / MB)


@figure("Fig 10b", "Storage size (Traj), MB", "data size %",
        Shape("JUST < 0.7 x JUSTnc at every fraction",
              lambda t: all(t.value("JUST", p) < 0.7 * t.value("JUSTnc", p)
                            for p in FRACTIONS)),
        Shape("JUST grows linearly",
              lambda t: grows(t, "JUST") and linear(t, "JUST")))
def fig10b(data, table):
    """Traj storage grows linearly; compression stores 136 GB raw in
    ~30 GB (JUST well below JUSTnc).

    The measured compression ratio is ~0.63 against the paper's ~0.35:
    the generated GPS tracks carry more white noise than real lorry
    traces, so DEFLATE finds less redundancy.
    """
    just = data.traj_just
    just_nc = data.traj_just_nc
    for percent in FRACTIONS:
        table.add("JUST", percent, just["storage"]["JUST"][percent] / MB)
        table.add("JUSTnc", percent,
                  just_nc["storage"]["JUST"][percent] / MB)


@figure("Fig 10c", "Indexing time (Order), sim ms", "data size %",
        Shape("JUST indexes slower than every Spark system at every "
              "fraction",
              lambda t: all(exceeds(t, "JUST", s.name)
                            for s in _ORDER_SYSTEMS)),
        Shape("JUST grows linearly",
              lambda t: grows(t, "JUST") and linear(t, "JUST")))
def fig10c(data, table):
    """Indexing Order: JUST slower than Spark systems (indexing includes
    storing); Hadoop systems take hours (not shown)."""
    just = data.order_just
    for percent in FRACTIONS:
        table.add("JUST", percent, just["index_ms"]["JUST"][percent])
        for cls in _ORDER_SYSTEMS:
            loaded = data.baseline(cls, "order", percent)
            table.add(cls.name, percent,
                      OOM if loaded == OOM else loaded["load_ms"])


@figure("Fig 10d", "Indexing time (Traj), sim ms", "data size %",
        Shape("Simba OOMs from 40 %, SpatialSpark at 100 %, GeoSpark never",
              lambda t: (fits(t, "Simba"), fits(t, "SpatialSpark"),
                         fits(t, "GeoSpark"))
              == ([20], [20, 40, 60, 80], list(FRACTIONS))),
        Shape("JUST < JUSTnc at every fraction",
              lambda t: exceeds(t, "JUSTnc", "JUST")),
        Shape("JUST < every Spark system wherever it fits",
              lambda t: all(exceeds(t, s.name, "JUST", at=fits(t, s.name))
                            for s in _TRAJ_SYSTEMS)))
def fig10d(data, table):
    """Indexing Traj: Simba OOM at 40%, SpatialSpark fails at 100%;
    JUST < JUSTnc (less write I/O)."""
    just = data.traj_just
    just_nc = data.traj_just_nc
    for percent in FRACTIONS:
        table.add("JUST", percent, just["index_ms"]["JUST"][percent])
        table.add("JUSTnc", percent, just_nc["index_ms"]["JUST"][percent])
        for cls in _TRAJ_SYSTEMS:
            loaded = data.baseline(cls, "traj", percent)
            table.add(cls.name, percent,
                      OOM if loaded == OOM else loaded["load_ms"])


FIGURES = (fig10a, fig10b, fig10c, fig10d)


def run(out) -> ScenarioResult:
    """Fig 10: storage size and indexing time vs data size."""
    return measure(FIGURES)
