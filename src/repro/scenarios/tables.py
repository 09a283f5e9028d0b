"""Tables I and II: the compared systems and the generated datasets."""

from __future__ import annotations

from repro.baselines import feature_table
from repro.datagen.datasets import traj_statistics
from repro.scenarios.paper import SYNTHETIC_MULTIPLIER, figure, measure
from repro.scenarios.report import ScenarioResult, Shape

_SPARK = ("Simba", "GeoSpark", "LocationSpark", "SpatialSpark")
_CAPABILITIES = ("scalability", "sql", "data_update", "data_processing",
                 "non_point")


def _complete(table) -> list[str]:
    """Systems with every capability and both S and ST queries."""
    return [system for system, row in table.series.items()
            if row["s_or_st"] == "S/ST"
            and all(row[c] == "Yes" for c in _CAPABILITIES)]


@figure("Table I", "Comparing JUST against other systems", "feature",
        Shape("only JUST combines scalability, SQL, updates, processing, "
              "S/ST and non-point support",
              lambda t: _complete(t) == ["JUST"]),
        Shape("every Spark-based system has limited scalability",
              lambda t: all(t.value(s, "scalability") == "Limited"
                            for s in _SPARK)))
def table1(data, table):
    """Feature matrix of 12 systems: only JUST combines scalability,
    SQL, updates, processing, S/ST and non-point support.

    The matrix is the paper's rows verbatim.
    """
    for row in feature_table():
        system = row.pop("system")
        for feature, value in row.items():
            table.add(system, feature, value)


@figure("Table II", "Statistics of datasets", "attribute",
        Shape("Traj holds > 50 GPS points per record",
              lambda t: t.value("Traj", "points")
              > 50 * t.value("Traj", "records")),
        Shape("Order is one point per record",
              lambda t: t.value("Order", "points")
              == t.value("Order", "records")),
        Shape(f"Synthetic holds {SYNTHETIC_MULTIPLIER}x Traj's points",
              lambda t: t.value("Synthetic", "points")
              == SYNTHETIC_MULTIPLIER * t.value("Traj", "points")),
        Shape("Traj's raw size > 2x Order's",
              lambda t: t.value("Traj", "raw_mb")
              > 2 * t.value("Order", "raw_mb")))
def table2(data, table):
    """Traj: 886.6M points / 314k records / 136 GB (2014-03); Order:
    71.0M points (2018-10..11); Synthetic: copy & sample of Traj to
    1.36 TB (2014-03..12).

    Generated at ~1/10000 volume with the same schema, record-size ratio
    (Traj >> Order), skew and time spans; Synthetic is a jittered,
    time-shifted scale-up of Traj.
    """
    for stats in (data.traj_stats, data.order_stats,
                  traj_statistics(data.synthetic, "Synthetic")):
        table.add(stats.name, "points", stats.num_points)
        table.add(stats.name, "records", stats.num_records)
        table.add(stats.name, "raw_mb", round(stats.raw_size_mb, 2))


FIGURES = (table1, table2)


def run(out) -> ScenarioResult:
    """Tables I and II: the compared systems and the generated datasets."""
    return measure(FIGURES)
