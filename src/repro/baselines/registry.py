"""The Table I feature matrix.

A static capability registry for the twelve systems the paper compares.
``feature_table()`` renders it as rows in the paper's column order so the
Table I benchmark can print it verbatim.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class SystemFeatures:
    """One column of Table I."""

    name: str
    category: str          # NoSQL / Spark / Hadoop / MR-Hive
    scalability: str       # Yes / Limited
    sql: str               # Yes / No
    data_update: str       # Yes / No / Limited
    data_processing: str   # Yes / No
    s_or_st: str           # "S" or "S/ST"
    non_point: str         # Yes / No / "Not present"


FEATURE_MATRIX: tuple[SystemFeatures, ...] = (
    SystemFeatures("JUST", "NoSQL", "Yes", "Yes", "Yes", "Yes", "S/ST",
                   "Yes"),
    SystemFeatures("Simba", "Spark", "Limited", "Yes", "No", "No", "S",
                   "Not present"),
    SystemFeatures("STARK", "Spark", "Limited", "Yes", "No", "No", "S/ST",
                   "No"),
    SystemFeatures("ST-Hadoop", "Hadoop", "Yes", "Yes", "Limited", "No",
                   "S/ST", "No"),
    SystemFeatures("SparkGIS", "Spark", "Limited", "No", "No", "No", "S",
                   "No"),
    SystemFeatures("Hadoop-GIS", "MR/Hive", "Yes", "Yes", "No", "Yes",
                   "S", "No"),
    SystemFeatures("SpatialHadoop", "Hadoop", "Yes", "Yes", "No", "No",
                   "S", "No"),
    SystemFeatures("GeoSpark", "Spark", "Limited", "No", "No", "Yes", "S",
                   "Yes"),
    SystemFeatures("LocationSpark", "Spark", "Limited", "No", "Yes",
                   "Yes", "S", "Yes"),
    SystemFeatures("SpatialSpark", "Spark", "Limited", "No", "No", "No",
                   "S", "No"),
    SystemFeatures("MD-HBase", "NoSQL", "Yes", "No", "Yes", "No", "S",
                   "No"),
    SystemFeatures("BBoxDB", "NoSQL", "Yes", "No", "Yes", "No", "S",
                   "Yes"),
)


def feature_table() -> list[dict]:
    """Table I as dict rows (one per system)."""
    return [{
        "system": f.name,
        "category": f.category,
        "scalability": f.scalability,
        "sql": f.sql,
        "data_update": f.data_update,
        "data_processing": f.data_processing,
        "s_or_st": f.s_or_st,
        "non_point": f.non_point,
    } for f in FEATURE_MATRIX]
