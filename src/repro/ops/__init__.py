"""Analysis operations (Section V-D).

Three operation shapes, mirroring the paper's execution model:

* **1-1** — row to row (Spark SQL UDF equivalents): coordinate transforms.
* **1-N** — row to many rows: trajectory noise filtering, segmentation,
  stay-point detection, map matching.
* **N-M** — many rows to many rows: DBSCAN spatial clustering.

Every operation is a pure function over value objects, plus a registration
in :mod:`repro.sql.functions` so it is callable from JustQL as ``st_*``.
"""

from repro.ops.analysis.transforms import (
    st_wgs84_to_gcj02,
    st_gcj02_to_wgs84,
    st_gcj02_to_bd09,
    st_bd09_to_gcj02,
)
from repro.ops.analysis.noise_filter import traj_noise_filter
from repro.ops.analysis.segmentation import traj_segment
from repro.ops.analysis.staypoint import StayPoint, traj_stay_points
from repro.ops.analysis.dbscan import dbscan
from repro.ops.analysis.mapmatching import MapMatcher, map_match

__all__ = [
    "st_wgs84_to_gcj02",
    "st_gcj02_to_wgs84",
    "st_gcj02_to_bd09",
    "st_bd09_to_gcj02",
    "traj_noise_filter",
    "traj_segment",
    "StayPoint",
    "traj_stay_points",
    "dbscan",
    "MapMatcher",
    "map_match",
]
