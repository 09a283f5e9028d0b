"""The JustQL function registry: scalar, set (1-N), and aggregate.

The preset ``st_*`` operations of Section V are registered here so the SQL
executor can dispatch them.  Scalar functions map one row to one value;
set functions map one row to many rows (the engine's own 1-N executors,
since the Spark UDF mechanism cannot do this); N-M functions run over the
whole input (DBSCAN); aggregates fold groups.
"""

from __future__ import annotations

import math
from typing import Callable

from repro.dataframe.functions import (
    agg_avg,
    agg_collect,
    agg_count,
    agg_max,
    agg_min,
    agg_sum,
)
from repro.errors import ExecutionError
from repro.geometry.distance import euclidean_distance, haversine_distance_m
from repro.geometry.envelope import Envelope
from repro.geometry.point import Point
from repro.geometry.wkt import from_wkt, to_wkt
from repro.ops.analysis.noise_filter import traj_noise_filter
from repro.ops.analysis.segmentation import traj_segment
from repro.ops.analysis.staypoint import traj_stay_points
from repro.ops.analysis.transforms import (
    st_bd09_to_gcj02,
    st_gcj02_to_bd09,
    st_gcj02_to_wgs84,
    st_wgs84_to_gcj02,
)


def _null_in_null_out(fn: Callable) -> Callable:
    """``fn`` answering NULL when any argument is NULL, as Spark's and
    Sedona's point functions do."""
    def call(*args):
        if any(arg is None for arg in args):
            return None
        return fn(*args)
    return call


def _as_point(*args) -> Point:
    """Accept either one Point or an (lng, lat) pair."""
    if len(args) == 1 and isinstance(args[0], Point):
        return args[0]
    if len(args) == 2:
        return Point(float(args[0]), float(args[1]))
    raise ExecutionError(
        "expected a point or an (lng, lat) pair of coordinates")


@_null_in_null_out
def _st_distance(a, b) -> float:
    pa, pb = _as_point(a), _as_point(b)
    return euclidean_distance(pa.lng, pa.lat, pb.lng, pb.lat)


@_null_in_null_out
def _st_distance_m(a, b) -> float:
    pa, pb = _as_point(a), _as_point(b)
    return haversine_distance_m(pa.lng, pa.lat, pb.lng, pb.lat)


def _transform(fn: Callable) -> Callable:
    """A coordinate transform over a point or an (lng, lat) pair."""
    return _null_in_null_out(lambda *args: fn(_as_point(*args)))


def _st_within(geometry, envelope) -> bool:
    if geometry is None or envelope is None:
        return False
    if not isinstance(envelope, Envelope):
        raise ExecutionError("WITHIN expects an MBR (st_makeMBR)")
    if isinstance(geometry, Point):
        return envelope.contains_point(geometry.lng, geometry.lat)
    return envelope.contains(geometry.envelope)


def _st_intersects(geometry, envelope) -> bool:
    if geometry is None or envelope is None:
        return False
    if not isinstance(envelope, Envelope):
        raise ExecutionError("st_intersects expects an MBR")
    return geometry.intersects_envelope(envelope)


#: Scalar functions: name -> callable(values...) -> value.
SCALAR_FUNCTIONS: dict[str, Callable] = {
    "st_makembr": lambda a, b, c, d: Envelope(float(a), float(b),
                                              float(c), float(d)),
    "st_makepoint": lambda lng, lat: Point(float(lng), float(lat)),
    "st_point": lambda lng, lat: Point(float(lng), float(lat)),
    "st_x": lambda p: p.lng if p is not None else None,
    "st_y": lambda p: p.lat if p is not None else None,
    "st_within": _st_within,
    "st_intersects": _st_intersects,
    "st_distance": _st_distance,
    "st_distance_m": _st_distance_m,
    "st_geomfromtext": lambda text: from_wkt(text),
    "st_astext": lambda g: to_wkt(g) if g is not None else None,
    "st_wgs84togcj02": _transform(st_wgs84_to_gcj02),
    "st_gcj02towgs84": _transform(st_gcj02_to_wgs84),
    "st_gcj02tobd09": _transform(st_gcj02_to_bd09),
    "st_bd09togcj02": _transform(st_bd09_to_gcj02),
    "st_trajnoisefilter": lambda item, *p: traj_noise_filter(item, *p),
    "st_trajlength_m": lambda item: item.length_m(),
    "st_trajduration_s": lambda item: item.duration_s(),
    # generic SQL scalars
    "upper": lambda s: s.upper() if s is not None else None,
    "lower": lambda s: s.lower() if s is not None else None,
    "length": lambda s: len(s) if s is not None else None,
    "abs": lambda v: abs(v) if v is not None else None,
    "round": lambda v, nd=0: round(v, int(nd)) if v is not None else None,
    "floor": lambda v: math.floor(v) if v is not None else None,
    "ceil": lambda v: math.ceil(v) if v is not None else None,
    "concat": lambda *parts: "".join(str(p) for p in parts
                                     if p is not None),
    "coalesce": lambda *vals: next((v for v in vals if v is not None),
                                   None),
}

#: Set (1-N) functions: one input row expands to len(result) output rows.
SET_FUNCTIONS: dict[str, Callable] = {
    "st_trajsegmentation": lambda item, *p: traj_segment(item, *p),
    "st_trajstaypoint": lambda item, *p: traj_stay_points(item, *p),
    # st_trajMapMatching needs the engine's road network; the executor
    # injects it via make_map_matching_function().
}

#: N-M functions, handled specially by the physical executor.
NM_FUNCTIONS = frozenset({"st_dbscan"})

#: Aggregate functions: name -> factory(column_name) -> AggregateSpec.
AGGREGATE_FUNCTIONS: dict[str, Callable] = {
    "count": agg_count,
    "sum": agg_sum,
    "avg": agg_avg,
    "min": agg_min,
    "max": agg_max,
    "collect_list": agg_collect,
}

#: Functions the scan planner consumes; calling them as scalars is an error.
PLANNER_FUNCTIONS = frozenset({"st_knn"})


def make_map_matching_function(network):
    """Bind st_trajMapMatching to a road network instance."""
    from repro.ops.analysis.mapmatching import map_match

    def matcher(item, *params):
        return map_match(item, network)

    return matcher


def lookup_scalar(name: str) -> Callable:
    try:
        return SCALAR_FUNCTIONS[name]
    except KeyError:
        if name in PLANNER_FUNCTIONS:
            raise ExecutionError(
                f"{name} is only valid in WHERE ... IN {name}(...)"
            ) from None
        raise ExecutionError(f"unknown function {name!r}") from None
