"""Plugin tables (Section IV-D): predefined schemas + implicit ``item``.

A plugin table fixes the storage schema and default indexes for a known
data structure so applications reuse it instead of redefining it.  Rows of
a plugin table are complete entities: the implicit ``item`` field
materializes the whole object (here a :class:`Trajectory`) so analysis
operations such as map matching can consume it directly.
"""

from __future__ import annotations

from repro.core.schema import Field, FieldType, Schema
from repro.core.tables import CommonTable
from repro.cluster.simclock import SimJob
from repro.errors import SchemaError
from repro.geometry.point import Point
from repro.trajectory.model import Trajectory

#: Fields of the trajectory plugin table (Figure 6): MBR and endpoints are
#: derivable from the GPS list, so storage keeps identity, time extent and
#: the (compressed) GPS list, plus the start/end points the figure shows.
TRAJECTORY_SCHEMA = Schema([
    Field("tid", FieldType.STRING, primary_key=True),
    Field("oid", FieldType.STRING),
    Field("start_time", FieldType.DATE),
    Field("end_time", FieldType.DATE),
    Field("start_point", FieldType.POINT),
    Field("end_point", FieldType.POINT),
    Field("gps_list", FieldType.ST_SERIES, compress="gzip"),
])


def _trajectory(tid, oid, series) -> Trajectory | None:
    """A trajectory row's ``item``: None without a GPS list."""
    if series is None:
        return None
    return Trajectory(tid, oid or "", series)


class TrajectoryPlugin(CommonTable):
    """The ``CREATE TABLE <name> AS trajectory`` plugin table.

    Ships with a secondary attribute index on ``oid`` so the
    TrajMesa-style ID query ("all trajectories of lorry X") is an index
    scan rather than a full scan.
    """

    kind = "plugin"
    plugin_type = "trajectory"
    default_index_names = ("xz2", "xz2t")
    geometry_column = "gps_list"
    time_columns = ("start_time", "end_time")
    #: The implicit ``item``: the whole :class:`Trajectory`.
    implicit_columns = {"item": (_trajectory, ("tid", "oid", "gps_list"))}
    schema = TRAJECTORY_SCHEMA
    default_attribute_fields = ("oid",)

    def stored_columns(self, columns: dict[str, list]) -> dict[str, list]:
        """The GPS list is stored in 1e-6 degree ticks; its MBR — hence
        its XZ code and signature — is taken from those."""
        return {**columns, "gps_list": [
            None if series is None else series.as_stored()
            for series in columns["gps_list"]]}

    # -- convenience API ------------------------------------------------------
    @staticmethod
    def row_of(trajectory: Trajectory) -> dict:
        """The storage row for a trajectory entity."""
        series = trajectory.series
        start, end = series.points[0], series.points[-1]
        return {
            "tid": trajectory.tid,
            "oid": trajectory.oid,
            "start_time": trajectory.start_time,
            "end_time": trajectory.end_time,
            "start_point": Point(start.lng, start.lat),
            "end_point": Point(end.lng, end.lat),
            "gps_list": series,
        }

    def insert_trajectories(self, trajectories: list[Trajectory],
                            job: SimJob | None = None) -> int:
        return self.insert_rows([self.row_of(t) for t in trajectories], job)


#: Fields of the geofence plugin table: a polygon with a validity window
#: (Section IX future work #2 — "more spatio-temporal data types as
#: plugin tables").  Urban geofences back delivery zones, no-parking
#: areas, and event perimeters; XZ2T over (area, valid_from..valid_to)
#: answers "which fences applied here, then".
GEOFENCE_SCHEMA = Schema([
    Field("gid", FieldType.STRING, primary_key=True),
    Field("name", FieldType.STRING),
    Field("category", FieldType.STRING),
    Field("valid_from", FieldType.DATE),
    Field("valid_to", FieldType.DATE),
    Field("area", FieldType.POLYGON),
])


class GeofencePlugin(CommonTable):
    """The ``CREATE TABLE <name> AS geofence`` plugin table."""

    kind = "plugin"
    plugin_type = "geofence"
    default_index_names = ("xz2", "xz2t")
    geometry_column = "area"
    time_columns = ("valid_from", "valid_to")
    #: The implicit ``item``: the fence polygon itself.
    implicit_columns = {"item": (lambda area: area, ("area",))}
    schema = GEOFENCE_SCHEMA
    default_attribute_fields = ("category",)

    def active_fences(self, lng: float, lat: float, at_time: float,
                      job=None) -> list[dict]:
        """Fences whose polygon contains the point and whose validity
        window covers ``at_time`` (the geofencing hit test)."""
        from repro.curves.strategies import STQuery
        from repro.geometry.envelope import Envelope
        probe = STQuery(Envelope.of_point(lng, lat).buffer(1e-9, 1e-9),
                        at_time, at_time)
        hits = self.query(probe, predicate="intersects", job=job)
        return [row for row in hits
                if row["area"].contains_point(lng, lat)]


#: Registry of plugin table types by JustQL name.
PLUGIN_TYPES: dict[str, type] = {
    "trajectory": TrajectoryPlugin,
    "geofence": GeofencePlugin,
}


def plugin_class(name: str) -> type:
    try:
        return PLUGIN_TYPES[name.lower()]
    except KeyError:
        valid = ", ".join(sorted(PLUGIN_TYPES))
        raise SchemaError(
            f"unknown plugin table type {name!r}; expected one of {valid}"
        ) from None
