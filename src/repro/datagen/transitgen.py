"""Scheduled vs realtime transit feeds (the GTFS / GTFS-RT stand-in).

A deterministic bus network inside the Beijing box: routes are stop
sequences, a schedule assigns each trip scheduled arrival/departure
times per stop, and the realtime feed perturbs the schedule with a
per-trip delay random walk plus stretched dwell times — the signal the
transit-delay streaming scenario aggregates into per-segment
delay/headway/dwell analytics.

Realtime events are published in *arrival order plus bounded jitter*:
each event's publish time is its actual arrival plus a uniform delay in
``[0, disorder_s]``, and the feed is sorted by publish time.  That
makes the stream out of order by at most ``disorder_s`` seconds of
event time — exactly the bound a
:class:`~repro.streaming.watermark.WatermarkTracker` with
``max_delay_s=disorder_s`` promises, so a correctly-configured pipeline
drops zero late events.
"""

from __future__ import annotations

import math
import random

from repro.core.schema import Field, FieldType, Schema
from repro.datagen.trajgen import AREA, TRAJ_TIME_START
from repro.geometry.distance import METERS_PER_DEGREE

#: Feed epoch: aligned with the Traj dataset (2014-03-01T00:00Z).
TRANSIT_TIME_START = TRAJ_TIME_START

#: Target table schema for the realtime feed (one row per stop arrival).
TRANSIT_RT_SCHEMA = Schema([
    Field("fid", FieldType.STRING, primary_key=True),   # "trip:seq"
    Field("route", FieldType.STRING),
    Field("trip", FieldType.STRING),
    Field("stop", FieldType.STRING),
    Field("seq", FieldType.LONG),
    Field("time", FieldType.DATE),      # actual arrival (event time)
    Field("geom", FieldType.POINT),
    Field("delay", FieldType.DOUBLE),   # actual - scheduled arrival, s
    Field("dwell", FieldType.DOUBLE),   # actual dwell at the stop, s
    Field("sched", FieldType.DATE),     # scheduled arrival
])

#: LOAD CONFIG mapping feed events into :data:`TRANSIT_RT_SCHEMA`.
TRANSIT_RT_CONFIG = {
    "fid": "key",
    "route": "route_id",
    "trip": "trip_id",
    "stop": "stop_id",
    "seq": "seq",
    "time": "arr_ts",
    "geom": "lng_lat_to_point(lng, lat)",
    "delay": "delay_s",
    "dwell": "dwell_s",
    "sched": "sched_arr",
}


class TransitGenerator:
    """Deterministic transit network + schedule + realtime feed."""

    def __init__(self, seed: int = 20140301, num_routes: int = 4,
                 stops_per_route: int = 8,
                 area: tuple[float, float, float, float] = AREA,
                 start_time: float = TRANSIT_TIME_START,
                 stop_spacing_m: tuple[float, float] = (600.0, 1500.0)):
        self.rng = random.Random(seed)
        self.area = area
        self.start_time = start_time
        self.routes: dict[str, list[dict]] = {}
        for r in range(num_routes):
            self.routes[f"R{r}"] = self._make_route(
                f"R{r}", stops_per_route, stop_spacing_m)

    def _make_route(self, route_id: str, num_stops: int,
                    spacing_m: tuple[float, float]) -> list[dict]:
        min_lng, min_lat, max_lng, max_lat = self.area
        # Start away from the edges so the route stays inside the box.
        lng = self.rng.uniform(min_lng + 0.1, max_lng - 0.1)
        lat = self.rng.uniform(min_lat + 0.1, max_lat - 0.1)
        heading = self.rng.uniform(0.0, 2.0 * math.pi)
        stops = []
        for seq in range(num_stops):
            stops.append({"stop_id": f"{route_id}S{seq}", "seq": seq,
                          "lng": lng, "lat": lat})
            step = self.rng.uniform(*spacing_m) / METERS_PER_DEGREE
            heading += self.rng.gauss(0.0, 0.4)
            lng = min(max(lng + step * math.cos(heading), min_lng), max_lng)
            lat = min(max(lat + step * math.sin(heading), min_lat), max_lat)
        return stops

    def schedule(self, trips_per_route: int = 6, headway_s: float = 600.0,
                 dwell_s: float = 30.0, speed_mps: float = 8.0) -> list[dict]:
        """Scheduled stop times: one row per (trip, stop)."""
        rows = []
        for route_id, stops in sorted(self.routes.items()):
            for k in range(trips_per_route):
                trip_id = f"{route_id}T{k}"
                at = self.start_time + k * headway_s
                prev = None
                for stop in stops:
                    if prev is not None:
                        dx = (stop["lng"] - prev["lng"]) * METERS_PER_DEGREE
                        dy = (stop["lat"] - prev["lat"]) * METERS_PER_DEGREE
                        at += math.hypot(dx, dy) / speed_mps + dwell_s
                    rows.append({"trip_id": trip_id, "route_id": route_id,
                                 "stop_id": stop["stop_id"],
                                 "seq": stop["seq"],
                                 "lng": stop["lng"], "lat": stop["lat"],
                                 "sched_arr": at,
                                 "sched_dep": at + dwell_s})
                    prev = stop
        return rows

    def realtime_feed(self, schedule_rows: list[dict] | None = None,
                      disorder_s: float = 120.0,
                      delay_step_s: tuple[float, float] = (15.0, 40.0),
                      **schedule_kwargs) -> list[dict]:
        """The realtime feed: perturbed stop events in publish order.

        Each event carries both actual (``arr_ts``/``dep_ts``) and
        scheduled times plus the derived ``delay_s``/``dwell_s``, and is
        at most ``disorder_s`` seconds of event time out of order.
        """
        if schedule_rows is None:
            schedule_rows = self.schedule(**schedule_kwargs)
        delays: dict[str, float] = {}
        events = []
        for sched in schedule_rows:
            trip_id = sched["trip_id"]
            delay = delays.get(trip_id)
            if delay is None:
                delay = max(0.0, self.rng.gauss(20.0, 30.0))
            else:
                delay = max(-60.0, delay + self.rng.gauss(*delay_step_s))
            delays[trip_id] = delay
            arr_ts = sched["sched_arr"] + delay
            dwell = ((sched["sched_dep"] - sched["sched_arr"])
                     * self.rng.uniform(0.7, 2.5))
            events.append({
                "key": f"{trip_id}:{sched['seq']}",
                "trip_id": trip_id,
                "route_id": sched["route_id"],
                "stop_id": sched["stop_id"],
                "seq": sched["seq"],
                "lng": sched["lng"], "lat": sched["lat"],
                "arr_ts": arr_ts,
                "dep_ts": arr_ts + dwell,
                "sched_arr": sched["sched_arr"],
                "sched_dep": sched["sched_dep"],
                "delay_s": delay,
                "dwell_s": dwell,
                "publish_ts": arr_ts + self.rng.uniform(0.0, disorder_s),
            })
        events.sort(key=lambda e: (e["publish_ts"], e["key"]))
        return events


def generate_transit_feed(seed: int = 20140301, num_routes: int = 4,
                          stops_per_route: int = 8,
                          trips_per_route: int = 6,
                          headway_s: float = 600.0,
                          disorder_s: float = 120.0) -> list[dict]:
    """One-call realtime feed for scenarios and tests."""
    generator = TransitGenerator(seed=seed, num_routes=num_routes,
                                 stops_per_route=stops_per_route)
    return generator.realtime_feed(trips_per_route=trips_per_route,
                                   headway_s=headway_s,
                                   disorder_s=disorder_s)
