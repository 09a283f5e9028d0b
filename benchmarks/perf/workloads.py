"""The six workloads: seeded inputs, the calls that are timed, the oracle.

Every workload's inputs are a function of the seed alone (see
LAYOUT_SEED for which part of them each seed shares); the engine only
ever sees the generated inputs.  A *round* is one pass over the fixed op
list, so two rounds do identical work.  Read workloads run
every round against the store their set-up loaded; the two write
workloads (``rebuild_each_round``) ingest into a fresh engine each round,
because a second pass over the same rows would be upserts, not ingest.

Each result is compared with a reference computed from the generated
data by linear scan (never through ``repro``'s indexes, planner or
codecs), and reduced to ``keys`` — the sorted identifiers or values that
feed ``result_digest``.
"""

from __future__ import annotations

import gc
import heapq
import math
import random
from collections import Counter
from contextlib import nullcontext
from typing import NamedTuple

from repro import Field, FieldType, JustEngine, Schema
from repro.core.loader import apply_config
from repro.core.plugins import TrajectoryPlugin
from repro.datagen import OrderGenerator, TrajectoryGenerator
from repro.datagen.datasets import order_statistics, traj_statistics
from repro.datagen.transitgen import (
    TRANSIT_RT_CONFIG,
    TRANSIT_RT_SCHEMA,
    TransitGenerator,
)
from repro.geometry.distance import haversine_distance_m, km_to_degrees
from repro.geometry.envelope import Envelope
from repro.kvstore.wal import SyncPolicy
from repro.service.client import JustClient
from repro.service.server import JustServer
from repro.streaming import (
    Avg,
    Count,
    TumblingWindows,
    WindowedAggregator,
    batch_aggregate,
)
from repro.trajectory.model import STSeries, Trajectory

ORDER_SCHEMA = Schema([
    Field("fid", FieldType.INTEGER, primary_key=True),
    Field("time", FieldType.DATE),
    Field("geom", FieldType.POINT),
    Field("amount", FieldType.DOUBLE),
    Field("category", FieldType.STRING),
])

#: One transit event as the CSV line it would arrive as, following the
#: ``datagen.datasets`` convention of sizing user data as CSV text.
TRANSIT_CSV_BYTES = len(
    "R12T34:15,R12,R12T34,R12S15,15,1393632000.123,116.123456,39.123456,"
    "123.4,45.6,1393632000.123\n")

#: What depends on the seed.  The city — order hotspots, lorry depots,
#: bus routes — is laid out from LAYOUT_SEED for every seed.  The write
#: workloads ingest records drawn in it from the seed.  The read
#: workloads load one dataset, also drawn from LAYOUT_SEED, and take
#: their statements from the seed — the paper's own method (fixed
#: datasets, random query windows).  With everything drawn per seed,
#: how clustered 600 trajectories or 30 000 orders happen to be moved
#: what a trajectory or k-NN query scans, and with it every latency, by
#: 15-50 % from seed to seed: a property of the dice, not of the engine.
LAYOUT_SEED = 20200420

#: The repo's 512 KiB flush / 4 MiB split never compacts within the row
#: counts a 10-second run can ingest (a region splits before it holds 8
#: runs).  Both are scaled by 1/16, which keeps HBase's
#: many-compactions-per-split ratio and lets background work complete
#: several cycles, so write amplification has levelled off.
SMALL_LSM = {"flush_bytes": 32 * 1024, "split_bytes": 1024 * 1024}


class Op(NamedTuple):
    kind: str
    arg: object
    #: Workload units (rows / events / statements) the op completes.
    units: int
    #: Latency percentiles and ``sim_ms_p50`` are over primary ops only.
    primary: bool


def _no_span(_name, _layer):
    return nullcontext()


def seeded_records(generator, seed: int):
    """``generator`` was built from LAYOUT_SEED (its constructor lays the
    city out); everything it generates from here on follows ``seed``."""
    generator.rng = random.Random(seed)
    return generator


def spread_over(candidates: list, crowding: list, count: int,
                rng: random.Random) -> list:
    """``count`` of ``candidates`` at evenly spaced ranks of ``crowding``.

    A systematic sample: every candidate is as likely as any other to be
    drawn, but each draw covers the whole range of local data density —
    which is what a k-NN or trajectory query's cost follows — instead of
    leaving the share of sparse and dense places to chance.  With 50-80
    expensive queries per round a plain random draw moved the medians
    by 15-25 % between seeds.
    """
    order = sorted(range(len(candidates)), key=crowding.__getitem__)
    step = len(order) / count
    offset = rng.random()
    picked = [candidates[order[int((j + offset) * step)]]
              for j in range(count)]
    rng.shuffle(picked)
    return picked


def order_rows(count: int, seed: int) -> list[dict]:
    return seeded_records(OrderGenerator(LAYOUT_SEED), seed).generate(count)


class Workload:
    """Base: sizes, seeded op list, run/check protocol.

    ``sizes`` maps each size to ``(full, quick)``.  ``span`` is
    ``Tracer.span`` during a traced pass and a no-op otherwise; a
    workload uses it around calls of its own that belong to a layer.
    """

    name = ""
    unit = ""
    sizes: dict[str, tuple[int, int]] = {}
    rebuild_each_round = False
    #: Only a streaming workload has a materialized view and a backlog.
    view = None
    lag_max = 0

    def __init__(self, seed: int, quick: bool = False):
        self.seed = seed
        self.size = {key: values[1 if quick else 0]
                     for key, values in self.sizes.items()}
        self.span = _no_span
        self.ops: list[Op] = []
        self.engine: JustEngine | None = None
        self.user_bytes = 0
        self._reference: dict[int, object] = {}

    def rng(self, purpose: str) -> random.Random:
        return random.Random(f"{self.seed}/{self.name}/{purpose}")

    def setup(self) -> None:
        """Generate data and ops (and, for read workloads, load + flush)."""
        raise NotImplementedError

    def begin_round(self) -> None:
        """Untimed work before a round."""

    def run(self, op: Op):
        """The timed call: returns ``(rows, SimJob | None)``."""
        raise NotImplementedError

    def check(self, index: int, op: Op, rows) -> tuple[bool, tuple]:
        """``(matches the oracle, digest keys)`` for one op's result."""
        raise NotImplementedError

    def end_round(self) -> tuple[int, int, tuple]:
        """Untimed end-of-round checks: ``(attempted, failed, keys)`` —
        check ops made, how many failed, and what they read back (for
        the digest, like an op's keys)."""
        return 0, 0, ()

    def reference(self, index: int, compute):
        """The oracle's answer for op ``index``, computed once."""
        if index not in self._reference:
            self._reference[index] = compute()
        return self._reference[index]

    def amplification(self) -> tuple[float, float]:
        """``(storage_amp, write_amp)`` after a final flush."""
        store = self.engine.store
        for kv_table in store.tables():
            kv_table.flush()
        stored = sum(kv_table.total_bytes for kv_table in store.tables())
        written = (store.stats.disk_bytes_written
                   + store.stats.wal_bytes_written)
        return stored / self.user_bytes, written / self.user_bytes


# -- ingest_bulk -------------------------------------------------------------

class IngestBulk(Workload):
    name = "ingest_bulk"
    unit = "rows"
    sizes = {"rows": (40_000, 4_000), "batch_rows": (500, 100),
             "sampled_gets": (1_000, 100)}
    rebuild_each_round = True

    def setup(self) -> None:
        self.rows = order_rows(self.size["rows"], self.seed)
        self.user_bytes = order_statistics(self.rows).raw_size_bytes
        step = self.size["batch_rows"]
        batches = [self.rows[i:i + step]
                   for i in range(0, len(self.rows), step)]
        self.ops = [Op("insert", batch, len(batch), True)
                    for batch in batches]
        self.sample = self.rng("gets").sample(self.rows,
                                              self.size["sampled_gets"])

    def begin_round(self) -> None:
        self.engine = None
        gc.collect()
        self.engine = JustEngine(**SMALL_LSM)
        self.table = self.engine.create_table("orders", ORDER_SCHEMA)

    def run(self, op: Op):
        result = self.engine.insert("orders", op.arg)
        return result.extra["inserted"], result.job

    def check(self, index, op, rows):
        return rows == len(op.arg), (op.arg[0]["fid"], rows)

    def end_round(self):
        stored = [self.table.get(str(row["fid"])) for row in self.sample]
        failed = int(self.table.row_count != len(self.rows))
        failed += sum(got != row for got, row in zip(stored, self.sample))
        return 1 + len(self.sample), failed, tuple(
            (got["fid"], got["time"], got["amount"]) if got else None
            for got in stored)


# -- stream_mixed ------------------------------------------------------------

class StreamMixed(Workload):
    name = "stream_mixed"
    unit = "events"
    sizes = {"routes": (30, 6), "stops": (20, 10), "trips": (20, 10),
             "poll_events": (500, 100), "reads_per_poll": (5, 5)}
    rebuild_each_round = True
    window_s = 900.0
    disorder_s = 120.0

    def setup(self) -> None:
        generator = seeded_records(TransitGenerator(
            seed=LAYOUT_SEED, num_routes=self.size["routes"],
            stops_per_route=self.size["stops"]), self.seed)
        self.feed = generator.realtime_feed(
            trips_per_route=self.size["trips"], disorder_s=self.disorder_s)
        self.mapped = None  # the feed as table rows, once a round has ended
        self.user_bytes = len(self.feed) * TRANSIT_CSV_BYTES
        rng = self.rng("reads")
        half = km_to_degrees(2.0) / 2
        step = self.size["poll_events"]
        self.ops = []
        for start in range(0, len(self.feed), step):
            chunk = self.feed[start:start + step]
            self.ops.append(Op("poll", chunk, len(chunk), False))
            for _ in range(self.size["reads_per_poll"]):
                event = rng.choice(chunk)
                window = (event["lng"] - half, event["lat"] - half,
                          event["lng"] + half, event["lat"] + half,
                          event["arr_ts"] - self.window_s,
                          event["arr_ts"] + self.window_s)
                self.ops.append(Op("read", (window, start + len(chunk)),
                                   0, True))

    def _aggregates(self) -> dict:
        return {"arrivals": Count(), "avg_delay": Avg("delay")}

    def begin_round(self) -> None:
        self.engine = None
        gc.collect()
        self.engine = JustEngine(wal_policy=SyncPolicy.SYNC,
                                 replication_factor=3, **SMALL_LSM)
        self.table = self.engine.create_table("transit", TRANSIT_RT_SCHEMA)
        self.topic = self.engine.create_topic("transit_rt")
        self.loader = self.engine.stream_load(
            "transit_rt", "transit", TRANSIT_RT_CONFIG,
            batch_size=self.size["poll_events"],
            max_delay_s=self.disorder_s)
        self.view = self.loader.materialize_window(
            "route_delay", WindowedAggregator(
                TumblingWindows(self.window_s), self._aggregates(),
                key_fields=("route",)))
        self.lag_max = 0

    def run(self, op: Op):
        if op.kind == "poll":
            self.topic.append_many(op.arg)
            loaded = self.loader.poll()["loaded"]
            self.lag_max = max(self.lag_max, self.loader.lag)
            return loaded, None
        (min_lng, min_lat, max_lng, max_lat, t_min, t_max), _ = op.arg
        result = self.engine.st_range_query(
            "transit", Envelope(min_lng, min_lat, max_lng, max_lat),
            t_min, t_max)
        return result.rows, result.job

    def check(self, index, op, rows):
        if op.kind == "poll":
            return rows == len(op.arg), (op.arg[0]["key"], rows)
        (min_lng, min_lat, max_lng, max_lat, t_min, t_max), loaded = op.arg
        expected = self.reference(index, lambda: tuple(sorted(
            e["key"] for e in self.feed[:loaded]
            if min_lng <= e["lng"] <= max_lng
            and min_lat <= e["lat"] <= max_lat
            and t_min <= e["arr_ts"] <= t_max)))
        keys = tuple(sorted(row["fid"] for row in rows))
        return keys == expected, keys

    def end_round(self):
        """Stream/batch parity of the view, every round.  The first round
        (the warm-up, whose engine nothing is measured on afterwards)
        also checks durability: crash one server, fail it over, and
        re-read every acknowledged row."""
        self.loader.finalize()
        first = self.mapped is None
        if first:
            self.mapped = [apply_config(event, TRANSIT_RT_CONFIG)
                           for event in self.feed]
            self.batch_view = batch_aggregate(
                self.mapped, TumblingWindows(self.window_s),
                self._aggregates(), key_fields=("route",))
        view_rows = self.view.rows()
        failed = int(view_rows != self.batch_view)
        keys = tuple((row["window_start"], row["route"], row["arrivals"])
                     for row in view_rows)
        if not first:
            return 1, failed, keys
        store = self.engine.store
        victim = self.seed % store.num_servers
        store.crash_server(victim, defer_failover=True)
        store.failover(victim)
        for row in self.mapped:
            stored = self.table.get(row["fid"])
            failed += stored is None or stored["time"] != row["time"]
        return 1 + len(self.mapped), failed, keys


# -- read workloads over the service -----------------------------------------

class ServiceWorkload(Workload):
    """A loaded table queried with JustQL through JustServer + JustClient."""

    unit = "statements"
    engine_options: dict = {}
    monitoring = False

    def connect(self) -> str:
        """Build engine + service; returns the session's table namespace."""
        self.engine = JustEngine(**self.engine_options)
        self.server = JustServer(self.engine)
        self.client = JustClient(self.server, "bench")
        if self.monitoring:
            self.engine.enable_monitoring()
        return self.server.sessions.get(self.client.session_id).namespace

    def load_orders(self) -> None:
        self.rows = order_rows(self.size["rows"], LAYOUT_SEED)
        self.user_bytes = order_statistics(self.rows).raw_size_bytes
        name = self.connect() + "orders"
        table = self.engine.create_table(name, ORDER_SCHEMA)
        for i in range(0, len(self.rows), 1000):
            self.engine.insert(name, self.rows[i:i + 1000])
        table.flush()

    def run(self, op: Op):
        result = self.client.execute_query(op.arg[0])
        with self.span("cursor.fetch", "service.client"):
            rows = list(result)
        return rows, result.job


class StRange(ServiceWorkload):
    name = "st_range"
    sizes = {"rows": (30_000, 3_000), "statements": (200, 30)}
    monitoring = True

    def setup(self) -> None:
        self.load_orders()
        self.located = [(r["fid"], r["geom"].lng, r["geom"].lat, r["time"])
                        for r in self.rows]
        rng = self.rng("windows")
        half = km_to_degrees(3.0) / 2
        half_day = 43_200.0
        self.ops = []
        for _ in range(self.size["statements"]):
            row = rng.choice(self.rows)
            lng = row["geom"].lng + rng.uniform(-half, half)
            lat = row["geom"].lat + rng.uniform(-half, half)
            t = row["time"] + rng.uniform(-half_day, half_day)
            window = (lng - half, lat - half, lng + half, lat + half,
                      t - half_day, t + half_day)
            statement = (
                "SELECT fid, amount FROM orders WHERE geom WITHIN "
                "st_makeMBR({!r}, {!r}, {!r}, {!r}) "
                "AND time BETWEEN {!r} AND {!r}".format(*window))
            self.ops.append(Op("select", (statement, window), 1, True))

    def check(self, index, op, rows):
        min_lng, min_lat, max_lng, max_lat, t_min, t_max = op.arg[1]
        expected = self.reference(index, lambda: tuple(sorted(
            fid for fid, lng, lat, t in self.located
            if min_lng <= lng <= max_lng and min_lat <= lat <= max_lat
            and t_min <= t <= t_max)))
        keys = tuple(sorted(row["fid"] for row in rows))
        return keys == expected, keys


class Knn(ServiceWorkload):
    name = "knn"
    sizes = {"rows": (30_000, 3_000), "statements": (160, 10), "k": (5, 5)}

    def setup(self) -> None:
        self.load_orders()
        self.points = {r["fid"]: (r["geom"].lng, r["geom"].lat)
                       for r in self.rows}
        # Crowding of a row: the rows in the 3 x 3 km around it, which is
        # what decides how many cells Algorithm 1 has to visit.
        cell = km_to_degrees(1.0)
        cells = [(int(x / cell), int(y / cell))
                 for x, y in self.points.values()]
        population = Counter(cells)
        crowding = [sum(population[cx + dx, cy + dy]
                        for dx in (-1, 0, 1) for dy in (-1, 0, 1))
                    for cx, cy in cells]
        self.ops = []
        for row in spread_over(self.rows, crowding,
                               self.size["statements"], self.rng("points")):
            centre = row["geom"]
            statement = (
                "SELECT fid FROM orders WHERE geom IN "
                f"st_KNN(st_makePoint({centre.lng!r}, {centre.lat!r}), "
                f"{self.size['k']})")
            self.ops.append(Op("select", (statement,
                                          (centre.lng, centre.lat)), 1, True))

    def check(self, index, op, rows):
        """Distances, not identifiers: equidistant rows may swap."""
        lng, lat = op.arg[1]
        expected = self.reference(index, lambda: heapq.nsmallest(
            self.size["k"], (math.hypot(lng - x, lat - y)
                             for x, y in self.points.values())))
        keys = tuple(sorted(row["fid"] for row in rows))
        distances = sorted(math.hypot(lng - self.points[fid][0],
                                      lat - self.points[fid][1])
                           for fid in keys)
        return distances == expected, keys


class ScanAggregate(ServiceWorkload):
    name = "scan_aggregate"
    sizes = {"rows": (5_000, 1_000), "statements_per_shape": (12, 3)}
    #: Smaller than the 300 KB feature-id table in its one region, so a
    #: sequential scan evicts every block before it is read again.
    engine_options = {"cache_bytes_per_server": 64 * 1024}

    def setup(self) -> None:
        self.load_orders()
        rng = self.rng("parameters")
        self.ops = []
        for _ in range(self.size["statements_per_shape"]):
            threshold = round(rng.uniform(50.0, 300.0), 2)
            hub = rng.choice(self.rows)["geom"]
            for shape, parameter, statement in (
                ("group", None,
                 "SELECT category, count(*) AS n, avg(amount) AS mean "
                 "FROM orders GROUP BY category"),
                ("filter", threshold,
                 f"SELECT fid, amount FROM orders WHERE amount > "
                 f"{threshold!r}"),
                ("mobility", (hub.lng, hub.lat),
                 "SELECT category, count(*) AS n, avg(amount) AS mean "
                 "FROM orders WHERE st_distance_m(geom, "
                 f"st_makePoint({hub.lng!r}, {hub.lat!r})) < 10000 "
                 "GROUP BY category"),
                ("top", None,
                 "SELECT fid, amount FROM orders ORDER BY amount DESC "
                 "LIMIT 10"),
            ):
                self.ops.append(Op(shape, (statement, parameter), 1, True))

    def _grouped(self, rows) -> dict[str, tuple[int, float]]:
        totals: dict[str, list] = {}
        for row in rows:
            entry = totals.setdefault(row["category"], [0, 0.0])
            entry[0] += 1
            entry[1] += row["amount"]
        return {category: (n, total / n)
                for category, (n, total) in totals.items()}

    def check(self, index, op, rows):
        parameter = op.arg[1]
        if op.kind == "filter":
            expected = self.reference(index, lambda: tuple(sorted(
                r["fid"] for r in self.rows if r["amount"] > parameter)))
            keys = tuple(sorted(row["fid"] for row in rows))
            return keys == expected, keys
        if op.kind == "top":
            expected = self.reference(index, lambda: tuple(sorted(
                (r["amount"] for r in self.rows), reverse=True)[:10]))
            keys = tuple(row["amount"] for row in rows)
            return keys == expected, keys
        if op.kind == "mobility":
            # The distance formula is repro's own (an oracle with another
            # one would disagree near 10 km); the scan, the filter and
            # the aggregation are what is checked.
            def near():
                return self._grouped(
                    r for r in self.rows if haversine_distance_m(
                        r["geom"].lng, r["geom"].lat, *parameter) < 10000)
            expected = self.reference(index, near)
        else:
            expected = self.reference(index,
                                      lambda: self._grouped(self.rows))
        # The engine sums in key order, the oracle in fid order, so the
        # means agree to rounding error, not bit for bit.
        ok = len(rows) == len(expected) and all(
            row["category"] in expected
            and row["n"] == expected[row["category"]][0]
            and math.isclose(row["mean"], expected[row["category"]][1],
                             rel_tol=1e-9)
            for row in rows)
        return ok, tuple(sorted((row["category"], row["n"],
                                 round(row["mean"], 6)) for row in rows))


def _segment_meets_box(x1, y1, x2, y2, box) -> bool:
    """Liang–Barsky clip of a segment against a closed rectangle."""
    min_x, min_y, max_x, max_y = box
    dx, dy = x2 - x1, y2 - y1
    enter, leave = 0.0, 1.0
    for p, q in ((-dx, x1 - min_x), (dx, max_x - x1),
                 (-dy, y1 - min_y), (dy, max_y - y1)):
        if p == 0:
            if q < 0:
                return False
            continue
        t = q / p
        if p < 0:
            enter = max(enter, t)
        else:
            leave = min(leave, t)
        if enter > leave:
            return False
    return True


class TrajRange(ServiceWorkload):
    name = "traj_range"
    sizes = {"trajectories": (600, 100), "mean_points": (250, 100),
             "depots": (48, 12), "statements": (120, 10)}

    def setup(self) -> None:
        generated = TrajectoryGenerator(
            LAYOUT_SEED, num_depots=self.size["depots"]
        ).generate(self.size["trajectories"], self.size["mean_points"])
        # The st_series codec stores 1e-6 degree / 1 ms fixed point;
        # quantizing first makes what is stored exactly what the oracle
        # tests, so boundary cases cannot differ by rounding.
        self.trajectories = [
            Trajectory(t.tid, t.oid, STSeries([
                (round(p.lng * 1e6) / 1e6, round(p.lat * 1e6) / 1e6,
                 round(p.time * 1000.0) / 1000.0) for p in t.series.points]))
            for t in generated]
        self.user_bytes = traj_statistics(self.trajectories).raw_size_bytes
        name = self.connect() + "traj"
        table = self.engine.create_plugin_table(name, "trajectory")
        rows = [TrajectoryPlugin.row_of(t) for t in self.trajectories]
        for i in range(0, len(rows), 100):
            self.engine.insert(name, rows[i:i + 100])
        table.flush()
        self.paths = []
        for t in self.trajectories:
            xy = [(p.lng, p.lat) for p in t.series.points]
            xs, ys = zip(*xy)
            self.paths.append((t.tid, (min(xs), min(ys), max(xs), max(ys)),
                               xy))
        rng = self.rng("windows")
        half = km_to_degrees(3.0) / 2
        # One candidate window per trajectory, centred on one of its
        # points; crowding: how many trajectories' MBRs it overlaps.
        boxes = []
        for _tid, _mbr, xy in self.paths:
            x, y = rng.choice(xy)
            boxes.append((x - half, y - half, x + half, y + half))
        crowding = [sum(not (hi_x < b[0] or lo_x > b[2]
                             or hi_y < b[1] or lo_y > b[3])
                        for _tid, (lo_x, lo_y, hi_x, hi_y), _xy in self.paths)
                    for b in boxes]
        self.ops = []
        for box in spread_over(boxes, crowding, self.size["statements"],
                               rng):
            statement = ("SELECT tid FROM traj WHERE st_intersects("
                         "gps_list, st_makeMBR({!r}, {!r}, {!r}, {!r}))"
                         .format(*box))
            self.ops.append(Op("select", (statement, box), 1, True))

    def _crossing(self, box) -> tuple:
        min_x, min_y, max_x, max_y = box
        hits = []
        for tid, (lo_x, lo_y, hi_x, hi_y), xy in self.paths:
            if hi_x < min_x or lo_x > max_x or hi_y < min_y or lo_y > max_y:
                continue
            if any(_segment_meets_box(x1, y1, x2, y2, box)
                   for (x1, y1), (x2, y2) in zip(xy, xy[1:])):
                hits.append(tid)
        return tuple(sorted(hits))

    def check(self, index, op, rows):
        expected = self.reference(index, lambda: self._crossing(op.arg[1]))
        keys = tuple(sorted(row["tid"] for row in rows))
        return keys == expected, keys


WORKLOADS = {cls.name: cls for cls in (
    IngestBulk, StreamMixed, StRange, TrajRange, Knn, ScanAggregate)}
