"""The paper's datasets, parameter grids and query workload.

Every table, figure and ablation of Section VIII (the ``tables``,
``fig10`` … ``fig14`` and ``ablations`` scenarios) measures over the one
lazily built :data:`DATA`: the generated datasets, the engines and
baseline systems loaded with them, and the seeded query generators.
Each figure is a function decorated with :func:`figure`, which declares
its table and the named shapes the table must show.
"""

from __future__ import annotations

import random
from statistics import median

from repro.baselines.base import items_from_orders, items_from_trajectories
from repro.cluster import Cluster, CostModel
from repro.core.engine import JustEngine
from repro.core.knn import DEFAULT_MIN_CELL_KM
from repro.core.schema import Field, FieldType, Schema
from repro.datagen import (
    generate_order_dataset,
    generate_synthetic_dataset,
    generate_traj_dataset,
)
from repro.datagen.datasets import order_statistics, traj_statistics
from repro.datagen.trajgen import AREA
from repro.errors import SimulatedOutOfMemoryError
from repro.geometry import Envelope
from repro.geometry.distance import km_to_degrees
from repro.scenarios.report import Figure, ScenarioResult, Shape

#: Paper parameter grids (Table IV).
FRACTIONS = (20, 40, 60, 80, 100)
SPATIAL_WINDOWS_KM = (1, 2, 3, 4, 5)          # side of the square window
TIME_WINDOWS = (("1h", 3600.0), ("6h", 6 * 3600.0), ("1d", 86400.0),
                ("1w", 7 * 86400.0), ("1m", 30 * 86400.0))
K_VALUES = (50, 100, 150, 200, 250)
DEFAULT_WINDOW_KM = 3
DEFAULT_TIME_WINDOW_S = 86400.0
DEFAULT_K = 150
#: k for the scaled-down Traj dataset: the paper's k=150 assumes 314k
#: trajectory records; at the generated record count the same k/n ratio
#: gives a much smaller k (k >= n would degenerate to a full scan).
TRAJ_K_VALUES = (5, 10, 15, 20, 25)
TRAJ_DEFAULT_K = 15
#: Algorithm 1's minimum-cell parameter g, tuned to object density:
#: 1 km suits the dense point datasets; sparse multi-km trajectories
#: use a coarser grid.
TRAJ_KNN_CELL_KM = 5.0

#: Queries per configuration: the paper runs 100 and takes the median.
QUERY_REPS = 100

# Sized so the Order:Traj raw ratio matches Table II's 10GB:136GB — the
# memory-budget crossovers (which systems OOM at which Traj fraction while
# every system still fits Order) depend on that ratio.
ORDER_COUNT = 10_000
ORDER_SEED = 20181001
TRAJ_COUNT = 600
TRAJ_MEAN_POINTS = 250
TRAJ_SEED = 20140301
SYNTHETIC_MULTIPLIER = 4
SYNTHETIC_SEED = 20141231
#: Seeds of the query generators below.
QUERY_SEEDS = {"order windows": 0, "traj windows": 1, "time ranges": 2,
               "k-NN points": 3}

ORDER_SCHEMA = Schema([
    Field("fid", FieldType.INTEGER, primary_key=True),
    Field("time", FieldType.DATE),
    Field("geom", FieldType.POINT),
    Field("amount", FieldType.DOUBLE),
    Field("category", FieldType.STRING),
])

OOM = "OOM"
MB = 1024.0 * 1024.0


def provenance() -> dict:
    """What ``bench_results.json`` was measured with."""
    return {
        "command": "python benchmarks/reproduce.py",
        "query_reps": QUERY_REPS,
        "datasets": {
            "Order": {"records": ORDER_COUNT, "seed": ORDER_SEED},
            "Traj": {"records": TRAJ_COUNT,
                     "mean_points": TRAJ_MEAN_POINTS, "seed": TRAJ_SEED},
            "Synthetic": {"copies_of_traj": SYNTHETIC_MULTIPLIER,
                          "seed": SYNTHETIC_SEED},
        },
        "query_seeds": QUERY_SEEDS,
    }


# ---------------------------------------------------------------------------
# Figures and their shapes
# ---------------------------------------------------------------------------

def figure(figure_id: str, title: str, param_name: str, *shapes: Shape):
    """Declare the decorated ``measure(data, table)`` as one paper figure."""
    def declare(measure) -> Figure:
        return Figure(figure_id, title, param_name, measure, shapes)
    return declare


def measure(figures) -> ScenarioResult:
    """Measure each figure over :data:`DATA` and check its shapes."""
    result = ScenarioResult()
    for fig in figures:
        table = fig.table(DATA)
        result.tables.append(table)
        result.checks += [check._replace(claim=f"{fig.figure_id}: "
                                               f"{check.claim}")
                          for check in fig.check(table)]
    return result


def grows(table, series: str) -> bool:
    """The series never falls as the parameter grows."""
    row = table.row(series)
    return row == sorted(row)


def linear(table, series: str) -> bool:
    """5x the data costs 3.5x to 6.5x as much."""
    return 3.5 < table.value(series, 100) / table.value(series, 20) < 6.5


def fits(table, system: str) -> list:
    """The parameters at which ``system`` did not run out of memory."""
    return [p for p in table.params() if table.value(system, p) != OOM]


def exceeds(table, high: str, low: str, factor=1.0, at=None) -> bool:
    """``high > factor x low`` at every parameter (or at those in ``at``)."""
    return all(table.value(high, p) > factor * table.value(low, p)
               for p in (at or table.params()))


# ---------------------------------------------------------------------------
# Datasets and engines (built lazily, cached for the process)
# ---------------------------------------------------------------------------

class FigureData:
    """Lazily built shared state for every figure."""

    def __init__(self):
        self._cache: dict[str, object] = {}

    def _get(self, key, builder):
        if key not in self._cache:
            self._cache[key] = builder()
        return self._cache[key]

    # -- datasets ------------------------------------------------------------
    @property
    def orders(self):
        return self._get("orders", lambda: generate_order_dataset(
            ORDER_COUNT, ORDER_SEED))

    @property
    def trajs(self):
        return self._get("trajs", lambda: generate_traj_dataset(
            TRAJ_COUNT, TRAJ_MEAN_POINTS, TRAJ_SEED))

    @property
    def synthetic(self):
        return self._get("synthetic", lambda: generate_synthetic_dataset(
            self.trajs, SYNTHETIC_MULTIPLIER, SYNTHETIC_SEED))

    @property
    def order_stats(self):
        return self._get("order_stats",
                         lambda: order_statistics(self.orders))

    @property
    def traj_stats(self):
        return self._get("traj_stats",
                         lambda: traj_statistics(self.trajs))

    def order_fraction(self, percent: int):
        count = len(self.orders) * percent // 100
        return self.orders[:count]

    def traj_fraction(self, percent: int):
        count = len(self.trajs) * percent // 100
        return self.trajs[:count]

    def synthetic_fraction(self, percent: int):
        count = len(self.synthetic) * percent // 100
        return self.synthetic[:count]

    # -- memory budget (reproduces the paper's OOM crossovers) ---------------
    @property
    def memory_budget(self) -> int:
        return int(0.9 * self.traj_stats.raw_size_bytes)

    @property
    def cost_model(self) -> CostModel:
        """Cost model calibrated so data-volume work matches Table II.

        ``work_scale`` = paper Traj raw size / generated Traj raw size:
        per-query byte volumes then land at the paper's magnitudes while
        fixed costs (job launches, seeks) stay physical.
        """
        def build():
            paper_traj_raw = 136 * 1024 ** 3
            paper_order_points = 71_007_530
            scale = paper_traj_raw / self.traj_stats.raw_size_bytes
            record_scale = paper_order_points / len(self.orders)
            return CostModel(work_scale=scale,
                             record_scale=record_scale,
                             kv_put_us=15.0)
        return self._get("cost_model", build)

    def cluster(self) -> Cluster:
        return Cluster(memory_budget_bytes=self.memory_budget,
                       model=self.cost_model)

    def engine(self, compression: bool = True) -> JustEngine:
        # block_bytes shrinks with work_scale so per-block read overhead
        # stays proportional to the scaled data volume (an 8 KiB block at
        # paper scale corresponds to a few hundred bytes here).
        return JustEngine(compression_enabled=compression,
                          cost_model=self.cost_model,
                          block_bytes=256)

    # -- JUST engines --------------------------------------------------------
    def _build_order_engine(self, compression: bool) -> dict:
        """Engine with the Order table under every index variant.

        Returns per-fraction cumulative indexing sim-times per table.
        """
        engine = self.engine(compression)
        variants = {
            "JUST": {},  # default: z2 + z2t(day)
            "JUSTd": {"geomesa.indices.enabled": "z3:day"},
            "JUSTy": {"geomesa.indices.enabled": "z3:year"},
            "JUSTc": {"geomesa.indices.enabled": "z3:century"},
        }
        for name, userdata in variants.items():
            engine.create_table(f"order_{name}", ORDER_SCHEMA,
                                userdata or None)
        elapsed = dict.fromkeys(variants, 0.0)
        index_ms = {name: {} for name in variants}
        storage = {name: {} for name in variants}
        done = 0
        for percent in FRACTIONS:
            rows = self.order_fraction(percent)
            batch = rows[done:]
            done = len(rows)
            for name in variants:
                elapsed[name] += engine.insert(f"order_{name}", batch).sim_ms
                index_ms[name][percent] = elapsed[name]
                table = engine.table(f"order_{name}")
                table.flush()
                storage[name][percent] = table.storage_bytes()
        return {"engine": engine, "index_ms": index_ms,
                "storage": storage}

    @property
    def order_just(self) -> dict:
        return self._get("order_just",
                         lambda: self._build_order_engine(True))

    def _build_traj_engine(self, compression: bool) -> dict:
        engine = self.engine(compression)
        variants = {
            "JUST": None,  # default plugin indexes: xz2 + xz2t(day)
            "JUSTd": {"geomesa.indices.enabled": "xz3:day"},
            "JUSTy": {"geomesa.indices.enabled": "xz3:year"},
            "JUSTc": {"geomesa.indices.enabled": "xz3:century"},
        }
        for name, userdata in variants.items():
            engine.create_plugin_table(f"traj_{name}", "trajectory",
                                       userdata)
        elapsed = dict.fromkeys(variants, 0.0)
        index_ms = {name: {} for name in variants}
        storage = {name: {} for name in variants}
        done = 0
        for percent in FRACTIONS:
            trajs = self.traj_fraction(percent)
            batch = trajs[done:]
            done = len(trajs)
            for name in variants:
                table = engine.table(f"traj_{name}")
                job = engine.cluster.job()
                table.insert_trajectories(batch, job)
                elapsed[name] += job.elapsed_ms
                index_ms[name][percent] = elapsed[name]
                table.flush()
                storage[name][percent] = table.storage_bytes()
        return {"engine": engine, "index_ms": index_ms,
                "storage": storage}

    @property
    def traj_just(self) -> dict:
        return self._get("traj_just",
                         lambda: self._build_traj_engine(True))

    @property
    def traj_just_nc(self) -> dict:
        return self._get("traj_just_nc",
                         lambda: self._build_traj_engine(False))

    @property
    def order_just_compressed(self) -> dict:
        """Order with compression forced on point/attribute fields
        (the JUSTcompress line of Figure 10a)."""
        def build():
            schema = Schema([
                Field("fid", FieldType.INTEGER, primary_key=True),
                Field("time", FieldType.DATE),
                Field("geom", FieldType.POINT),
                Field("amount", FieldType.DOUBLE),
                Field("category", FieldType.STRING, compress="gzip"),
            ])
            engine = self.engine(True)
            engine.create_table("order_c", schema)
            storage = {}
            done = 0
            for percent in FRACTIONS:
                rows = self.order_fraction(percent)
                engine.insert("order_c", rows[done:])
                done = len(rows)
                table = engine.table("order_c")
                table.flush()
                storage[percent] = table.storage_bytes()
            return storage
        return self._get("order_just_compressed", build)

    # -- baselines ------------------------------------------------------------
    def baseline(self, cls, dataset: str, percent: int = 100):
        """A loaded baseline (or the string OOM).  Cached per config."""
        key = f"baseline_{cls.__name__}_{dataset}_{percent}"

        def build():
            if dataset == "order":
                items = items_from_orders(self.order_fraction(percent))
            elif dataset == "traj":
                items = items_from_trajectories(
                    self.traj_fraction(percent))
            else:
                raise ValueError(dataset)
            system = cls(self.cluster())
            try:
                job = system.load(items)
            except SimulatedOutOfMemoryError:
                return OOM
            return {"system": system, "load_ms": job.elapsed_ms}
        return self._get(key, build)

    # -- query generators --------------------------------------------------
    @property
    def order_centers(self) -> list[tuple[float, float]]:
        return self._get("order_centers", lambda: [
            (r["geom"].lng, r["geom"].lat) for r in self.orders[::97]])

    @property
    def traj_centers(self) -> list[tuple[float, float]]:
        return self._get("traj_centers",
                         lambda: midpoints(self.trajs[::7]))

    def order_query_windows(self, window_km: float) -> list[Envelope]:
        return _windows(window_km, QUERY_SEEDS["order windows"],
                        self.order_centers)

    def traj_query_windows(self, window_km: float) -> list[Envelope]:
        return _windows(window_km, QUERY_SEEDS["traj windows"],
                        self.traj_centers)


def midpoints(trajs) -> list[tuple[float, float]]:
    return [(t.points[len(t.points) // 2].lng,
             t.points[len(t.points) // 2].lat) for t in trajs]


def _windows(window_km: float, seed: int, centers) -> list[Envelope]:
    """Query windows centred on sampled data locations.

    Urban range queries target populated areas; sampling centres from the
    data (rather than uniformly from the bounding box) keeps per-window
    selectivity stable, as the paper's randomly-parameterized query
    workload does.  The same centres serve every window size, so a sweep
    isolates the window-size effect instead of re-rolling locations.
    """
    rng = random.Random(seed)
    side = km_to_degrees(window_km)
    out = []
    for _ in range(QUERY_REPS):
        cx, cy = rng.choice(centers)
        lng = min(max(cx - side / 2, AREA[0]), AREA[2] - side)
        lat = min(max(cy - side / 2, AREA[1]), AREA[3] - side)
        out.append(Envelope(lng, lat, lng + side, lat + side))
    return out


def time_ranges(stats, window_s: float) -> list[tuple[float, float]]:
    """Query time ranges drawn uniformly over ``stats``' time span."""
    rng = random.Random(QUERY_SEEDS["time ranges"])
    span = stats.time_end - stats.time_start - window_s
    out = []
    for _ in range(QUERY_REPS):
        start = stats.time_start + rng.random() * max(1.0, span)
        out.append((start, start + window_s))
    return out


def query_points(centers, count: int = QUERY_REPS):
    """k-NN query points.

    Like the range-query windows, points are drawn near data locations
    (dispatch-style queries originate where the fleet operates); a small
    jitter keeps them off exact record positions.
    """
    rng = random.Random(QUERY_SEEDS["k-NN points"])
    out = []
    for _ in range(count):
        cx, cy = rng.choice(centers)
        cx += rng.gauss(0.0, 0.005)
        cy += rng.gauss(0.0, 0.005)
        out.append((min(max(cx, AREA[0]), AREA[2]),
                    min(max(cy, AREA[1]), AREA[3])))
    return out


DATA = FigureData()


# ---------------------------------------------------------------------------
# Measurement: the median sim-ms of one configuration's queries
# ---------------------------------------------------------------------------

def just_spatial_ms(engine: JustEngine, table: str,
                    windows: list[Envelope]) -> float:
    times = []
    for window in windows:
        engine.store.clear_caches()  # the paper defeats the HBase cache
        times.append(engine.spatial_range_query(table, window).sim_ms)
    return median(times)


def just_st_ms(engine: JustEngine, table: str, windows: list[Envelope],
               times: list[tuple[float, float]]) -> float:
    sims = []
    for window, (t_lo, t_hi) in zip(windows, times):
        engine.store.clear_caches()
        sims.append(engine.st_range_query(table, window, t_lo,
                                          t_hi).sim_ms)
    return median(sims)


def just_knn_ms(engine: JustEngine, table: str, k: int,
                points: list[tuple[float, float]],
                min_cell_km: float = DEFAULT_MIN_CELL_KM) -> float:
    times = []
    for lng, lat in points:
        engine.store.clear_caches()
        times.append(engine.knn(table, lng, lat, k,
                                min_cell_km=min_cell_km).sim_ms)
    return median(times)


def baseline_spatial_ms(loaded, windows: list[Envelope]):
    if loaded == OOM:
        return OOM
    system = loaded["system"]
    return median([system.spatial_range_query(w).sim_ms
                   for w in windows])


def baseline_st_ms(loaded, windows, times):
    if loaded == OOM:
        return OOM
    system = loaded["system"]
    return median([system.st_range_query(w, t_lo, t_hi).sim_ms
                   for w, (t_lo, t_hi) in zip(windows, times)])


def baseline_knn_ms(loaded, k: int, points):
    if loaded == OOM:
        return OOM
    system = loaded["system"]
    return median([system.knn(lng, lat, k).sim_ms
                   for lng, lat in points])
