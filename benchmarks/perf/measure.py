"""The measurement loop: one closed-loop client, one thread, one process.

``run_workload`` sets a workload up (several times, for a steady
``setup_s``), runs one checked warm-up round, measures rounds for the
requested wall time, and — for a traced run — repeats one round under the
wrappers of :mod:`layers`.  End-to-end metrics always come from the
untraced rounds.

Work per round is fixed by the seed, so everything counted by the
program (``sim_ms_p50``, the amplifications, ``result_digest``) is taken
from the first measured round and repeats exactly; only the number of
rounds depends on ``seconds``.

Wall-clock metrics are **calibrated**: reported at the speed of a quiet
reference machine, not of the moment.  The shared sandbox runs the same
code up to 1.5x slower for seconds or minutes at a time (and sometimes
faster), which moved raw medians by 10-25 % between identical runs.  A
fixed interpreter-bound loop (:func:`calibration_ns`) therefore runs
before every op; an op's wall time is divided by how much slower than
REFERENCE_NS the loop ran around it.  Every round repeats the same ops,
so each op then takes the median of its k calibrated times, and the
percentiles are over ops.  On the same runs this is 5-10x steadier than
pooling raw samples (spread 1-3 % instead of 10-15 %).  The raw figures
are kept beside the gated ones in the result file.
"""

from __future__ import annotations

import gc
import resource
import statistics
import time
import traceback
from dataclasses import dataclass, field

import layers
from spans import Tracer
from stats import digest, percentile
from workloads import WORKLOADS, Workload

#: ``setup_s`` is the median of at least this many set-ups; a cheap
#: set-up is repeated until they add up to SETUP_MIN_TOTAL_S.
SETUP_REPEATS = 3
SETUP_MAX_REPEATS = 15
SETUP_MIN_TOTAL_S = 1.0
#: What :func:`calibration_ns` takes between ops on this sandbox when it
#: is quiet; calibrated times are what the run would have measured then.
REFERENCE_NS = 850_000
#: An op is calibrated by the median of this many loops on either side.
CALIBRATION_NEIGHBOURS = 3
#: Below this, something else had the processor and wall metrics are
#: reported but marked ``contended``.
MIN_CPU_WALL_RATIO = 0.9


def calibration_ns() -> int:
    """Time a fixed piece of interpreter work: dict stores, small bytes
    objects, one sort — the engine's own instruction mix, about 1 ms."""
    start = time.perf_counter_ns()
    table = {}
    for i in range(3000):
        table[(i * 2654435761) & 0xFFFF] = bytes((i & 255,)) * 8
    sorted(table)
    return time.perf_counter_ns() - start


@dataclass
class StoreFacts:
    """Counters read from the engine at one instant."""

    io: object
    event_counts: dict
    events_emitted: int

    @classmethod
    def of(cls, engine) -> "StoreFacts":
        return cls(engine.store.stats.snapshot(),
                   dict(engine.events.total_by_kind),
                   engine.events.total_emitted)


@dataclass
class Measurement:
    """What one call of :func:`measure` observed."""

    #: ``(op index, wall_ns, calibration_ns)`` of every execution, in order.
    runs: list = field(default_factory=list)
    wall_ns: int = 0
    attempted: int = 0
    failed: int = 0
    rounds: int = 0
    errors: list = field(default_factory=list)
    # -- first round only (fixed work, so these repeat exactly) -------------
    keys: list = field(default_factory=list)
    #: ``(op index, SimJob)`` of each primary op.
    jobs: list = field(default_factory=list)
    returned_rows: int = 0
    before: StoreFacts | None = None
    after: StoreFacts | None = None
    compactions: list = field(default_factory=list)
    runs_per_region: float = 0.0
    amplification: tuple = (0.0, 0.0)

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(what)

    def walls(self, calibrated: bool = True) -> dict[int, list[float]]:
        """Wall ns of every execution of each op, by op index."""
        loops = [loop for _index, _wall, loop in self.runs]
        reach = CALIBRATION_NEIGHBOURS
        by_op: dict[int, list[float]] = {}
        for at, (index, wall, _loop) in enumerate(self.runs):
            if calibrated:
                nearby = loops[max(0, at - reach):at + reach + 1]
                wall = wall * REFERENCE_NS / statistics.median(nearby)
            by_op.setdefault(index, []).append(wall)
        return by_op


def measure(workload: Workload, seconds: float,
            tracer: Tracer | None = None) -> Measurement:
    """Run rounds until ``seconds`` of op time have been measured.

    Always completes the first round.  A read workload then stops at the
    first op past the budget; a rebuilding workload finishes its round,
    because what a batch costs depends on how full the store is.
    """
    m = Measurement()
    budget_ns = int(seconds * 1e9)
    clock = time.perf_counter_ns
    while True:
        first = m.rounds == 0
        workload.begin_round()
        if first:
            m.before = StoreFacts.of(workload.engine)
        for index, op in enumerate(workload.ops):
            loop = calibration_ns()
            if tracer is not None:
                tracer.begin_op()
            start = clock()
            try:
                rows, job = workload.run(op)
                raised = None
            except Exception:  # an op that raises is a failed op
                rows = job = None
                raised = traceback.format_exc(limit=3)
            wall = clock() - start
            if tracer is not None:
                tracer.end_op()
            m.wall_ns += wall
            m.runs.append((index, wall, loop))
            m.attempted += 1
            ok, keys = False, ()
            if raised is None:
                try:
                    ok, keys = workload.check(index, op, rows)
                except Exception:  # a result the oracle cannot even read
                    raised = traceback.format_exc(limit=3)
            if not ok:
                m.fail(raised or f"op {index} ({op.kind}) differs from "
                                 f"the oracle: got {str(keys)[:200]}")
            if first:
                m.keys.append(keys)
                if op.primary and job is not None:
                    m.jobs.append((index, job))
                if isinstance(rows, list):
                    m.returned_rows += len(rows)
            if not first and not workload.rebuild_each_round \
                    and m.wall_ns >= budget_ns:
                break
        if first:
            engine = workload.engine
            m.after = StoreFacts.of(engine)
            m.compactions = engine.events.events("compaction")
            regions = [region for kv_table in engine.store.tables()
                       for region in kv_table.regions()]
            m.runs_per_region = (sum(len(r.sstables) for r in regions)
                                 / len(regions))
        attempted, failed, keys = workload.end_round()
        m.attempted += attempted
        for _ in range(failed):
            m.fail(f"{workload.name}: end-of-round check failed")
        if first:
            m.keys.append(keys)
            m.amplification = workload.amplification()
        m.rounds += 1
        if m.wall_ns >= budget_ns:
            return m


def timings(workload: Workload, walls: dict) -> dict:
    """Throughput and latency percentiles over the executions in
    ``walls`` (``{op index: [wall_ns, ...]}``)."""
    ops = workload.ops
    primary_ms = [wall / 1e6 for index, op in enumerate(ops) if op.primary
                  for wall in walls.get(index, ())]
    units = sum(op.units * len(walls.get(index, ()))
                for index, op in enumerate(ops))
    return {
        "throughput_per_s": units / (sum(map(sum, walls.values())) / 1e9),
        "p50_ms": percentile(primary_ms, 50),
        "p90_ms": percentile(primary_ms, 90),
    }


def typical(walls: dict) -> dict:
    """Each op's median execution, as the only one."""
    return {index: [statistics.median(values)]
            for index, values in walls.items()}


def run_workload(name: str, seed: int, seconds: float, traced: bool = False,
                 quick: bool = False, spans_path=None) -> dict:
    """Everything one workload reports, as a JSON-ready dict."""
    setup_s: list[float] = []
    workload = None

    def steady() -> bool:
        return len(setup_s) >= SETUP_REPEATS and (
            sum(setup_s) >= SETUP_MIN_TOTAL_S
            or len(setup_s) >= SETUP_MAX_REPEATS)

    while not (steady() or (quick and setup_s)):
        workload = None
        gc.collect()
        workload = WORKLOADS[name](seed, quick)
        loops = [calibration_ns() for _ in range(CALIBRATION_NEIGHBOURS)]
        start = time.perf_counter()
        workload.setup()
        took = time.perf_counter() - start
        loops += [calibration_ns() for _ in range(CALIBRATION_NEIGHBOURS)]
        setup_s.append(took * REFERENCE_NS / statistics.median(loops))
    # The populated store is long-lived and acyclic: keep the cyclic
    # collector (left on) from re-walking it during the measurement.
    gc.collect()
    gc.freeze()

    warm = measure(workload, 0.0)
    gen2 = gc.get_stats()[2]["collections"]
    cpu, wall = time.process_time(), time.perf_counter()
    main = measure(workload, seconds)
    cpu_wall_ratio = ((time.process_time() - cpu)
                      / (time.perf_counter() - wall))
    gen2 = gc.get_stats()[2]["collections"] - gen2
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    passes = [warm, main]
    storage_amp, write_amp = main.amplification
    result = {
        "workload": name,
        "seed": seed,
        "sizes": dict(workload.size, ops_per_round=len(workload.ops)),
        "unit": workload.unit,
        "samples": sum(workload.ops[index].primary
                       for index, _wall, _loop in main.runs),
        "rounds": main.rounds,
        "result_digest": digest(main.keys),
        "contended": cpu_wall_ratio < MIN_CPU_WALL_RATIO,
        "end_to_end": {
            "setup_s": statistics.median(setup_s),
            **timings(workload, typical(main.walls())),
            "sim_ms_p50": percentile(
                [job.elapsed_ms for _index, job in main.jobs], 50),
            "peak_rss_mb": peak_rss_mb,
            "storage_amp": storage_amp,
            "write_amp": write_amp,
        },
        # Every execution as the clock read it, uncalibrated, for reading
        # beside the gated figures.
        "raw": timings(workload, main.walls(calibrated=False)),
    }

    if traced:
        tracer = Tracer()
        patches = layers.install(tracer)
        workload.span = tracer.span
        try:
            trace = measure(workload, 0.0, tracer)
        finally:
            result["wrappers_removed"] = patches.uninstall()
        passes.append(trace)
        result["per_layer"] = layers.metrics(
            tracer, trace, main, workload,
            cpu_wall_ratio=cpu_wall_ratio, gen2_collections=gen2)
        if spans_path is not None:
            tracer.write_jsonl(spans_path)

    result["attempted"] = sum(p.attempted for p in passes)
    result["failed"] = sum(p.failed for p in passes)
    result["end_to_end"]["failed_frac"] = \
        result["failed"] / result["attempted"]
    result["errors"] = [e for p in passes for e in p.errors][:5]
    return result
