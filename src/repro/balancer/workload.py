"""Zipfian multi-tenant workload driving (and measuring) the balancer.

A fleet of tenant kv-tables receives write traffic whose tenant choice
is Zipf-skewed — a few hot tenants carry most of the load, the classic
urban access pattern — while the simulated clock advances by each
round's modeled cost.  Round-robin placement balances region *counts*
perfectly and write *load* terribly; this module measures that gap
(max/mean per-server write-load imbalance, hot-tenant cold-scan
latency) with the balancer off and on.  Run by the ``balancer``
scenario (:mod:`repro.scenarios.balancer`).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.balancer.executor import Balancer
from repro.balancer.policy import (
    BalancerPolicy,
    imbalance,
    server_loads,
)
from repro.cluster.simclock import CostModel, SimJob
from repro.datagen.synthetic import zipfian_sampler
from repro.errors import RegionUnavailableError
from repro.kvstore.scan import ScanSpec
from repro.kvstore.store import KVStore
from repro.kvstore.wal import SyncPolicy


@dataclass
class WorkloadConfig:
    num_servers: int = 5
    tenants: int = 15
    zipf_s: float = 1.4
    rounds: int = 40
    writes_per_round: int = 1500
    value_bytes: int = 96
    #: Cold scans of the hottest tenant measured after the write phase.
    scan_samples: int = 15
    seed: int = 20140301
    #: Balancer cadence during the run (simulated ms).
    balancer_interval_ms: float = 250.0


@dataclass
class WorkloadResult:
    """What one run (balancer off or on) measured."""

    total_writes: int = 0
    retried_writes: int = 0
    #: max/mean per-server write-rate imbalance at the end of the run.
    write_imbalance: float = 0.0
    #: Final per-server decayed write rates (events/s), by server id.
    server_write_rates: dict[int, float] = field(default_factory=dict)
    #: Hot-tenant region count and servers at the end of the run.
    hot_tenant_regions: int = 0
    hot_tenant_servers: int = 0
    #: Simulated latencies of cold hot-tenant full scans.
    scan_sim_ms: list[float] = field(default_factory=list)
    moves: int = 0
    splits: int = 0
    merges: int = 0

    @property
    def scan_p95_ms(self) -> float:
        if not self.scan_sim_ms:
            return 0.0
        ordered = sorted(self.scan_sim_ms)
        return ordered[min(len(ordered) - 1,
                           int(0.95 * len(ordered)))]


def workload_policy(config: WorkloadConfig) -> BalancerPolicy:
    """The balancer tuning the workload runs with."""
    return BalancerPolicy(
        interval_ms=config.balancer_interval_ms,
        # Chase imbalance hard: a skewed multi-tenant fleet needs the
        # hot tenants split fine enough that moves can spread them.
        imbalance_ratio=1.15, max_moves_per_run=6,
        split_write_rate=40.0, max_splits_per_run=4,
        split_max_regions=12)


def build_store(config: WorkloadConfig) -> KVStore:
    """A clustered store with size-splits parked out of the way.

    ``split_bytes`` is set far above what the workload writes so every
    placement change during the run is a *balancer* decision — the
    experiment isolates load balancing from size management.
    """
    return KVStore(num_servers=config.num_servers,
                   split_bytes=256 * 1024 * 1024,
                   wal_policy=SyncPolicy.PERIODIC,
                   cost_model=CostModel())


def tenant_name(index: int) -> str:
    return f"tenant_{index:02d}"


def run_workload(config: WorkloadConfig | None = None,
                 balancer_on: bool = True) -> WorkloadResult:
    """Drive the skewed workload; return what it measured.

    The clock advances after every round by the round's modeled write
    cost (per-put CPU plus WAL volume), so decayed rates, balancer
    intervals, and move-unavailability windows all play out in
    simulated time.  A write landing on a mid-move region is retried
    after a simulated backoff, exactly like a client seeing
    ``RegionUnavailableError``.
    """
    config = config if config is not None else WorkloadConfig()
    store = build_store(config)
    policy = workload_policy(config)
    balancer = Balancer(store, policy) if balancer_on else None
    rng = random.Random(config.seed)
    draw_tenant = zipfian_sampler(config.tenants, config.zipf_s, rng)
    tables = [store.create_table(tenant_name(i))
              for i in range(config.tenants)]
    model = store.cost_model
    result = WorkloadResult()

    for _ in range(config.rounds):
        before = store.stats.snapshot()
        for _ in range(config.writes_per_round):
            table = tables[draw_tenant()]
            key = f"{rng.randrange(10 ** 8):08d}".encode()
            value = rng.randbytes(config.value_bytes)
            for attempt in range(8):
                try:
                    table.put(key, value)
                    break
                except RegionUnavailableError:
                    # Client backoff: burn simulated time, retry.
                    result.retried_writes += 1
                    store.events.advance(model.region_reopen_ms / 2)
            result.total_writes += 1
        delta = store.stats.snapshot().delta(before)
        job = SimJob(model, num_servers=config.num_servers)
        job.charge_cpu_records(config.writes_per_round,
                               model.kv_put_us, parallel=False)
        job.charge_wal(delta)
        store.events.advance(job.elapsed_ms)
        if balancer is not None:
            balancer.maybe_tick()

    now_ms = store.events.now_ms
    loads = server_loads(store, now_ms)
    result.write_imbalance = imbalance(
        loads, BalancerPolicy(write_weight=1.0, read_weight=0.0))
    result.server_write_rates = {
        s: round(load.write_rate, 1) for s, load in loads.items()}
    hot = tables[0]
    result.hot_tenant_regions = hot.num_regions
    result.hot_tenant_servers = len(hot.servers_used())
    result.scan_sim_ms = _measure_hot_scans(store, hot, config)
    if balancer is not None:
        result.moves = balancer.moves
        result.splits = balancer.splits
        result.merges = balancer.merges
    return result


def _measure_hot_scans(store, table, config: WorkloadConfig
                       ) -> list[float]:
    """Simulated latencies of cold full scans of the hot tenant.

    The table is flushed first and caches are cleared before each
    sample, so the scan pays disk reads — which is where cross-server
    parallelism (the straggler model in
    :meth:`SimJob.charge_store_scan`) shows up: the same bytes spread
    over more servers finish sooner.
    """
    model = store.cost_model
    table.flush()
    # Let in-flight moves finish before measuring: a scan mid-window
    # retries and its aborted attempt's reads would pollute the sample.
    settle = max((r.unavailable_until_ms for r in table.regions()),
                 default=0.0)
    if settle > store.events.now_ms:
        store.events.advance(settle - store.events.now_ms)
    samples: list[float] = []
    for _ in range(config.scan_samples):
        for attempt in range(8):
            store.clear_caches()
            before = store.stats.snapshot()
            try:
                for _ in table.scan(ScanSpec.full()):
                    pass
                break
            except RegionUnavailableError:
                store.events.advance(model.region_reopen_ms / 2)
        delta = store.stats.snapshot().delta(before)
        job = SimJob(model, num_servers=config.num_servers)
        job.charge_store_scan(delta, num_ranges=table.num_regions)
        samples.append(job.elapsed_ms)
        store.events.advance(job.elapsed_ms)
    return samples
