"""The fault-injection harness wired into the key-value store.

The store calls :meth:`FaultInjector.on_op` at the top of every table
operation; the injector advances its deterministic schedule and crashes
servers through :meth:`KVStore.crash_server` when a fault fires.  Two
runs with the same plan (same seed) inject the exact same faults at the
exact same operations.

Gray failures hook in one level lower: the store calls
:meth:`FaultInjector.on_region_op` each time an operation touches a
region, and active :class:`~repro.faults.plan.SlowServer` /
:class:`~repro.faults.plan.IntermittentError` faults on that region's
server charge seeded latency to the request context or raise seeded
intermittent :class:`~repro.errors.RegionUnavailableError`\\ s.
"""

from __future__ import annotations

import random

from repro.errors import RegionUnavailableError
from repro.faults.plan import (
    GRAY_FAULTS,
    SHIP_FAULTS,
    FaultPlan,
    IntermittentError,
    KillServer,
    PartitionedFollower,
    SlowServer,
)


class FaultInjector:
    """Executes one :class:`FaultPlan` against one store."""

    def __init__(self, plan: FaultPlan):
        self.plan = plan
        self.op_count = 0
        self.fired: list[KillServer] = []
        self._pending: list[KillServer] = [
            f for f in plan.faults if isinstance(f, KillServer)]
        self.gray_faults = tuple(
            f for f in plan.faults if isinstance(f, GRAY_FAULTS))
        self.ship_faults = tuple(
            f for f in plan.faults if isinstance(f, SHIP_FAULTS))
        self._rng = random.Random(plan.seed)
        # Gray-fault and ship-fault bookkeeping: separate seeded streams
        # keep kill schedules reproducible whether or not the other
        # fault families also fire.
        self._gray_rng = random.Random((plan.seed << 1) ^ 0x5EED)
        self._ship_rng = random.Random((plan.seed << 2) ^ 0xB10C)
        self.region_op_count = 0
        self.ship_count = 0
        self.slow_ms_injected = 0.0
        self.errors_injected = 0

    def attach(self, store) -> "FaultInjector":
        """Install this injector on ``store`` and return it."""
        store.fault_injector = self
        return self

    def on_op(self, store, op: str) -> None:
        if op not in self.plan.ops or not self._pending:
            return
        self.op_count += 1
        fired_now = []
        for fault in self._pending:
            if fault.server in store.dead_servers:
                fired_now.append(fault)  # target already dead: drop it
                continue
            if self._triggers(fault):
                store.crash_server(
                    fault.server,
                    lost_tail_records=fault.lost_tail_records,
                    defer_failover=fault.defer_failover)
                fired_now.append(fault)
                self.fired.append(fault)
        for fault in fired_now:
            self._pending.remove(fault)

    def _triggers(self, fault: KillServer) -> bool:
        if fault.after_ops is not None:
            return self.op_count >= fault.after_ops
        return self._rng.random() < fault.probability

    # -- gray failures -------------------------------------------------------
    def evaluate(self, server: int, op: str) -> tuple[float, bool]:
        """What one ``op`` on ``server`` costs under active gray faults.

        Returns ``(latency_ms, fails)`` and advances the gray-fault
        schedule exactly like :meth:`on_region_op` — the hedged-read
        arbiter uses this to compare the primary and follower paths
        before charging only the winner.
        """
        if not self.gray_faults:
            return 0.0, False
        self.region_op_count += 1
        latency = 0.0
        fails = False
        for fault in self.gray_faults:
            if fault.server != server or op not in fault.ops:
                continue
            if not self._gray_active(fault):
                continue
            if isinstance(fault, SlowServer):
                added = fault.latency_ms
                if fault.jitter_ms:
                    added += self._gray_rng.random() * fault.jitter_ms
                latency += added
            elif isinstance(fault, IntermittentError):
                if self._gray_rng.random() < fault.probability:
                    fails = True
        return latency, fails

    def on_region_op(self, store, table: str, region, op: str,
                     ctx=None) -> None:
        """One operation touched ``region``; apply active gray faults.

        Slow-server latency is charged to ``ctx`` (deadline + job) when
        a request context is present; intermittent errors raise
        regardless, since a flapping server fails legacy callers too.
        """
        latency, fails = self.evaluate(region.server, op)
        if latency:
            self.slow_ms_injected += latency
            if ctx is not None:
                ctx.charge(latency, label="gray_latency")
        if fails:
            self.errors_injected += 1
            raise RegionUnavailableError(
                table, region.region_id, region.server,
                reason=f"intermittent fault on region server "
                       f"{region.server}")

    def _gray_active(self, fault) -> bool:
        count = self.region_op_count
        if count <= fault.after_ops:
            return False
        if fault.duration_ops is not None and \
                count > fault.after_ops + fault.duration_ops:
            return False
        return True

    # -- replication-link faults ---------------------------------------------
    def on_ship(self, server: int) -> str:
        """Verdict for shipping one WAL record to a replica on ``server``.

        ``"ok"`` — delivered; ``"blocked"`` — a partition stops the
        ship before it leaves (the sender keeps the record queued);
        ``"drop"`` — lost in flight (seeded, per record).
        """
        if not self.ship_faults:
            return "ok"
        self.ship_count += 1
        for fault in self.ship_faults:
            if fault.server != server:
                continue
            if not self._ship_active(fault):
                continue
            if isinstance(fault, PartitionedFollower):
                return "blocked"
            if self._ship_rng.random() < fault.probability:
                return "drop"
        return "ok"

    def _ship_active(self, fault) -> bool:
        count = self.ship_count
        if count <= fault.after_ships:
            return False
        if fault.duration_ships is not None and \
                count > fault.after_ships + fault.duration_ships:
            return False
        return True
