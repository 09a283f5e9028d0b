"""Hot-region load balancer & elastic data placement.

The HBase master's balancer chore in miniature, closing the
measure→decide→act loop over the simulated cluster:

* :mod:`repro.balancer.policy` — knobs + per-server load aggregation
  from the regions' decayed read/write rates.
* :mod:`repro.balancer.planner` — pure planning: region moves off hot
  servers, load-triggered splits, cold-neighbour merges.
* :mod:`repro.balancer.executor` — the :class:`Balancer` loop that
  ticks on the simulated clock, applies plans, and records history
  for ``sys.balancer`` / ``sys.events``.
* :mod:`repro.balancer.workload` — the zipfian multi-tenant workload
  the ``balancer`` scenario runs.
"""

from repro.balancer.executor import Balancer
from repro.balancer.planner import (
    MergeAction,
    MoveAction,
    SplitAction,
    plan_merges,
    plan_moves,
    plan_splits,
)
from repro.balancer.policy import (
    BalancerPolicy,
    ServerLoad,
    imbalance,
    server_loads,
)

__all__ = [
    "Balancer", "BalancerPolicy", "ServerLoad",
    "MoveAction", "SplitAction", "MergeAction",
    "plan_moves", "plan_splits", "plan_merges",
    "server_loads", "imbalance",
]
