"""Index selection for range queries.

Given a table's configured strategies and a (possibly partial)
spatio-temporal predicate, pick the index the paper's engine would use:

* spatio-temporal predicate  -> Z2T/XZ2T when available, else Z3/XZ3;
* spatial-only predicate     -> Z2/XZ2 when available, else a temporal
  strategy widened to the table's observed time extent;
* temporal-only predicate    -> a temporal strategy widened to the whole
  coordinate space.
"""

from __future__ import annotations

from repro.curves.strategies import STQuery
from repro.errors import ExecutionError
from repro.geometry.envelope import Envelope

#: Preference order when the query has both dimensions.
_ST_PREFERENCE = ("z2t", "xz2t", "z3", "xz3")
#: Preference order when the query is spatial-only.
_S_PREFERENCE = ("z2", "xz2")
_TEMPORAL = ("z2t", "xz2t", "z3", "xz3")


def _clamp_to_time_extent(table, query: STQuery) -> STQuery:
    """``query`` with its time window cut to the table's observed extent.

    The temporal strategies enumerate every period bin a window touches,
    so ``BETWEEN 0 AND 1e12`` would plan millions of bins that hold no
    data.  ``table.time_extent`` is grow-only, hence a superset of every
    stored row's extent: clamping drops no row.  A window that misses
    the extent comes back empty (:attr:`STQuery.is_empty`), which every
    strategy serves with no key ranges.
    """
    extent = table.time_extent
    if not query.has_temporal or extent is None or \
            (extent[0] <= query.t_min and query.t_max <= extent[1]):
        return query
    return STQuery(query.envelope, max(query.t_min, extent[0]),
                   min(query.t_max, extent[1]))


def choose_strategy(table, query: STQuery) -> tuple[str, STQuery]:
    """Pick ``(strategy_name, effective_query)`` for a table and query.

    The effective query may be widened (e.g. a temporal-only query gains
    the world envelope) so the chosen strategy can serve it, and its
    time window is clamped to the table's time extent; exact
    post-filtering still applies the original predicate.
    """
    available = table.strategies
    query = _clamp_to_time_extent(table, query)

    def first(names):
        for name in names:
            for sname in available:
                if sname == name or sname.startswith(name + ":"):
                    return sname
        return None

    if query.has_spatial and query.has_temporal:
        name = first(_ST_PREFERENCE)
        if name is not None:
            return name, query
        name = first(_S_PREFERENCE)
        if name is not None:
            # Spatial index only: serve the spatial part, post-filter
            # time — unless the window already rules every row out.
            return name, query if query.is_empty \
                else STQuery(envelope=query.envelope)
    elif query.has_spatial:
        name = first(_S_PREFERENCE)
        if name is not None:
            return name, query
        name = first(_TEMPORAL)
        if name is not None and table.time_extent is not None:
            t_min, t_max = table.time_extent
            return name, STQuery(query.envelope, t_min, t_max)
    elif query.has_temporal:
        name = first(_TEMPORAL)
        if name is not None:
            return name, STQuery(Envelope.world(), query.t_min, query.t_max)

    raise ExecutionError(
        f"table {table.name!r} has no index able to serve {query!r} "
        f"(available: {sorted(available)})")


# ---------------------------------------------------------------------------
# Cost-based planning (Section IX, future work #3)
# ---------------------------------------------------------------------------

def estimate_scan_cost_ms(table, strategy_name: str, query: STQuery,
                          model) -> float:
    """Rough cost of serving ``query`` with one of the table's indexes.

    cost = range-scan seeks (spread over servers)
         + selectivity x index bytes read from disk (parallel).
    This is deliberately the same arithmetic the cost model charges at
    execution time, so the planner optimizes the metric it is judged on.

    When the table carries an ``ANALYZE TABLE`` snapshot
    (``table.stats``), the measured time extent, envelope, index sizes,
    and per-index server spread are used instead of the grow-only
    inline statistics — deletes and shifting hot ranges poison the
    inline extents, and a re-ANALYZE is how the planner recovers.
    """
    strategy = table.strategies[strategy_name]
    if not strategy.supports(query):
        return float("inf")
    num_ranges = len(strategy.ranges(query))
    stats = getattr(table, "stats", None)
    if stats is not None:
        selectivity = strategy.estimate_selectivity(
            query, stats.time_extent, stats.data_envelope)
        index_bytes = stats.index_bytes.get(
            strategy_name, table.index_storage_bytes(strategy_name))
        servers = max(1, stats.index_servers.get(
            strategy_name, table.store.num_servers))
    else:
        selectivity = strategy.estimate_selectivity(
            query, table.time_extent, table.data_envelope)
        index_bytes = table.index_storage_bytes(strategy_name)
        servers = max(1, table.store.num_servers)
    seek_ms = -(-num_ranges // servers) * model.seek_ms
    read_ms = model.disk_read_ms(int(selectivity * index_bytes)) / servers
    return seek_ms + read_ms


def choose_strategy_cost_based(table, query: STQuery,
                               model) -> tuple[str, STQuery]:
    """Pick the cheapest supporting index by estimated cost.

    Falls back to the rule-based choice when no index supports the query
    directly (the rule-based path also handles query widening).  The
    window is clamped first, so costing never enumerates empty bins.
    """
    query = _clamp_to_time_extent(table, query)
    candidates = []
    for name in table.strategies:
        strategy = table.strategies[name]
        if strategy.supports(query):
            candidates.append(
                (estimate_scan_cost_ms(table, name, query, model), name))
    if not candidates:
        return choose_strategy(table, query)
    candidates.sort()
    return candidates[0][1], query
