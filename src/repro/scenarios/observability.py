"""Query observability: metrics registry, EXPLAIN ANALYZE, slow-query log."""

from __future__ import annotations

from repro.scenarios.fixtures import build_service, window_queries
from repro.scenarios.report import ScenarioResult, show_query
from repro.service.client import JustClient

_SLOW_MS = 5.0
_PASSES = 3


def run(out) -> ScenarioResult:
    """Cache hit ratio across a compaction; a plan, /metrics, the slow log."""
    result = ScenarioResult()
    server = build_service("ops", "poi", rows=2000, seed=13,
                           num_servers=5)
    server.slow_query_log.threshold_ms = _SLOW_MS
    store = server.engine.store
    queries = window_queries("poi", 8, seed=13, side=0.12)
    # Flush so the read workload touches SSTable blocks, not memstores —
    # a cold cache the repeated passes can warm.
    for table in store.tables():
        table.flush()

    print(f"== {len(queries)} window queries x {_PASSES} passes over "
          f"2000 points ==", file=out)
    ratios = []
    with JustClient(server, "ops") as client:
        for pass_no in range(1, _PASSES + 1):
            for sql in queries:
                client.execute_query(sql)
            ratios.append(
                server.metrics.gauge("kvstore.cache_hit_ratio").value)
            used = server.metrics.gauge("kvstore.cache_used_bytes").value
            print(f"pass {pass_no}: blocks_read={store.stats.blocks_read} "
                  f"cache_hits={store.stats.cache_hits} "
                  f"hit_ratio={ratios[-1]:.1%} cache_used_bytes={used}",
                  file=out)
            if pass_no == 1:
                # Major-compact mid-run: every pre-compaction SSTable
                # dies, its cached blocks are invalidated, and the hit
                # ratio keeps counting honestly against the new files.
                for table in store.tables():
                    table.flush()
                    table.compact()
                print("  (flushed + major-compacted every table)",
                      file=out)
        show_query(client.execute_query, "EXPLAIN ANALYZE " + queries[0],
                   out, "EXPLAIN ANALYZE of one window query")

    print("\n== /metrics (registry dump) ==", file=out)
    print(server.metrics.render_text(), file=out)

    entries = server.slow_query_log.entries()
    print(f"\n== slow-query log (threshold {_SLOW_MS:g} sim-ms, last 5 "
          f"of {len(entries)}) ==", file=out)
    for entry in entries[-5:]:
        statement = entry.statement.replace("\n", " ")
        if len(statement) > 72:
            statement = statement[:71] + "…"
        print(f"#{entry.seq} {entry.sim_ms:8.1f} ms  "
              f"user={entry.user}  {statement}", file=out)

    result.check("the hit ratio dips when compaction kills the cached "
                 "SSTables", ratios[1] < ratios[0])
    result.check("the next pass warms the cache again",
                 ratios[2] > ratios[1])
    result.check("statements over the threshold reach the slow-query log",
                 len(entries) > 0)
    return result
