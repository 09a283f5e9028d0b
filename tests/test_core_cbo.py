"""Cost-based planning and adaptive execution (Section IX, #3 and #4)."""

from repro import Envelope, JustEngine, Point, Schema, STQuery
from repro.core import engine as engine_module
from repro.core.query import (
    choose_strategy_cost_based,
    estimate_scan_cost_ms,
)

from conftest import POI_SCHEMA_FIELDS, T0, make_poi_rows


def build_engine(**kwargs) -> JustEngine:
    engine = JustEngine(**kwargs)
    engine.create_table(
        "poi", Schema(list(POI_SCHEMA_FIELDS)),
        userdata={"geomesa.indices.enabled": "z2,z2t,z3"})
    engine.insert("poi", make_poi_rows(400, seed=31))
    engine.table("poi").flush()
    return engine


WINDOW = Envelope(116.1, 39.85, 116.2, 39.95)


class TestSelectivityEstimates:
    def test_smaller_window_smaller_estimate(self):
        engine = build_engine()
        table = engine.table("poi")
        strategy = table.strategies["z2"]
        small = strategy.estimate_selectivity(
            STQuery(envelope=Envelope(116.1, 39.85, 116.11, 39.86)))
        large = strategy.estimate_selectivity(
            STQuery(envelope=Envelope(116.0, 39.8, 116.5, 40.1)))
        assert small < large <= 1.0

    def test_unsupported_query_is_full_scan(self):
        engine = build_engine()
        strategy = engine.table("poi").strategies["z2t"]
        assert strategy.estimate_selectivity(
            STQuery(envelope=WINDOW)) == 1.0


class TestCostBasedChoice:
    def test_z3_always_costed_worse_than_z2t(self):
        # The estimator must reflect Section IV-B: the interleaved curve
        # over-scans, so at calibrated data volumes Z3 never wins.
        from repro.cluster import CostModel
        model = CostModel(work_scale=20_000.0)
        engine = build_engine(cost_model=model)
        table = engine.table("poi")
        query = STQuery(WINDOW, T0, T0 + 86400)
        cost_z2t = estimate_scan_cost_ms(table, "z2t", query, model)
        cost_z3 = estimate_scan_cost_ms(table, "z3", query, model)
        assert cost_z2t < cost_z3
        name, _q = choose_strategy_cost_based(table, query, model)
        assert name != "z3"

    def test_byte_dominated_regime_picks_z2t(self):
        # With per-range seek costs removed (SSD-class storage), scan
        # volume decides and Z2T wins outright.
        from repro.cluster import CostModel
        model = CostModel(work_scale=20_000.0, seek_ms=0.0)
        engine = build_engine(cost_model=model)
        table = engine.table("poi")
        query = STQuery(WINDOW, T0, T0 + 86400)
        name, _q = choose_strategy_cost_based(table, query, model)
        assert name == "z2t"

    def test_unsupported_strategy_costs_infinite(self):
        engine = build_engine()
        table = engine.table("poi")
        spatial_only = STQuery(envelope=WINDOW)
        assert estimate_scan_cost_ms(table, "z2t", spatial_only,
                                     engine.cluster.model) == float("inf")

    def test_fallback_to_rules_when_nothing_supports(self):
        engine = JustEngine()
        engine.create_table("t", Schema(list(POI_SCHEMA_FIELDS)),
                            userdata={"geomesa.indices.enabled": "z2t"})
        engine.insert("t", make_poi_rows(50, seed=1))
        table = engine.table("t")
        # Spatial-only query, only a temporal index: the rule-based path
        # widens with the observed time extent.
        name, query = choose_strategy_cost_based(
            table, STQuery(envelope=WINDOW), engine.cluster.model)
        assert name == "z2t"
        assert query.has_temporal

    def test_engine_flag_produces_same_results(self):
        rows = make_poi_rows(400, seed=31)
        results = []
        for cbo in (False, True):
            engine = JustEngine(cost_based_planner=cbo)
            engine.create_table("poi", Schema(list(POI_SCHEMA_FIELDS)))
            engine.insert("poi", rows)
            got = engine.st_range_query("poi", WINDOW, T0,
                                        T0 + 86400).rows
            results.append(sorted(r["fid"] for r in got))
        assert results[0] == results[1]


class TestAnalyzeChangesPlans:
    def test_measured_extent_flips_the_index_choice(self):
        from repro.cluster import CostModel
        model = CostModel(work_scale=20_000.0, seek_ms=0.0)
        engine = JustEngine(cost_model=model)
        engine.create_table(
            "poi", Schema(list(POI_SCHEMA_FIELDS)),
            userdata={"geomesa.indices.enabled": "z2,z2t"})
        engine.insert("poi", make_poi_rows(400, seed=31))
        table = engine.table("poi")
        # A since-deleted outlier poisoned the grow-only inline extent:
        # the table believes it spans ~1000 days when the live data
        # spans five.
        engine.insert("poi", [{"fid": 9999, "name": "ghost",
                               "time": T0 + 1000 * 86400,
                               "geom": Point(116.3, 39.9)}])
        table.delete("9999")
        table.flush()
        query = STQuery(WINDOW, T0, T0 + 5 * 86400)
        # Against the poisoned inline extent the query looks like a tiny
        # temporal slice, so the temporal index wins...
        before, _q = choose_strategy_cost_based(table, query, model)
        assert before == "z2t"
        stats, _job = engine.analyze_table("poi")
        # ...but measured stats see the true five-day extent, the slice
        # covers everything, and the spatial index takes over.
        assert stats.time_extent is not None
        assert (stats.time_extent[1] - stats.time_extent[0]
                < table.time_extent[1] - table.time_extent[0])
        after, _q = choose_strategy_cost_based(table, query, model)
        assert after == "z2"

    def test_analyze_counts_live_rows_only(self):
        engine = build_engine()
        engine.table("poi").delete("7")
        stats, _job = engine.analyze_table("poi")
        assert stats.row_count == 399
        assert sum(d.entries for d in stats.distribution) == 399


class TestAdaptiveExecution:
    # The whole 400-row z2 index is ~22 KB, under OLTP_THRESHOLD_BYTES:
    # every window on it is "small" unless the threshold is lowered.
    def test_small_query_takes_local_path(self):
        engine = build_engine(adaptive_execution=True)
        result = engine.spatial_range_query(
            "poi", Envelope(116.1, 39.85, 116.101, 39.851))
        assert "driver_local" in result.breakdown
        assert "driver" not in result.breakdown

    def test_large_query_takes_distributed_path(self, monkeypatch):
        monkeypatch.setattr(engine_module, "OLTP_THRESHOLD_BYTES", 0)
        engine = build_engine(adaptive_execution=True)
        result = engine.spatial_range_query(
            "poi", Envelope(116.0, 39.8, 116.5, 40.1))
        assert "driver" in result.breakdown

    def test_adaptive_is_cheaper_for_point_lookups(self):
        adaptive = build_engine(adaptive_execution=True)
        classic = build_engine(adaptive_execution=False)
        tiny = Envelope(116.1, 39.85, 116.1001, 39.8501)
        fast = adaptive.spatial_range_query("poi", tiny).sim_ms
        slow = classic.spatial_range_query("poi", tiny).sim_ms
        assert fast < slow

    def test_results_identical(self):
        rows = make_poi_rows(400, seed=31)
        results = []
        for adaptive in (False, True):
            engine = JustEngine(adaptive_execution=adaptive)
            engine.create_table("poi", Schema(list(POI_SCHEMA_FIELDS)))
            engine.insert("poi", rows)
            got = engine.st_range_query("poi", WINDOW, T0,
                                        T0 + 86400).rows
            results.append(sorted(r["fid"] for r in got))
        assert results[0] == results[1]
