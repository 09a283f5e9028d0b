"""DataFrame engine: transformations, aggregates, joins, sorting."""

import pytest

from repro.dataframe import (
    DataFrame,
    agg_avg,
    agg_collect,
    agg_count,
    agg_max,
    agg_min,
    agg_sum,
)
from repro.errors import ExecutionError


def df_of(rows, **kwargs):
    return DataFrame.from_rows(rows, **kwargs)


def sample():
    return df_of([
        {"id": 1, "grp": "a", "v": 10},
        {"id": 2, "grp": "b", "v": 20},
        {"id": 3, "grp": "a", "v": 30},
        {"id": 4, "grp": "b", "v": None},
    ])


class TestBasics:
    def test_from_rows_infers_columns(self):
        df = sample()
        assert df.columns == ["id", "grp", "v"]
        assert df.count() == 4

    def test_partitioning(self):
        df = df_of([{"x": i} for i in range(10)], num_partitions=3)
        assert df.num_partitions == 3
        assert sorted(r["x"] for r in df.collect()) == list(range(10))

    def test_empty(self):
        df = DataFrame.empty(["a"])
        assert df.count() == 0
        assert df.first() is None

    def test_column_values(self):
        assert sample().column_values("v") == [10, 20, 30, None]


class TestRowOps:
    def test_select(self):
        df = sample().select(["id", "v"])
        assert df.columns == ["id", "v"]
        assert all(set(r) == {"id", "v"} for r in df.collect())

    def test_select_unknown_raises(self):
        with pytest.raises(ExecutionError):
            sample().select(["nope"])

    def test_where(self):
        df = sample().where(lambda r: (r["v"] or 0) > 15)
        assert sorted(r["id"] for r in df.collect()) == [2, 3]

    def test_with_column_add_and_replace(self):
        df = sample().with_column("double", lambda r: (r["v"] or 0) * 2)
        assert df.columns[-1] == "double"
        df2 = df.with_column("double", lambda r: 0)
        assert df2.columns == df.columns  # replaced, not appended

    def test_flat_map(self):
        df = df_of([{"n": 2}, {"n": 3}])
        out = df.flat_map(lambda r: [{"i": i} for i in range(r["n"])],
                          ["i"])
        assert out.count() == 5

    def test_map_partitions(self):
        df = df_of([{"x": i} for i in range(10)], num_partitions=2)
        out = df.map_partitions(lambda rows: rows[:1], ["x"])
        assert out.count() == 2


class TestGlobalOps:
    def test_distinct(self):
        df = df_of([{"a": 1}, {"a": 1}, {"a": 2}])
        assert df.distinct().count() == 2

    def test_order_by_multi_key(self):
        df = df_of([
            {"a": 1, "b": 2}, {"a": 2, "b": 1}, {"a": 1, "b": 1},
        ])
        out = df.order_by(["a", "b"]).collect()
        assert [(r["a"], r["b"]) for r in out] == [(1, 1), (1, 2), (2, 1)]

    def test_order_by_descending(self):
        out = sample().order_by(["id"], [False]).collect()
        assert [r["id"] for r in out] == [4, 3, 2, 1]

    def test_order_by_nulls_last(self):
        """Descending puts NULLs last (Spark's DESC NULLS LAST)."""
        out = sample().order_by(["v"], [False]).collect()
        assert out[-1]["v"] is None

    def test_order_by_nulls_first(self):
        """Ascending puts NULLs first (Spark's ASC NULLS FIRST)."""
        out = sample().order_by(["v"]).collect()
        assert out[0]["v"] is None

    def test_limit(self):
        assert sample().limit(2).count() == 2
        assert sample().limit(100).count() == 4

    def test_union(self):
        df = sample()
        assert df.union(df).count() == 8

    def test_union_schema_mismatch(self):
        with pytest.raises(ExecutionError):
            sample().union(df_of([{"other": 1}]))

    def test_repartition(self):
        df = sample().repartition(2)
        assert df.num_partitions == 2
        assert df.count() == 4


class TestGroupBy:
    def test_count_sum_avg(self):
        out = sample().group_by(
            ["grp"], [agg_count(), agg_sum("v"), agg_avg("v")])
        by_grp = {r["grp"]: r for r in out.collect()}
        assert by_grp["a"]["count"] == 2
        assert by_grp["a"]["sum_v"] == 40
        assert by_grp["a"]["avg_v"] == 20
        # NULLs ignored by sum/avg but counted by count(*).
        assert by_grp["b"]["count"] == 2
        assert by_grp["b"]["sum_v"] == 20
        assert by_grp["b"]["avg_v"] == 20

    def test_min_max_ignore_nulls(self):
        out = sample().group_by(["grp"], [agg_min("v"), agg_max("v")])
        by_grp = {r["grp"]: r for r in out.collect()}
        assert (by_grp["b"]["min_v"], by_grp["b"]["max_v"]) == (20, 20)

    def test_collect_list(self):
        out = sample().group_by(["grp"], [agg_collect("id")])
        by_grp = {r["grp"]: r for r in out.collect()}
        assert by_grp["a"]["collect_id"] == [1, 3]

    def test_avg_of_all_null_group_is_none(self):
        df = df_of([{"g": "x", "v": None}])
        out = df.group_by(["g"], [agg_avg("v")]).collect()
        assert out[0]["avg_v"] is None

    def test_unknown_key_raises(self):
        with pytest.raises(ExecutionError):
            sample().group_by(["nope"], [agg_count()])


class TestJoin:
    def test_inner_join(self):
        left = df_of([{"k": 1, "a": "x"}, {"k": 2, "a": "y"}])
        right = df_of([{"k": 1, "b": "p"}, {"k": 3, "b": "q"}])
        out = left.join(right, ["k"]).collect()
        assert out == [{"k": 1, "a": "x", "b": "p"}]

    def test_left_join(self):
        left = df_of([{"k": 1, "a": "x"}, {"k": 2, "a": "y"}])
        right = df_of([{"k": 1, "b": "p"}])
        out = left.join(right, ["k"], how="left").collect()
        assert sorted(out, key=lambda r: r["k"]) == [
            {"k": 1, "a": "x", "b": "p"}, {"k": 2, "a": "y", "b": None}]

    def test_join_duplicates_expand(self):
        left = df_of([{"k": 1, "a": "x"}])
        right = df_of([{"k": 1, "b": "p"}, {"k": 1, "b": "q"}])
        assert left.join(right, ["k"]).count() == 2

    def test_bad_join_type(self):
        with pytest.raises(ExecutionError):
            df_of([{"k": 1}]).join(df_of([{"k": 1}]), ["k"], how="outer")


def test_estimated_bytes_scales_with_rows():
    small = df_of([{"s": "x" * 10}] * 10)
    big = df_of([{"s": "x" * 10}] * 1000)
    assert big.estimated_bytes() > small.estimated_bytes() * 50
