"""JOIN, HAVING and EXPLAIN through the SQL front end."""

import pytest

from repro import Point
from repro.errors import AnalysisError

from conftest import T0


@pytest.fixture
def joined_engine(engine):
    engine.sql("CREATE TABLE poi (fid integer:primary key, name string, "
               "time date, geom point)")
    engine.sql("CREATE TABLE cats (cid string:primary key, label string)")
    engine.insert("poi", [
        {"fid": i, "name": f"poi{i % 3}", "time": T0 + i,
         "geom": Point(116.0 + i * 0.01, 39.9)} for i in range(9)])
    engine.insert("cats", [
        {"cid": f"poi{i}", "label": f"Category {i}"} for i in range(2)])
    return engine


class TestJoin:
    def test_inner_join(self, joined_engine):
        rs = joined_engine.sql(
            "SELECT fid, name, label FROM poi JOIN cats ON name = cid "
            "ORDER BY fid")
        # poi2 rows have no category: 6 of 9 rows survive.
        assert len(rs) == 6
        assert rs.rows[0]["label"] == "Category 0"

    def test_left_join_keeps_unmatched(self, joined_engine):
        rs = joined_engine.sql(
            "SELECT fid, label FROM poi LEFT JOIN cats ON name = cid "
            "ORDER BY fid")
        assert len(rs) == 9
        labels = [r["label"] for r in rs.rows]
        assert labels.count(None) == 3

    def test_join_with_where_pushdown(self, joined_engine):
        rs = joined_engine.sql(
            "SELECT fid FROM poi JOIN cats ON name = cid "
            "WHERE fid < 3 AND label = 'Category 1' ORDER BY fid")
        assert [r["fid"] for r in rs.rows] == [1]

    def test_join_subquery_source(self, joined_engine):
        rs = joined_engine.sql(
            "SELECT fid, label FROM poi JOIN "
            "(SELECT cid, label FROM cats WHERE label LIKE '%0') c "
            "ON name = cid")
        assert {r["label"] for r in rs.rows} == {"Category 0"}

    def test_join_then_aggregate(self, joined_engine):
        rs = joined_engine.sql(
            "SELECT label, count(*) AS cnt FROM poi JOIN cats "
            "ON name = cid GROUP BY label ORDER BY label")
        assert rs.rows == [{"label": "Category 0", "cnt": 3},
                           {"label": "Category 1", "cnt": 3}]

    def test_unknown_join_column(self, joined_engine):
        with pytest.raises(AnalysisError):
            joined_engine.sql(
                "SELECT fid FROM poi JOIN cats ON ghost = cid")

    def test_join_on_view(self, joined_engine):
        joined_engine.sql("CREATE VIEW vcats AS SELECT * FROM cats")
        rs = joined_engine.sql(
            "SELECT fid FROM poi JOIN vcats ON name = cid")
        assert len(rs) == 6


class TestHaving:
    def test_having_filters_groups(self, joined_engine):
        rs = joined_engine.sql(
            "SELECT name, count(*) AS cnt FROM poi GROUP BY name "
            "HAVING cnt > 2 ORDER BY name")
        assert all(r["cnt"] == 3 for r in rs.rows)
        rs = joined_engine.sql(
            "SELECT name, count(*) AS cnt FROM poi GROUP BY name "
            "HAVING cnt > 5")
        assert len(rs) == 0

    def test_having_on_aggregate_expression(self, joined_engine):
        rs = joined_engine.sql(
            "SELECT name, max(fid) AS top FROM poi GROUP BY name "
            "HAVING top >= 8")
        assert [r["name"] for r in rs.rows] == ["poi2"]

    def test_having_unknown_column(self, joined_engine):
        with pytest.raises(AnalysisError):
            joined_engine.sql(
                "SELECT name, count(*) AS cnt FROM poi GROUP BY name "
                "HAVING ghost > 1")


    @pytest.mark.parametrize("statement", [
        "SELECT count(*) IS NULL AS c FROM poi",
        "SELECT name, count(*) AS cnt FROM poi GROUP BY name "
        "HAVING NOT (count(*) IS NULL)",
        "SELECT max(geom) IN st_KNN(st_makePoint(116.0, 39.9), 3) AS c "
        "FROM poi",
    ])
    def test_aggregate_under_is_null_or_in_is_rejected(self, joined_engine,
                                                       statement):
        with pytest.raises(AnalysisError, match="alias the aggregate"):
            joined_engine.sql(statement)


class TestExplain:
    def test_explain_returns_plan_rows(self, joined_engine):
        rs = joined_engine.sql(
            "EXPLAIN SELECT name FROM poi WHERE fid = 2 * 3")
        text = "\n".join(r["plan"] for r in rs.rows)
        assert "Scan[poi]" in text
        assert "Project[name]" in text

    def test_explain_shows_join(self, joined_engine):
        rs = joined_engine.sql(
            "EXPLAIN SELECT fid FROM poi JOIN cats ON name = cid")
        text = "\n".join(r["plan"] for r in rs.rows)
        assert "Join[inner on name = cid]" in text
