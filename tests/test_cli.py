"""The JustQL shell."""

import io

from repro.cli import Shell, format_result, main, split_statements
from repro.sql.result import ResultSet


class TestSplitStatements:
    def test_basic_split(self):
        assert split_statements("A; B ;C") == ["A", "B", "C"]

    def test_quotes_protect_semicolons(self):
        assert split_statements("SELECT 'a;b' FROM t; NEXT") == \
            ["SELECT 'a;b' FROM t", "NEXT"]

    def test_trailing_without_semicolon(self):
        assert split_statements("ONLY ONE") == ["ONLY ONE"]

    def test_empty(self):
        assert split_statements(" ;  ; ") == []

    def test_comments_are_skipped_quotes_and_all(self):
        assert split_statements(
            "-- the circle's box; and more\nSHOW TABLES;\n"
            "SELECT '--not; a comment' FROM t; -- it's done\n") == \
            ["SHOW TABLES", "SELECT '--not; a comment' FROM t"]

    def test_doubled_quotes_and_an_unterminated_string(self):
        assert split_statements("SELECT 'it''s; fine'; SELECT 'open;") \
            == ["SELECT 'it''s; fine'", "SELECT 'open;"]


class TestFormatResult:
    def test_status_message(self):
        assert format_result(ResultSet.status("table t created")) == \
            "table t created"

    def test_empty_rows(self):
        assert format_result(ResultSet.from_rows([], ["a"])) == "(0 rows)"

    def test_table_alignment(self):
        rs = ResultSet.from_rows(
            [{"fid": 1, "name": "alpha"}, {"fid": 22, "name": "b"}])
        text = format_result(rs)
        lines = text.splitlines()
        assert lines[0].startswith("fid")
        assert "alpha" in text
        assert "(2 rows" in lines[-1]

    def test_null_and_truncation(self):
        rs = ResultSet.from_rows([{"x": None, "y": "A" * 100}])
        text = format_result(rs)
        assert "NULL" in text
        assert "…" in text

    def test_row_cap(self):
        rs = ResultSet.from_rows([{"i": i} for i in range(80)])
        text = format_result(rs, max_rows=10)
        assert "showing first 10" in text


class TestShell:
    def run(self, *statements):
        out = io.StringIO()
        shell = Shell(out=out)
        codes = [shell.execute(s) for s in statements]
        return codes, out.getvalue()

    def test_ddl_dml_select_flow(self):
        codes, output = self.run(
            "CREATE TABLE t (fid integer:primary key, name string, "
            "geom point)",
            "INSERT INTO t VALUES (1, 'x', st_makePoint(116.3, 39.9))",
            "SELECT fid, name FROM t",
        )
        assert codes == [True, True, True]
        assert "table t created" in output
        assert "x" in output

    def test_error_reported_not_raised(self):
        codes, output = self.run("SELECT * FROM ghost")
        assert codes == [False]
        assert "error:" in output

    def test_run_script(self):
        out = io.StringIO()
        shell = Shell(out=out)
        failures = shell.run_script(
            "CREATE TABLE t (fid integer:primary key, geom point);"
            "SHOW TABLES;")
        assert failures == 0
        assert "t" in out.getvalue()


class TestMain:
    def test_one_shot_statement(self):
        out = io.StringIO()
        code = main(["SHOW TABLES"], out=out)
        assert code == 0
        assert "(0 rows)" in out.getvalue()

    def test_one_shot_failure_code(self):
        out = io.StringIO()
        assert main(["SELECT * FROM nope"], out=out) == 1

    def test_script_file(self, tmp_path):
        script = tmp_path / "setup.sql"
        script.write_text(
            "CREATE TABLE t (fid integer:primary key, geom point);\n"
            "INSERT INTO t VALUES (1, st_makePoint(1, 2));\n"
            "SELECT count(*) FROM t;\n")
        out = io.StringIO()
        assert main(["--script", str(script)], out=out) == 0
        assert "1" in out.getvalue()

    def test_script_reports_a_bad_dbscan_argument(self, tmp_path):
        script = tmp_path / "dbscan.sql"
        script.write_text(
            "CREATE TABLE p (fid integer:primary key, geom point);\n"
            "INSERT INTO p VALUES (1, st_makePoint(1, 2));\n"
            "SELECT st_DBSCAN(geom, 0, 0.1) FROM p;\n"
            "SHOW TABLES;\n")
        out = io.StringIO()
        assert main(["--script", str(script)], out=out) == 1
        assert "error: st_DBSCAN" in out.getvalue()
        assert out.getvalue().rstrip().endswith("(1 rows)")

    def test_script_with_an_apostrophe_in_a_comment(self, tmp_path):
        script = tmp_path / "comment.sql"
        script.write_text("-- the circle's box\nSHOW TABLES;\nSHOW VIEWS;\n")
        out = io.StringIO()
        assert main(["--script", str(script)], out=out) == 0
        assert out.getvalue().count("(0 rows)") == 2

    def test_interactive_runs_every_statement_on_a_line(self):
        out = io.StringIO()
        Shell(out=out).interact(stdin=io.StringIO(
            "SHOW TABLES; SHOW VIEWS;\nquit\n"))
        text = out.getvalue()
        assert text.count("(0 rows)") == 2 and "error" not in text

    def test_interactive_string_keeps_a_semicolon_across_lines(self):
        out = io.StringIO()
        Shell(out=out).interact(stdin=io.StringIO(
            "CREATE TABLE t (fid integer:primary key, geom point, s string);"
            "\nINSERT INTO t VALUES (1, st_makePoint(1, 2), 'a;\n"
            "b');\nSELECT s FROM t;\n"))
        text = out.getvalue()
        assert "error" not in text
        assert "a;\nb" in text

    def test_interactive_loop(self, monkeypatch):
        out = io.StringIO()
        stdin = io.StringIO("SHOW TABLES;\nexit;\n")
        shell = Shell(out=out)
        shell.interact(stdin=stdin)
        text = out.getvalue()
        assert "justql>" in text
        assert "(0 rows)" in text
        assert "bye" in text
