import json

import compare


def test_verdicts_follow_bound_and_spread():
    steady = [100.0, 101.0, 99.0, 100.0]
    assert compare.verdict(steady, [104.0] * 3, "lower", 0.10) == "unchanged"
    assert compare.verdict(steady, [115.0] * 3, "lower", 0.10) == "regressed"
    assert compare.verdict(steady, [85.0] * 3, "lower", 0.10) == "improved"
    assert compare.verdict(steady, [85.0] * 3, "higher", 0.10) == "regressed"
    assert compare.verdict(steady, [115.0] * 3, "higher", 0.10) == "improved"
    noisy = [80.0, 100.0, 120.0, 140.0]
    assert compare.verdict(noisy, [200.0] * 3, "lower", 0.10) == "unresolved"
    assert compare.verdict(steady, [100.0] * 3, "lower", 0.10,
                           contended=True) == "unresolved"


def test_zero_bound_flags_any_worsening():
    assert compare.verdict([0.0, 0.0], [0.0], "lower", 0.0) == "unchanged"
    assert compare.verdict([0.0, 0.0], [0.001], "lower", 0.0) == "regressed"


def test_single_runs_have_no_spread():
    assert compare.quartiles([5.0]) == (5.0, 5.0, 5.0)
    assert compare.verdict([5.0], [5.2], "lower", 0.10) == "unchanged"


def _result_file(tmp_path, name, p50, digest="abc", contended=False):
    metrics = {m["name"]: 1.0 for m in json.loads(
        compare.SPEC_PATH.read_text())["end_to_end"]}
    metrics.update(p50_ms=p50, failed_frac=0.0)
    path = tmp_path / name
    path.write_text(json.dumps({"workloads": {"knn": {
        "seed": 1, "result_digest": digest, "contended": contended,
        "end_to_end": metrics}}}))
    return str(path)


def test_main_exits_nonzero_on_regression_or_changed_answers(tmp_path,
                                                             capsys):
    a = [_result_file(tmp_path, f"a{i}.json", 10.0 + i / 10)
         for i in range(3)]
    same = [_result_file(tmp_path, f"b{i}.json", 10.1) for i in range(3)]
    slow = [_result_file(tmp_path, f"c{i}.json", 20.0) for i in range(3)]
    other = [_result_file(tmp_path, "d.json", 10.0, digest="xyz")]
    assert compare.main(a + ["--"] + same) == 0
    assert "0 regressed, 0 unresolved" in capsys.readouterr().out
    assert compare.main(a + ["--"] + slow) == 1
    assert "regressed" in capsys.readouterr().out
    assert compare.main(a + ["--"] + other) == 1
    assert "DIGEST DIFFERS" in capsys.readouterr().out
    assert compare.main(a) == 2
