import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)
verdict = bench_pairs.verdict

PARENT = [0.60, 0.62, 0.63, 0.61, 0.64, 0.60, 0.62, 0.65, 0.61, 0.63]


def test_claimed_gain_met():
    change = [0.38, 0.39, 0.37, 0.40, 0.38, 0.39, 0.41, 0.38, 0.37, 0.39]
    v = verdict(PARENT, change, "lower", 0.25, claimed=True)
    assert v["wins"] == 10 and v["verdict"] == "gain met"
    assert v["parent_median"] == pytest.approx(0.62)
    assert v["change_median"] == pytest.approx(0.385)
    # the same numbers with more failures do not count as a gain
    v = verdict(PARENT, change, "lower", 0.25, claimed=True,
                failed_more=True)
    assert v["verdict"] == "gain not met"


def test_claimed_gain_needs_nine_of_ten_wins_and_more_than_the_iqr():
    # eight wins, two ties: ties count for neither side
    change = [0.50] * 8 + PARENT[8:]
    v = verdict(PARENT, change, "lower", 0.25, claimed=True)
    assert v["wins"] == 8 and v["verdict"] == "gain not met"
    # ten wins, but the medians differ by less than the parent's IQR
    change = [p - 0.005 for p in PARENT]
    v = verdict(PARENT, change, "lower", 0.25, claimed=True)
    assert v["wins"] == 10
    assert v["parent_median"] - v["change_median"] < \
        v["parent_q3"] - v["parent_q1"]
    assert v["verdict"] == "gain not met"


def test_unclaimed_verdicts():
    assert verdict(PARENT, [p * 1.1 for p in PARENT], "lower", 0.25,
                   claimed=False)["verdict"] == "no regression"
    assert verdict(PARENT, [p * 1.3 for p in PARENT], "lower", 0.25,
                   claimed=False)["verdict"] == "regression"
    assert verdict(PARENT, [0.1] * 10, "lower", 0.25,
                   claimed=False)["verdict"] == "better"
    # a parent spread wider than the bound leaves the metric unresolved
    wide = [1.0, 2.0, 1.0, 2.0, 1.0, 2.0, 1.0, 2.0, 1.0, 2.0]
    assert verdict(wide, [1.5] * 10, "lower", 0.25,
                   claimed=False)["verdict"] == "unresolved"
    # "higher is better" turns every comparison round
    assert verdict(PARENT, [p * 0.7 for p in PARENT], "higher", 0.25,
                   claimed=False)["verdict"] == "regression"
    v = verdict(PARENT, [p * 2 for p in PARENT], "higher", 0.25,
                claimed=True)
    assert v["wins"] == 10 and v["verdict"] == "gain met"


def test_main_reports_correct_and_failed_share(tmp_path, monkeypatch, capsys):
    # canned runs: the parent fails 2 of 18 invocations on every seed,
    # the change none, and the change is the faster
    bench = {"run_seconds": 1, "end_to_end": [
        {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25}]}
    for side in ("parent", "change"):
        (tmp_path / side).mkdir()
        (tmp_path / side / "BENCHMARK.json").write_text(json.dumps(bench))

    def run_one(checkout, workload, seed):
        parent = checkout.name == "parent"
        return {"correct": True, "attempted": 18, "failed": 2 if parent else 0,
                "metrics": {"wall_s": {"value": 0.1 if parent else 0.08}}}

    monkeypatch.setattr(bench_pairs, "run_one", run_one)
    assert bench_pairs.main([str(tmp_path / "parent"),
                             str(tmp_path / "change"), "--workload", "w",
                             "--claim", "wall_s"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == ("seed 1: wall_s 0.1 -> 0.08  | "
                        "parent correct true, failed 2/18 = 0.1111, "
                        "change correct true, failed 0/18 = 0.0000")
    out = json.loads(lines[-1])
    assert out["correct"] == {"parent": [True] * 10, "change": [True] * 10}
    assert out["failed_share"] == {"parent": [2 / 18] * 10,
                                   "change": [0.0] * 10}
    assert out["metrics"]["wall_s"]["verdict"] == "gain met"
