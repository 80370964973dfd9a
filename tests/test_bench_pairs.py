import importlib.util
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
