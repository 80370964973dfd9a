import importlib.util
import json
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location(
    "ab_inproc", ROOT / "scripts" / "ab_inproc.py")
ab_inproc = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab_inproc)


def test_repository_against_itself(capsys):
    assert ab_inproc.main([str(ROOT), str(ROOT), "--workload", "gk",
                           "--reps", "2"]) == 0
    out = capsys.readouterr().out
    assert "2 reports, 0 differ" in out
    doc = json.loads(out.strip().splitlines()[-1])
    assert doc["differ"] == [] and doc["reps"] == 2
    assert sorted(doc["invocations"]) == ["assemble:genus2", "gkcoh:sl2"]
    assert doc["pass"]["parent"] > 0 and doc["pass"]["change"] > 0
    # the median paired change/parent ratio of every row
    for row in [doc["pass"], *doc["invocations"].values()]:
        assert row["ratio"] > 0


def test_sides_alternate_per_invocation(monkeypatch, tmp_path):
    # each invocation runs on both sides back to back, the side that
    # goes first switching from one invocation and repetition to the next
    order = []

    def fake_run(main, inv, report):
        order.append((inv.label, main))
        with open(report, "w", encoding="utf-8") as fh:
            json.dump({"checks": []}, fh)
        return {"parent": 2.0, "change": 1.0}[main], 0

    class Inv:
        def __init__(self, label):
            self.label = label

    monkeypatch.setattr(ab_inproc, "run_one", fake_run)
    invs = [Inv("a"), Inv("b"), Inv("c")]
    times, differ = ab_inproc.compare(
        invs, {"parent": "parent", "change": "change"}, str(tmp_path), 2)
    assert differ == []
    assert order == [("a", "parent"), ("a", "change"),
                     ("b", "change"), ("b", "parent"),
                     ("c", "parent"), ("c", "change"),
                     ("a", "change"), ("a", "parent"),
                     ("b", "parent"), ("b", "change"),
                     ("c", "change"), ("c", "parent")]
    assert times == {"parent": [[2.0] * 3] * 2, "change": [[1.0] * 3] * 2}
    summary = ab_inproc.summary([2.0, 4.0, 1.0], [1.0, 3.0, 1.5])
    assert summary["ratio"] == 0.75 and summary["wins"] == 2


def test_collects_garbage_before_each_invocation(monkeypatch, tmp_path):
    # a collection set off by earlier allocations landed on whichever
    # timed invocation crossed the threshold
    events = []
    monkeypatch.setattr(ab_inproc, "gc", types.SimpleNamespace(
        collect=lambda: events.append("collect")))

    def fake_main(argv):
        events.append("main")
        return 0

    class Inv:
        argv = ["validate"]

    for _ in range(3):
        seconds, code = ab_inproc.run_one(fake_main, Inv(),
                                          str(tmp_path / "r.json"))
        assert code == 0 and seconds >= 0
    assert events == ["collect", "main"] * 3
    # the repetition loop makes no collection of its own
    events.clear()

    def fake_run(main, inv, report):
        Path(report).write_text("{}", encoding="utf-8")
        return 1.0, 0

    monkeypatch.setattr(ab_inproc, "run_one", fake_run)
    ab_inproc.compare([types.SimpleNamespace(label="a")],
                      {"parent": None, "change": None}, str(tmp_path), 2)
    assert events == []
