import importlib.util
import json
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
