import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "compare_reports.py"
_spec = importlib.util.spec_from_file_location("compare_reports", SCRIPT)
compare_reports = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_reports)


def report(out_dir: str, status="pass", seconds=1.0) -> dict:
    return {
        "command": "gkcoh",
        "version": "0",
        "inputs": [{"path": f"{out_dir}/catalog/sl2R.pair.json",
                    "sha256": "ab" * 32}],
        "checks": [{"name": "sl2-trivial:validate", "status": status,
                    "detail": ""}],
        "summary": {"p-split-dims": [1, 1]},
        "timings": {"sl2-trivial": seconds},
    }


def write_set(root: Path, reports: dict) -> Path:
    """An OUT directory as ``scripts/run_all.py`` leaves it."""
    (root / "reports").mkdir(parents=True)
    for name, doc in reports.items():
        (root / "reports" / name).write_text(json.dumps(doc, sort_keys=True))
    return root


def run(capsys, a: Path, b: Path):
    code = compare_reports.main([str(a), str(b)])
    return code, capsys.readouterr().out


@pytest.fixture
def before(tmp_path):
    return write_set(tmp_path / "before", {
        "gkcoh-sl2.json": report(str(tmp_path / "before")),
        "validate-all.json": report(str(tmp_path / "before")),
    })


def test_only_timings_and_input_directory_differ(tmp_path, before, capsys):
    after = write_set(tmp_path / "after", {
        "gkcoh-sl2.json": report(str(tmp_path / "after"), seconds=2.5),
        "validate-all.json": report(str(tmp_path / "after"), seconds=0.1),
    })
    code, out = run(capsys, before, after / "reports")
    assert code == 0
    assert "2 reports, 0 differ" in out


def test_flipped_status_differs(tmp_path, before, capsys):
    after = write_set(tmp_path / "after", {
        "gkcoh-sl2.json": report(str(tmp_path / "after"), status="fail"),
        "validate-all.json": report(str(tmp_path / "after")),
    })
    code, out = run(capsys, before, after)
    assert code == 1
    assert "gkcoh-sl2.json: differs outside timings" in out
    assert "validate-all.json" not in out


def test_missing_report(tmp_path, before, capsys):
    after = write_set(tmp_path / "after", {
        "gkcoh-sl2.json": report(str(tmp_path / "after")),
    })
    code, out = run(capsys, before, after)
    assert code == 1
    assert f"validate-all.json: only in {before}" in out


def test_directory_without_reports(tmp_path, before, capsys):
    empty = tmp_path / "empty"
    empty.mkdir()
    assert compare_reports.main([str(before), str(empty)]) == 2
    assert "no reports in" in capsys.readouterr().err
