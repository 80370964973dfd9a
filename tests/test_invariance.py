"""Basis invariance of the reports.

Every lefschetz and llgen suite of ``scripts/run_all.py`` runs again on
two seeded rebasings of its input algebra (the benchmark's
``perfbench.inputs.rebased_algebra``; k3-mock only sheared, below),
``gkcoh`` on two seeded rescalings of its modules, and validate,
lefschetz and llgen on shears of one H^2 class of g2-k3 and k3-mock.
Each run must exit as the catalog-basis run does and write the same
report, outside the records that depend on the basis by design: the
input paths and digests, the timings, the structure-constant digest of
the closure's basis and the cone family, which names basis classes.
"""

import contextlib
import importlib.util
import io
import json
import os
from fractions import Fraction
from pathlib import Path

import pytest

from hlk.cli import main as hlk

ROOT = Path(__file__).resolve().parents[1]


def load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


run_all = load("run_all", ROOT / "scripts" / "run_all.py")
inputs = load("perfbench_inputs", ROOT / "perfbench" / "inputs.py")

# summary records named by basis vectors or digesting them
BASIS_RECORDS = ("bracket-digest", "family")
SEEDS = (1, 2)
# run_all's suites, each input as its bare file name
NAMED = {name: [os.path.basename(a) for a in argv]
         for name, argv in run_all.suites(os.curdir)}
# The generator's Fraction arithmetic takes about 40 s to rebase
# k3-mock densely (the benchmark leaves it out too); its shears below
# stand in for it.
SUITES = {name: argv for name, argv in NAMED.items()
          if name.startswith(("lefschetz-", "llgen-"))
          and name != "lefschetz-k3-mock"}
GKCOH = NAMED["gkcoh-sl2"]


@pytest.fixture(scope="module")
def catalog(tmp_path_factory):
    out = tmp_path_factory.mktemp("catalog")
    with contextlib.redirect_stdout(io.StringIO()):
        for argv in run_all.CATALOG:
            assert hlk(argv + ["--out-dir", str(out)]) == 0
    return out


def run(argv, in_dir, report):
    """Exit code and reduced report of ``argv`` with its inputs read
    from ``in_dir``."""
    argv = [str(in_dir / a) if a.endswith(".json") else a for a in argv]
    with contextlib.redirect_stdout(io.StringIO()):
        code = hlk(argv + ["--report", str(report)])
    doc = json.loads(report.read_text())
    del doc["inputs"], doc["timings"]
    doc["summary"] = {k: v for k, v in doc["summary"].items()
                      if k.rsplit(":", 1)[-1] not in BASIS_RECORDS}
    return code, doc


@pytest.fixture(scope="module")
def rebased(catalog, tmp_path_factory):
    """(file, seed) -> the directory that holds the catalog ``file``
    rebased with ``seed``, written on first use."""
    dirs = {seed: tmp_path_factory.mktemp(f"seed{seed}") for seed in SEEDS}

    def get(name, seed):
        if not (dirs[seed] / name).exists():
            inputs.rebased_algebra(str(catalog / name), str(dirs[seed] / name),
                                   inputs.make_rng(seed, name))
        return dirs[seed]
    return get


@pytest.mark.parametrize("suite", sorted(SUITES))
def test_suite_report_is_basis_invariant(catalog, rebased, tmp_path, suite):
    argv = SUITES[suite]
    want = run(argv, catalog, tmp_path / "catalog.json")
    for seed in SEEDS:
        assert run(argv, rebased(argv[2], seed),
                   tmp_path / f"{seed}.json") == want, seed


def test_gkcoh_report_is_invariant_under_rescaling(catalog, tmp_path):
    want = run(GKCOH, catalog, tmp_path / "catalog.json")
    assert want[0] == 0
    for seed in SEEDS:
        in_dir = tmp_path / f"seed{seed}"
        in_dir.mkdir()
        os.link(catalog / "sl2R.pair.json", in_dir / "sl2R.pair.json")
        for name in GKCOH[4::2]:  # the module files
            inputs.rescaled_module(str(catalog / name), str(in_dir / name),
                                   inputs.make_rng(seed, name))
        assert run(GKCOH, in_dir, tmp_path / f"{seed}.json") == want, seed


def shear(src, dst, target, by):
    """The algebra of ``src`` in the basis with ``target`` replaced by
    target + 20 * by."""
    doc = inputs.read_doc(src)
    names = [b["name"] for b in doc["basis"]]
    n = len(names)
    t, b = names.index(target), names.index(by)
    p, q = ([[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
            for _ in range(2))
    p[b][t], q[b][t] = Fraction(20), Fraction(-20)
    inputs.write_doc(dst, inputs.algebra_doc(
        doc, inputs.rebase(inputs.parse_algebra(doc), p, q)))


# llgen on k3-mock (so(24)) takes seconds, so it is left out there
@pytest.mark.parametrize("alg, omega, commands", [
    ("g2-k3", "om", ("validate", "lefschetz", "llgen")),
    ("k3-mock", "omega", ("validate", "lefschetz")),
])
def test_sheared_class_keeps_every_report(catalog, tmp_path, alg, omega,
                                          commands):
    name = f"{alg}.algebra.json"
    for by in ("f2", omega):
        in_dir = tmp_path / by
        in_dir.mkdir()
        shear(str(catalog / name), str(in_dir / name), "f1", by)
        for cmd in commands:
            argv = [cmd, "--input", name]
            want = run(argv, catalog, tmp_path / "catalog.json")
            assert want[0] == 0
            assert run(argv, in_dir, tmp_path / "sheared.json") == want, \
                (by, cmd)
