"""The benchmark's workloads: the inputs each one generates and the
invocations one pass runs.

Every workload is a list of CLI invocations, run in order by one client
that starts the next only after the previous returns (a closed loop).
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from perfbench import inputs, oracle

G2 = [f"g2-k{k}" for k in range(2, 7)]
# catalog name -> (``hlk catalog`` arguments, algebra name inside the file)
ALGEBRAS = {
    "torus": (["torus"], "torus-g1"),
    "abelian-surface": (["abelian-surface"], "torus-g2"),
    **{m: (["g2-family", "--k", m[4:]], m) for m in G2},
    "s1s2-N3": (["s1s2", "--n", "3"], "s1s2-N3"),
}
# k3-mock is left out: on the 2-vCPU machine the baseline comes from,
# rebasing takes lefschetz on it from ~2.5 s to ~28 s
REBASED_LEFSCHETZ = ["torus", "abelian-surface"] + G2
REBASED_LLGEN = ["g2-k2", "g2-k3", "g2-k4", "s1s2-N3"]
# at the default window of 6 gkcoh takes 0.09 s; at 96 the module checks,
# the complexes and their row reductions carry the cost
GK_WINDOW = 96
GK_MODULES = ["sl2-trivial", "sl2-ds-plus", "sl2-ds-minus", "sl2-adjoint"]
GK_RESCALED = ["sl2-ds-plus", "sl2-ds-minus"]
SPECTRUM_MODULES = ["sl2-trivial", "sl2-ds-plus", "sl2-ds-minus"]

NAMES = ("rebased", "gk")


@dataclass
class Invocation:
    label: str
    argv: list          # CLI arguments without --report
    report: str         # report path
    check: object       # oracle checker: (exit status, report) -> mismatches


def _algebra_file(d, model):
    return os.path.join(d, f"{model}.algebra.json")


def prepare(workload: str, seed: int, work: str, hlk_main):
    """Generate the workload's input files under ``work`` and return its
    invocations.  Rewritten files are checked against their originals."""
    cat = os.path.join(work, "catalog")
    new = os.path.join(work, "inputs")
    reports = os.path.join(work, "reports")
    for d in (cat, new, reports):
        os.makedirs(d, exist_ok=True)

    def inv(label, argv, check):
        name = f"{len(invs):02d}-{label.replace(':', '-')}.json"
        path = os.path.join(reports, name)
        invs.append(Invocation(label, argv, path, check))

    invs = []
    if workload == "rebased":
        models = REBASED_LEFSCHETZ + ["s1s2-N3"]
        inputs.run_catalog(hlk_main, cat,
                           [["catalog"] + ALGEBRAS[m][0] for m in models])
        for m in models:
            inputs.rebased_algebra(_algebra_file(cat, m),
                                   _algebra_file(new, m),
                                   inputs.make_rng(seed, m))
        for m in REBASED_LEFSCHETZ:
            path = _algebra_file(new, m)
            inv(f"validate:{m}", ["validate", "--input", path],
                oracle.expect_validate(os.path.basename(path)))
            inv(f"lefschetz:{m}", ["lefschetz", "--input", path],
                oracle.expect_lefschetz(m, ALGEBRAS[m][1]))
        for m in REBASED_LLGEN:
            inv(f"llgen:{m}", ["llgen", "--input", _algebra_file(new, m)],
                oracle.expect_llgen(m))
    elif workload == "gk":
        win = ["--window", str(GK_WINDOW)]
        inputs.run_catalog(hlk_main, cat, [["catalog", "genus2-suite"] + win,
                                           ["catalog", "sl2-adjoint"] + win])
        files = {m: os.path.join(cat, f"{m}.module.json") for m in GK_MODULES}
        for m in GK_RESCALED:
            out = os.path.join(new, f"{m}.module.json")
            inputs.rescaled_module(files[m], out, inputs.make_rng(seed, m))
            files[m] = out
        pair = ["--input", os.path.join(cat, "sl2R.pair.json")]
        inv("gkcoh:sl2", ["gkcoh"] + pair + sum(
            (["--input", files[m]] for m in GK_MODULES), []),
            oracle.expect_gkcoh(GK_MODULES))
        inv("assemble:genus2", ["assemble"] + pair + sum(
            (["--input", files[m]] for m in SPECTRUM_MODULES), [])
            + ["--input", os.path.join(cat, "genus2.spectrum.json")],
            oracle.expect_assemble(SPECTRUM_MODULES))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return invs
