"""Expected verdicts, derived from theory rather than from a run.

Each ``expect_*`` function returns a checker: a callable taking the exit
status and the parsed report of one invocation and returning a list of
mismatches, pairs (text, known defect or None), empty when every verdict
is as theory says.  The answers do
not depend on the seed: a change of basis or a rescaling of weight
vectors changes no invariant checked here.  ``bracket-digest`` depends
on the basis by design and is never compared.

The check names are the batteries the CLI documents; a missing or extra
check is a mismatch, so a battery cannot shrink unnoticed.
"""

from __future__ import annotations

import re
from math import comb

LEFSCHETZ_CHECKS = ("validate", "kahler-in-cone", "hard-lefschetz",
                    "sl2-triples", "q-symmetry", "j-invariance",
                    "polarization-positive", "hodge-index", "serre-duality",
                    "hodge-filtration")
GKCOH_MODULE_CHECKS = ("validate", "d-squared", "dichotomy", "bigraded-total",
                       "harmonic")
DIAMOND_CHECKS = ("hodge-symmetry", "odd-betti-even", "serre-symmetry",
                  "hard-lefschetz")


# Defects of the seed program that the checks below expose.  A mismatch
# tagged with one of these keys still fails its invocation, counts
# toward failed_share and is listed with the run; a run whose every
# failure is tagged is still reported correct, so that a new wrong
# verdict shows as an incorrect run.
KNOWN_DEFECTS = {
    "census": "llgen.minimal_ideals only compares the ideals generated by "
              "basis vectors, so its census of minimal ideals depends on "
              "the basis (ROADMAP item 3)",
}


def hodge_numbers(model: str) -> dict:
    """h^(p,q) of a catalog model, from its definition."""
    if model.startswith("g2-k"):
        return {(0, 0): 1, (1, 1): int(model[4:]), (2, 2): 1}
    g = {"torus": 1, "abelian-surface": 2}[model]
    # exterior algebra on g holomorphic and g antiholomorphic generators
    return {(p, q): comb(g, p) * comb(g, q)
            for p in range(g + 1) for q in range(g + 1)}


def _base_checks(code, report, names, known=None):
    """Exit status, check names and check statuses.  A mismatch is a
    pair (text, defect): ``defect`` is a key of KNOWN_DEFECTS when
    ``known``, a map from check name to defect, explains it, else None.
    """
    known = known or {}
    out = []
    failing = [c for c in report.get("checks", []) if c["status"] != "pass"]
    if code != 0:
        # exit status 1 is the program's verdict on its failing checks
        tags = {known.get(c["name"]) for c in failing}
        tag = tags.pop() if code == 1 and len(tags) == 1 else None
        out.append((f"exit status {code}", tag))
    got = [c["name"] for c in report.get("checks", [])]
    if got != list(names):
        out.append((f"checks {got} != expected {list(names)}", None))
    out.extend((f"{c['name']} {c['status']}: {c['detail']}",
                known.get(c["name"])) for c in failing)
    return out


def _summary(report, key, want, out, defect=None):
    got = report.get("summary", {}).get(key)
    if got != want:
        out.append((f"{key} = {got!r}, theory says {want!r}", defect))


def expect_validate(file_name: str):
    def check(code, report):
        return _base_checks(code, report, [f"algebra:{file_name}"])
    return check


def expect_lefschetz(model: str, base: str):
    """Hodge index theorem: for a surface the signature of the middle
    pairing is sum_(p,q) (-1)^p h^(p,q), with 2 h^(2,0) + 1 positive and
    h^(1,1) - 1 negative squares."""
    h = hodge_numbers(model)
    surface = max(p for p, _ in h) == 2
    names = [f"{base}:{c}" for c in LEFSCHETZ_CHECKS
             if surface or c != "hodge-index"]
    sigma = sum((-1) ** p * d for (p, q), d in h.items())
    counts = (2 * h.get((2, 0), 0) + 1, h[(1, 1)] - 1, 0)

    def check(code, report):
        out = _base_checks(code, report, names)
        if surface:
            _summary(report, f"{base}:signature", sigma, out)
            detail = next((c["detail"] for c in report.get("checks", [])
                           if c["name"] == f"{base}:hodge-index"), "")
            m = re.search(r"vs \((\d+), (\d+), (\d+)\)", detail)
            got = tuple(int(x) for x in m.groups()) if m else None
            if got != counts:
                out.append((f"middle pairing counts {got}, theory says "
                            f"{counts}", None))
        return out
    return check


def expect_llgen(model: str):
    """g2-kk: the closure on H^even (dim m = k+2) is so(phi), of
    dimension m(m-1)/2; over C, so(4) = sl2 + sl2 has minimal ideals
    [3, 3] and so(m) is simple for m = 3 or m >= 5.  s1s2-N: N commuting
    sl2 blocks, dimension 3N, minimal ideals [3] * N."""
    if model.startswith("g2-k"):
        m = int(model[4:]) + 2
        dim = m * (m - 1) // 2
        names = ("closure", "family-stability", "so-phi",
                 "killing-nondegenerate", "lambda-kernel", "ideal-census")
        mode, ideals = "even", [3, 3] if m == 4 else [dim]
    else:
        n = int(model[len("s1s2-N"):])
        dim = 3 * n
        names = ("closure", "family-stability", "ideal-census")
        mode, ideals = "full", [3] * n
    known = {f"{model}:ideal-census": "census"}

    def check(code, report):
        out = _base_checks(code, report, [f"{model}:{c}" for c in names],
                           known)
        _summary(report, f"{model}:dimension", dim, out)
        closure = next((c["detail"] for c in report.get("checks", [])
                        if c["name"] == f"{model}:closure"), "")
        if closure != f"dimension {dim} (mode {mode})":
            out.append((f"closure detail {closure!r}", None))
        _summary(report, f"{model}:minimal-ideals", ideals, out, "census")
        return out
    return check


# sl2(R) at any window: the trivial module has H^(0,0) and H^(1,1); the
# weight-2 discrete series D+ and D- each give one class, in (1,0) and
# (0,1) (p+ has weight 2); the adjoint has Casimir 4 and no cohomology.
SL2_MODULES = {
    "sl2-trivial": ({"0,0": 1, "1,1": 1}, "0"),
    "sl2-ds-plus": ({"1,0": 1}, "0"),
    "sl2-ds-minus": ({"0,1": 1}, "0"),
    "sl2-adjoint": ({}, "4"),
}


def expect_gkcoh(modules):
    names = ["pair:sl2R"] + [f"{m}:{c}" for m in modules
                             for c in GKCOH_MODULE_CHECKS]

    def check(code, report):
        out = _base_checks(code, report, names)
        _summary(report, "p-split-dims", [1, 1], out)
        for m in modules:
            hodge, casimir = SL2_MODULES[m]
            _summary(report, f"{m}:hodge", hodge, out)
            values = set(report.get("summary", {})
                         .get(f"{m}:casimir", {}).values())
            if values != {casimir}:
                out.append((f"{m}:casimir values {sorted(values)}, "
                            f"theory says {casimir}", None))
        return out
    return check


def expect_assemble(modules):
    """A genus-2 curve: h^(0,0) = h^(1,1) = 1, h^(1,0) = h^(0,1) = 2."""
    names = (["pair:sl2R"] + [f"{m}:validate" for m in modules]
             + [f"diamond:{c}" for c in DIAMOND_CHECKS])

    def check(code, report):
        out = _base_checks(code, report, names)
        _summary(report, "hodge-table",
                 {"0,0": 1, "0,1": 2, "1,0": 2, "1,1": 1}, out)
        _summary(report, "betti", [1, 4, 1], out)
        _summary(report, "flagged", [], out)
        return out
    return check
