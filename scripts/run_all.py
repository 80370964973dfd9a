#!/usr/bin/env python3
"""Regenerate the whole example catalog and run every check suite on it.

Writes catalog files to OUT/catalog, machine reports to OUT/reports, and
prints one line per suite.  Exits nonzero if any suite fails.

Usage: python scripts/run_all.py [--out out]
"""

import argparse
import contextlib
import io
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from hlk.cli import main as hlk  # noqa: E402

CATALOG = [
    ["catalog", "torus"],
    ["catalog", "abelian-surface"],
    ["catalog", "k3-mock"],
    ["catalog", "g2-family", "--k", "2"],
    ["catalog", "g2-family", "--k", "3"],
    ["catalog", "g2-family", "--k", "4"],
    ["catalog", "g2-family", "--k", "5"],
    ["catalog", "g2-family", "--k", "6"],
    ["catalog", "s1s2", "--n", "3"],
    ["catalog", "s1s2", "--n", "5"],
    ["catalog", "genus2-suite"],
    ["catalog", "sl2-adjoint"],
    ["catalog", "sl2-product-pair"],
]


def suites(cat):
    def p(name):
        return os.path.join(cat, name)

    yield "validate-all", ["validate"] + sum(
        (["--input", p(f)] for f in sorted(os.listdir(cat))), [])
    for alg in ("torus", "abelian-surface", "k3-mock", "g2-k2", "g2-k3",
                "g2-k4", "g2-k5", "g2-k6"):
        yield f"lefschetz-{alg}", ["lefschetz", "--input",
                                   p(f"{alg}.algebra.json")]
    for alg in ("g2-k2", "g2-k3", "g2-k4", "g2-k5", "g2-k6",
                "s1s2-N3", "s1s2-N5"):
        yield f"llgen-{alg}", ["llgen", "--input", p(f"{alg}.algebra.json")]
    yield "gkcoh-sl2", ["gkcoh", "--input", p("sl2R.pair.json"),
                        "--input", p("sl2-trivial.module.json"),
                        "--input", p("sl2-ds-plus.module.json"),
                        "--input", p("sl2-ds-minus.module.json"),
                        "--input", p("sl2-adjoint.module.json")]
    yield "assemble-genus2", ["assemble", "--input", p("sl2R.pair.json"),
                              "--input", p("sl2-trivial.module.json"),
                              "--input", p("sl2-ds-plus.module.json"),
                              "--input", p("sl2-ds-minus.module.json"),
                              "--input", p("genus2.spectrum.json")]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--out", default="out")
    args = parser.parse_args(argv)
    cat = os.path.join(args.out, "catalog")
    rep = os.path.join(args.out, "reports")
    os.makedirs(rep, exist_ok=True)
    for cmd in CATALOG:
        code = hlk(cmd + ["--out-dir", cat])
        if code != 0:
            print(f"catalog generation failed: {cmd}")
            return code
    worst = 0
    for name, argv in suites(cat):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = hlk(argv + ["--report", os.path.join(rep, f"{name}.json")])
        status = "ok" if code == 0 else f"EXIT {code}"
        print(f"{name:24s} {status}")
        if code != 0:
            sys.stdout.write(buf.getvalue())
            worst = max(worst, code)
    print(f"\nreports in {rep}")
    return worst


if __name__ == "__main__":
    sys.exit(main())
