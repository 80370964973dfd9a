#!/usr/bin/env python3
"""Compare two sets of ``run_all`` reports outside their ``timings``.

Usage: python scripts/compare_reports.py A B

A and B are report directories written by ``scripts/run_all.py`` (its
OUT/reports), or the OUT directories themselves.  Input paths are
reduced to their file names, since the two sets were written under
different output directories.  Prints one line per differing or
unmatched report and exits 1 if there is any, 0 otherwise; exits 2
when a directory holds no reports.
"""

import json
import os
import sys


def load_reports(path):
    if os.path.isdir(os.path.join(path, "reports")):
        path = os.path.join(path, "reports")
    out = {}
    for name in sorted(os.listdir(path)):
        if not name.endswith(".json"):
            continue
        with open(os.path.join(path, name), encoding="utf-8") as fh:
            doc = json.load(fh)
        doc.pop("timings", None)
        for entry in doc.get("inputs", []):
            entry["path"] = os.path.basename(entry["path"])
        out[name] = doc
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    a, b = (load_reports(p) for p in argv)
    for path, reports in zip(argv, (a, b)):
        if not reports:
            print(f"no reports in {path}", file=sys.stderr)
            return 2
    bad = 0
    for name in sorted(set(a) | set(b)):
        if name not in a or name not in b:
            print(f"{name}: only in {argv[0] if name in a else argv[1]}")
            bad += 1
        elif a[name] != b[name]:
            print(f"{name}: differs outside timings")
            bad += 1
    print(f"{len(set(a) | set(b))} reports, {bad} differ")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
