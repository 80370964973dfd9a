#!/usr/bin/env python3
"""Compare two checkouts on one benchmark workload inside one process.

Usage: python scripts/ab_inproc.py PARENT_DIR CHANGE_DIR --workload W
           [--seed N] [--reps R]

A development aid for a quick comparison; ``scripts/bench_pairs.py``,
which runs each side in its own processes as the benchmark does, stays
the evidence for a speed claim.  Both sides run in one interpreter, so
drift between processes and machines does not enter the comparison.

Each checkout's ``src/hlk`` is copied into a temporary directory under
its own package name (``hlk_parent``, ``hlk_change``); every import
inside ``hlk`` is relative, so the copies load side by side.  The
workload's inputs are built once with PARENT_DIR's
``perfbench.workloads.prepare``.  Every repetition then runs each
invocation on both sides back to back, the side that goes first
alternating from one invocation to the next and from one repetition to
the next, so a change of machine speed during a run falls on both sides
alike.  Each invocation is timed after a full garbage collection.  A
side's pass time is the sum of its invocations in one repetition.

Prints the median seconds of each invocation and of a whole pass on
each side, the change in percent, the median of the paired
change/parent ratios and the repetitions the change wins, then one JSON
line with the same numbers.  Exits 1 when the two sides' reports differ
outside ``timings`` or their exit statuses differ, 0 otherwise.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

SIDES = ("parent", "change")


def load_main(checkout: Path, side: str, tmp: str):
    """``cli.main`` of the copy of ``checkout``'s hlk named hlk_<side>."""
    shutil.copytree(checkout / "src" / "hlk", os.path.join(tmp, f"hlk_{side}"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    return importlib.import_module(f"hlk_{side}.cli").main


def run_one(main, inv, report: str):
    """One invocation; returns its seconds and exit status.  A full
    collection runs first, so that a collection which earlier
    invocations' garbage would set off does not land inside this one."""
    sink = io.StringIO()
    argv = inv.argv + ["--report", report]
    gc.collect()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        code = main(argv)
    return time.perf_counter() - t0, code


def read_report(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    doc.pop("timings", None)
    return doc


def summary(parent, change) -> dict:
    """Medians, percent change and wins of paired timings."""
    pm, cm = statistics.median(parent), statistics.median(change)
    return {"parent": pm, "change": cm,
            "change_pct": 100 * (cm - pm) / pm if pm else 0.0,
            "ratio": statistics.median(c / p for p, c in zip(parent, change)),
            "wins": sum(c < p for p, c in zip(parent, change))}


def compare(invs, main, work: str, reps: int):
    """Run ``reps`` repetitions, alternating sides per invocation;
    returns the per-invocation timings of each side and the labels whose
    reports or statuses differ."""
    dirs = {side: os.path.join(work, f"reports-{side}") for side in SIDES}
    times = {side: [] for side in SIDES}       # per repetition, per inv
    codes = {side: [] for side in SIDES}
    for d in dirs.values():
        os.makedirs(d)
    for rep in range(reps):
        for side in SIDES:
            times[side].append([])
            codes[side].append([])
        for k, inv in enumerate(invs):
            for side in (SIDES if (rep + k) % 2 == 0 else SIDES[::-1]):
                seconds, status = run_one(
                    main[side], inv, os.path.join(dirs[side], f"{k:02d}.json"))
                times[side][-1].append(seconds)
                codes[side][-1].append(status)
    differ = [inv.label for k, inv in enumerate(invs)
              if [c[k] for c in codes["parent"]] !=
              [c[k] for c in codes["change"]]
              or read_report(os.path.join(dirs["parent"], f"{k:02d}.json"))
              != read_report(os.path.join(dirs["change"], f"{k:02d}.json"))]
    return times, differ


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=11)
    ap.add_argument("--reps", type=int, default=20)
    args = ap.parse_args(argv)
    checkouts = {"parent": args.parent.resolve(),
                 "change": args.change.resolve()}
    tmp = tempfile.mkdtemp(prefix="ab-inproc-")
    sys.path[:0] = [tmp, str(checkouts["parent"])]
    try:
        from perfbench import workloads

        main_of = {side: load_main(checkouts[side], side, tmp)
                   for side in SIDES}
        invs = workloads.prepare(args.workload, args.seed,
                                 os.path.join(tmp, "work"),
                                 main_of["parent"])
        times, differ = compare(invs, main_of, tmp, args.reps)
    finally:
        del sys.path[:2]
        for name in list(sys.modules):
            if name.split(".")[0] in ("hlk_parent", "hlk_change"):
                del sys.modules[name]
        shutil.rmtree(tmp, ignore_errors=True)

    out = {"workload": args.workload, "seed": args.seed, "reps": args.reps,
           "invocations": {}, "pass": None, "differ": differ}
    print(f"workload {args.workload}, seed {args.seed}, {args.reps} "
          f"repetitions alternating per invocation, median seconds and "
          f"median paired change/parent ratio")
    print(f"  {'':24s} {'parent':>9s} {'change':>9s} {'change':>8s} "
          f"{'ratio':>6s} wins")
    rows = [(inv.label, [t[k] for t in times["parent"]],
             [t[k] for t in times["change"]]) for k, inv in enumerate(invs)]
    rows.append(("pass", [sum(t) for t in times["parent"]],
                 [sum(t) for t in times["change"]]))
    for label, parent, change in rows:
        s = summary(parent, change)
        if label == "pass":
            out["pass"] = s
        else:
            out["invocations"][label] = s
        print(f"  {label:24s} {s['parent']:9.4f} {s['change']:9.4f} "
              f"{s['change_pct']:+7.1f}% {s['ratio']:6.3f} "
              f"{s['wins']}/{args.reps}")
    print(f"{len(invs)} reports, {len(differ)} differ"
          + "".join(f"\n  {label}: differs outside timings"
                    for label in differ))
    print(json.dumps(out))
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
