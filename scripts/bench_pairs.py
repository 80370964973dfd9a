#!/usr/bin/env python3
"""Compare two checkouts on one benchmark workload in interleaved pairs.

Usage: python scripts/bench_pairs.py PARENT_DIR CHANGE_DIR --workload W
           [--claim METRIC ...]

Runs ``perfbench/run.py --workload W --seed N --trace 0`` from each
checkout, as that checkout has it, for seeds 1 to 10: the parent first
on odd seeds, the change first on even ones, each run as long as the
benchmark's ``run_seconds``.  Each seed's line gives the two runs'
end-to-end metrics and, for each side, whether the oracle found the run
correct and the share of its invocations that failed.  For each
end-to-end metric of PARENT_DIR/BENCHMARK.json it then prints the
per-seed pairs, each side's median and quartiles, the pairs the change
wins and a verdict:

  gain met / gain not met   for a ``--claim`` metric: the change wins at
                            least nine tenths of the pairs (ties count
                            for neither), its median beats the parent's
                            by more than the parent's interquartile
                            range, and no larger share of invocations
                            fails
  better                    every change run beats every parent run
  unresolved                the parent's interquartile range exceeds
                            the metric's bound (relative to its median)
  regression                the change's median is worse than the
                            parent's by more than the bound
  no regression             otherwise

The last line of standard output is one JSON object with every run's
values, ``correct`` and ``failed_share`` per side and seed, and each
metric's verdict.  Exits 1 when a run fails or a claim is not met, or a
metric regressed; 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SEEDS = range(1, 11)
WIN_SHARE = 0.9


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def verdict(parent, change, better, bound, claimed, failed_more=False):
    """The verdict on one metric over paired runs.

    ``parent`` and ``change`` are the values of run k of each side;
    ``better`` is "lower" or "higher"; ``bound`` is the benchmark's
    regression bound as a share of the parent's median; ``failed_more``
    says the change failed a larger share of invocations.  Returns the
    medians, quartiles, wins and the verdict string."""
    sign = 1 if better == "lower" else -1
    wins = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    pm, cm = statistics.median(parent), statistics.median(change)
    (p1, p3), (c1, c3) = quartiles(parent), quartiles(change)
    gain = sign * (pm - cm)           # positive when the change is better
    if claimed:
        met = (wins >= WIN_SHARE * len(parent) and gain > p3 - p1
               and not failed_more)
        word = "gain met" if met else "gain not met"
    elif all(sign * (c - p) < 0 for p in parent for c in change):
        word = "better"
    elif p3 - p1 > bound * abs(pm):
        word = "unresolved"
    elif -gain > bound * abs(pm):
        word = "regression"
    else:
        word = "no regression"
    return {"parent_median": pm, "parent_q1": p1, "parent_q3": p3,
            "change_median": cm, "change_q1": c1, "change_q3": c3,
            "wins": wins, "pairs": len(parent), "verdict": word}


def failed_share(run) -> float:
    """The share of a run's invocations that failed."""
    return run["failed"] / run["attempted"] if run["attempted"] else 0.0


def run_status(run) -> str:
    """A run's oracle verdict and failed share, as printed per seed."""
    return (f"correct {str(run['correct']).lower()}, failed "
            f"{run['failed']}/{run['attempted']} = {failed_share(run):.4f}")


def run_one(checkout: Path, workload: str, seed: int):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{checkout}: seed {seed} exited "
                           f"{proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--claim", action="append", default=[],
                    help="an end-to-end metric whose gain is claimed")
    args = ap.parse_args(argv)
    bench = json.loads((args.parent / "BENCHMARK.json").read_text())
    specs = bench["end_to_end"]
    unknown = set(args.claim) - {s["name"] for s in specs}
    if unknown:
        ap.error(f"--claim names no end-to-end metric: {sorted(unknown)}")
    sides = {"parent": args.parent, "change": args.change}
    runs = {"parent": [], "change": []}
    for seed in SEEDS:
        order = ("parent", "change") if seed % 2 else ("change", "parent")
        for side in order:
            try:
                runs[side].append(run_one(sides[side], args.workload, seed))
            except RuntimeError as exc:
                print(f"bench_pairs: {exc}", file=sys.stderr)
                return 1
        last = {side: rs[-1] for side, rs in runs.items()}
        print(f"seed {seed}: " + "  ".join(
            f"{n} {last['parent']['metrics'][n]['value']:.4g} -> "
            f"{last['change']['metrics'][n]['value']:.4g}"
            for n in last["parent"]["metrics"]) + "  | " + ", ".join(
            f"{side} {run_status(r)}" for side, r in last.items()),
            flush=True)
    failed = {side: [sum(r["failed"] for r in rs),
                     sum(r["attempted"] for r in rs)]
              for side, rs in runs.items()}
    failed_more = failed["change"][0] * failed["parent"][1] > \
        failed["parent"][0] * failed["change"][1]
    out = {"workload": args.workload, "seeds": list(SEEDS),
           "seconds": bench["run_seconds"], "failed": failed,
           "correct": {side: [r["correct"] for r in rs]
                       for side, rs in runs.items()},
           "failed_share": {side: [failed_share(r) for r in rs]
                            for side, rs in runs.items()},
           "metrics": {}}
    ok = True
    print(f"\nworkload {args.workload}: {len(SEEDS)} pairs, odd seeds "
          f"parent first, {out['seconds']} s runs")
    for spec in specs:
        name = spec["name"]
        values = {side: [r["metrics"][name]["value"] for r in rs]
                  for side, rs in runs.items()}
        v = verdict(values["parent"], values["change"], spec["better"],
                    spec["bound"], name in args.claim, failed_more)
        ok = ok and v["verdict"] not in ("gain not met", "regression")
        out["metrics"][name] = dict(v, **values)
        print(f"\n{name} ({spec['unit']}, {spec['better']} is better, "
              f"bound {spec['bound']})")
        for seed, p, c in zip(SEEDS, values["parent"], values["change"]):
            print(f"  seed {seed:2d}  parent {p:10.4f}  change {c:10.4f}")
        for side in ("parent", "change"):
            print(f"  {side:6s} median {v[side + '_median']:10.4f}  "
                  f"q1 {v[side + '_q1']:10.4f}  q3 {v[side + '_q3']:10.4f}")
        print(f"  change wins {v['wins']}/{v['pairs']}: {v['verdict']}")
    print(f"\nfailed invocations: parent {failed['parent'][0]}/"
          f"{failed['parent'][1]}, change {failed['change'][0]}/"
          f"{failed['change'][1]}")
    print(json.dumps(out))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
