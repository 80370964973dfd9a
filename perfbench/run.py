#!/usr/bin/env python3
"""Benchmark of hlk's verdict batteries.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --summary [--seed N] [--seconds S]

Run from the root of a checkout.  A workload (perfbench/workloads.py) is a
list of ``hlk`` CLI invocations over inputs generated from the seed.  One
client runs it in a closed loop, each invocation started after the
previous one returns, by calling ``hlk.cli.main(argv)`` in-process in a
fresh worker process (perfbench/worker.py), for whole passes until
``--seconds`` have gone by.  Every report is checked against answers
derived from theory (perfbench/oracle.py) and against the first pass's
report, outside ``timings``.  An invocation fails when it exits with a
status other than 0, raises, gives a verdict theory contradicts or
writes a report that differs from its first; failed_share is failed over
attempted invocations.  ``correct`` is false when any failure is not
wholly explained by a defect of the seed program listed in
``oracle.KNOWN_DEFECTS``; those failures still count and are listed.

``--trace 0`` reports the ``end_to_end`` metrics of BENCHMARK.json:

  wall_s             median seconds of one pass (the sum of its
                     invocations' times)
  slowest_battery_s  the largest per-invocation median, in seconds
  peak_rss_mb        ru_maxrss of the worker process after its first
                     pass
  setup_s            median, over nine worker processes started before
                     and after the measured one, of the seconds from
                     process start until the first invocation could
                     start (interpreter start, hlk import, input
                     generation and its inverse check)

``--trace 1`` runs every invocation of a pass twice in a row, untraced
and traced, and reports the ``per_layer`` metrics of the pass whose
traced time is the median (see perfbench/tracer.py), the tracing
overhead as traced over untraced time summed over every pass, and
writes the reported pass's spans to .perfbench/spans/.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it give the same numbers with quartiles, sample counts and every failed
verdict.  ``--summary`` runs every workload once untraced and prints each
metric beside the baseline recorded in perfbench/baseline.json, with its
unit and bound, and the verdict check.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
sys.path.insert(0, str(ROOT))

from perfbench import oracle, tracer, workloads  # noqa: E402

SETUPS = 9              # set-up samples per untraced run
DEADLINE_S = 170        # a run must end within 180 s


class BenchError(RuntimeError):
    pass


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def spawn(args, deadline):
    """Run one worker; returns its JSON result plus ``setup_s``."""
    work = tempfile.mkdtemp(prefix="work-", dir=OUT)
    env = dict(os.environ, PYTHONHASHSEED="0")
    cmd = [sys.executable, str(HERE / "worker.py"), "--work", work] + args
    try:
        start = time.monotonic()
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                              cwd=ROOT, timeout=max(1.0, deadline - start))
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker exceeded the deadline: {' '.join(args)}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}:\n"
                         + proc.stderr[-3000:])
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["setup_s"] = result["ready"] - start
    return result


def end_to_end(result, setups):
    walls = [p["wall"] for p in result["passes"]]
    per_inv = [statistics.median(d) for d in
               zip(*(p["durations"] for p in result["passes"]))]
    slow = max(range(len(per_inv)), key=per_inv.__getitem__)
    q1, q3 = _quartiles(walls)
    s1, s3 = _quartiles(setups)
    notes = {
        "wall_s": f"q1 {q1:.4f}  q3 {q3:.4f}  n={len(walls)} passes",
        "slowest_battery_s": f"{result['labels'][slow]}, n={len(walls)}",
        "peak_rss_mb": "ru_maxrss of the worker after its first pass",
        "setup_s": f"q1 {s1:.4f}  q3 {s3:.4f}  n={len(setups)} processes",
    }
    values = {
        "wall_s": statistics.median(walls),
        "slowest_battery_s": per_inv[slow],
        "peak_rss_mb": result["peak_rss_mb"],
        "setup_s": statistics.median(setups),
    }
    return values, notes


def per_layer(result):
    """Every per-layer value the traced pass gives, by metric name; a
    layer the workload leaves idle reads 0."""
    tr = result["trace"]
    spans = [t[2] for t in tracer.TARGETS] + [tracer.SCAN_SPAN]
    groups = set(spans) | {t[3] for t in tracer.TARGETS if t[3]} \
        | {tracer.layer_of(s) for s in spans}
    values = {f"{k}.calls": 0 for k in spans}
    values.update({f"{k}.self_s": 0.0 for k in groups})
    values.update({f"{k}.calls": v for k, v in tr["calls"].items()})
    values.update({f"{k}.self_s": v for k, v in tr["self_s"].items()})
    adds = tr["calls"].get("exactlin.span_add", 0)
    values.update({
        "exactlin.span_add.useful_ratio":
            tr["useful"].get("exactlin.span_add", 0) / adds if adds else 0.0,
        "exactlin.max_bits": tr["max_bits"],
        "bench.self_s": tr["uncovered_s"],
        "trace.wall_s": tr["wall"],
        "trace.untraced_wall_s": tr["untraced_wall"],
        "trace.overhead_ratio": tr["overhead"],
    })
    return values


def measure(bench, workload, seed, seconds, trace):
    deadline = time.monotonic() + DEADLINE_S
    OUT.mkdir(exist_ok=True)
    args = ["--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    lines = [f"workload {workload}  seed {seed}  one client, closed loop, "
             f"{'traced' if trace else 'untraced'}"]
    if trace:
        (OUT / "spans").mkdir(exist_ok=True)
        spans = OUT / "spans" / f"{workload}-seed{seed}.json"
        result = spawn(args + ["--spans", str(spans)], deadline)
        values = per_layer(result)
        specs = bench["per_layer"]
        notes = {}
        tr = result["trace"]
        layers = {k: v for k, v in tr["self_s"].items() if "." not in k}
        lines.append("traced pass self time by layer: " + ", ".join(
            f"{k} {v:.4f}" for k, v in sorted(layers.items()))
            + f"; outside any span {tr['uncovered_s']:.4f}; sum "
            f"{sum(layers.values()) + tr['uncovered_s']:.4f} s = traced "
            f"wall {tr['wall']:.4f} s")
        lines.append(
            f"tracing overhead: traced / untraced time over "
            f"{len(result['passes'])} paired passes = {tr['overhead']:.4f}; "
            f"in the reported pass {tr['wall']:.4f} s / "
            f"{tr['untraced_wall']:.4f} s")
        lines.append(f"spans of the reported pass: {spans.relative_to(ROOT)}")
    else:
        # set-up samples before and after the measured worker, so that
        # they see the machine at more than one moment
        def setup_only():
            return spawn(args + ["--setup-only"], deadline)["setup_s"]

        setups = [setup_only() for _ in range(SETUPS // 2)]
        result = spawn(args, deadline)
        setups.append(result["setup_s"])
        setups += [setup_only() for _ in range(SETUPS - 1 - SETUPS // 2)]
        values, notes = end_to_end(result, setups)
        specs = bench["end_to_end"]
    metrics = {}
    for spec in specs:
        name = spec["name"]
        value = values.get(name)
        if value is None:
            raise BenchError(f"no measurement for metric {name}")
        metrics[name] = {"value": value, "unit": spec["unit"]}
        lines.append(f"  {name:36s} {value:>14.6g} {spec['unit']:6s} "
                     f"{notes.get(name, '')}")
    attempted, failed = result["attempted"], result["failed"]
    lines.append(f"failed_share {failed}/{attempted} = "
                 f"{failed / attempted:.4f} (base: {attempted} invocations "
                 f"run, over {len(result['passes'])} passes of "
                 f"{len(result['labels'])})")
    lines.extend(f"FAILED x{n} {f}" for f, n in result["failures"])
    lines.extend(f"known defect {k}: {why}"
                 for k, why in oracle.KNOWN_DEFECTS.items()
                 if any(f"[known defect: {k}]" in f
                        for f, _ in result["failures"]))
    return {"correct": result["unexplained"] == 0, "attempted": attempted,
            "failed": failed, "metrics": metrics}, lines


def summary(bench, seed, seconds):
    """Baseline, units, bounds and reasons beside a fresh untraced run."""
    path = HERE / "baseline.json"
    base = json.loads(path.read_text()) if path.exists() else {}
    print(f"baseline: {base.get('recorded', 'none recorded')}")
    ok = True
    for wl in bench["workloads"]:
        res, lines = measure(bench, wl["name"], seed, seconds, 0)
        ok = ok and res["correct"]
        print(f"\n== {wl['name']}: {wl['why']}")
        print(f"  {'metric':20s} {'unit':6s} {'bound':>6s} "
              f"{'baseline':>12s} {'now':>12s}")
        for spec in bench["end_to_end"]:
            then = base.get("end_to_end", {}).get(wl["name"], {}) \
                .get(spec["name"], {}).get("median")
            now = res["metrics"][spec["name"]]["value"]
            print(f"  {spec['name']:20s} {spec['unit']:6s} {spec['bound']:6.2f} "
                  f"{then if then is not None else float('nan'):12.4f} "
                  f"{now:12.4f}")
        then = base.get("end_to_end", {}).get(wl["name"], {}) \
            .get("failed_share")
        if then:
            print(f"  baseline failed_share {then['failed']}/"
                  f"{then['attempted']} over {then['runs']} runs")
        for ln in lines:
            if ln.startswith(("failed_share", "FAILED", "known defect")):
                print(f"  {ln}")
    layer_base = base.get("per_layer", {})
    if layer_base:
        names = [wl["name"] for wl in bench["workloads"]]
        print("\nbaseline per-layer metrics (--trace 1):")
        print(f"  {'metric':36s} {'unit':6s} "
              + " ".join(f"{n:>12s}" for n in names))
        for spec in bench["per_layer"]:
            row = [layer_base.get(n, {}).get(spec["name"]) for n in names]
            print(f"  {spec['name']:36s} {spec['unit']:6s} " + " ".join(
                f"{v:12.6g}" if v is not None else f"{'-':>12s}" for v in row))
    print(f"\nverdict check: {'all workloads correct' if ok else 'FAILED'}")
    return 0 if ok else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None,
                    help="measuring time per run (default: run_seconds of "
                         "BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--summary", action="store_true",
                    help="run every workload once and compare with the "
                         "recorded baseline")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "hlk" / "cli.py").is_file():
        print(f"perfbench: no hlk sources under {ROOT / 'src'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.seconds is None:
        args.seconds = bench["run_seconds"]
    try:
        if args.summary:
            return summary(bench, args.seed, args.seconds)
        if args.workload not in workloads.NAMES:
            ap.error(f"--workload must be one of {', '.join(workloads.NAMES)}")
        result, lines = measure(bench, args.workload, args.seed,
                                args.seconds, args.trace)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
