"""One benchmark process: set up a workload, then run it in a closed loop.

Started by run.py in a fresh interpreter, so interpreter start, the
``hlk`` import and input generation all count toward set-up.  Prints one
JSON line with the raw measurements; run.py turns them into metrics.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S
        --trace 0|1 --work DIR [--spans FILE] [--setup-only]
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from hlk import cli  # noqa: E402
from perfbench import tracer, workloads  # noqa: E402

MAX_LISTED = 20


def run_one(inv):
    """One invocation; returns (seconds, exit status or exception text).

    ``cli.main`` is looked up on every call so that a traced run goes
    through the patched binding.
    """
    with contextlib.suppress(FileNotFoundError):
        os.remove(inv.report)
    sink = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        try:
            code = cli.main(inv.argv + ["--report", inv.report])
        except Exception as exc:  # a traceback fails the invocation
            code = f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - t0, code


def plain_pass(invs, verdicts):
    """Every invocation once; a pass's wall time is the sum of their times."""
    durations = []
    for k, inv in enumerate(invs):
        seconds, code = run_one(inv)
        verdicts.check(k, code)
        durations.append(seconds)
    return {"wall": sum(durations), "durations": durations}


def paired_pass(invs, verdicts, trace, traced_first):
    """Every invocation twice in a row, untraced and traced, so both runs
    see the same machine; returns the untraced and traced walls and the
    aggregate of the traced runs' spans."""
    walls = {False: 0.0, True: 0.0}
    for k, inv in enumerate(invs):
        for tracing in ((True, False) if traced_first else (False, True)):
            if tracing:
                trace.install()
            try:
                seconds, code = run_one(inv)
            finally:
                if tracing:
                    trace.uninstall()
            verdicts.check(k, code)
            walls[tracing] += seconds
    agg = trace.aggregate(walls[True])
    agg.update(wall=walls[True], untraced_wall=walls[False])
    return agg


class Verdicts:
    """Oracle and determinism checks over every invocation run."""

    def __init__(self, invs):
        self.invs = invs
        self.first = [None] * len(invs)
        self.attempted = 0
        self.failed = 0
        self.unexplained = 0     # failures not wholly due to a known defect
        self.failures = Counter()

    def check(self, k, code):
        """Check the report invocation ``k`` just wrote."""
        inv = self.invs[k]
        self.attempted += 1
        try:
            with open(inv.report, encoding="utf-8") as fh:
                report = json.load(fh)
        except (OSError, ValueError):
            report = {}
        report.pop("timings", None)
        if isinstance(code, int):
            problems = inv.check(code, report)
        else:
            problems = [(f"raised {code}", None)]
        canon = json.dumps(report, sort_keys=True)
        if self.first[k] is None:
            self.first[k] = canon
        elif canon != self.first[k]:
            problems.append(("report differs from the first run outside "
                             "timings", None))
        if problems:
            self.failed += 1
            if any(defect is None for _, defect in problems):
                self.unexplained += 1
            line = f"{inv.label}: " + "; ".join(
                text + (f" [known defect: {defect}]" if defect else "")
                for text, defect in problems)
            if line in self.failures or len(self.failures) < MAX_LISTED:
                self.failures[line] += 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--work", required=True)
    ap.add_argument("--spans", default=None)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    invs = workloads.prepare(args.workload, args.seed, args.work, cli.main)
    ready = time.monotonic()
    out = {"ready": ready, "labels": [inv.label for inv in invs]}
    if args.setup_only:
        print(json.dumps(out))
        return 0

    verdicts = Verdicts(invs)
    trace = tracer.Tracer() if args.trace else None
    passes, lengths = [], []
    peak_rss_mb = None
    begin = time.perf_counter()
    while True:
        gc.collect()
        t0 = time.perf_counter()
        if trace is None:
            passes.append(plain_pass(invs, verdicts))
        else:
            trace.reset()
            passes.append(paired_pass(invs, verdicts, trace,
                                      len(passes) % 2 == 1))
            passes[-1]["spans"] = trace.spans
        lengths.append(time.perf_counter() - t0)
        if peak_rss_mb is None:
            # after one pass every input has been loaded and every battery
            # run; read then, the peak does not grow with the pass count
            # (lefschetz._CONTEXTS, keyed on id(algebra), keeps every
            # algebra it has seen)
            peak_rss_mb = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024
        # start another pass only if one like it still fits in --seconds;
        # traced passes come in pairs, one of each order, so that the
        # second run of an invocation being faster cancels out
        if trace is not None and len(passes) % 2:
            continue
        step = statistics.median(lengths) * (1 if trace is None else 2)
        if time.perf_counter() - begin + step > args.seconds:
            break

    out.update(attempted=verdicts.attempted, failed=verdicts.failed,
               unexplained=verdicts.unexplained,
               failures=sorted(verdicts.failures.items()),
               peak_rss_mb=peak_rss_mb)
    if trace is None:
        out["passes"] = passes
    else:
        # the pass of median traced wall time stands for the workload
        keep = statistics.median_low(p["wall"] for p in passes)
        chosen = next(p for p in passes if p["wall"] == keep)
        trace.spans = chosen.pop("spans")
        # tracing overhead over every pair run, the run's best estimate
        chosen["overhead"] = sum(p["wall"] for p in passes) / \
            sum(p["untraced_wall"] for p in passes)
        out["trace"] = chosen
        out["passes"] = [{"wall": p["wall"], "untraced_wall":
                          p["untraced_wall"]} for p in passes]
        if args.spans:
            trace.write(args.spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
