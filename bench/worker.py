"""One workload in a fresh interpreter; started by ``run.py``.

Roles:
  setup  set up, print the moment set-up ended, exit;
  run    set up, run whole timed passes until --seconds have passed, then
         check the outputs untimed;
  trace  set up and run one pass with the per-layer wrappers installed,
         and one pass without them, to report the tracing overhead.

The last line of standard output is one JSON object for ``run.py``.
Timestamps are ``time.perf_counter()``, which on Linux reads the
system-wide monotonic clock, so the parent can subtract its own.
"""

import argparse
import json
import resource
import sys
import time
import traceback

import numpy

import layer_trace
from workloads import WORKLOADS


def run_pass(items):
    """Run every item once; returns (pass_s, item times, outputs, failures)."""
    outputs, times, failed = {}, [], 0
    t0 = time.perf_counter()
    for name, fn in items:
        ti = time.perf_counter()
        try:
            outputs[name] = fn()
        except Exception:
            traceback.print_exc()
            failed += 1
        times.append(time.perf_counter() - ti)
    return time.perf_counter() - t0, times, outputs, failed


def run_checks(workload, outputs):
    """Returns (checks attempted, checks missed)."""
    attempted = missed = 0
    try:
        for name, ok, detail in workload.checks(outputs):
            attempted += 1
            if not ok:
                missed += 1
                print(f"CHECK MISSED {name}: {detail}", file=sys.stderr)
    except Exception:
        traceback.print_exc()
        attempted += 1
        missed += 1
    return attempted, missed


def role_run(workload, seconds):
    items = workload.items()
    pass_s, item_s, first, failed, mismatched = [], [], None, 0, 0
    start = time.perf_counter()
    while not pass_s or time.perf_counter() - start < seconds:
        dt, times, outputs, f = run_pass(items)
        pass_s.append(dt)
        item_s += times
        failed += f
        if first is None:
            first = outputs
        else:
            # the program is deterministic: every pass must repeat the first
            for name, out in outputs.items():
                if first.get(name) != out:
                    mismatched += 1
                    print(f"PASS MISMATCH {name}", file=sys.stderr)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    attempted, missed = run_checks(workload, first)
    return {"pass_s": pass_s, "item_s": item_s, "peak_rss_mb": peak_rss_mb,
            "attempted": len(pass_s) * len(items) + attempted,
            "failed": failed + mismatched + missed,
            "correct": mismatched == 0 and missed == 0}


def role_trace(workload, tracer):
    tracer.uninstall()
    items = workload.items()
    untraced, _, _, f1 = run_pass(items)
    tracer.install()
    traced, _, _, f2 = run_pass(items)
    tracer.uninstall()
    stats = tracer.report()
    stats["trace.pass_s"] = traced
    stats["trace.overhead_s"] = traced - untraced
    missing = [m for m in layer_trace.EXPECTED_NONZERO[workload.name] if not stats[m] > 0]
    for m in missing:
        print(f"LAYER METRIC IS ZERO {m}", file=sys.stderr)
    return {"metrics": {name: {"value": stats[name], "unit": unit}
                        for name, unit in layer_trace.METRICS},
            "attempted": 2 * len(items) + len(layer_trace.EXPECTED_NONZERO[workload.name]),
            "failed": f1 + f2 + len(missing), "correct": not missing}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--role", required=True, choices=["setup", "run", "trace"])
    args = ap.parse_args()
    workload = WORKLOADS[args.workload](args.seed)
    tracer = None
    if args.role == "trace":
        tracer = layer_trace.Tracer()
        tracer.install()
    workload.setup()
    out = {"setup_done": time.perf_counter()}
    if args.role == "run":
        out.update(role_run(workload, args.seconds))
    elif args.role == "trace":
        out.update(role_trace(workload, tracer))
    if args.role != "setup":
        out["numpy"] = numpy.__version__
    print(json.dumps(out))


if __name__ == "__main__":
    main()
