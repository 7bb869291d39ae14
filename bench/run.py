"""Benchmark of zetametrics: one workload, one seed, one result line.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source tree; the program is loaded from ``src/``.
With ``--trace 0`` the workload is set up in several fresh interpreters
(the median is ``setup_s``) and the last one runs timed passes for
``--seconds`` and checks their outputs.  With ``--trace 1`` one
interpreter runs the workload with per-layer wrappers and reports their
counters.  The last line of standard output is the result as JSON; a copy,
with the raw timings and the machine, is appended to
``.bench_results/results.jsonl``.  See README.md.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True

from workloads import WORKLOADS  # noqa: E402  (stdlib-only module)

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
TIME_LIMIT_S = 170.0


class WorkerError(Exception):
    pass


def spawn(args, role, env, deadline):
    """Run worker.py in a fresh interpreter; returns its record, with
    ``setup_s`` measured from just before the interpreter was started."""
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--role", role]
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"{role} worker passed the {TIME_LIMIT_S:.0f} s limit") from exc
    lines = proc.stdout.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"{role} worker exited with code {proc.returncode}")
    record = json.loads(lines[-1])
    record["setup_s"] = record["setup_done"] - t0
    return record


def measure(args, env, deadline):
    setups = [spawn(args, "setup", env, deadline)["setup_s"]
              for _ in range(WORKLOADS[args.workload].setups - 1)]
    rec = spawn(args, "run", env, deadline)
    setups.append(rec["setup_s"])
    metrics = {
        "pass_s": (statistics.median(rec["pass_s"]), "s"),
        "item_p50_s": (statistics.median(rec["item_s"]), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (rec["peak_rss_mb"], "MB"),
    }
    result = {"correct": rec["correct"], "attempted": rec["attempted"],
              "failed": rec["failed"],
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    raw = {"pass_s": rec["pass_s"], "item_s": rec["item_s"], "setup_s": setups,
           "numpy": rec["numpy"]}
    return result, raw


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if not (SRC / "zetametrics" / "__init__.py").is_file():
        print(f"run.py: no zetametrics sources under {SRC}", file=sys.stderr)
        return 2
    # single-threaded workers, numpy's BLAS pool included; no bytecode
    # files, so every set-up compiles the same sources
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONDONTWRITEBYTECODE="1",
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    deadline = time.monotonic() + TIME_LIMIT_S
    try:
        if args.trace:
            rec = spawn(args, "trace", env, deadline)
            result = {k: rec[k] for k in ("correct", "attempted", "failed", "metrics")}
            raw = {"setup_s": rec["setup_s"], "numpy": rec["numpy"]}
        else:
            result, raw = measure(args, env, deadline)
    except WorkerError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "result": result, "raw": raw,
              "machine": {"machine": platform.machine(), "nproc": os.cpu_count(),
                          "python": platform.python_version()}}
    out_dir = ROOT / ".bench_results"
    out_dir.mkdir(exist_ok=True)
    with open(out_dir / "results.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
