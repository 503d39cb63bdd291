"""Benchmark of the exact scattering route: time to an accurate answer.

    python3 perfbench/run.py --workload energy-small-gap --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload force-stencil --seed 1 --trace 1
    python3 perfbench/run.py --workload all      # every workload, one table

Run from the root of a checkout; the package is imported from its ``src/``.
Each workload runs in a fresh worker process with BLAS pinned to one thread:
a closed loop with one client.  ``--trace 0`` prints the end-to-end metrics
and ``--trace 1`` the per-layer ones.  Failed operations are reported on
stderr as they are found.  The line before last on stdout is the run record
(environment fingerprint, seed, operation order, pass times); the last line
is one JSON object with the keys correct, attempted, failed and metrics.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from worker import ROOT, THREAD_PINS
from workloads import SMOKE, WORKLOADS

WORKER = Path(__file__).resolve().parent / "worker.py"
SETUP_RUNS = 2            # timed fresh processes before and again after the
                          # workload, so that their median spans the run
RUN_BUDGET = 170          # seconds one workload run may take, all children


class BenchError(Exception):
    pass


def _child(args: list[str], deadline: float) -> subprocess.CompletedProcess:
    env = {**os.environ, **THREAD_PINS}
    timeout = deadline - time.monotonic()
    try:
        done = subprocess.run([sys.executable, str(WORKER), *args], cwd=ROOT,
                              env=env, stdout=subprocess.PIPE, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {args} overran the {RUN_BUDGET} s budget") from None
    if done.returncode != 0:
        raise BenchError(f"worker {args} exited with {done.returncode}")
    return done


def setup_times(count: int, deadline: float) -> list[float]:
    """Wall times of fresh import-and-warm-up processes."""
    times = []
    for _ in range(count):
        t0 = time.perf_counter()
        _child(["--setup"], deadline)
        times.append(time.perf_counter() - t0)
    return times


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    args = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace)]
    deadline = time.monotonic() + RUN_BUDGET
    if trace:
        return json.loads(_child(args, deadline).stdout.splitlines()[-1])
    setup_times(1, deadline)     # untimed: fills the file cache and __pycache__
    setup = setup_times(SETUP_RUNS, deadline)
    out = json.loads(_child(args, deadline).stdout.splitlines()[-1])
    setup += setup_times(SETUP_RUNS, deadline)
    out["setup_times"] = setup
    metrics = out["metrics"]
    metrics["setup_s"] = {"value": statistics.median(setup), "unit": "s"}
    metrics["pass_share"] = {
        "value": 1.0 - out["failed"] / out["attempted"], "unit": "share"}
    return out


def record(out: dict) -> dict:
    keep = ("workload", "seed", "order", "passes", "passed", "setup_times",
            "fingerprint", "traced_pass", "self_sum_s", "trace_file")
    return {k: out[k] for k in keep if k in out}


def summary(out: dict) -> str:
    parts = [f"{k}={m['value']:.6g} {m['unit']}" if m["value"] is not None
             else f"{k} absent ({m['absent']})"
             for k, m in out["metrics"].items()
             if k in ("wall_s", "setup_s", "peak_rss_mb")]
    parts.append(f"fail_share={out['failed'] / out['attempted']:.6g} share "
                 f"({out['failed']}/{out['attempted']})")
    return f"{out['workload']}: " + "  ".join(parts)


def result_line(correct: bool, attempted: int, failed: int,
                metrics: dict) -> str:
    return json.dumps({"correct": correct, "attempted": attempted,
                       "failed": failed, "metrics": metrics})


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=sorted(WORKLOADS) + sorted(SMOKE) + ["all"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "casimir_cylinders" / "__init__.py").is_file():
        print(f"error: {ROOT} holds no src/casimir_cylinders", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        outs = [run_workload(n, args.seed, args.seconds, args.trace)
                for n in names]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for out in outs:
        print(summary(out) if not args.trace else out["workload"])
    attempted = sum(o["attempted"] for o in outs)
    failed = sum(o["failed"] for o in outs)
    if len(outs) == 1:
        metrics = outs[0]["metrics"]
    else:
        metrics = {f"{o['workload']}.{k}": m
                   for o in outs for k, m in o["metrics"].items()}
    print(json.dumps({"run": [record(o) for o in outs]}))
    print(result_line(failed == 0, attempted, failed, metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
