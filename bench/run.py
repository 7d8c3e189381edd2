"""Benchmark of grassdr: end-to-end metrics per workload, or per-layer metrics when traced.

Usage (from the root of a checkout):

    python3 bench/run.py --workload {fig3,table1,shapes,shapes-large} \\
        --seed N --seconds S --trace {0,1}

Each run starts bench/worker.py as a fresh process with OpenBLAS and OpenMP
pinned to one thread and GRASSDR_THREADS unset, so that runs do not depend on
the thread pool's scheduling on a small machine. ``setup_s`` is measured
here, from just before that process starts to its first timed call into
``grassdr.cli.main``. Every metric is printed by name and unit, then the
environment, then, as the last line, one JSON object:
{"correct", "attempted", "failed", "metrics"}. Run outputs go to
bench/runs/<workload>-seed<N>-trace<T>/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import layers

BENCH = Path(__file__).resolve().parent
WORKLOADS = ("fig3", "table1", "shapes", "shapes-large")
WORKER_TIMEOUT_S = 170.0


def worker_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env.pop("GRASSDR_THREADS", None)
    return env


def start_worker(workload: str, seed: int, seconds: int, trace: bool, workdir: Path) -> tuple[float, dict]:
    """Run one worker process; return its start time and its result."""
    cmd = [sys.executable, str(BENCH / "worker.py"), workload, str(seed), str(seconds), "1" if trace else "0", str(workdir)]
    started = time.monotonic()
    proc = subprocess.Popen(cmd, env=worker_env(), stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise SystemExit(f"worker for {workload} did not finish within {WORKER_TIMEOUT_S:.0f} s")
    if proc.returncode != 0:
        raise SystemExit(f"worker for {workload} exited with code {proc.returncode}")
    lines = out.strip().splitlines()
    if not lines:
        raise SystemExit(f"worker for {workload} printed no result")
    return started, json.loads(lines[-1])


def end_to_end(result: dict, started: float) -> dict:
    return {
        "setup_s": {"value": result["first_call"] - started, "unit": "s"},
        "wall_s": {"value": result["wall_s"], "unit": "s"},
        "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
        "ev_mean": {"value": result["ev_mean"], "unit": "ratio"},
    }


def per_layer(result: dict) -> dict:
    return {name: {"value": result["per_layer"][name], "unit": unit} for name, unit, _ in layers.metric_names()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workdir = BENCH / "runs" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir.mkdir(parents=True, exist_ok=True)
    started, result = start_worker(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    metrics = per_layer(result) if args.trace else end_to_end(result, started)
    if not all(math.isfinite(m["value"]) for m in metrics.values()):
        raise SystemExit(f"non-finite metric in {metrics}")

    for problem in result["problems"]:
        print(f"CHECK FAILED: {problem}")
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']!r} {metric['unit']}")
    rounds = result["round_s"]
    print(f"rounds = {len(rounds)}, round_s = {[round(t, 4) for t in rounds]}, wall_s (median) = {result['wall_s']!r}")
    print(f"env = {json.dumps(result['env'], sort_keys=True)}")
    summary = {
        "correct": not result["problems"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }
    (workdir / "result.json").write_text(json.dumps({**result, "metrics": metrics}, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
