"""One benchmark run of one workload, in a fresh process started by run.py.

Usage: python3 bench/worker.py WORKLOAD SEED SECONDS TRACE WORKDIR

Imports grassdr from the checkout's ``src``, writes the workload's inputs,
then calls ``grassdr.cli.main`` in whole rounds (one call per input file)
until the next round would end after SECONDS (at least one round). The peak resident
memory is read as the timed phase ends; the checks run after it. The last
line of standard output is one JSON object for run.py.
"""

from __future__ import annotations

import ctypes
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import checks
import layers
import workloads

ROOT = Path(__file__).resolve().parents[1]


def import_program():
    """Import grassdr from this checkout only, never from an installed copy."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import grassdr

    if src.resolve() not in Path(grassdr.__file__).resolve().parents:
        raise ImportError(f"grassdr was imported from {grassdr.__file__}, not from {src}")
    import grassdr.cli  # noqa: F401  (loads every module the tracer wraps)

    return grassdr


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS library loaded by numpy, if it exposes one."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and "/" in line}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_"):
            func = getattr(lib, symbol, None)
            if func is not None:
                func.restype = ctypes.c_int
                return int(func())
    return None


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cores": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": blas_threads(),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "GRASSDR_THREADS": os.environ.get("GRASSDR_THREADS"),
    }


def run_rounds(calls: list[dict], seconds: float, capture, tracer=None) -> dict:
    """Timed rounds of ``grassdr.cli.main`` over ``calls``, until the next round would end after ``seconds``.

    Returns per-round times, every exit code, per-round layer values, and
    the fits each call of the last round ran.
    """
    from grassdr import cli

    times, codes, per_layer = [], [], []
    first_outputs = None
    identical = True
    start = time.monotonic()
    first_call = None
    while True:
        round_fits, outputs, elapsed = [], [], 0.0
        before = tracer.snapshot() if tracer else None
        for call in calls:
            capture.fits = []
            if first_call is None:
                first_call = time.monotonic()
            t0 = time.perf_counter()
            codes.append(cli.main(call["argv"]))
            elapsed += time.perf_counter() - t0
            round_fits.append(capture.fits)
            outputs.append(call["out"].read_bytes() if call["out"].exists() else b"")
        times.append(elapsed)
        if tracer:
            per_layer.append(layers.per_round(before, tracer.snapshot()))
        first_outputs = outputs if first_outputs is None else first_outputs
        identical = identical and outputs == first_outputs
        if time.monotonic() - start + times[-1] > seconds:
            break
    return {
        "first_call": first_call,
        "round_s": times,
        "exit_codes": codes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "rounds_identical": identical,
        "per_layer": per_layer,
        "fits": round_fits,
    }


def run(name: str, spec: dict, seed: int, seconds: float, trace: bool, workdir: Path) -> tuple[dict, list, list]:
    """Set up, measure and check one workload in this process.

    Returns the result, the calls of a round and the fits of each call of
    the last round.
    """
    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    tracer = None
    if trace:
        tracer = layers.Tracer()
        tracer.install()
    capture = layers.FitCapture()
    capture.install()
    try:
        calls = workloads.prepare(spec, seed, workdir)
        setup_layers = layers.per_round({}, tracer.snapshot()) if tracer else None
        timed = run_rounds(calls, seconds, capture, tracer)
    finally:
        capture.uninstall()
        if tracer:
            tracer.uninstall()

    # A call that exits non-zero is a failed operation; the checks speak of
    # the calls that did not fail.
    failed = sum(code != 0 for code in timed["exit_codes"])
    problems, evs = [], []
    if not failed:
        for call, fits in zip(calls, timed["fits"]):
            problems += workloads.check(spec, call, fits)
            evs += workloads.unsupervised_evs(checks.read_table(call["out"])[1])
    if not timed["rounds_identical"]:
        problems.append("rounds on the same input wrote different output")
    result = {
        "workload": name,
        "seed": seed,
        "trace": trace,
        "first_call": timed["first_call"],
        "round_s": timed["round_s"],
        "wall_s": statistics.median(timed["round_s"]),
        "attempted": len(timed["exit_codes"]),
        "failed": failed,
        "peak_rss_mb": timed["peak_rss_mb"],
        "ev_mean": statistics.fmean(evs) if evs else float("nan"),
        "problems": problems,
    }
    if tracer:
        result["per_layer"] = _layer_values(setup_layers, timed["per_layer"])
        result["layer_calls"] = {layer: tracer.totals.get(f"{layer}.calls", 0.0) for layer in layers.LAYERS}
        # Inclusive times over the whole run, set-up included, for the README's shares.
        result["layer_total_s"] = {layer: tracer.totals.get(f"{layer}.total_s", 0.0) for layer in layers.LAYERS}
    return result, calls, timed["fits"]


def _layer_values(setup: dict, rounds: list[dict]) -> dict:
    """Per-round medians of each layer metric, plus what set-up spent there."""
    return {
        name: setup.get(name, 0.0) + statistics.median(r[name] for r in rounds)
        for name in rounds[0]
    }


def main(argv: list[str]) -> int:
    name, seed, seconds, trace, workdir = argv
    import_program()
    result, _, _ = run(name, workloads.FULL[name], int(seed), float(seconds), trace == "1", Path(workdir))
    result["env"] = environment()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
