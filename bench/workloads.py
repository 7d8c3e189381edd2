"""The benchmark's workloads: their inputs, the argv given to grassdr.cli.main,
and the checks on what the program wrote.

Each workload is a dict of sizes. ``FULL`` holds the sizes the benchmark
measures; ``TINY`` holds sizes the quick tests run in seconds.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

import checks

# Why each workload is here, in the words BENCHMARK.json uses.
WHY = {
    "fig3": "p=1 fits under both metrics; the geodesic finite-difference gradient dominates",
    "table1": "p=2 projection fits plus PGA; optimizer steps, retractions and Karcher means dominate",
    "shapes": "supervised pipeline on 40-shape files: pairwise loss, affinity, Karcher means, sPGA and LOO-kNN",
    "shapes-large": "unsupervised pipeline on 1000 shapes; pairwise distances and memory dominate",
}

# A round is one call of grassdr.cli.main per input file; the synth presets
# generate their data inside the call, one dataset per rep. A round holds
# several datasets so that its work depends less on the seed, and the synth
# fits are capped at max_iter for the same reason: uncapped, one fig3 rep
# ran 539 to 932 geodesic iterations over the seeds tried, and table1's five
# fits ran 1040 to 1500. On the seeds tried the caps moved a round's mean
# explained variance by at most 0.009 on fig3 and 0.003 on table1.
FULL = {
    "fig3": {"kind": "synth", "preset": "fig3", "reps": 2, "max_iter": 25},
    "table1": {"kind": "synth", "preset": "table1", "reps": 4, "max_iter": 100},
    "shapes": {"kind": "shapes", "files": 8, "count": 40, "landmarks": 100, "m": 10, "knn": 5, "supervised": True},
    "shapes-large": {"kind": "shapes", "files": 1, "count": 1000, "landmarks": 50, "m": 10, "knn": 5, "supervised": False},
}

TINY = {
    "fig3": {"kind": "synth", "preset": "fig3", "reps": 1, "max_iter": 3},
    "table1": {"kind": "synth", "preset": "table1", "reps": 1, "max_iter": 5},
    "shapes": {"kind": "shapes", "files": 2, "count": 12, "landmarks": 12, "m": 3, "knn": 3, "supervised": True,
               "max_iter": 5},
    "shapes-large": {"kind": "shapes", "files": 1, "count": 30, "landmarks": 10, "m": 3, "knn": 3,
                     "supervised": False, "max_iter": 5},
}

# The CLI derives rep r's data from --seed + r; spacing the benchmark's seeds
# keeps the reps of two benchmark seeds disjoint.
SYNTH_SEED_STRIDE = 1000


def prepare(spec: dict, seed: int, workdir: Path) -> list[dict]:
    """Write the workload's input files into ``workdir``; return the calls of one round.

    Each call is {"argv", "out", "landmarks"}; "landmarks" is None for synth.
    """
    from grassdr import datagen, io  # importable once worker.import_program has run

    cap = ["--max-iter", str(spec["max_iter"])] if "max_iter" in spec else []
    if spec["kind"] == "synth":
        out = workdir / "out.csv"
        argv = ["synth", "--preset", spec["preset"], "--reps", str(spec["reps"]),
                "--seed", str(seed * SYNTH_SEED_STRIDE), "--no-timing", "--out", str(out)] + cap
        return [{"argv": argv, "out": out, "landmarks": None}]
    calls = []
    for index in range(spec["files"]):
        rng = np.random.default_rng([seed, index])
        shapes, labels = datagen.two_class_shapes(spec["count"], spec["landmarks"], rng=rng)
        landmarks = workdir / f"landmarks{index}.csv"
        out = workdir / f"out{index}.csv"
        io.save_landmarks(landmarks, shapes, labels)
        argv = ["shapes", str(landmarks), "-m", str(spec["m"]), "--knn", str(spec["knn"]),
                "--seed", str(seed), "--no-timing", "--out", str(out)] + cap
        calls.append({"argv": argv + (["--supervised"] if spec["supervised"] else []), "out": out, "landmarks": landmarks})
    return calls


def unsupervised_evs(rows: list[dict]) -> list[float]:
    """Explained-variance ratios of the unsupervised nested fits in the output."""
    return [float(r["explained_variance"]) for r in rows if r["method"] == "ng"]


def check(spec: dict, call: dict, fits: list[dict]) -> list[str]:
    """Every correctness check of one call's output and the fits it ran."""
    header, rows = checks.read_table(call["out"])
    problems = []
    if spec["kind"] == "synth":
        problems += checks.check_synth_rows(spec["preset"], spec["reps"], header, rows)
        if problems:
            return problems
        problems += checks.check_table1(rows) if spec["preset"] == "table1" else checks.check_fig3(rows)
        nested_evs = unsupervised_evs(rows)
    else:
        problems += checks.check_shapes(header, rows, spec["supervised"], call["landmarks"], spec["knn"])
        if problems:
            return problems
        nested_evs = [float(r["explained_variance"]) for r in rows if r["method"] in ("ng", "sng")]
    problems += checks.check_fits_match_rows(fits, nested_evs)
    for fit in fits:
        problems += checks.check_fit(fit)
    return problems
