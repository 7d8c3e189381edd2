"""Pinned CLI outputs: small synth, shapes and fit runs against files in ``tests/golden``.

Row keys, statuses and convergence flags must match exactly; explained
variances, kNN accuracies and final losses within ``TOL``. A change that
moves these numbers on purpose regenerates the files with

    PYTHONPATH=src python tests/test_golden.py

and lists the old and new values in CHANGES.md; the run prints each value
it changes as ``file row column: old -> new``. Run that way, the module
pins OpenBLAS to one thread before numpy loads, so that regenerated files
come from one fixed floating-point order whatever the machine's default.
The ``..._does_not_depend_on_the_thread_count`` tests run the supervised
shapes pipeline, the fig3, fig4 and table1 presets and the custom synth run
at one and two OpenBLAS threads and compare.
"""

from __future__ import annotations

import csv
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

if __name__ == "__main__":
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

import pytest

from grassdr.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
TOL = 1e-9

# A labeled 40-shape file for the full supervised pipeline.
SHAPES = ["synth-shapes", "--count", "40", "--landmarks", "100", "--seed", "3", "--out", "shapes3.csv"]
# A small labeled file for the supervised geodesic fit, whose gradient is
# the spectral closed form of ``nested.supervised_loss_and_grad``.
SMALL_SHAPES = ["synth-shapes", "--count", "12", "--landmarks", "8", "--seed", "1", "--out", "shapes1.csv"]

# (output file, argv); every run writes into one working directory holding
# ``data.json`` (copied from GOLDEN), ``shapes3.csv`` (from SHAPES) and
# ``shapes1.csv`` (from SMALL_SHAPES).
RUNS = [
    ("fig3.csv", ["synth", "--preset", "fig3", "--reps", "1", "--max-iter", "10", "--no-timing"]),
    ("fig4.csv", ["synth", "--preset", "fig4", "--reps", "1", "--max-iter", "30", "--no-timing"]),
    ("table1.csv", ["synth", "--preset", "table1", "--reps", "1", "--max-iter", "30", "--no-timing"]),
    ("custom.csv", [
        "synth", "--ambient-dim", "6", "--planted-dim", "3", "--subspace-dim", "2", "--sigma", "0.2",
        "--num-points", "20", "--reps", "2", "--max-iter", "30", "--metric", "both", "--no-timing",
    ]),
    ("shapes3_supervised.csv", ["shapes", "shapes3.csv", "-m", "10", "--supervised", "--no-timing"]),
    ("shapes1_supervised_geodesic.csv", [
        "shapes", "shapes1.csv", "-m", "2", "--supervised", "--metric", "geodesic",
        "--restarts", "2", "--max-iter", "5", "--no-timing",
    ]),
    ("fit_projection.json", ["fit", "data.json", "-m", "3", "--metric", "projection", "--restarts", "2", "--no-timing"]),
    ("fit_geodesic.json", ["fit", "data.json", "-m", "3", "--metric", "geodesic", "--restarts", "2", "--no-timing"]),
]


def _main_in(workdir: Path, argv: list[str]) -> int:
    """Run the CLI with relative paths resolved in ``workdir``."""
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        return main(argv)
    finally:
        os.chdir(cwd)


def _run(workdir: Path, name: str, argv: list[str]) -> Path:
    if name.endswith(".json"):
        argv = argv + ["--out", "model.json", "--report", name]
    else:
        argv = argv + ["--out", name]
    assert _main_in(workdir, argv) in (0, 4), argv  # 4: best point written, not converged
    return workdir / name


def _prepare(workdir: Path) -> None:
    shutil.copy(GOLDEN / "data.json", workdir / "data.json")
    assert _main_in(workdir, SHAPES) == 0
    assert _main_in(workdir, SMALL_SHAPES) == 0


def _close(got: str, want: str) -> bool:
    if got == "" or want == "":
        return got == want
    return abs(float(got) - float(want)) <= TOL


def _compare_csv(got_path: Path, want_path: Path) -> None:
    with open(got_path, newline="") as fh:
        got = list(csv.DictReader(fh))
    with open(want_path, newline="") as fh:
        want = list(csv.DictReader(fh))
    assert list(got[0]) == list(want[0])
    value_cols = {"explained_variance", "knn_accuracy", "runtime_seconds"}
    key_cols = [c for c in want[0] if c not in value_cols]
    assert [[r[c] for c in key_cols] for r in got] == [[r[c] for c in key_cols] for r in want]
    for g_row, w_row in zip(got, want):
        for col in value_cols & set(w_row):
            assert _close(g_row[col], w_row[col]), (w_row, col, g_row[col])


def _compare_report(got_path: Path, want_path: Path) -> None:
    got = json.loads(got_path.read_text())
    want = json.loads(want_path.read_text())
    assert got["converged"] == want["converged"]
    for key in ("final_loss", "explained_variance"):
        assert abs(got[key] - want[key]) <= TOL, (key, got[key], want[key])


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("golden")
    _prepare(path)
    return path


@pytest.mark.parametrize("name,argv", RUNS, ids=[name for name, _ in RUNS])
def test_output_matches_golden(workdir, name, argv):
    got = _run(workdir, name, argv)
    if name.endswith(".csv"):
        _compare_csv(got, GOLDEN / name)
    else:
        _compare_report(got, GOLDEN / name)


def _outputs_at_one_and_two_threads(workdir: Path, name: str, argv: list[str]) -> list[Path]:
    """Run one golden command in subprocesses at OPENBLAS_NUM_THREADS=1 and 2; the two output paths."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        out = f"threads{threads}-{name}"
        proc = subprocess.run(
            [sys.executable, "-m", "grassdr", *argv, "--out", out],
            cwd=workdir, env=env, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(workdir / out)
    return outputs


def test_shapes_output_does_not_depend_on_the_thread_count(workdir):
    name, argv = RUNS[4]
    assert name == "shapes3_supervised.csv"
    _compare_csv(*_outputs_at_one_and_two_threads(workdir, name, argv))


@pytest.mark.parametrize("name", ("fig3.csv", "fig4.csv", "table1.csv", "custom.csv"))
def test_synth_output_does_not_depend_on_the_thread_count(workdir, name):
    _compare_csv(*_outputs_at_one_and_two_threads(workdir, name, dict(RUNS)[name]))


def _cells(path: Path) -> dict[str, str]:
    """Every value of an output file by place: "row i column" in a CSV, the key (and list index) in a report."""
    if not path.exists():
        return {}
    if path.suffix == ".csv":
        with open(path, newline="") as fh:
            return {f"row {i} {col}": v for i, row in enumerate(csv.DictReader(fh), 1) for col, v in row.items()}
    cells = {}
    for key, value in json.loads(path.read_text()).items():
        for i, v in enumerate(value) if isinstance(value, list) else [(None, value)]:
            cells[key if i is None else f"{key}[{i}]"] = json.dumps(v)
    return cells


def regenerate(workdir: Path) -> None:
    """Rewrite every golden file from a fresh run and print each value that changes."""
    _prepare(workdir)
    for name, argv in RUNS:
        got = _run(workdir, name, argv)
        old, new = _cells(GOLDEN / name), _cells(got)
        for place in [*new, *(p for p in old if p not in new)]:
            if old.get(place) != new.get(place):
                print(f"{name} {place}: {old.get(place, '(none)')} -> {new.get(place, '(none)')}")
        shutil.copy(got, GOLDEN / name)


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        regenerate(Path(tmp))
    sys.exit(0)
