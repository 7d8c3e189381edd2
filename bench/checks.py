"""Correctness checks on the program's outputs, run outside the timed phase.

Each check compares against an independent numpy computation or a property
the method must have, never against a stored copy of earlier output. Each
returns a list of problems; an empty list means the check passed.
"""

from __future__ import annotations

import csv
import math

import numpy as np

SYNTH_HEADER = ["preset", "rep", "sigma_or_mdim", "method", "metric", "explained_variance", "runtime_seconds", "status"]
SHAPES_HEADER = ["method", "knn_accuracy", "explained_variance"]
SYNTH_ROWS_PER_REP = {"fig3": 20, "table1": 10}
# Grand-mean |EV(projection) - EV(geodesic)| allowed on fig3, where the paper
# reports that the two metrics agree. A round's grand mean covers 20 fits with
# one start each, and differed by up to 0.020 over the seeds tried (the
# acceptance suite asks 0.02 per sigma of a 20-rep, two-start mean).
FIG3_EV_AGREEMENT = 0.05
LOSS_RTOL = 1e-7
LOSS_ATOL = 1e-10


def read_table(path) -> tuple[list[str], list[dict]]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    header = rows[0] if rows else []
    return header, [dict(zip(header, r)) for r in rows[1:]]


# ---------------------------------------------------------------------------
# synth presets
# ---------------------------------------------------------------------------


def check_synth_rows(preset: str, reps: int, header: list[str], rows: list[dict]) -> list[str]:
    problems = []
    if header != SYNTH_HEADER:
        problems.append(f"synth header {header} != {SYNTH_HEADER}")
    expected = SYNTH_ROWS_PER_REP[preset] * reps
    if len(rows) != expected:
        problems.append(f"{preset}: {len(rows)} rows, expected {expected}")
    for row in rows:
        if row.get("status") not in ("ok", "no-convergence"):
            problems.append(f"{preset}: row status {row.get('status')!r}")
        ev = float(row.get("explained_variance") or "nan")
        if not math.isfinite(ev):
            problems.append(f"{preset}: non-finite explained variance in {row}")
    return problems


def _ev_by(rows: list[dict], method: str) -> dict[tuple, float]:
    return {
        (int(float(r["rep"])), float(r["sigma_or_mdim"]), r["metric"]): float(r["explained_variance"])
        for r in rows if r["method"] == method
    }


def check_table1(rows: list[dict]) -> list[str]:
    """PGA EV in [0, 1] and nondecreasing in mdim; NG at least PGA on average."""
    problems = []
    pga = _ev_by(rows, "pga")
    ng = _ev_by(rows, "ng")
    for (rep, mdim, _), ev in pga.items():
        if not 0.0 <= ev <= 1.0:
            problems.append(f"table1 rep {rep} mdim {mdim}: PGA EV {ev} outside [0, 1]")
    for rep in sorted({k[0] for k in pga}):
        series = [ev for (r, _, _), ev in sorted(pga.items()) if r == rep]
        if any(b < a for a, b in zip(series, series[1:])):
            problems.append(f"table1 rep {rep}: PGA EV decreases with mdim: {series}")
    for mdim in sorted({k[1] for k in pga}):
        pga_mean = np.mean([ev for (_, m, _), ev in pga.items() if m == mdim])
        ng_mean = np.mean([ev for (_, m, _), ev in ng.items() if m == mdim])
        if not ng_mean >= pga_mean:
            problems.append(f"table1 mdim {mdim}: mean NG EV {ng_mean:.4f} below mean PGA EV {pga_mean:.4f}")
    return problems


def check_fig3(rows: list[dict]) -> list[str]:
    """Projection and geodesic fits explain the same variance on average."""
    ng = _ev_by(rows, "ng")
    proj = np.mean([ev for k, ev in ng.items() if k[2] == "projection"])
    geod = np.mean([ev for k, ev in ng.items() if k[2] == "geodesic"])
    if not abs(proj - geod) <= FIG3_EV_AGREEMENT:
        return [f"fig3: mean EV projection {proj:.4f} vs geodesic {geod:.4f} differ by more than {FIG3_EV_AGREEMENT}"]
    return []


# ---------------------------------------------------------------------------
# fitted models
# ---------------------------------------------------------------------------


def reconstruction_loss(stacked: np.ndarray, a: np.ndarray, b: np.ndarray, metric: str) -> float:
    """Mean squared distance between X_i and span(A A^H X_i + B), from the definition.

    The reconstruction is orthonormalised by QR; the principal-angle cosines
    are the singular values of Q_i^H X_i.
    """
    m = np.einsum("nm,imp->inp", a, np.einsum("km,ikp->imp", np.conj(a), stacked)) + b[None]
    q, _ = np.linalg.qr(m)
    cos = np.clip(np.linalg.svd(np.conj(np.swapaxes(q, 1, 2)) @ stacked, compute_uv=False), 0.0, 1.0)
    if metric == "projection":
        d2 = (1.0 - cos**2).sum(axis=1)
    else:
        d2 = (np.arccos(cos) ** 2).sum(axis=1)
    return float(d2.mean())


def check_fit(fit: dict) -> list[str]:
    """The loss trace never increases and, unsupervised, its end is the model's loss."""
    report = fit["report"]
    trace = report.loss_trace
    problems = []
    if any(b > a for a, b in zip(trace, trace[1:])):
        problems.append(f"{fit['metric']} fit: loss trace increases")
    if not fit["supervised"]:
        stacked = np.stack([pt.basis for pt in fit["dataset"]])
        own = reconstruction_loss(stacked, report.map.A, report.map.B, fit["metric"])
        if not abs(own - trace[-1]) <= LOSS_RTOL * abs(own) + LOSS_ATOL:
            problems.append(f"{fit['metric']} fit: reported loss {trace[-1]!r} but the model's loss is {own!r}")
    return problems


def check_fits_match_rows(fits: list[dict], evs: list[float]) -> list[str]:
    """Every nested row written is one captured fit, with the same EV."""
    seen = sorted(repr(float(f["report"].explained_variance_ratio)) for f in fits)
    written = sorted(repr(float(ev)) for ev in evs)
    if seen != written:
        return [f"{len(fits)} fits ran but the output holds {len(evs)} nested rows or other EVs"]
    return []


# ---------------------------------------------------------------------------
# shapes
# ---------------------------------------------------------------------------


def read_landmarks(path) -> tuple[np.ndarray, np.ndarray]:
    """Labels (first field) and (N, k, 2) landmarks of a labeled landmark file."""
    labels, coords = [], []
    with open(path, newline="", encoding="utf-8") as fh:
        for row in csv.reader(fh):
            labels.append(row[0])
            coords.append([float(v) for v in row[1:]])
    return np.asarray(labels), np.asarray(coords).reshape(len(coords), -1, 2)


def kendall_distances(landmarks: np.ndarray) -> np.ndarray:
    """arccos(|<z_i, z_j>| / (|z_i| |z_j|)) with z_i the complex offsets from landmark 1."""
    offsets = landmarks[:, 1:, :] - landmarks[:, :1, :]
    z = offsets[..., 0] + 1j * offsets[..., 1]
    z /= np.linalg.norm(z, axis=1, keepdims=True)
    cos = np.abs(z @ np.conj(z).T)
    return np.arccos(np.clip(cos, 0.0, 1.0))


def loo_knn_accuracy(distances: np.ndarray, labels: np.ndarray, k: int) -> float:
    """Leave-one-out kNN; a tied vote goes to the class of the nearest tied neighbour."""
    correct = 0
    for i in range(len(labels)):
        order = np.argsort(distances[i], kind="stable")
        neighbors = order[order != i][:k]
        votes = {}
        for j in neighbors:
            votes[labels[j]] = votes.get(labels[j], 0) + 1
        top = max(votes.values())
        predicted = next(labels[j] for j in neighbors if votes[labels[j]] == top)
        correct += predicted == labels[i]
    return correct / len(labels)


def check_shapes(header: list[str], rows: list[dict], supervised: bool, landmarks_path, k: int) -> list[str]:
    problems = []
    if header != SHAPES_HEADER:
        problems.append(f"shapes header {header} != {SHAPES_HEADER}")
    methods = [r["method"] for r in rows]
    expected = ["raw", "ng", "pga"] + (["sng", "spga"] if supervised else [])
    if methods != expected:
        return problems + [f"shapes methods {methods} != {expected}"]
    for row in rows:
        acc = float(row["knn_accuracy"])
        if not 0.0 <= acc <= 1.0:
            problems.append(f"shapes {row['method']}: accuracy {acc} outside [0, 1]")
    labels, landmarks = read_landmarks(landmarks_path)
    own = loo_knn_accuracy(kendall_distances(landmarks), labels, k)
    raw = float(rows[0]["knn_accuracy"])
    if abs(raw - own) > 0.5 / len(labels):
        problems.append(f"shapes raw kNN accuracy {raw} but the landmarks give {own}")
    return problems
