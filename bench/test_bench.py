"""Quick tests of the benchmark itself, on the TINY workload sizes.

Run from the repository root: PYTHONPATH=src python -m pytest -q bench
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

import checks
import layers
import worker
import workloads

worker.import_program()

from grassdr import geometry, nested, shape  # noqa: E402

SEED = 3


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """Each tiny workload run once untraced and once traced: {(name, trace): (result, calls, fits)}."""
    out = {}
    for name, spec in workloads.TINY.items():
        for trace in (False, True):
            workdir = tmp_path_factory.mktemp(f"{name}-trace{int(trace)}")
            out[name, trace] = worker.run(name, spec, SEED, 0.0, trace, workdir)
    return out


@pytest.mark.parametrize("name", list(workloads.TINY))
def test_tiny_workloads_pass_their_checks(runs, name):
    for trace in (False, True):
        result, _, _ = runs[name, trace]
        assert result["failed"] == 0
        assert result["problems"] == []
        assert result["attempted"] == len(runs[name, trace][1])


@pytest.mark.parametrize("name", list(workloads.TINY))
def test_traced_outputs_are_byte_identical(runs, name):
    _, plain_calls, _ = runs[name, False]
    _, traced_calls, _ = runs[name, True]
    for plain, traced in zip(plain_calls, traced_calls, strict=True):
        assert plain["out"].read_bytes() == traced["out"].read_bytes()


@pytest.mark.parametrize("name", list(workloads.TINY))
def test_every_layer_records_calls_where_it_is_exercised(runs, name):
    result, _, _ = runs[name, True]
    missing = [layer for layer, (_, where) in layers.LAYERS.items()
               if name in where and result["layer_calls"][layer] < 1]
    assert missing == []


@pytest.mark.parametrize("name", list(workloads.TINY))
def test_trace_sees_one_fit_per_nested_row(runs, name):
    result, calls, _ = runs[name, True]
    rows = [r for call in calls for r in checks.read_table(call["out"])[1]]
    nested_rows = [r for r in rows if r["method"] in ("ng", "sng")]
    assert result["layer_calls"]["optim.minimize"] == len(nested_rows)


def test_traced_run_reports_every_layer_metric(runs):
    result, _, _ = runs["shapes", True]
    assert set(result["per_layer"]) == {name for name, _, _ in layers.metric_names()}


# ---------------------------------------------------------------------------
# each check fails on a corrupted output
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def fig3_output(runs):
    _, calls, fits = runs["fig3", False]
    return checks.read_table(calls[0]["out"]), fits[0]


def test_synth_rows_check_rejects_bad_status_and_missing_rows(fig3_output):
    (header, rows), _ = fig3_output
    assert checks.check_synth_rows("fig3", 1, header, rows) == []
    flipped = [dict(r) for r in rows]
    flipped[0]["status"] = "error: boom"
    assert checks.check_synth_rows("fig3", 1, header, flipped)
    assert checks.check_synth_rows("fig3", 1, header, rows[:-1])


def _table1_rows(pga, ng):
    rows = []
    for mdim, ev in zip((2, 4, 6, 8, 10), pga):
        rows.append({"rep": "0.0", "sigma_or_mdim": str(float(mdim)), "method": "pga", "metric": "tpca",
                     "explained_variance": repr(ev)})
    for mdim, ev in zip((2, 4, 6, 8, 10), ng):
        rows.append({"rep": "0.0", "sigma_or_mdim": str(float(mdim)), "method": "ng", "metric": "projection",
                     "explained_variance": repr(ev)})
    return rows


def test_table1_check_rejects_each_broken_property():
    pga = [0.2, 0.35, 0.5, 0.6, 0.7]
    ng = [0.3, 0.45, 0.6, 0.7, 0.8]
    assert checks.check_table1(_table1_rows(pga, ng)) == []
    assert checks.check_table1(_table1_rows([0.2, 0.35, 0.5, 0.6, 1.2], ng)) != []  # EV above 1
    assert checks.check_table1(_table1_rows([0.2, 0.5, 0.35, 0.6, 0.7], ng)) != []  # PGA EV decreases
    assert checks.check_table1(_table1_rows(pga, [0.3, 0.45, 0.4, 0.7, 0.8])) != []  # NG below PGA


def test_fig3_check_rejects_metrics_that_disagree(fig3_output):
    (_, rows), _ = fig3_output
    agree = [dict(r) for r in rows]
    for r in agree:
        if r["metric"] == "geodesic":
            twin = next(t for t in rows if t["metric"] == "projection" and t["sigma_or_mdim"] == r["sigma_or_mdim"])
            r["explained_variance"] = twin["explained_variance"]
    assert checks.check_fig3(agree) == []
    shifted = [dict(r) for r in agree]
    for r in shifted:
        if r["metric"] == "geodesic":
            r["explained_variance"] = repr(float(r["explained_variance"]) - 0.1)
    assert checks.check_fig3(shifted) != []


def test_fit_check_rejects_perturbed_model_and_rising_trace(fig3_output):
    _, fits = fig3_output
    fit = next(f for f in fits if not f["supervised"])
    assert checks.check_fit(fit) == []
    report = fit["report"]
    rng = np.random.default_rng(0)
    moved = nested.NestedMap.from_unprojected(report.map.A, report.map.B + 1e-3 * rng.standard_normal(report.map.B.shape))
    assert checks.check_fit({**fit, "report": dataclasses.replace(report, map=moved)}) != []
    rising = report.loss_trace[:-1] + [report.loss_trace[-2] + 1e-3, report.loss_trace[-1]]
    assert checks.check_fit({**fit, "report": dataclasses.replace(report, loss_trace=rising)}) != []


def test_fits_rows_check_rejects_a_missing_fit(fig3_output):
    (_, rows), fits = fig3_output
    evs = workloads.unsupervised_evs(rows)
    assert checks.check_fits_match_rows(fits, evs) == []
    assert checks.check_fits_match_rows(fits[1:], evs) != []


def test_shapes_check_rejects_flipped_label_and_wrong_accuracy(runs, tmp_path):
    _, calls, _ = runs["shapes", False]
    call = calls[0]
    spec = workloads.TINY["shapes"]
    header, rows = checks.read_table(call["out"])
    assert checks.check_shapes(header, rows, True, call["landmarks"], spec["knn"]) == []

    wrong = [dict(r) for r in rows]
    wrong[0]["knn_accuracy"] = repr(float(rows[0]["knn_accuracy"]) - 1.0 / spec["count"])
    assert checks.check_shapes(header, wrong, True, call["landmarks"], spec["knn"]) != []
    assert checks.check_shapes(header, rows[:-1], True, call["landmarks"], spec["knn"]) != []

    # A flipped label in the landmark file changes the accuracy the check recomputes.
    labels, landmarks = checks.read_landmarks(call["landmarks"])
    distances = checks.kendall_distances(landmarks)
    base = checks.loo_knn_accuracy(distances, labels, spec["knn"])
    lines = call["landmarks"].read_text().splitlines()
    for i in range(len(lines)):
        flipped = labels.copy()
        flipped[i] = "1" if labels[i] == "0" else "0"
        if checks.loo_knn_accuracy(distances, flipped, spec["knn"]) != base:
            break
    else:
        pytest.fail("no single label flip changes the LOO-kNN accuracy")
    _, rest = lines[i].split(",", 1)
    lines[i] = f"{flipped[i]},{rest}"
    corrupted = tmp_path / "flipped.csv"
    corrupted.write_text("\n".join(lines) + "\n")
    assert checks.check_shapes(header, rows, True, corrupted, spec["knn"]) != []


def test_own_kendall_distances_match_the_program(runs):
    _, calls, _ = runs["shapes-large", False]
    _, landmarks = checks.read_landmarks(calls[0]["landmarks"])
    points = [shape.kads_to_grassmann(shape.KAds(lm)) for lm in landmarks]
    ours = checks.kendall_distances(landmarks)
    np.fill_diagonal(ours, 0.0)
    assert np.allclose(ours, geometry.pairwise_distances(points), atol=1e-7)
