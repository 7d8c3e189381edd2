"""Acceptance criteria, one test per criterion.

Each test prints a single ``[acceptance] ... PASS/FAIL`` line (visible with
``pytest -s`` or in captured output). The experiment reproductions dominate
the runtime of the whole suite, which took 53 to 70 s on a 2-core x86 VM.

Known red: criterion 6's small-sigma clause. The measured NG-vs-PGA gap at
sigma=0.01 is ~0.10 under the specified protocol (robust across seeds,
B magnitudes, and initializations, and cross-validated by the criterion-5
table reproduction matching within ~1% on every entry), so the < 0.02 bound
is not attainable; the test states the criterion faithfully and fails.
"""

import json
import time

import numpy as np
import pytest

import grassdr as g
from grassdr.cli import main
from grassdr.geometry import adjoint, stack_points
from grassdr.nested import supervised_loss_and_grad, unsupervised_loss_and_grad
from grassdr.optim import check_gradient


def _report(name: str, ok: bool, detail: str = ""):
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"{name}: {detail}"


def _rand_point(rng, n, p, field):
    return g.sample_stiefel_uniform(n, p, field, rng=rng)


def _rand_unitary(rng, n, field):
    return g.sample_stiefel_uniform(n, n, field, rng=rng).basis


def _projector_distance(x, y):
    px = x.basis @ adjoint(x.basis)
    py = y.basis @ adjoint(y.basis)
    return float(np.linalg.norm(px - py)) / np.sqrt(2.0)


def test_criterion_1_geometry_property_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(11)
    fields = ("real", "complex")

    def dims():
        n = int(rng.integers(3, 9))
        return n, int(rng.integers(1, min(3, n - 1) + 1))

    worst_basis = worst_left = worst_order = 0.0
    for i in range(1000):
        field = fields[i % 2]
        n, p = dims()
        x, y = _rand_point(rng, n, p, field), _rand_point(rng, n, p, field)
        dg, dp = g.geodesic_distance(x, y), g.projection_distance(x, y)
        worst_order = max(worst_order, dp - dg)
        x2 = g.GrassmannPoint(x.basis @ _rand_unitary(rng, p, field))
        y2 = g.GrassmannPoint(y.basis @ _rand_unitary(rng, p, field))
        worst_basis = max(
            worst_basis,
            abs(g.geodesic_distance(x2, y2) - dg),
            abs(g.projection_distance(x2, y2) - dp),
            float(np.abs(g.principal_angles(x2, y2) - g.principal_angles(x, y)).max()),
        )
        r = _rand_unitary(rng, n, field)
        xr, yr = g.GrassmannPoint(r @ x.basis), g.GrassmannPoint(r @ y.basis)
        worst_left = max(
            worst_left,
            abs(g.geodesic_distance(xr, yr) - dg),
            abs(g.projection_distance(xr, yr) - dp),
        )

    worst_ratio = 1.0
    for i in range(1000):
        field = fields[i % 2]
        n, p = dims()
        x = _rand_point(rng, n, p, field)
        t = g.tangent_project(x, rng.standard_normal((n, p)))
        h = g.TangentVector(x, t.mat / np.linalg.norm(t.mat) * rng.uniform(1e-3, 0.0099))
        y = g.exp_map(x, h)
        dg = g.geodesic_distance(x, y)
        if 0.0 < dg < 0.01:
            worst_ratio = min(worst_ratio, g.projection_distance(x, y) / dg)

    # Round trips, measured through the projector distance: rt*(1+rt^2)
    # bounds the geodesic distance for small separations, avoiding the
    # ~1e-8 arccos floor on tiny angles.
    worst_rt = 0.0
    done = 0
    while done < 1000:
        field = fields[done % 2]
        n, p = dims()
        x, y = _rand_point(rng, n, p, field), _rand_point(rng, n, p, field)
        if g.principal_angles(x, y).max() >= 1.4:
            continue
        z = g.exp_map(x, g.log_map(x, y))
        rt = _projector_distance(z, y)
        worst_rt = max(worst_rt, rt * (1.0 + rt**2))
        done += 1

    worst_mid = 0.0
    done = 0
    while done < 1000:
        field = fields[done % 2]
        n, p = dims()
        x, y = _rand_point(rng, n, p, field), _rand_point(rng, n, p, field)
        if g.principal_angles(x, y).max() >= 1.4:
            continue
        mu = g.frechet_mean([x, y])
        mid = g.exp_map(x, g.TangentVector(x, 0.5 * g.log_map(x, y).mat))
        worst_mid = max(worst_mid, g.geodesic_distance(mu, mid))
        done += 1

    elapsed = time.perf_counter() - start
    ok = (
        worst_basis < 1e-10
        and worst_left < 1e-10
        and worst_order <= 1e-12
        and worst_ratio > 0.9999
        and worst_rt < 1e-8
        and worst_mid < 1e-6
        and elapsed < 60.0
    )
    _report(
        "criterion 1 (geometry suite, 1000 instances each)",
        ok,
        f"basis={worst_basis:.2e} left={worst_left:.2e} dp-dg={worst_order:.2e} "
        f"ratio={worst_ratio:.6f} roundtrip={worst_rt:.2e} midpoint={worst_mid:.2e} "
        f"elapsed={elapsed:.1f}s",
    )


def test_criterion_2_nested_structure_suite():
    rng = np.random.default_rng(22)
    fields = ("real", "complex")

    worst_iso = 0.0
    for i in range(200):
        field = fields[i % 2]
        a = g.sample_stiefel_uniform(8, 4, field, rng=rng).basis
        nmap = g.NestedMap(a, np.zeros((8, 2), dtype=a.dtype))
        x, y = _rand_point(rng, 4, 2, field), _rand_point(rng, 4, 2, field)
        ex, ey = g.embed_point(nmap, x), g.embed_point(nmap, y)
        worst_iso = max(
            worst_iso,
            abs(g.geodesic_distance(ex, ey) - g.geodesic_distance(x, y)),
            abs(g.projection_distance(ex, ey) - g.projection_distance(x, y)),
        )

    worst_rt = 0.0
    for i in range(200):
        field = fields[i % 2]
        a = g.sample_stiefel_uniform(8, 4, field, rng=rng).basis
        bt = 0.4 * rng.standard_normal((8, 2)).astype(a.dtype)
        if field == "complex":
            bt = bt + 0.4j * rng.standard_normal((8, 2))
        nmap = g.NestedMap.from_unprojected(a, bt)
        z = _rand_point(rng, 4, 2, field)
        back = g.project_point(nmap, g.embed_point(nmap, z))
        worst_rt = max(worst_rt, float(g.principal_angles(back, z).max()))

    worst_gauge = 0.0
    for i in range(25):
        field = fields[i % 2]
        pts = [_rand_point(rng, 7, 2, field) for _ in range(8)]
        stacked = stack_points(pts)
        a = g.sample_stiefel_uniform(7, 3, field, rng=rng).basis
        bt = rng.standard_normal((7, 2)).astype(a.dtype)
        o = _rand_unitary(rng, 3, field)
        for metric in ("projection", "geodesic"):
            l1, _ = unsupervised_loss_and_grad(a, bt, stacked, metric)
            l2, _ = unsupervised_loss_and_grad(a @ o, bt, stacked, metric)
            worst_gauge = max(worst_gauge, abs(l1 - l2))

    worst_grad = 0.0
    for field in fields:
        pts = [_rand_point(rng, 8, 2, field) for _ in range(6)]
        stacked = stack_points(pts)
        a = g.sample_stiefel_uniform(8, 4, field, rng=rng).basis
        bt = 0.3 * rng.standard_normal((8, 2)).astype(a.dtype)
        for metric in ("projection", "geodesic"):
            worst_grad = max(
                worst_grad,
                check_gradient(
                    lambda x, y, m=metric: unsupervised_loss_and_grad(x, y, stacked, m),
                    a, bt, rng=rng,
                ),
            )
        labels = np.array([0, 0, 0, 1, 1, 1])
        aff = g.build_affinity(labels, g.pairwise_distances(stacked, "projection"), 2, 2)
        for metric in ("projection", "geodesic"):
            worst_grad = max(
                worst_grad,
                check_gradient(
                    lambda x, y, m=metric: supervised_loss_and_grad(x, stacked, aff, m),
                    a, np.zeros((8, 0), dtype=a.dtype), rng=rng,
                ),
            )

    ok = worst_iso < 1e-9 and worst_rt < 1e-9 and worst_gauge < 1e-10 and worst_grad < 1e-5
    _report(
        "criterion 2 (nested structure suite)",
        ok,
        f"isometry={worst_iso:.2e} roundtrip={worst_rt:.2e} gauge={worst_gauge:.2e} grad={worst_grad:.2e}",
    )


def test_criterion_3_planted_recovery():
    start = time.perf_counter()
    # Loss clause under the protocol defaults (B ~ N(0, 0.1)).
    data = g.generate(g.SynthConfig(N=50, n=10, m=3, p=1, sigma=0.0, seed=3))
    rep_default = g.fit_unsupervised(data.points, 3)
    # EV clause with an isometric plant (b_std=0): with B != 0 the embedding
    # is non-isometric and the variance ratio is structurally 1 - O(|B|^2)
    # even at exactly zero loss (see the decisions ledger), so > 0.999 is
    # only meaningful for the fully noiseless construction.
    data_iso = g.generate(g.SynthConfig(N=50, n=10, m=3, p=1, sigma=0.0, b_std=0.0, seed=3))
    rep_iso = g.fit_unsupervised(data_iso.points, 3)
    elapsed = time.perf_counter() - start
    ok = (
        rep_default.loss_trace[-1] < 1e-6
        and rep_iso.loss_trace[-1] < 1e-6
        and rep_iso.explained_variance_ratio > 0.999
        and elapsed < 30.0
    )
    _report(
        "criterion 3 (planted recovery, sigma=0)",
        ok,
        f"loss(b=0.1)={rep_default.loss_trace[-1]:.2e} loss(b=0)={rep_iso.loss_trace[-1]:.2e} "
        f"ev(b=0)={rep_iso.explained_variance_ratio:.6f} elapsed={elapsed:.1f}s",
    )


def test_criterion_4_fig3_analog_metric_agreement_and_speed():
    start = time.perf_counter()
    reps = 20
    time_proj = time_geod = 0.0
    diffs = {}
    for sigma in range(1, 11):
        ev_p, ev_g = [], []
        for rep in range(reps):
            data = g.generate(g.SynthConfig(N=50, n=10, m=3, p=1, sigma=float(sigma), seed=rep * 100 + sigma))
            # two restarts per fit (spec-configurable) damp local-optimum
            # noise in the 20-rep means; both metrics get identical effort
            rng_fit = np.random.default_rng(rep * 17 + sigma)
            t0 = time.perf_counter()
            r_p = g.fit_unsupervised(data.points, 3, "projection", restarts=2, rng=rng_fit)
            time_proj += time.perf_counter() - t0
            rng_fit = np.random.default_rng(rep * 17 + sigma)
            t0 = time.perf_counter()
            r_g = g.fit_unsupervised(data.points, 3, "geodesic", restarts=2, rng=rng_fit)
            time_geod += time.perf_counter() - t0
            ev_p.append(r_p.explained_variance_ratio)
            ev_g.append(r_g.explained_variance_ratio)
        diffs[sigma] = abs(float(np.mean(ev_p)) - float(np.mean(ev_g)))
    elapsed = time.perf_counter() - start
    ok = max(diffs.values()) < 0.02 and time_proj < time_geod and elapsed < 1800.0
    _report(
        "criterion 4 (fig3 analog: metrics agree, projection faster)",
        ok,
        f"max|dEV|={max(diffs.values()):.4f} t_proj={time_proj:.0f}s t_geod={time_geod:.0f}s elapsed={elapsed:.0f}s",
    )


def test_criterion_5_table1_analog_ng_dominates_pga():
    start = time.perf_counter()
    reps = 20
    mdims = (2, 4, 6, 8, 10)
    ng = {m: [] for m in mdims}
    pga = {m: [] for m in mdims}
    for rep in range(reps):
        data = g.generate(g.SynthConfig(N=50, n=30, m=20, p=2, sigma=0.1, seed=500 + rep))
        model = g.pga_fit(data.points, max(mdims))
        for mdim in mdims:
            pga[mdim].append(g.pga_explained_variance(model, data.points, mdim))
            report = g.fit_unsupervised(data.points, mdim // 2 + 2)
            ng[mdim].append(report.explained_variance_ratio)
    elapsed = time.perf_counter() - start
    margins = {m: float(np.mean(ng[m])) - float(np.mean(pga[m])) for m in mdims}
    ng2 = float(np.mean(ng[2]))
    ok = all(v >= 0.05 for v in margins.values()) and 0.23 <= ng2 <= 0.43 and elapsed < 1800.0
    summary = " ".join(f"m{m}:+{margins[m]:.3f}" for m in mdims)
    _report(
        "criterion 5 (table1 analog: NG above PGA by >= 0.05)",
        ok,
        f"NG(m=2)={ng2:.4f} margins {summary} elapsed={elapsed:.0f}s",
    )


def test_criterion_6_fig4_analog_small_and_large_sigma():
    reps = 20
    results = {}
    for sigma in (0.01, 2.0):
        ng, pga = [], []
        for rep in range(reps):
            data = g.generate(g.SynthConfig(N=50, n=10, m=5, p=2, sigma=sigma, seed=rep * 37 + 5))
            ng.append(g.fit_unsupervised(data.points, 3).explained_variance_ratio)
            model = g.pga_fit(data.points, 2)
            pga.append(g.pga_explained_variance(model, data.points, 2))
        results[sigma] = (float(np.mean(ng)), float(np.mean(pga)))
    gap_small = results[0.01][0] - results[0.01][1]
    gap_large = results[2.0][0] - results[2.0][1]
    # Expected red on the first clause: the faithful protocol yields a ~0.10
    # NG advantage even at sigma=0.01 (see module docstring and the ledger).
    ok = abs(gap_small) < 0.02 and gap_large > 0.05
    _report(
        "criterion 6 (fig4 analog: parity at sigma=0.01, NG wins at sigma=2)",
        ok,
        f"sigma=0.01: NG={results[0.01][0]:.4f} PGA={results[0.01][1]:.4f} |gap|={abs(gap_small):.4f} (need <0.02); "
        f"sigma=2: gap={gap_large:.4f} (need >0.05)",
    )


def test_criterion_7_shape_invariance_and_triangle():
    rng = np.random.default_rng(77)
    worst_sim = 0.0
    for _ in range(500):
        k = int(rng.integers(5, 40))
        shape = g.KAds(rng.standard_normal((k, 2)))
        angle = rng.uniform(0.0, 2.0 * np.pi)
        rot = np.array([[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]])
        moved = g.KAds(rng.uniform(0.1, 10.0) * shape.points @ rot.T + rng.uniform(-100.0, 100.0, 2))
        worst_sim = max(worst_sim, g.shape_distance(shape, moved))
    worst_slack = 0.0
    for _ in range(500):
        k = int(rng.integers(5, 25))
        a, b, c = (g.KAds(rng.standard_normal((k, 2))) for _ in range(3))
        worst_slack = max(worst_slack, g.shape_distance(a, c) - g.shape_distance(a, b) - g.shape_distance(b, c))
    ok = worst_sim < 1e-10 and worst_slack <= 1e-9
    _report(
        "criterion 7 (shape similarity invariance, triangle inequality)",
        ok,
        f"max similarity distance={worst_sim:.2e} max triangle slack={worst_slack:.2e}",
    )


def test_criterion_8_supervision_sanity_on_shapes():
    accs = {"raw": [], "ng": [], "sng": []}
    evs = []
    for seed in range(10):
        rng = np.random.default_rng(seed)
        shapes, labels = g.two_class_shapes(40, 100, rng=rng)
        pts = g.kads_to_grassmann(shapes)
        acc_raw, _ = g.gknn_loo(pts, labels, k=5)
        ng = g.fit_unsupervised(pts, 11)  # Gr(1, C^11): manifold dimension 10
        acc_ng, _ = g.gknn_loo(g.project_dataset(ng.map, pts), labels, k=5)
        sng = g.fit_supervised(pts, labels, 11)
        acc_sng, _ = g.gknn_loo(g.project_dataset(sng.map, pts), labels, k=5)
        accs["raw"].append(acc_raw)
        accs["ng"].append(acc_ng)
        accs["sng"].append(acc_sng)
        evs.append(sng.explained_variance_ratio)
    mean = {k: float(np.mean(v)) for k, v in accs.items()}
    ok = mean["sng"] >= mean["ng"] and mean["sng"] >= mean["raw"]
    _report(
        "criterion 8 (supervision sanity: sNG >= NG and >= raw gKNN)",
        ok,
        f"raw={mean['raw']:.3f} ng={mean['ng']:.3f} sng={mean['sng']:.3f} "
        f"(sNG explained variance, no target: {float(np.mean(evs)):.3f})",
    )


def test_criterion_9_seeded_reruns_are_byte_identical(tmp_path):
    data = g.generate(g.SynthConfig(N=15, n=8, m=3, p=1, sigma=0.3, seed=9))
    data_path = tmp_path / "data.json"
    from grassdr import io

    io.save_dataset(data_path, data.points)

    fit_args = ["fit", str(data_path), "-m", "3", "--seed", "4", "--no-timing"]
    outs = []
    for tag in ("a", "b"):
        model = tmp_path / f"model_{tag}.json"
        report = tmp_path / f"report_{tag}.json"
        assert main(fit_args + ["--out", str(model), "--report", str(report)]) == 0
        outs.append((model.read_bytes(), report.read_bytes()))
    fit_ok = outs[0] == outs[1]

    synth_args = [
        "synth", "--num-points", "10", "--ambient-dim", "6", "--planted-dim", "3",
        "--subspace-dim", "1", "--sigma", "0.4", "--reps", "3", "--seed", "2",
        "--max-iter", "60", "--no-timing",
    ]
    tables = []
    for tag in ("a", "b"):
        out = tmp_path / f"synth_{tag}.csv"
        assert main(synth_args + ["--out", str(out)]) == 0
        tables.append(out.read_bytes())
    synth_ok = tables[0] == tables[1]

    shapes_path = tmp_path / "shapes.csv"
    assert main(["synth-shapes", "--count", "12", "--landmarks", "24", "--seed", "6", "--out", str(shapes_path)]) == 0
    shape_tables = []
    for tag in ("a", "b"):
        out = tmp_path / f"shapes_{tag}.csv"
        assert main([
            "shapes", str(shapes_path), "-m", "3", "--supervised", "--knn", "3",
            "--seed", "1", "--max-iter", "80", "--out", str(out),
        ]) == 0
        shape_tables.append(out.read_bytes())
    shapes_ok = shape_tables[0] == shape_tables[1]

    # With timing on, everything except the runtime column is still identical.
    timed = []
    for tag in ("a", "b"):
        out = tmp_path / f"synth_timed_{tag}.csv"
        assert main([a for a in synth_args if a != "--no-timing"] + ["--out", str(out)]) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()]
        timed.append([r[:6] + r[7:] for r in rows])
    timed_ok = timed[0] == timed[1]

    ok = fit_ok and synth_ok and shapes_ok and timed_ok
    _report(
        "criterion 9 (seeded reruns byte-identical)",
        ok,
        f"fit={fit_ok} synth={synth_ok} shapes={shapes_ok} timed-columns={timed_ok}",
    )
