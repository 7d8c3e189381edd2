import numpy as np
import pytest

import grassdr as g
from grassdr.errors import (
    DegenerateProjectionError,
    ShapeError,
    SupervisionDegenerateError,
    UndefinedRatioError,
)
from grassdr.geometry import adjoint, stack_points
from grassdr.nested import (
    NestedMap,
    build_affinity,
    supervised_loss_and_grad,
    unsupervised_loss_and_grad,
)
from grassdr.optim import check_gradient


def random_map(rng, n, m, p, field="real", b_scale=0.3):
    a = g.sample_stiefel_uniform(n, m, field, rng=rng).basis
    bt = rng.standard_normal((n, p)) * b_scale
    if field == "complex":
        bt = bt + 1j * rng.standard_normal((n, p)) * b_scale
    return NestedMap.from_unprojected(a, bt)


def random_dataset(rng, count, n, p, field="real"):
    return [g.sample_stiefel_uniform(n, p, field, rng=rng) for _ in range(count)]


class TestNestedMap:
    def test_projection_enforced(self):
        rng = np.random.default_rng(0)
        a = g.sample_stiefel_uniform(6, 3, rng=rng).basis
        bt = rng.standard_normal((6, 2))
        nmap = NestedMap.from_unprojected(a, bt)
        assert np.abs(adjoint(a) @ nmap.B).max() < 1e-12
        with pytest.raises(ShapeError):
            NestedMap(a, bt)  # unprojected B rejected by the constructor

    def test_dims(self):
        rng = np.random.default_rng(1)
        nmap = random_map(rng, 7, 4, 2)
        assert (nmap.n, nmap.m, nmap.p, nmap.field) == (7, 4, 2, "real")

    @pytest.mark.parametrize("which", ("A", "B"))
    def test_non_finite_entries_rejected(self, which):
        rng = np.random.default_rng(2)
        nmap = random_map(rng, 6, 3, 1)
        a, b = nmap.A.copy(), nmap.B.copy()
        (a if which == "A" else b)[0, 0] = np.nan
        with pytest.raises(ShapeError):
            NestedMap(a, b)


class TestEmbedProject:
    def test_zero_padding_embedding(self):
        m, n, p = 3, 6, 2
        a = np.eye(n)[:, :m]
        nmap = NestedMap(a, np.zeros((n, p)))
        rng = np.random.default_rng(2)
        x = g.sample_stiefel_uniform(m, p, rng=rng)
        y = g.embed_point(nmap, x)
        padded = np.vstack([x.basis, np.zeros((n - m, p))])
        assert g.GrassmannPoint(padded).same_subspace(y)

    @pytest.mark.parametrize("field", ("real", "complex"))
    def test_isometry_when_b_zero(self, field):
        rng = np.random.default_rng(3)
        for _ in range(15):
            a = g.sample_stiefel_uniform(8, 4, field, rng=rng).basis
            nmap = NestedMap(a, np.zeros((8, 2), dtype=a.dtype))
            x = g.sample_stiefel_uniform(4, 2, field, rng=rng)
            y = g.sample_stiefel_uniform(4, 2, field, rng=rng)
            ex, ey = g.embed_point(nmap, x), g.embed_point(nmap, y)
            assert abs(g.geodesic_distance(ex, ey) - g.geodesic_distance(x, y)) < 1e-9
            assert abs(g.projection_distance(ex, ey) - g.projection_distance(x, y)) < 1e-9

    @pytest.mark.parametrize("field", ("real", "complex"))
    def test_project_after_embed_is_identity(self, field):
        rng = np.random.default_rng(4)
        for _ in range(15):
            nmap = random_map(rng, 8, 4, 2, field)
            x = g.sample_stiefel_uniform(4, 2, field, rng=rng)
            back = g.project_point(nmap, g.embed_point(nmap, x))
            assert g.principal_angles(back, x).max() < 1e-9

    def test_projection_truncates_rows(self):
        n, m, p = 6, 3, 2
        nmap = NestedMap(np.eye(n)[:, :m], np.zeros((n, p)))
        rng = np.random.default_rng(5)
        top = g.sample_stiefel_uniform(m, p, rng=rng)
        x = g.GrassmannPoint(np.vstack([top.basis, np.zeros((n - m, p))]))
        assert g.project_point(nmap, x).same_subspace(top)

    def test_projection_basis_invariance(self):
        rng = np.random.default_rng(6)
        nmap = random_map(rng, 7, 3, 2)
        x = g.sample_stiefel_uniform(7, 2, rng=rng)
        q = g.sample_stiefel_uniform(2, 2, rng=rng).basis
        p1 = g.project_point(nmap, x)
        p2 = g.project_point(nmap, g.GrassmannPoint(x.basis @ q))
        assert p1.same_subspace(p2)

    def test_degenerate_projection(self):
        n, m, p = 4, 2, 1
        nmap = NestedMap(np.eye(n)[:, :m], np.zeros((n, p)))
        x = g.GrassmannPoint(np.eye(n)[:, [3]])  # orthogonal to span(A)
        with pytest.raises(DegenerateProjectionError):
            g.project_point(nmap, x)

    def test_batch_error_names_index(self):
        n, m, p = 4, 2, 1
        nmap = NestedMap(np.eye(n)[:, :m], np.zeros((n, p)))
        rng = np.random.default_rng(7)
        pts = [g.sample_stiefel_uniform(n, p, rng=rng), g.GrassmannPoint(np.eye(n)[:, [3]])]
        with pytest.raises(DegenerateProjectionError) as err:
            g.project_dataset(nmap, pts)
        assert err.value.index == 1


class TestReconstruct:
    def test_on_model_points_are_fixed(self):
        rng = np.random.default_rng(8)
        nmap = random_map(rng, 8, 3, 2)
        z = g.sample_stiefel_uniform(3, 2, rng=rng)
        x = g.embed_point(nmap, z)
        assert g.geodesic_distance(g.reconstruct_point(nmap, x), x) < 1e-9

    def test_idempotent(self):
        rng = np.random.default_rng(9)
        nmap = random_map(rng, 8, 3, 2, b_scale=0.0)
        x = g.sample_stiefel_uniform(8, 2, rng=rng)
        once = g.reconstruct_point(nmap, x)
        twice = g.reconstruct_point(nmap, once)
        assert g.geodesic_distance(once, twice) < 1e-9

    def test_identity_map(self):
        rng = np.random.default_rng(10)
        n = 5
        a = g.sample_stiefel_uniform(n, n, rng=rng).basis
        nmap = NestedMap(a, np.zeros((n, 2)))
        x = g.sample_stiefel_uniform(n, 2, rng=rng)
        assert g.geodesic_distance(g.reconstruct_point(nmap, x), x) < 1e-9


class TestUnsupervisedLoss:
    def test_zero_at_rescaled_planted_map(self):
        # On noiseless planted data the loss vanishes at (A, B R0^{-1}) where
        # R0 is the shared triangular factor of the stored bases.
        data = g.generate(g.SynthConfig(N=15, n=8, m=3, p=2, sigma=0.0, seed=11))
        a, b = data.map.A, data.map.B
        r0 = adjoint(data.points[0].basis) @ (a @ data.planted[0].basis + b)
        nmap = NestedMap.from_unprojected(a, b @ np.linalg.inv(r0))
        for metric in ("projection", "geodesic"):
            loss, _ = g.loss_unsupervised(nmap, data.points, metric)
            assert loss < 1e-12

    def test_single_point_cross_module_oracle(self):
        rng = np.random.default_rng(12)
        nmap = random_map(rng, 7, 3, 2)
        x = g.sample_stiefel_uniform(7, 2, rng=rng)
        raw = nmap.A @ (adjoint(nmap.A) @ x.basis) + nmap.B
        xhat = g.orthonormalize(raw)
        for metric, dist in (("projection", g.projection_distance), ("geodesic", g.geodesic_distance)):
            loss, _ = g.loss_unsupervised(nmap, [x], metric)
            assert loss == pytest.approx(dist(x, xhat) ** 2, abs=1e-10)

    def test_projection_below_geodesic(self):
        rng = np.random.default_rng(13)
        nmap = random_map(rng, 7, 3, 1)
        pts = random_dataset(rng, 10, 7, 1)
        lp, _ = g.loss_unsupervised(nmap, pts, "projection")
        lg, _ = g.loss_unsupervised(nmap, pts, "geodesic")
        assert lp <= lg + 1e-12

    @pytest.mark.parametrize("field", ("real", "complex"))
    def test_gauge_invariance(self, field):
        rng = np.random.default_rng(14)
        pts = random_dataset(rng, 8, 7, 2, field)
        stacked = stack_points(pts)
        a = g.sample_stiefel_uniform(7, 3, field, rng=rng).basis
        bt = rng.standard_normal((7, 2)).astype(a.dtype)
        o = g.sample_stiefel_uniform(3, 3, field, rng=rng).basis
        for metric in ("projection", "geodesic"):
            l1, _ = unsupervised_loss_and_grad(a, bt, stacked, metric)
            l2, _ = unsupervised_loss_and_grad(a @ o, bt, stacked, metric)
            assert abs(l1 - l2) < 1e-10

    def test_b_nullspace_invariance(self):
        rng = np.random.default_rng(15)
        pts = random_dataset(rng, 8, 7, 2)
        stacked = stack_points(pts)
        a = g.sample_stiefel_uniform(7, 3, rng=rng).basis
        bt = rng.standard_normal((7, 2))
        c = rng.standard_normal((3, 2))
        l1, _ = unsupervised_loss_and_grad(a, bt, stacked, "projection")
        l2, _ = unsupervised_loss_and_grad(a, bt + a @ c, stacked, "projection")
        assert abs(l1 - l2) < 1e-10

    @pytest.mark.parametrize("field", ("real", "complex"))
    @pytest.mark.parametrize("metric", ("projection", "geodesic"))
    def test_gradients_match_finite_differences(self, field, metric):
        rng = np.random.default_rng(16)
        pts = random_dataset(rng, 6, 8, 2, field)
        stacked = stack_points(pts)
        a = g.sample_stiefel_uniform(8, 4, field, rng=rng).basis
        bt = 0.3 * rng.standard_normal((8, 2)).astype(a.dtype)

        def loss(a_, b_):
            return unsupervised_loss_and_grad(a_, b_, stacked, metric)

        assert check_gradient(loss, a, bt, rng=rng) < 1e-5


class TestAffinity:
    def test_hand_enumerated_four_points(self):
        labels = [0, 0, 1, 1]
        d = np.array(
            [
                [0.0, 0.1, 1.0, 2.0],
                [0.1, 0.0, 1.1, 2.1],
                [1.0, 1.1, 0.0, 0.2],
                [2.0, 2.1, 0.2, 0.0],
            ]
        )
        expected = np.array(
            [
                [0, 1, -1, -1],
                [1, 0, -1, 0],
                [-1, -1, 0, 1],
                [-1, 0, 1, 0],
            ],
            dtype=float,
        )
        assert np.array_equal(build_affinity(labels, d, k_w=1, k_b=1), expected)

    def test_single_label_has_no_negatives(self):
        rng = np.random.default_rng(17)
        d = np.abs(rng.standard_normal((5, 5)))
        d = d + d.T
        np.fill_diagonal(d, 0.0)
        aff = build_affinity([3, 3, 3, 3, 3], d, k_w=2, k_b=2)
        assert not np.any(aff < 0)

    def test_saturation(self):
        labels = [0, 1, 0, 1]
        rng = np.random.default_rng(18)
        d = np.abs(rng.standard_normal((4, 4)))
        d = d + d.T
        np.fill_diagonal(d, 0.0)
        aff = build_affinity(labels, d, k_w=4, k_b=4)
        same = np.equal.outer(labels, labels)
        expected = np.where(same, 1.0, -1.0)
        np.fill_diagonal(expected, 0.0)
        assert np.array_equal(aff, expected)

    def test_singleton_class_warns(self):
        d = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.5], [2.0, 1.5, 0.0]])
        with pytest.warns(UserWarning):
            aff = build_affinity([0, 1, 1], d, k_w=1, k_b=1)
        assert not np.any(aff[0] > 0)


class TestSupervisedLoss:
    def test_zero_affinity_gives_zero(self):
        rng = np.random.default_rng(19)
        pts = random_dataset(rng, 5, 6, 1)
        a = g.sample_stiefel_uniform(6, 3, rng=rng).basis
        loss, grad = g.loss_supervised(a, pts, np.zeros((5, 5)))
        assert loss == 0.0
        assert np.abs(grad).max() == 0.0

    def test_two_point_hand_expansion(self):
        rng = np.random.default_rng(20)
        pts = random_dataset(rng, 2, 6, 1)
        a = g.sample_stiefel_uniform(6, 3, rng=rng).basis
        nmap = NestedMap(a, np.zeros((6, 1)))
        proj = [g.project_point(nmap, pt) for pt in pts]
        aff = np.array([[0.0, 1.0], [1.0, 0.0]])
        loss, _ = g.loss_supervised(a, pts, aff)
        assert loss == pytest.approx(g.projection_distance(proj[0], proj[1]) ** 2 / 2.0, abs=1e-12)

    def test_order_permutation_invariance(self):
        rng = np.random.default_rng(21)
        pts = random_dataset(rng, 6, 6, 1)
        labels = np.array([0, 0, 0, 1, 1, 1])
        d = g.pairwise_distances(pts, "projection")
        aff = build_affinity(labels, d, 2, 2)
        a = g.sample_stiefel_uniform(6, 3, rng=rng).basis
        l1, _ = g.loss_supervised(a, pts, aff)
        perm = np.array([3, 1, 5, 0, 2, 4])
        pts2 = [pts[i] for i in perm]
        aff2 = aff[np.ix_(perm, perm)]
        l2, _ = g.loss_supervised(a, pts2, aff2)
        assert l1 == pytest.approx(l2, abs=1e-12)

    @pytest.mark.parametrize("p", (1, 2))
    @pytest.mark.parametrize("field", ("real", "complex"))
    @pytest.mark.parametrize("metric", ("projection", "geodesic"))
    def test_gradient_matches_fd(self, metric, field, p):
        rng = np.random.default_rng(22)
        pts = random_dataset(rng, 6, 7, p, field)
        stacked = stack_points(pts)
        labels = np.array([0, 0, 0, 1, 1, 1])
        aff = build_affinity(labels, g.pairwise_distances(stacked, "projection"), 2, 2)
        a = g.sample_stiefel_uniform(7, 3, field, rng=rng).basis

        def loss(a_, b_):
            return supervised_loss_and_grad(a_, stacked, aff, metric)

        assert check_gradient(loss, a, np.zeros((7, 0), dtype=a.dtype), rng=rng) < 1e-5

    def test_geodesic_value_matches_manifold_core(self):
        rng = np.random.default_rng(23)
        pts = random_dataset(rng, 3, 6, 1)
        a = g.sample_stiefel_uniform(6, 3, rng=rng).basis
        nmap = NestedMap(a, np.zeros((6, 1)))
        proj = [g.project_point(nmap, pt) for pt in pts]
        aff = np.full((3, 3), 1.0)
        np.fill_diagonal(aff, 0.0)
        loss, _ = g.loss_supervised(a, pts, aff, "geodesic")
        expected = sum(
            g.geodesic_distance(proj[i], proj[j]) ** 2
            for i in range(3)
            for j in range(3)
            if i != j
        ) / 9.0
        assert loss == pytest.approx(expected, abs=1e-10)


class TestFits:
    def test_planted_recovery_noiseless(self):
        data = g.generate(g.SynthConfig(N=30, n=9, m=3, p=1, sigma=0.0, b_std=0.0, seed=24))
        report = g.fit_unsupervised(data.points, 3)
        assert report.loss_trace[-1] < 1e-6
        assert report.explained_variance_ratio > 0.999
        assert report.converged

    def test_full_dimension_ratio_is_one(self):
        rng = np.random.default_rng(25)
        pts = random_dataset(rng, 8, 5, 1)
        report = g.fit_unsupervised(pts, 5, config=g.OptimizerConfig(max_iter=40))
        assert abs(report.explained_variance_ratio - 1.0) < 1e-9

    def test_loss_trace_monotone(self):
        data = g.generate(g.SynthConfig(N=20, n=8, m=3, p=1, sigma=0.5, seed=26))
        report = g.fit_unsupervised(data.points, 3)
        assert np.all(np.diff(report.loss_trace) <= 0)

    def test_supervised_improves_or_matches_knn(self):
        rng = np.random.default_rng(27)
        pts, labels = [], []
        e = np.eye(4)
        for i in range(10):
            base = e[:, [0]] if i % 2 == 0 else e[:, [1]]
            noise = 0.15 * rng.standard_normal((4, 1))
            pts.append(g.orthonormalize(base + noise))
            labels.append(i % 2)
        labels = np.asarray(labels)
        sup = g.fit_supervised(pts, labels, 2, rng=rng)
        unsup = g.fit_unsupervised(pts, 2, rng=rng)
        acc_sup, _ = g.gknn_loo(g.project_dataset(sup.map, pts), labels, k=3)
        acc_unsup, _ = g.gknn_loo(g.project_dataset(unsup.map, pts), labels, k=3)
        assert acc_sup >= acc_unsup
        assert np.abs(sup.map.B).max() == 0.0

    def test_supervised_zero_affinity_returns_init(self):
        rng = np.random.default_rng(28)
        pts = random_dataset(rng, 6, 5, 1)
        labels = np.array([0, 0, 0, 1, 1, 1])
        report = g.fit_supervised(pts, labels, 2, k_w=0, k_b=0, rng=rng)
        assert report.loss_trace == [0.0]
        assert report.iterations == 0

    def test_supervised_label_renaming_invariance(self):
        rng = np.random.default_rng(29)
        pts = random_dataset(rng, 8, 5, 1)
        labels = np.array([0, 1, 0, 1, 0, 1, 0, 1])
        r1 = g.fit_supervised(pts, labels, 2)
        r2 = g.fit_supervised(pts, 5 - labels, 2)  # renamed classes, same partition
        assert r1.loss_trace == r2.loss_trace

    def test_single_class_rejected(self):
        rng = np.random.default_rng(30)
        pts = random_dataset(rng, 5, 5, 1)
        with pytest.raises(SupervisionDegenerateError):
            g.fit_supervised(pts, [1, 1, 1, 1, 1], 2)

    def test_bad_target_dimension(self):
        rng = np.random.default_rng(31)
        pts = random_dataset(rng, 5, 5, 2)
        with pytest.raises(ShapeError):
            g.fit_unsupervised(pts, 2)  # m must exceed p
        with pytest.raises(ShapeError):
            g.fit_unsupervised(pts, 6)


class TestVariance:
    def test_identical_points_error(self):
        rng = np.random.default_rng(32)
        x = g.sample_stiefel_uniform(5, 1, rng=rng)
        nmap = random_map(rng, 5, 3, 1)
        assert g.variance([x, x, x]) == 0.0
        with pytest.raises(UndefinedRatioError):
            g.explained_variance_ratio(nmap, [x, x, x])

    def test_unitary_map_ratio_one(self):
        rng = np.random.default_rng(33)
        pts = random_dataset(rng, 6, 5, 2)
        a = g.sample_stiefel_uniform(5, 5, rng=rng).basis
        nmap = NestedMap(a, np.zeros((5, 2)))
        assert abs(g.explained_variance_ratio(nmap, pts) - 1.0) < 1e-9


class TestNestedSequence:
    def test_empty_dims(self):
        rng = np.random.default_rng(34)
        pts = random_dataset(rng, 5, 6, 1)
        assert g.nested_sequence(pts, []) == []

    def test_near_full_dimension_ratio(self):
        data = g.generate(g.SynthConfig(N=20, n=8, m=3, p=1, sigma=0.0, b_std=0.0, seed=35))
        entries = g.nested_sequence(data.points, [7])
        assert entries[0].m == 7
        assert entries[0].ratio > 0.99
        assert entries[0].error is None

    def test_reports_all_requested_dims(self):
        data = g.generate(g.SynthConfig(N=15, n=8, m=3, p=1, sigma=0.3, seed=36))
        entries = g.nested_sequence(data.points, [2, 4, 6], config=g.OptimizerConfig(max_iter=60))
        assert [e.m for e in entries] == [2, 4, 6]
        assert all(np.isfinite(e.ratio) for e in entries)

    def test_non_increasing_dims_rejected(self):
        rng = np.random.default_rng(37)
        pts = random_dataset(rng, 5, 6, 1)
        with pytest.raises(ShapeError):
            g.nested_sequence(pts, [4, 3])
