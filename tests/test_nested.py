import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import grassdr as g
from grassdr import nested
from grassdr.errors import (
    ConvergenceError,
    DegenerateInputError,
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
from grassdr.optim import OptimizeResult, check_gradient


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

    @pytest.mark.parametrize(
        "n, m, p, field, count", ((29, 10, 1, "complex", 300), (12, 5, 2, "real", 200), (9, 4, 3, "complex", 50))
    )
    def test_embed_dataset_is_the_per_point_map_bit_for_bit(self, n, m, p, field, count):
        rng = np.random.default_rng(15)
        nmap = random_map(rng, n, m, p, field)
        pts = random_dataset(rng, count, m, p, field)
        embedded = g.embed_dataset(nmap, pts)
        assert isinstance(embedded, g.Dataset)
        for z, x in zip(pts, embedded, strict=True):
            assert np.array_equal(x.basis, g.orthonormal_columns(nmap.A @ z.basis + nmap.B))
        assert np.array_equal(g.embed_point(nmap, pts[1]).basis, embedded.stacked[1])

    @pytest.mark.parametrize("case", ("field", "dimension"))
    def test_embed_mismatch_names_both_tuples(self, case):
        rng = np.random.default_rng(16)
        nmap = random_map(rng, 7, 3, 2)
        pts = random_dataset(rng, 4, 3, 2, "complex") if case == "field" else random_dataset(rng, 4, 7, 2)
        found = "(3, 2, 'complex')" if case == "field" else "(7, 2, 'real')"
        with pytest.raises(ShapeError, match=rf"\(m, p, field\) {re.escape(found)} .* map's \(3, 2, 'real'\)"):
            g.embed_dataset(nmap, pts)
        with pytest.raises(ShapeError, match=re.escape(found)):
            g.embed_point(nmap, pts[0])


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
        stacked = stack_points(data.points)
        for metric in ("projection", "geodesic"):
            loss, _ = unsupervised_loss_and_grad(nmap.A, nmap.B, stacked, metric)
            assert loss < 1e-12

    def test_single_point_cross_module_oracle(self):
        rng = np.random.default_rng(12)
        nmap = random_map(rng, 7, 3, 2)
        x = g.sample_stiefel_uniform(7, 2, rng=rng)
        raw = nmap.A @ (adjoint(nmap.A) @ x.basis) + nmap.B
        xhat = g.orthonormalize(raw)
        for metric, dist in (("projection", g.projection_distance), ("geodesic", g.geodesic_distance)):
            loss, _ = unsupervised_loss_and_grad(nmap.A, nmap.B, x.basis[None], metric)
            assert loss == pytest.approx(dist(x, xhat) ** 2, abs=1e-10)

    @pytest.mark.parametrize("field", ("real", "complex"))
    @pytest.mark.parametrize("p", (1, 2))
    def test_multi_point_cross_module_oracle(self, field, p):
        # The reconstruction of X_i is span(A A^H X_i + B) with B = (I - A A^H) B-tilde;
        # a Gaussian B-tilde also has a component in span(A), so c = A^H B-tilde is nonzero.
        rng = np.random.default_rng(17)
        n, m = 9, 4
        a = g.sample_stiefel_uniform(n, m, field, rng=rng).basis
        bt = 0.3 * rng.standard_normal((n, p)).astype(a.dtype)
        if field == "complex":
            bt += 0.3j * rng.standard_normal((n, p))
        nmap = NestedMap.from_unprojected(a, bt)
        pts = random_dataset(rng, 30, n, p, field)
        stacked = stack_points(pts)
        rebuilt = [g.orthonormalize(a @ (adjoint(a) @ x.basis) + nmap.B) for x in pts]
        for metric, dist in (("projection", g.projection_distance), ("geodesic", g.geodesic_distance)):
            loss, _ = unsupervised_loss_and_grad(a, bt, stacked, metric)
            expected = np.mean([dist(x, xhat) ** 2 for x, xhat in zip(pts, rebuilt)])
            assert loss == pytest.approx(expected, abs=1e-10)
            # With B = 0 the reconstruction is reconstruct_point's.
            loss, _ = unsupervised_loss_and_grad(a, np.zeros_like(bt), stacked, metric)
            plain = NestedMap(a, np.zeros_like(bt))
            expected = np.mean([dist(x, g.reconstruct_point(plain, x)) ** 2 for x in pts])
            assert loss == pytest.approx(expected, abs=1e-10)

    @pytest.mark.parametrize("metric", ("projection", "geodesic"))
    @pytest.mark.parametrize("p", (1, 2))
    def test_point_orthogonal_to_the_range_is_named(self, metric, p):
        rng = np.random.default_rng(18)
        n, m = 7, 3
        a = np.eye(n)[:, :m]
        pts = random_dataset(rng, 6, n, p)
        pts[4] = g.GrassmannPoint(np.eye(n)[:, m:m + p])  # A^H X_4 = 0 and B = 0: W_4 = 0
        with pytest.raises(DegenerateProjectionError) as info:
            unsupervised_loss_and_grad(a, np.zeros((n, p)), stack_points(pts), metric)
        assert info.value.index == 4
        assert "data point 4" in str(info.value)

    @pytest.mark.parametrize("metric", ("projection", "geodesic"))
    def test_one_call_allocates_about_one_copy_of_the_data(self, metric):
        # At the shapes-large size (N = 1000 shapes, n = 49, m = 11, p = 1, complex) every
        # per-point block is m x p or p x p, so no (N, n, p) temporary is made.
        rng = np.random.default_rng(19)
        stacked = stack_points(random_dataset(rng, 1000, 49, 1, "complex"))
        nmap = random_map(rng, 49, 11, 1, "complex")
        unsupervised_loss_and_grad(nmap.A, nmap.B, stacked, metric)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            unsupervised_loss_and_grad(nmap.A, nmap.B, stacked, metric)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * stacked.nbytes

    def test_projection_below_geodesic(self):
        rng = np.random.default_rng(13)
        nmap = random_map(rng, 7, 3, 1)
        pts = random_dataset(rng, 10, 7, 1)
        stacked = stack_points(pts)
        lp, _ = unsupervised_loss_and_grad(nmap.A, nmap.B, stacked, "projection")
        lg, _ = unsupervised_loss_and_grad(nmap.A, nmap.B, stacked, "geodesic")
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

    @pytest.mark.parametrize("p", (2, 1))  # p = 1 takes the column path
    @pytest.mark.parametrize("field", ("real", "complex"))
    @pytest.mark.parametrize("metric", ("projection", "geodesic"))
    def test_gradients_match_finite_differences(self, field, metric, p):
        rng = np.random.default_rng(16)
        pts = random_dataset(rng, 6, 8, p, field)
        stacked = stack_points(pts)
        a = g.sample_stiefel_uniform(8, 4, field, rng=rng).basis
        bt = 0.3 * rng.standard_normal((8, p)).astype(a.dtype)

        def loss(a_, b_):
            return unsupervised_loss_and_grad(a_, b_, stacked, metric)

        assert check_gradient(loss, a, bt, rng=rng) < 1e-5


class TestSingleColumnLoss:
    """The p = 1 loss on the column matrix (``_unsupervised_columns``) against the (N, 1, 1) block path."""

    @pytest.mark.parametrize("field", ("real", "complex"))
    @pytest.mark.parametrize("metric", ("projection", "geodesic"))
    @pytest.mark.parametrize("b_scale", (0.0, 0.3))
    def test_matches_the_stacked_path(self, field, metric, b_scale):
        rng = np.random.default_rng(20)
        stacked = stack_points(random_dataset(rng, 40, 10, 1, field))
        nmap = random_map(rng, 10, 3, 1, field, b_scale)
        bt = nmap.B + b_scale * (nmap.A @ rng.standard_normal((3, 1)))  # a part in span(A): c = A^H B-tilde != 0
        got = nested._unsupervised_columns(nmap.A, bt, stacked, metric)
        ref = nested._unsupervised_stacked(nmap.A, bt, stacked, metric)
        assert got[0] == pytest.approx(ref[0], rel=1e-13)
        for grad, grad_ref in zip(got[1], ref[1], strict=True):
            assert grad.shape == grad_ref.shape
            assert np.abs(grad - grad_ref).max() <= 1e-13 * np.abs(grad_ref).max()

    @pytest.mark.parametrize("metric", ("projection", "geodesic"))
    @pytest.mark.parametrize("b_in_range", (False, True))
    def test_point_orthogonal_to_a_and_b_tilde_names_the_same_index(self, metric, b_in_range):
        # X_4 is orthogonal to span([A B-tilde]); with B-tilde = 0 or inside span(A) its reconstruction
        # A A^H X_4 + (I - A A^H) B-tilde is zero, so W_4 = 0 exactly.
        rng = np.random.default_rng(22)
        n, m = 7, 3
        a = np.eye(n)[:, :m]
        bt = a @ np.array([[0.5], [0.25], [0.0]]) if b_in_range else np.zeros((n, 1))
        stacked = stack_points(random_dataset(rng, 6, n, 1))
        stacked[4] = np.eye(n)[:, m:m + 1]
        for kernel in (nested._unsupervised_columns, nested._unsupervised_stacked):
            with pytest.raises(DegenerateProjectionError, match="data point 4") as info:
                kernel(a, bt, stacked, metric)
            assert info.value.index == 4

    def test_point_orthogonal_to_a_with_b_off_the_range_is_reconstructed_as_b(self):
        rng = np.random.default_rng(22)
        n, m = 7, 3
        a, bt = np.eye(n)[:, :m], np.eye(n)[:, m + 1:m + 2]
        stacked = stack_points(random_dataset(rng, 6, n, 1))
        stacked[4] = np.eye(n)[:, m:m + 1]  # orthogonal to A and B: at angle pi/2 from span(B)
        for metric, d2 in (("projection", 1.0), ("geodesic", (np.pi / 2) ** 2)):
            loss, _ = nested._unsupervised_columns(a, bt, stacked, metric)
            rest, _ = nested._unsupervised_columns(a, bt, np.delete(stacked, 4, axis=0), metric)
            assert loss == pytest.approx((5 * rest + d2) / 6, rel=1e-13)

    @pytest.mark.parametrize("metric", ("projection", "geodesic"))
    def test_nan_point_fails_the_rank_test(self, metric):
        rng = np.random.default_rng(23)
        stacked = stack_points(random_dataset(rng, 6, 7, 1))
        stacked[2, 3] = np.nan
        nmap = random_map(rng, 7, 3, 1)
        with pytest.raises(DegenerateProjectionError) as info:
            nested._unsupervised_columns(nmap.A, nmap.B, stacked, metric)
        assert info.value.index == 2


class TestNoLapackForSingleColumns:
    """At p = 1 the losses and the Karcher sweeps make no LAPACK call (eigh, svd or qr)."""

    @pytest.mark.parametrize("field", ("real", "complex"))
    @pytest.mark.parametrize("metric", ("projection", "geodesic"))
    def test_losses(self, monkeypatch, field, metric):
        rng = np.random.default_rng(24)
        stacked = stack_points(random_dataset(rng, 12, 8, 1, field))
        nmap = random_map(rng, 8, 3, 1, field)  # A's draw takes a LAPACK QR, so refuse LAPACK only now
        affinity = build_affinity(np.arange(12) % 2, g.pairwise_distances(stacked, "projection"), 2, 2)

        def refuse(*args, **kwargs):
            raise AssertionError("LAPACK call in a p = 1 loss")

        for name in ("eigh", "svd", "qr"):
            monkeypatch.setattr(np.linalg, name, refuse)
        unsupervised_loss_and_grad(nmap.A, nmap.B, stacked, metric)
        supervised_loss_and_grad(nmap.A, stacked, affinity, metric)

    @pytest.mark.parametrize("field", ("real", "complex"))
    def test_karcher_sweeps(self, monkeypatch, field):
        rng = np.random.default_rng(25)
        stacked = stack_points(random_dataset(rng, 12, 8, 1, field))
        svd, calls = np.linalg.svd, []

        def start_only(*args, **kwargs):
            calls.append(args[0].shape)
            if len(calls) > 1:
                raise AssertionError("LAPACK SVD after the Karcher start")
            return svd(*args, **kwargs)

        def refuse(*args, **kwargs):
            raise AssertionError("LAPACK call in a p = 1 Karcher sweep")

        monkeypatch.setattr(np.linalg, "svd", start_only)
        monkeypatch.setattr(np.linalg, "eigh", refuse)
        monkeypatch.setattr(np.linalg, "qr", refuse)
        g.frechet_mean(stacked)
        assert calls == [(8, 12)]


def affinity_reference(labels, distances, k_w, k_b):
    """Per-row affinity by a stable sort of each row: the loop the selection in ``build_affinity`` replaced."""
    labels = np.asarray(labels)
    n_pts = labels.shape[0]
    aff = np.zeros((n_pts, n_pts))
    for i in range(n_pts):
        same = np.nonzero((labels == labels[i]) & (np.arange(n_pts) != i))[0]
        other = np.nonzero(labels != labels[i])[0]
        for neighbors, count, value in ((same, k_w, 1.0), (other, k_b, -1.0)):
            chosen = neighbors[np.argsort(distances[i, neighbors], kind="stable")[:count]]
            aff[i, chosen] = value
            aff[chosen, i] = value
    return aff


@st.composite
def tie_heavy_affinity_cases(draw):
    """Symmetric integer distances (many ties), up to 4 classes (singletons likely) and k_w, k_b in 0..n."""
    n = draw(st.integers(1, 12))
    entries = draw(st.lists(st.integers(0, 3), min_size=n * n, max_size=n * n))
    d = np.asarray(entries, dtype=float).reshape(n, n)
    labels = np.asarray(draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)))
    return labels, d + d.T, draw(st.integers(0, n)), draw(st.integers(0, n))


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

    @settings(max_examples=300, deadline=None)
    @given(tie_heavy_affinity_cases())
    def test_matches_reference_loop(self, case):
        labels, distances, k_w, k_b = case
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            aff = build_affinity(labels, distances, k_w, k_b)
        assert np.array_equal(aff, affinity_reference(labels, distances, k_w, k_b))

    @pytest.mark.parametrize("k_w,k_b", ((1, 1), (5, 5), (20, 3)))
    def test_matches_reference_loop_at_300_points(self, k_w, k_b):
        # 300 rows span three row blocks; distances quantized to 0.05 tie often at the k-th
        # neighbour, where the selection must still keep the lower index, as the stable sort does.
        rng = np.random.default_rng(30)
        d = np.round(rng.random((300, 300)) * 20) * 0.05
        d = d + d.T
        np.fill_diagonal(d, 0.0)
        labels = rng.integers(0, 3, 300)
        assert np.array_equal(build_affinity(labels, d, k_w, k_b), affinity_reference(labels, d, k_w, k_b))

    @pytest.mark.parametrize("bad", (np.nan, np.inf))
    def test_non_finite_distance_rejected(self, bad):
        d = np.ones((4, 4))
        d[0, 3] = bad
        for k_w, k_b in ((1, 1), (0, 0)):
            with pytest.raises(DegenerateInputError, match="distances must be finite"):
                build_affinity([0, 0, 1, 1], d, k_w, k_b)


class TestSupervisedLoss:
    def test_zero_affinity_gives_zero(self):
        rng = np.random.default_rng(19)
        pts = random_dataset(rng, 5, 6, 1)
        a = g.sample_stiefel_uniform(6, 3, rng=rng).basis
        loss, (grad, _) = supervised_loss_and_grad(a, stack_points(pts), np.zeros((5, 5)))
        assert loss == 0.0
        assert np.abs(grad).max() == 0.0

    def test_two_point_hand_expansion(self):
        rng = np.random.default_rng(20)
        pts = random_dataset(rng, 2, 6, 1)
        a = g.sample_stiefel_uniform(6, 3, rng=rng).basis
        nmap = NestedMap(a, np.zeros((6, 1)))
        proj = [g.project_point(nmap, pt) for pt in pts]
        aff = np.array([[0.0, 1.0], [1.0, 0.0]])
        loss, _ = supervised_loss_and_grad(a, stack_points(pts), aff)
        assert loss == pytest.approx(g.projection_distance(proj[0], proj[1]) ** 2 / 2.0, abs=1e-12)

    def test_order_permutation_invariance(self):
        rng = np.random.default_rng(21)
        pts = random_dataset(rng, 6, 6, 1)
        labels = np.array([0, 0, 0, 1, 1, 1])
        d = g.pairwise_distances(pts, "projection")
        aff = build_affinity(labels, d, 2, 2)
        a = g.sample_stiefel_uniform(6, 3, rng=rng).basis
        l1, _ = supervised_loss_and_grad(a, stack_points(pts), aff)
        perm = np.array([3, 1, 5, 0, 2, 4])
        pts2 = [pts[i] for i in perm]
        aff2 = aff[np.ix_(perm, perm)]
        l2, _ = supervised_loss_and_grad(a, stack_points(pts2), aff2)
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
        loss, _ = supervised_loss_and_grad(a, stack_points(pts), aff, "geodesic")
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

    @pytest.mark.parametrize("restarts", [0, -3])
    def test_restarts_below_one_rejected(self, restarts):
        rng = np.random.default_rng(37)
        pts = random_dataset(rng, 6, 5, 1)
        with pytest.raises(ShapeError):
            g.fit_unsupervised(pts, 2, restarts=restarts)
        with pytest.raises(ShapeError):
            g.fit_supervised(pts, [0, 1] * 3, 2, restarts=restarts)

    @pytest.mark.parametrize("final_losses, winner", [((1.0, 2.0), 0), ((2.0, 1.0), 1)])
    def test_stalled_start_competes_with_its_carried_result(self, monkeypatch, final_losses, winner):
        # The first start's line search stalls; the best iterate it carries
        # competes with the later restart on its final loss like any result.
        # The starting losses are ordered the other way round.
        starts = []

        def stalling_then_converging(loss, a, b, config=None):
            final = final_losses[len(starts)]
            result = OptimizeResult(a, b, [10.0 - final, final], 1, bool(starts), 0.0)
            starts.append(a)
            if len(starts) == 1:
                raise ConvergenceError("line search stalled", result=result)
            return result

        monkeypatch.setattr(nested, "minimize", stalling_then_converging)
        rng = np.random.default_rng(38)
        report = g.fit_unsupervised(random_dataset(rng, 6, 5, 1), 2, rng=rng, restarts=2)
        assert len(starts) == 2
        assert report.loss_trace[-1] == final_losses[winner]
        assert report.converged == bool(winner)
        assert np.array_equal(report.map.A, starts[winner])


def structured_dataset(field, p, seed, count=20, n=7):
    """Noisy points around a 3-dimensional subspace, offset so that the fitted B is nonzero."""
    rng = np.random.default_rng(seed)
    a = g.sample_stiefel_uniform(n, 3, field, rng=rng).basis

    def gaussian(shape):
        return rng.standard_normal(shape) + (1j * rng.standard_normal(shape) if field == "complex" else 0.0)

    return g.Dataset(g.orthonormal_columns(a @ gaussian((count, 3, p)) + 0.3 * gaussian((count, n, p)) + 0.2)), rng


class TestWholeFitInvariances:
    """Whole fits are equivariant under what leaves the data's subspaces (and B = 0 models) alone.

    The fits stop at 15 iterations. Permuting the points or rotating the
    ambient space changes only the floating-point order, which moved every
    loss, EV and B by at most 2e-15 on these inputs; the bound is 1e-10.
    """

    TOL = 1e-10
    CONFIG = g.OptimizerConfig(max_iter=15)

    @pytest.mark.parametrize("p", (1, 2))
    @pytest.mark.parametrize("metric", ("projection", "geodesic"))
    @pytest.mark.parametrize("field", ("real", "complex"))
    def test_permutation_and_ambient_unitary(self, field, metric, p):
        ds, rng = structured_dataset(field, p, seed=40)
        perm = rng.permutation(len(ds))
        u = g.sample_stiefel_uniform(7, 7, field, rng=rng).basis
        base = g.fit_unsupervised(ds, 3, metric, config=self.CONFIG)
        assert np.abs(base.map.B).max() > 0.01
        permuted = g.fit_unsupervised(g.Dataset(ds.stacked[perm]), 3, metric, config=self.CONFIG)
        rotated = g.fit_unsupervised(g.Dataset(u @ ds.stacked), 3, metric, config=self.CONFIG)
        assert abs(permuted.loss_trace[-1] - base.loss_trace[-1]) < self.TOL
        assert abs(permuted.explained_variance_ratio - base.explained_variance_ratio) < self.TOL
        assert len(rotated.loss_trace) == len(base.loss_trace)
        assert np.abs(np.subtract(rotated.loss_trace, base.loss_trace)).max() < self.TOL
        assert abs(rotated.explained_variance_ratio - base.explained_variance_ratio) < self.TOL
        assert g.GrassmannPoint(rotated.map.A).same_subspace(g.GrassmannPoint(u @ base.map.A))
        assert np.abs(rotated.map.B - u @ base.map.B).max() < self.TOL

    @pytest.mark.parametrize("p", (1, 2))
    @pytest.mark.parametrize("metric", ("projection", "geodesic"))
    @pytest.mark.parametrize("field", ("real", "complex"))
    def test_supervised_fits_under_permutation_and_ambient_unitary(self, field, metric, p):
        # Supervised fits are chaotic under rounding, so they are compared over 4 iterations only.
        ds, rng = structured_dataset(field, p, seed=43)
        labels = np.arange(len(ds)) % 2
        perm = rng.permutation(len(ds))
        u = g.sample_stiefel_uniform(7, 7, field, rng=rng).basis
        config = g.OptimizerConfig(max_iter=4)
        cases = [(ds, labels), (g.Dataset(ds.stacked[perm]), labels[perm]), (g.Dataset(u @ ds.stacked), labels)]
        fits = [g.fit_supervised(d, y, 3, metric, k_w=3, k_b=3, config=config) for d, y in cases]
        evs = [g.pga_explained_variance(g.spga_fit(d, y, 2), d, 2) for d, y in cases]
        base, permuted, rotated = fits
        for fit in (permuted, rotated):
            assert len(fit.loss_trace) == len(base.loss_trace)
            assert np.abs(np.subtract(fit.loss_trace, base.loss_trace)).max() < self.TOL
        assert g.GrassmannPoint(permuted.map.A).same_subspace(g.GrassmannPoint(base.map.A))
        assert g.GrassmannPoint(rotated.map.A).same_subspace(g.GrassmannPoint(u @ base.map.A))
        assert np.ptp(evs) < self.TOL

    @pytest.mark.parametrize("p", (1, 2))
    @pytest.mark.parametrize("field", ("real", "complex"))
    def test_pga_ev_under_permutation_and_ambient_unitary(self, field, p):
        ds, rng = structured_dataset(field, p, seed=41)
        u = g.sample_stiefel_uniform(7, 7, field, rng=rng).basis
        evs = [
            g.pga_explained_variance(g.pga_fit(d, 2), d, 2)
            for d in (ds, g.Dataset(ds.stacked[rng.permutation(len(ds))]), g.Dataset(u @ ds.stacked))
        ]
        assert np.ptp(evs) < self.TOL

    @pytest.mark.parametrize("p", (1, 2))
    @pytest.mark.parametrize("metric", ("projection", "geodesic"))
    @pytest.mark.parametrize("field", ("real", "complex"))
    def test_change_of_basis_leaves_b_zero_paths_unchanged(self, field, metric, p):
        # X_i -> X_i Q_i keeps every subspace, so neither the projections nor
        # the supervised loss (B = 0) may move.
        ds, rng = structured_dataset(field, p, seed=42)
        q = g.stack_points([g.sample_stiefel_uniform(p, p, field, rng=rng) for _ in range(len(ds))])
        turned = g.Dataset(ds.stacked @ q)
        nmap = random_map(rng, 7, 3, p, field)
        for a, b in zip(g.project_dataset(nmap, ds), g.project_dataset(nmap, turned), strict=True):
            assert a.same_subspace(b)
        aff = build_affinity(np.arange(len(ds)) % 2, g.pairwise_distances(ds, "projection"), 3, 3)
        v1, (g1, _) = supervised_loss_and_grad(nmap.A, ds.stacked, aff, metric)
        v2, (g2, _) = supervised_loss_and_grad(nmap.A, turned.stacked, aff, metric)
        assert abs(v1 - v2) < self.TOL
        assert np.abs(g1 - g2).max() < 1e-8


class TestVariance:
    def test_identical_points_error(self):
        rng = np.random.default_rng(32)
        x = g.sample_stiefel_uniform(5, 1, rng=rng)
        nmap = random_map(rng, 5, 3, 1)
        assert g.variance([x, x, x]) == 0.0
        with pytest.raises(UndefinedRatioError):
            g.explained_variance_ratio(nmap, [x, x, x])

    def test_small_spread_keeps_its_size(self):
        # 20 points within 1e-8 of one line in R^8: the arccos of snapped cosines measured exactly 0.
        rng = np.random.default_rng(34)
        line = rng.standard_normal((8, 1))
        ds = g.Dataset(g.orthonormal_columns(line / np.linalg.norm(line) + 1e-8 * rng.standard_normal((20, 8, 1))))
        mu = ds.mean.basis
        cos = np.abs(adjoint(mu) @ ds.stacked)[:, 0, 0]
        sin = np.linalg.norm(ds.stacked - mu @ (adjoint(mu) @ ds.stacked), axis=(1, 2))
        reference = np.mean(np.arctan2(sin, cos) ** 2)
        assert reference > 1e-16
        assert abs(g.variance(ds) / reference - 1.0) < 1e-6
        assert np.isfinite(g.explained_variance_ratio(random_map(rng, 8, 3, 1), ds))

    def test_unitary_map_ratio_one(self):
        rng = np.random.default_rng(33)
        pts = random_dataset(rng, 6, 5, 2)
        a = g.sample_stiefel_uniform(5, 5, rng=rng).basis
        nmap = NestedMap(a, np.zeros((5, 2)))
        assert abs(g.explained_variance_ratio(nmap, pts) - 1.0) < 1e-9


    def test_order_independent(self):
        # Fig4 protocol at sigma = 0.01: Karcher means started at the first
        # point gave EV spreads of 0.11 (NG) and 0.02 (PGA) over orderings.
        data = g.generate(g.SynthConfig(N=50, n=10, m=5, p=2, sigma=0.01, seed=5))
        pts = data.points
        nmap = g.fit_unsupervised(pts, 3).map
        rng = np.random.default_rng(0)
        ng_evs, pga_evs = [], []
        for _ in range(8):
            perm = [pts[i] for i in rng.permutation(len(pts))]
            ng_evs.append(g.explained_variance_ratio(nmap, perm))
            pga_evs.append(g.pga_explained_variance(g.pga_fit(perm, 2), perm, 2))
        assert np.ptp(ng_evs) <= 1e-9
        assert np.ptp(pga_evs) <= 1e-9

    def test_spread_data_converges(self):
        # Widely spread complex lines: Karcher iterations started at data
        # points, damped or not, failed to converge on this dataset.
        rng = np.random.default_rng(6)
        e1 = np.eye(20)[:, :1]
        pts = [
            g.orthonormalize(e1 + 3.0 * (rng.standard_normal((20, 1)) + 1j * rng.standard_normal((20, 1))))
            for _ in range(30)
        ]
        assert np.isfinite(g.variance(pts))
        mu = g.frechet_mean(pts)
        grad = sum(g.log_map(mu, x).mat for x in pts) / len(pts)
        assert np.linalg.norm(grad) <= 1e-9


    def test_given_mean_gives_the_same_results(self):
        # A Dataset whose mean and variance are already computed hands them to
        # later calls; each call returns exactly what it returns on a list.
        data = g.generate(g.SynthConfig(N=20, n=8, m=4, p=2, sigma=0.2, seed=38))
        pts = data.points
        ds = g.Dataset(pts)
        assert np.array_equal(ds.mean.basis, g.frechet_mean(pts).basis)
        assert ds.variance == g.variance(pts)
        assert g.explained_variance_ratio(data.map, ds) == g.explained_variance_ratio(data.map, pts)
        config = g.OptimizerConfig(max_iter=20)
        given = g.fit_unsupervised(ds, 5, config=config)
        without = g.fit_unsupervised(pts, 5, config=config)
        assert given.explained_variance_ratio == without.explained_variance_ratio
        assert given.loss_trace == without.loss_trace

    def test_dataset_reference_gives_the_same_results(self):
        # A Dataset passed to several fits shares one Karcher mean and
        # variance; each fit returns exactly what it returns on a plain list.
        data = g.generate(g.SynthConfig(N=20, n=8, m=4, p=2, sigma=0.2, seed=38))
        pts = data.points
        ds = g.Dataset(pts)
        labels = [0, 1] * 10
        config = g.OptimizerConfig(max_iter=20)
        for fit in (
            lambda d: g.fit_unsupervised(d, 5, config=config),
            lambda d: g.fit_supervised(d, labels, 5, config=config),
        ):
            on_ds, on_list = fit(ds), fit(pts)
            assert on_ds.explained_variance_ratio == on_list.explained_variance_ratio
            assert on_ds.loss_trace == on_list.loss_trace
        for fit in (lambda d: g.pga_fit(d, 3), lambda d: g.spga_fit(d, labels, 3)):
            on_ds, on_list = fit(ds), fit(pts)
            assert np.array_equal(on_ds.mean.basis, on_list.mean.basis)
            assert np.array_equal(on_ds.components, on_list.components)
            assert np.array_equal(on_ds.component_variances, on_list.component_variances)

    def test_karcher_path_through_the_cut_locus(self):
        # The Karcher iteration on this fit's projected data passes within
        # 1e-5 of a point's cut locus; a log map built on (X^H Y)^{-1}
        # raised CutLocusError there.
        data = g.generate(g.SynthConfig(N=50, n=30, m=20, p=2, sigma=0.1, seed=42002))
        report = g.fit_unsupervised(data.points, 5, config=g.OptimizerConfig(max_iter=100))
        assert np.isfinite(report.explained_variance_ratio)
        assert 0.0 < report.explained_variance_ratio < 1.0


class TestNestedSequence:
    def test_empty_dims(self):
        rng = np.random.default_rng(34)
        pts = random_dataset(rng, 5, 6, 1)
        assert g.nested_sequence(pts, []) == []

    def test_near_full_dimension_ratio(self):
        data = g.generate(g.SynthConfig(N=20, n=8, m=3, p=1, sigma=0.0, b_std=0.0, seed=35))
        reports = g.nested_sequence(data.points, [7])
        assert reports[0].map.m == 7
        assert reports[0].explained_variance_ratio > 0.99

    def test_reports_all_requested_dims(self):
        data = g.generate(g.SynthConfig(N=15, n=8, m=3, p=1, sigma=0.3, seed=36))
        config = g.OptimizerConfig(max_iter=60)
        reports = g.nested_sequence(data.points, [2, 4, 6], config=config)
        assert all(isinstance(r, g.FitReport) for r in reports)
        assert [r.map.m for r in reports] == [2, 4, 6]
        assert all(np.isfinite(r.explained_variance_ratio) for r in reports)
        alone = g.fit_unsupervised(data.points, 4, config=config)
        assert reports[1].explained_variance_ratio == alone.explained_variance_ratio
        assert reports[1].loss_trace == alone.loss_trace

    def test_failing_fit_raises(self):
        # m = 1 is not above p = 1: the fit's ShapeError propagates.
        rng = np.random.default_rng(38)
        pts = random_dataset(rng, 6, 6, 1)
        with pytest.raises(ShapeError, match="target dimension"):
            g.nested_sequence(pts, [1, 3])

    def test_non_increasing_dims_rejected(self):
        rng = np.random.default_rng(37)
        pts = random_dataset(rng, 5, 6, 1)
        with pytest.raises(ShapeError):
            g.nested_sequence(pts, [4, 3])
