import tracemalloc

import numpy as np
import pytest

import grassdr as g
from grassdr import geometry
from grassdr.errors import (
    ConvergenceError,
    CutLocusError,
    DegenerateInputError,
    InvalidTangentError,
    ShapeError,
)
from grassdr.geometry import _COS_SNAP, _batched_log_mats, _canonical_qr, _leading_left_singular_vectors, _svd, adjoint

FIELDS = ("real", "complex")


def random_point(rng, n, p, field="real"):
    return g.sample_stiefel_uniform(n, p, field, rng=rng)


def random_unitary(rng, p, field="real"):
    return random_point(rng, p, p, field).basis


def projector_distance(x, y):
    """Sin-based distance, free of the arccos floor near zero angles."""
    px = x.basis @ adjoint(x.basis)
    py = y.basis @ adjoint(y.basis)
    return float(np.linalg.norm(px - py)) / np.sqrt(2.0)


def gaussian_stack(rng, shape, field="real"):
    z = rng.standard_normal(shape)
    return z + 1j * rng.standard_normal(shape) if field == "complex" else z


def random_stack(rng, count, n, p, field="real"):
    """(count, n, p) orthonormal bases of Gaussian draws, one batched QR."""
    return g.orthonormal_columns(gaussian_stack(rng, (count, n, p), field))


def pairwise_distances_reference(stacked, metric):
    """The one-GEMM formula the row-blocked ``pairwise_distances`` replaced: all N^2 blocks X_i^H X_j at once."""
    n_pts, n, p = stacked.shape
    flat = stacked.transpose(1, 0, 2).reshape(n, -1)
    cos = (adjoint(flat) @ flat).reshape(n_pts, p, n_pts, p).transpose(0, 2, 1, 3)
    s = np.clip(np.abs(cos[..., 0]) if p == 1 else np.linalg.svd(cos, compute_uv=False), 0.0, 1.0)
    theta = np.arccos(np.where(s > 1.0 - _COS_SNAP, 1.0, s))
    d = np.sqrt(((np.sin(theta) if metric == "projection" else theta) ** 2).sum(axis=-1))
    d = 0.5 * (d + d.T)
    np.fill_diagonal(d, 0.0)
    return d


def log_mats_by_inverse(base, stacked):
    """Reference log map: U arctan(S) V^H from the SVD of (I - X X^H) Y (X^H Y)^{-1}."""
    m = adjoint(base) @ stacked
    u, s, vh = np.linalg.svd((stacked - base @ m) @ np.linalg.inv(m), full_matrices=False)
    h = (u * np.arctan(s)[:, None, :]) @ vh
    return h - base @ (adjoint(base) @ h)


def canonical_qr_by_lapack(a):
    """Q of ``np.linalg.qr`` phased so that diag(R) is real and nonnegative."""
    q, r = np.linalg.qr(a)
    d = np.diagonal(r, axis1=-2, axis2=-1).copy()
    d[d == 0] = 1.0
    return q * np.conj(d / np.abs(d))[..., None, :]


def frechet_mean_by_lapack(stacked):
    """The Karcher iteration of ``frechet_mean`` with every SVD and QR taken by LAPACK."""
    flat = stacked.transpose(1, 0, 2).reshape(stacked.shape[1], -1)
    mu = np.linalg.svd(flat, full_matrices=False)[0][:, : stacked.shape[2]]
    for _ in range(geometry.KARCHER_MAX_ITER):
        next_mu = karcher_step_by_lapack(mu, stacked)
        if next_mu is None:
            return mu
        mu = next_mu
    raise AssertionError("the reference Karcher iteration did not converge")


def karcher_step_by_lapack(mu, stacked):
    """One sweep of ``frechet_mean_by_lapack`` at ``mu``: the next iterate, or None at ``KARCHER_TOL``."""
    u, c, vh = np.linalg.svd(adjoint(mu) @ stacked)
    resid = stacked @ adjoint(vh) - mu @ (u * c[:, None, :])
    sin = np.linalg.norm(resid, axis=1)
    ratio = np.divide(np.arctan2(sin, c), sin, out=np.ones_like(sin), where=sin > 0)
    grad = (resid @ (ratio[:, :, None] * adjoint(u))).mean(axis=0)
    if np.linalg.norm(grad) <= geometry.KARCHER_TOL:
        return None
    hu, hs, hvh = np.linalg.svd(grad, full_matrices=False)
    return canonical_qr_by_lapack((mu @ adjoint(hvh)) * np.cos(hs) + hu * np.sin(hs))


def angles_oracle(x, y):
    """SVD-free principal angles via the spectrum of X^H Y Y^H X."""
    c = adjoint(x.basis) @ y.basis
    lam = np.linalg.eigvalsh(c @ adjoint(c))
    cos = np.sqrt(np.clip(lam, 0.0, 1.0))
    return np.sort(np.arccos(cos))


class TestOrthonormalize:
    def test_already_orthonormal(self):
        m = np.eye(4)[:, :2]
        q = g.orthonormalize(m)
        assert np.allclose(q.basis, m)

    def test_column_scaling_removed(self):
        m = np.array([[2.0, 0.0], [0.0, 3.0], [0.0, 0.0]])
        q = g.orthonormalize(m)
        expected = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
        assert np.allclose(np.abs(q.basis), expected)

    @pytest.mark.parametrize("field", FIELDS)
    def test_random_spans_preserved(self, field):
        rng = np.random.default_rng(3)
        for _ in range(20):
            m = rng.standard_normal((6, 2))
            if field == "complex":
                m = m + 1j * rng.standard_normal((6, 2))
            q = g.orthonormalize(m)
            assert np.abs(adjoint(q.basis) @ q.basis - np.eye(2)).max() < 1e-12
            # span unchanged: angles between q and a re-orthonormalization of m are zero
            q2 = g.orthonormalize(m * 2.0)
            assert g.principal_angles(q, q2).max() < 1e-9

    def test_rank_deficient_rejected(self):
        m = np.ones((5, 2))
        with pytest.raises(DegenerateInputError):
            g.orthonormalize(m)

    def test_deterministic_representative(self):
        rng = np.random.default_rng(4)
        m = rng.standard_normal((7, 3))
        assert np.array_equal(g.orthonormalize(m).basis, g.orthonormalize(m).basis)

    @pytest.mark.parametrize("field", FIELDS)
    def test_stack_matches_each_matrix(self, field):
        rng = np.random.default_rng(5)
        for p in (2, 1):  # p = 1 takes the closed form
            m = rng.standard_normal((4, 3, 6, p))
            if field == "complex":
                m = m + 1j * rng.standard_normal(m.shape)
            got = g.orthonormal_columns(m)
            assert got.shape == m.shape
            for idx in np.ndindex(m.shape[:2]):
                assert np.array_equal(got[idx], g.orthonormal_columns(m[idx]))

    def test_stack_error_names_the_rank_deficient_index(self):
        m = np.random.default_rng(6).standard_normal((5, 4, 2))
        m[3, :, 1] = 2.0 * m[3, :, 0]
        with pytest.raises(DegenerateInputError, match="matrix 3 of the stack"):
            g.orthonormal_columns(m)

    def test_stack_error_carries_the_index(self):
        m = np.random.default_rng(6).standard_normal((5, 4, 2))
        m[3, :, 1] = 2.0 * m[3, :, 0]
        with pytest.raises(DegenerateInputError) as err:
            g.orthonormal_columns(m)
        assert err.value.index == 3
        with pytest.raises(DegenerateInputError) as err:
            g.orthonormal_columns(m[3])
        assert err.value.index is None

    @pytest.mark.parametrize("bad", (np.nan, np.inf, -np.inf))
    def test_non_finite_matrix_rejected(self, bad):
        with pytest.raises(DegenerateInputError, match="^matrix has a NaN or infinite entry") as err:
            g.orthonormal_columns(np.array([[bad], [1.0]]))
        assert err.value.index is None
        m = np.random.default_rng(7).standard_normal((2, 3, 4, 2))
        m[1, 0, 2, 1] = bad
        with pytest.raises(DegenerateInputError, match="^matrix 1, 0 of the stack has a NaN") as err:
            g.orthonormal_columns(m)
        assert err.value.index == 3

    @pytest.mark.parametrize("bad", (np.nan, np.inf))
    def test_non_finite_basis_rejected(self, bad):
        with pytest.raises(DegenerateInputError):
            g.GrassmannPoint(np.array([[bad], [0.0], [1.0]]))


class TestSingleColumnClosedForms:
    """``_svd`` and ``_canonical_qr`` of (N, n, 1) stacks, which need no LAPACK call, against LAPACK."""

    @pytest.mark.parametrize("field", FIELDS)
    @pytest.mark.parametrize("n", (1, 2, 10, 99))
    def test_match_lapack(self, field, n):
        rng = np.random.default_rng(40 + n)
        a = gaussian_stack(rng, (50, n, 1), field)
        u, s, vh = _svd(a)
        assert u.shape == a.shape and s.shape == (50, 1) and np.array_equal(vh, np.ones((50, 1, 1)))
        assert np.abs(s / np.linalg.svd(a, compute_uv=False) - 1.0).max() <= 1e-15
        assert np.array_equal(_svd(a, compute_uv=False), s)
        u_lapack = np.linalg.svd(a, full_matrices=False)[0]
        assert np.abs(np.abs(adjoint(u) @ u_lapack) - 1.0).max() <= 1e-15  # the same span
        assert np.abs((u * s[:, None, :]) @ vh - a).max() <= 1e-15 * s.max()
        assert np.abs(_canonical_qr(a) - canonical_qr_by_lapack(a)).max() <= 1e-15

    def test_wider_matrices_go_to_lapack(self):
        a = gaussian_stack(np.random.default_rng(41), (5, 6, 2), "complex")
        for got, want in zip(_svd(a), np.linalg.svd(a, full_matrices=False), strict=True):
            assert np.array_equal(got, want)
        assert np.array_equal(_canonical_qr(a), canonical_qr_by_lapack(a))

    @pytest.mark.parametrize("field", FIELDS)
    @pytest.mark.parametrize("n", (1, 4))
    def test_zero_column(self, field, n):
        a = gaussian_stack(np.random.default_rng(42), (3, n, 1), field)
        a[1] = 0.0
        u, s, _ = _svd(a)
        assert s[1, 0] == 0.0 and s[[0, 2], 0].min() > 0.0
        assert np.array_equal(u[1], np.eye(n)[:, :1])  # e_1, a unit vector, as LAPACK gives
        assert np.array_equal(_canonical_qr(a)[1], np.eye(n)[:, :1])
        assert np.array_equal(_canonical_qr(a)[1], canonical_qr_by_lapack(a[1]))

    @pytest.mark.parametrize("field", FIELDS)
    @pytest.mark.parametrize("n", (1, 7))
    @pytest.mark.parametrize("scale", (1e-300, 1e300))
    def test_extreme_scales(self, field, n, scale):
        # The suite turns an overflow or underflow RuntimeWarning into an error.
        a = gaussian_stack(np.random.default_rng(43), (20, n, 1), field)
        u, s, _ = _svd(a * scale)
        u1, s1, _ = _svd(a)
        assert np.abs(s / (s1 * scale) - 1.0).max() <= 1e-15
        assert np.abs(u - u1).max() <= 1e-15
        assert np.abs(_canonical_qr(a * scale) - canonical_qr_by_lapack(a)).max() <= 1e-15
        for power in (2.0**-1000, 2.0**1000):  # a power of two changes nothing, bit for bit
            assert np.array_equal(_canonical_qr(a * power), _canonical_qr(a))
            assert np.array_equal(_svd(a * power, compute_uv=False), s1 * power)


class TestPrincipalAngles:
    def test_identical_subspaces(self):
        rng = np.random.default_rng(5)
        x = random_point(rng, 6, 3)
        assert g.principal_angles(x, x).max() == 0.0

    def test_shared_and_orthogonal_direction(self):
        e = np.eye(4)
        x = g.GrassmannPoint(e[:, [0, 1]])
        y = g.GrassmannPoint(e[:, [0, 2]])
        assert np.allclose(g.principal_angles(x, y), [0.0, np.pi / 2], atol=1e-12)

    @pytest.mark.parametrize("field", FIELDS)
    def test_against_eigen_oracle(self, field):
        rng = np.random.default_rng(6)
        for _ in range(25):
            x = random_point(rng, 6, 2, field)
            y = random_point(rng, 6, 2, field)
            assert np.allclose(g.principal_angles(x, y), angles_oracle(x, y), atol=1e-7)

    def test_symmetry_and_range(self):
        rng = np.random.default_rng(7)
        x, y = random_point(rng, 8, 3), random_point(rng, 8, 3)
        a_xy = g.principal_angles(x, y)
        a_yx = g.principal_angles(y, x)
        assert np.allclose(a_xy, a_yx, atol=1e-10)
        assert np.all(np.diff(a_xy) >= 0)
        assert a_xy.min() >= 0 and a_xy.max() <= np.pi / 2

    def test_shape_mismatch(self):
        rng = np.random.default_rng(8)
        with pytest.raises(ShapeError):
            g.principal_angles(random_point(rng, 5, 2), random_point(rng, 6, 2))
        with pytest.raises(ShapeError):
            g.principal_angles(random_point(rng, 5, 2), random_point(rng, 5, 2, "complex"))


class TestDistances:
    def test_zero_at_identity(self):
        rng = np.random.default_rng(9)
        x = random_point(rng, 5, 2)
        assert g.geodesic_distance(x, x) == 0.0
        assert g.projection_distance(x, x) == 0.0

    def test_half_pi_plane_pair(self):
        e = np.eye(4)
        x = g.GrassmannPoint(e[:, [0, 1]])
        y = g.GrassmannPoint(e[:, [0, 2]])
        assert abs(g.geodesic_distance(x, y) - np.pi / 2) < 1e-12
        assert abs(g.projection_distance(x, y) - 1.0) < 1e-12

    def test_line_angle(self):
        t = 0.3
        x = g.GrassmannPoint(np.array([[1.0], [0.0]]))
        y = g.GrassmannPoint(np.array([[np.cos(t)], [np.sin(t)]]))
        assert abs(g.geodesic_distance(x, y) - t) < 1e-12

    def test_projection_formulas_agree(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            x, y = random_point(rng, 8, 2), random_point(rng, 8, 2)
            assert abs(g.projection_distance(x, y) - projector_distance(x, y)) < 1e-10

    @pytest.mark.parametrize("field", FIELDS)
    def test_invariances(self, field):
        rng = np.random.default_rng(11)
        for _ in range(20):
            x, y = random_point(rng, 6, 2, field), random_point(rng, 6, 2, field)
            dg = g.geodesic_distance(x, y)
            dp = g.projection_distance(x, y)
            assert dp <= dg + 1e-12
            qx, qy = random_unitary(rng, 2, field), random_unitary(rng, 2, field)
            x2 = g.GrassmannPoint(x.basis @ qx)
            y2 = g.GrassmannPoint(y.basis @ qy)
            assert abs(g.geodesic_distance(x2, y2) - dg) < 1e-10
            assert abs(g.projection_distance(x2, y2) - dp) < 1e-10
            r = random_unitary(rng, 6, field)
            assert abs(g.geodesic_distance(g.GrassmannPoint(r @ x.basis), g.GrassmannPoint(r @ y.basis)) - dg) < 1e-10

    def test_pairwise_matrix(self):
        """Every entry equals the pair function, for p = 1 (no SVD) and p > 1, in both fields."""
        rng = np.random.default_rng(12)
        for field in FIELDS:
            for p in (1, 2, 3):
                pts = [random_point(rng, 5, p, field) for _ in range(6)]
                for metric, fn in (("geodesic", g.geodesic_distance), ("projection", g.projection_distance)):
                    d = g.pairwise_distances(pts, metric=metric)
                    assert np.array_equal(d, d.T)
                    assert np.all(np.diag(d) == 0)
                    pairwise = np.array([[fn(x, y) for y in pts] for x in pts])
                    assert np.abs(d - pairwise).max() < 1e-10, (field, p, metric)

    @pytest.mark.parametrize("metric", ("geodesic", "projection"))
    @pytest.mark.parametrize("field", FIELDS)
    @pytest.mark.parametrize("p", (1, 2, 3))
    @pytest.mark.parametrize("count", (1, 2, 127, 128, 129, 300))
    def test_row_blocks_match_the_one_gemm_reference(self, count, p, field, metric):
        """Counts around the 128-row block: each block's GEMM may round apart from the full one by an ulp.

        In R^20 or C^20 random planes meet at angles far from zero, where arccos turns that ulp of a
        cosine into about an ulp of the distance, not into the 1/sin(theta) ulps of a near-zero angle.
        """
        stacked = random_stack(np.random.default_rng(count * 10 + p), count, 20, p, field)
        d = g.pairwise_distances(stacked, metric=metric)
        assert d.shape == (count, count)
        assert np.abs(d - pairwise_distances_reference(stacked, metric)).max() <= 1e-15
        assert np.array_equal(d, d.T)
        assert np.all(np.diag(d) == 0.0)

    def test_unknown_metric_rejected_before_any_distance(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("a distance was computed")

        monkeypatch.setattr(geometry, "as_dataset", fail)
        monkeypatch.setattr(geometry, "_angles_from_cosines", fail)
        stacked = random_stack(np.random.default_rng(17), 4, 5, 1)
        with pytest.raises(ShapeError, match="unknown metric 'chordal'"):
            g.pairwise_distances(stacked, metric="chordal")

    def test_one_call_at_1000_points_peaks_below_two_results(self):
        # The shapes-large layout: 1000 complex lines in C^49. Rows are filled a block at a time,
        # so no N x N temporary sits beside the result.
        stacked = random_stack(np.random.default_rng(18), 1000, 49, 1, "complex")
        ds = g.Dataset(stacked)
        g.pairwise_distances(ds)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            d = g.pairwise_distances(ds)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 2.0 * d.nbytes

    @pytest.mark.parametrize("field", FIELDS)
    @pytest.mark.parametrize("p", (1, 2, 3))
    def test_pairwise_same_span_is_exactly_zero(self, field, p):
        """A second basis of the same span (a unit phase, or a unitary for p > 1) measures 0 off the diagonal."""
        rng = np.random.default_rng(16)
        pts = [random_point(rng, 6, p, field) for _ in range(4)]
        rotated = [g.GrassmannPoint(x.basis @ random_unitary(rng, p, field)) for x in pts]
        for metric in ("geodesic", "projection"):
            d = g.pairwise_distances(pts + rotated, metric=metric)
            assert np.all(np.diag(d[:4, 4:]) == 0.0), metric
            assert np.all(d[:4, :4][~np.eye(4, dtype=bool)] > 0.1)


class TestExpLog:
    def test_exp_zero_is_identity(self):
        rng = np.random.default_rng(13)
        x = random_point(rng, 5, 2)
        h = g.TangentVector(x, np.zeros((5, 2)))
        assert g.exp_map(x, h) is x

    def test_exp_closed_form_line(self):
        x = g.GrassmannPoint(np.array([[1.0], [0.0]]))
        h = g.TangentVector(x, np.array([[0.0], [np.pi / 4]]))
        y = g.exp_map(x, h)
        target = g.GrassmannPoint(np.array([[1.0], [1.0]]) / np.sqrt(2))
        assert g.geodesic_distance(y, target) < 1e-12

    def test_log_closed_form_line(self):
        x = g.GrassmannPoint(np.array([[1.0], [0.0]]))
        y = g.GrassmannPoint(np.array([[1.0], [1.0]]) / np.sqrt(2))
        h = g.log_map(x, y)
        assert np.allclose(np.abs(h.mat), [[0.0], [np.pi / 4]], atol=1e-12)

    @pytest.mark.parametrize("field", FIELDS)
    def test_geodesic_speed(self, field):
        rng = np.random.default_rng(14)
        for _ in range(10):
            x = random_point(rng, 7, 2, field)
            t = g.tangent_project(x, rng.standard_normal((7, 2)))
            h = g.TangentVector(x, t.mat / np.linalg.norm(t.mat) * 0.05)
            assert abs(g.geodesic_distance(x, g.exp_map(x, h)) - 0.05) < 1e-8

    def test_log_zero_at_same_point(self):
        rng = np.random.default_rng(15)
        x = random_point(rng, 6, 2)
        assert g.log_map(x, x).norm < 1e-12

    @pytest.mark.parametrize("field", FIELDS)
    def test_round_trip(self, field):
        rng = np.random.default_rng(16)
        done = 0
        while done < 30:
            x = random_point(rng, 6, 2, field)
            y = random_point(rng, 6, 2, field)
            if g.principal_angles(x, y).max() >= 1.4:
                continue
            h = g.log_map(x, y)
            z = g.exp_map(x, h)
            assert projector_distance(z, y) < 1e-8
            assert abs(h.norm - g.geodesic_distance(x, y)) < 1e-8
            done += 1

    def test_cut_locus_error(self):
        x = g.GrassmannPoint(np.array([[1.0], [0.0]]))
        y = g.GrassmannPoint(np.array([[0.0], [1.0]]))
        with pytest.raises(CutLocusError):
            g.log_map(x, y)

    @pytest.mark.parametrize("field", FIELDS)
    @pytest.mark.parametrize("p", (1, 2, 3))
    def test_batched_log_matches_inverse_formula(self, field, p):
        rng = np.random.default_rng(30 + p)
        x = random_point(rng, 7, p, field)
        ys = [random_point(rng, 7, p, field) for _ in range(60)]
        ys = np.stack([y.basis for y in ys if g.principal_angles(x, y).max() < 1.4])
        assert len(ys) >= 10
        got = _batched_log_mats(x.basis, ys)
        assert np.abs(got - log_mats_by_inverse(x.basis, ys)).max() < 1e-12

    @pytest.mark.parametrize("x_cols,y_cols", [([0], [1]), ([0, 1], [0, 2])])
    def test_batched_log_on_the_cut_locus(self, x_cols, y_cols):
        x = g.GrassmannPoint(np.eye(3)[:, x_cols])
        y = g.GrassmannPoint(np.eye(3)[:, y_cols])
        h = _batched_log_mats(x.basis, y.basis[None])[0]
        assert np.abs(adjoint(x.basis) @ h).max() == 0.0
        assert abs(np.linalg.norm(h) - np.pi / 2) < 1e-15
        assert g.exp_map(x, g.TangentVector(x, h)).same_subspace(y)
        with pytest.raises(CutLocusError):
            g.log_map(x, y)

    @pytest.mark.parametrize("p", (1, 2))
    @pytest.mark.parametrize("bad", (np.nan, np.inf))
    def test_non_finite_tangent_rejected(self, p, bad):
        x = random_point(np.random.default_rng(17), 6, p)
        with pytest.raises(InvalidTangentError):
            g.TangentVector(x, np.full((6, p), bad))
        h = g.TangentVector(x, np.zeros((6, p)))
        object.__setattr__(h, "mat", np.full((6, p), bad))  # past the constructor's check
        with pytest.raises(InvalidTangentError):
            g.exp_map(x, h)

    def test_invalid_tangent_rejected(self):
        rng = np.random.default_rng(17)
        x = random_point(rng, 5, 2)
        other = random_point(rng, 5, 2)
        t = g.tangent_project(other, rng.standard_normal((5, 2)))
        with pytest.raises(InvalidTangentError):
            g.exp_map(x, t)  # horizontal at `other`, not at x
        with pytest.raises(InvalidTangentError):
            g.TangentVector(x, x.basis)


class TestTangentProject:
    def test_in_span_maps_to_zero(self):
        rng = np.random.default_rng(18)
        x = random_point(rng, 6, 2)
        m = x.basis @ rng.standard_normal((2, 2))
        assert g.tangent_project(x, m).norm < 1e-12

    def test_idempotent(self):
        rng = np.random.default_rng(19)
        x = random_point(rng, 6, 2)
        t = g.tangent_project(x, rng.standard_normal((6, 2)))
        t2 = g.tangent_project(x, t.mat)
        assert np.allclose(t.mat, t2.mat, atol=1e-14)

    def test_horizontal(self):
        rng = np.random.default_rng(20)
        x = random_point(rng, 6, 2)
        t = g.tangent_project(x, rng.standard_normal((6, 2)))
        assert np.abs(adjoint(x.basis) @ t.mat).max() < 1e-12


class TestSampling:
    @pytest.mark.parametrize("field", FIELDS)
    def test_full_frame_orthonormal(self, field):
        rng = np.random.default_rng(21)
        q = random_point(rng, 5, 5, field)
        assert np.abs(adjoint(q.basis) @ q.basis - np.eye(5)).max() < 1e-12

    def test_seed_determinism(self):
        a = g.sample_stiefel_uniform(6, 2, rng=np.random.default_rng(99))
        b = g.sample_stiefel_uniform(6, 2, rng=np.random.default_rng(99))
        assert np.array_equal(a.basis, b.basis)

    def test_projector_mean_uniformity(self):
        rng = np.random.default_rng(22)
        acc = np.zeros((4, 4))
        for _ in range(10000):
            x = g.sample_stiefel_uniform(4, 1, rng=rng)
            acc += x.basis @ x.basis.T
        acc /= 10000
        assert np.abs(acc - np.eye(4) / 4).max() < 0.02


class TestFrechetMean:
    def test_identical_points(self):
        rng = np.random.default_rng(23)
        x = random_point(rng, 5, 2)
        assert g.frechet_mean([x, x, x]).same_subspace(x)

    def test_two_point_line_mean(self):
        x = g.GrassmannPoint(np.array([[1.0], [0.0]]))
        y = g.GrassmannPoint(np.array([[1.0], [1.0]]) / np.sqrt(2))
        mu = g.frechet_mean([x, y])
        target = g.GrassmannPoint(np.array([[np.cos(np.pi / 8)], [np.sin(np.pi / 8)]]))
        assert g.geodesic_distance(mu, target) < 1e-9

    @pytest.mark.parametrize("field", FIELDS)
    def test_first_order_optimality(self, field, monkeypatch):
        monkeypatch.setattr(geometry, "KARCHER_TOL", 1e-10)
        rng = np.random.default_rng(24)
        pts = [random_point(rng, 6, 2, field) for _ in range(3)]
        mu = g.frechet_mean(pts)
        grad = sum(g.log_map(mu, p).mat for p in pts)
        assert np.linalg.norm(grad) < 3 * 1e-10 * len(pts)

    def test_midpoint_property(self):
        rng = np.random.default_rng(25)
        for _ in range(10):
            x, y = random_point(rng, 6, 2), random_point(rng, 6, 2)
            if g.principal_angles(x, y).max() >= 1.4:
                continue
            mu = g.frechet_mean([x, y])
            mid = g.exp_map(x, g.TangentVector(x, 0.5 * g.log_map(x, y).mat))
            assert g.geodesic_distance(mu, mid) < 1e-6

    def test_non_convergence_carries_iterate(self, monkeypatch):
        monkeypatch.setattr(geometry, "KARCHER_TOL", 1e-16)
        monkeypatch.setattr(geometry, "KARCHER_MAX_ITER", 1)
        rng = np.random.default_rng(26)
        pts = [random_point(rng, 6, 2) for _ in range(4)]
        with pytest.raises(ConvergenceError) as err:
            g.frechet_mean(pts)
        assert isinstance(err.value.result, g.GrassmannPoint)

    def test_empty_rejected(self):
        with pytest.raises(ShapeError):
            g.frechet_mean([])

    @pytest.mark.parametrize("field,n,count", [("real", 10, 50), ("complex", 49, 40)])
    def test_single_column_matches_the_lapack_iteration(self, field, n, count):
        rng = np.random.default_rng(27)
        line = gaussian_stack(rng, (n, 1), field)
        stacked = g.orthonormal_columns(line + 0.3 * gaussian_stack(rng, (count, n, 1), field))
        mu, ref = g.frechet_mean(stacked).basis, frechet_mean_by_lapack(stacked)
        # The two bases may differ by a unit factor, so compare spans: the sine between them.
        assert np.linalg.norm(ref - mu @ (adjoint(mu) @ ref)) <= 1e-12

    @pytest.mark.parametrize("field", FIELDS)
    def test_single_column_point_orthogonal_to_the_start(self, field):
        # A cluster in span(e_1 .. e_5) plus e_6: the start lies in the cluster's span, so c = 0 for e_6,
        # whose log map at the start takes u = 1 (LAPACK's zero-column rule) and angle pi/2.
        rng = np.random.default_rng(28)
        z = gaussian_stack(rng, (12, 6, 1), field)
        z[:, -1] = 0.0
        z[:, 0] += 2.0
        e6 = np.zeros((1, 6, 1), dtype=z.dtype)
        e6[0, -1] = 1.0
        stacked = np.concatenate((g.orthonormal_columns(z), e6))
        start = _leading_left_singular_vectors(stacked, 1)
        assert (adjoint(start) @ e6[0]).item() == 0.0
        step = geometry._karcher_step_columns(start, geometry._columns(stacked))
        assert np.abs(step - karcher_step_by_lapack(start, stacked)).max() <= 1e-14
        mu, ref = g.frechet_mean(stacked).basis, frechet_mean_by_lapack(stacked)
        assert np.linalg.norm(ref - mu @ (adjoint(mu) @ ref)) <= 1e-12
        assert abs(mu[-1, 0]) > 0.05  # the sweep moved toward e_6

    def test_single_column_phases_do_not_move_the_mean(self):
        rng = np.random.default_rng(30)
        line = gaussian_stack(rng, (20, 1), "complex")
        stacked = g.orthonormal_columns(line + 0.4 * gaussian_stack(rng, (30, 20, 1), "complex"))
        phased = stacked * np.exp(2j * np.pi * rng.random((30, 1, 1)))
        mu, moved = g.frechet_mean(stacked).basis, g.frechet_mean(phased).basis
        assert np.linalg.norm(moved - mu @ (adjoint(mu) @ moved)) <= 1e-12


class TestDataset:
    def test_checked_once_stacked_and_immutable(self):
        rng = np.random.default_rng(29)
        pts = [random_point(rng, 5, 2) for _ in range(4)]
        ds = g.Dataset(pts)
        assert g.as_dataset(ds) is ds
        assert len(ds) == 4 and all(np.array_equal(a.basis, b.basis) for a, b in zip(ds, pts, strict=True))
        assert np.array_equal(ds.stacked, g.stack_points(pts))
        assert not ds.stacked.flags.writeable
        with pytest.raises(AttributeError):
            ds.mean = pts[0]
        for other in (random_point(rng, 6, 2), random_point(rng, 5, 1), random_point(rng, 5, 2, "complex")):
            with pytest.raises(ShapeError):
                g.Dataset(pts + [other])
        with pytest.raises(ShapeError):
            g.Dataset([])

    @pytest.mark.parametrize("field", FIELDS)
    def test_stack_and_points_agree_bit_for_bit(self, field):
        rng = np.random.default_rng(31)
        pts = [random_point(rng, 6, 2, field) for _ in range(5)]
        stack = g.stack_points(pts)
        from_stack, from_points = g.Dataset(stack), g.Dataset(pts)
        assert from_stack.stacked.tobytes() == from_points.stacked.tobytes() == stack.tobytes()
        assert from_stack.stacked.dtype == stack.dtype
        for i, pt in enumerate(from_stack):
            assert isinstance(pt, g.GrassmannPoint)
            assert np.array_equal(pt.basis, stack[i])
            assert np.array_equal(from_stack[i].basis, stack[i])
        assert np.array_equal(from_stack[-1].basis, stack[-1])
        stack[0] = 0.0  # the Dataset holds its own copy
        assert np.array_equal(from_stack.stacked[0], pts[0].basis)
        with pytest.raises(IndexError):
            from_stack[5]

    def test_non_orthonormal_row_names_its_index(self):
        rng = np.random.default_rng(32)
        stack = g.stack_points([random_point(rng, 5, 2) for _ in range(4)])
        stack[2, 0, 0] += 1e-6
        with pytest.raises(DegenerateInputError, match="point 2: basis is not orthonormal"):
            g.Dataset(stack)
        stack[2] = np.nan
        with pytest.raises(DegenerateInputError, match="point 2"):
            g.Dataset(stack)

    @pytest.mark.parametrize("shape", [(5, 2), (0, 5, 2), (3, 2, 5), (2, 3, 5, 2)])
    def test_stack_shape_checked(self, shape):
        with pytest.raises(ShapeError):
            g.Dataset(np.zeros(shape))

    def test_mean_is_kept_and_matches_the_functions(self):
        rng = np.random.default_rng(30)
        pts = [random_point(rng, 5, 2) for _ in range(4)]
        ds = g.Dataset(pts)
        assert ds.variance == g.variance(pts)
        assert ds.mean is ds.mean
        assert np.array_equal(ds.mean.basis, g.frechet_mean(pts).basis)


class TestLeadingLeftSingularVectors:
    def test_fewer_columns_than_k_pads_without_the_full_factor(self):
        # Np = 2 < k = 3 at n = 200000; a full n x n factor would need 320 GB.
        rng = np.random.default_rng(27)
        stacked = rng.standard_normal((2, 200000, 1))
        u = _leading_left_singular_vectors(stacked, 3)
        assert u.shape == (200000, 3)
        assert np.abs(adjoint(u) @ u - np.eye(3)).max() < 1e-12
        data = g.orthonormalize(stacked[:, :, 0].T)
        assert g.GrassmannPoint(u[:, :2]).same_subspace(data)


class TestPointTypes:
    def test_basis_immutable(self):
        rng = np.random.default_rng(27)
        x = random_point(rng, 5, 2)
        with pytest.raises(ValueError):
            x.basis[0, 0] = 2.0

    def test_non_orthonormal_rejected(self):
        with pytest.raises(DegenerateInputError):
            g.GrassmannPoint(np.ones((4, 2)))

    def test_equality_under_right_unitary(self):
        rng = np.random.default_rng(28)
        x = random_point(rng, 6, 3)
        q = random_unitary(rng, 3)
        assert x.same_subspace(g.GrassmannPoint(x.basis @ q))
        assert not x.same_subspace(random_point(rng, 6, 3))
