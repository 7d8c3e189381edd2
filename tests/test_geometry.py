import numpy as np
import pytest

import grassdr as g
from grassdr.errors import (
    ConvergenceError,
    CutLocusError,
    DegenerateInputError,
    InvalidTangentError,
    ShapeError,
)
from grassdr.geometry import adjoint

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

    @pytest.mark.parametrize("bad", (np.nan, np.inf))
    def test_non_finite_basis_rejected(self, bad):
        with pytest.raises(DegenerateInputError):
            g.GrassmannPoint(np.array([[bad], [0.0], [1.0]]))


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
        rng = np.random.default_rng(12)
        pts = [random_point(rng, 5, 2) for _ in range(6)]
        for metric, fn in (("geodesic", g.geodesic_distance), ("projection", g.projection_distance)):
            d = g.pairwise_distances(pts, metric=metric)
            assert np.allclose(d, d.T)
            assert np.all(np.diag(d) == 0)
            assert abs(d[1, 4] - fn(pts[1], pts[4])) < 1e-10


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
        assert g.frechet_mean([x, x, x]) is x

    def test_two_point_line_mean(self):
        x = g.GrassmannPoint(np.array([[1.0], [0.0]]))
        y = g.GrassmannPoint(np.array([[1.0], [1.0]]) / np.sqrt(2))
        mu = g.frechet_mean([x, y])
        target = g.GrassmannPoint(np.array([[np.cos(np.pi / 8)], [np.sin(np.pi / 8)]]))
        assert g.geodesic_distance(mu, target) < 1e-9

    @pytest.mark.parametrize("field", FIELDS)
    def test_first_order_optimality(self, field):
        rng = np.random.default_rng(24)
        pts = [random_point(rng, 6, 2, field) for _ in range(3)]
        mu = g.frechet_mean(pts, tol=1e-10)
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

    def test_non_convergence_carries_iterate(self):
        rng = np.random.default_rng(26)
        pts = [random_point(rng, 6, 2) for _ in range(4)]
        with pytest.raises(ConvergenceError) as err:
            g.frechet_mean(pts, tol=1e-16, max_iter=1)
        assert isinstance(err.value.result, g.GrassmannPoint)

    def test_empty_rejected(self):
        with pytest.raises(ShapeError):
            g.frechet_mean([])


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
