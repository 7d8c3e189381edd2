import numpy as np
import pytest

import grassdr as g
from grassdr.errors import ConvergenceError, ShapeError
from grassdr.geometry import adjoint
from grassdr.optim import OptimizerConfig, _horizontal, minimize, retract


def random_product_point(rng, n, m, p):
    """(A, B): A uniform on the n x m Stiefel manifold, B standard normal."""
    return g.sample_stiefel_uniform(n, m, rng=rng).basis, rng.standard_normal((n, p))


class TestRiemannianGradient:
    """``_horizontal`` applied to Euclidean gradients gives the Riemannian gradient."""

    def test_gradient_in_span_vanishes(self):
        rng = np.random.default_rng(0)
        a, _ = random_product_point(rng, 7, 3, 2)
        ga = a @ rng.standard_normal((3, 3))
        da, _ = _horizontal(a, (ga, np.zeros((7, 2))))
        assert np.abs(da).max() < 1e-12

    def test_horizontal_gradient_unchanged(self):
        rng = np.random.default_rng(1)
        a, _ = random_product_point(rng, 7, 3, 2)
        raw = rng.standard_normal((7, 3))
        horiz = raw - a @ (a.T @ raw)
        da, _ = _horizontal(a, (horiz, np.zeros((7, 2))))
        assert np.allclose(da, horiz, atol=1e-13)

    def test_result_is_horizontal(self):
        rng = np.random.default_rng(2)
        a, _ = random_product_point(rng, 7, 3, 2)
        gb = rng.standard_normal((7, 2))
        da, db = _horizontal(a, (rng.standard_normal((7, 3)), gb))
        assert np.abs(adjoint(a) @ da).max() < 1e-12
        assert db is gb

    def test_shape_mismatch(self):
        rng = np.random.default_rng(3)
        a, b = random_product_point(rng, 7, 3, 2)

        def loss(a, b):  # G_A is 7 x 2 at a 7 x 3 point
            return 0.0, (np.zeros((7, 2)), np.zeros((7, 2)))

        with pytest.raises(ShapeError, match="gradient shapes"):
            minimize(loss, a, b)


class TestRetract:
    def test_zero_step_identity(self):
        rng = np.random.default_rng(4)
        a, b = random_product_point(rng, 6, 2, 1)
        out_a, out_b = retract(a, b, (np.zeros((6, 2)), np.zeros((6, 1))), 0.0)
        assert out_a is a and out_b is b

    def test_euclidean_translation_only(self):
        rng = np.random.default_rng(5)
        a, b = random_product_point(rng, 6, 2, 1)
        db = rng.standard_normal((6, 1))
        out_a, out_b = retract(a, b, (np.zeros((6, 2)), db), 0.5)
        assert np.allclose(np.abs(out_a.T @ a), np.eye(2), atol=1e-12)
        assert np.allclose(out_b, b + 0.5 * db)

    def test_horizontal_step_gives_canonical_point(self):
        rng = np.random.default_rng(7)
        a, b = random_product_point(rng, 6, 2, 1)
        da = g.tangent_project(g.GrassmannPoint(a), rng.standard_normal((6, 2))).mat
        db = rng.standard_normal((6, 1))
        out_a, out_b = retract(a, b, (da, db), 0.7)
        assert np.array_equal(out_a, g.orthonormal_columns(a + 0.7 * da))
        assert np.abs(out_a.T @ out_a - np.eye(2)).max() < 1e-12
        assert np.array_equal(out_b, b + 0.7 * db)

    def test_second_order_agreement_with_exp(self):
        rng = np.random.default_rng(6)
        x = g.sample_stiefel_uniform(7, 2, rng=rng)
        h = g.tangent_project(x, rng.standard_normal((7, 2)))
        h = g.TangentVector(x, h.mat / np.linalg.norm(h.mat))
        ts = np.logspace(-3.5, -1.5, 6)
        errs = []
        for t in ts:
            r_a, _ = retract(x.basis, np.zeros((7, 0)), (h.mat, np.zeros((7, 0))), float(t))
            e = g.exp_map(x, g.TangentVector(x, t * h.mat))
            errs.append(max(g.projection_distance(g.GrassmannPoint(r_a), e), 1e-17))
        slope = np.polyfit(np.log(ts), np.log(errs), 1)[0]
        assert slope >= 1.9


class TestTransport:
    """``_horizontal`` at the target point is the projection transport."""

    def test_same_point_unchanged(self):
        # Idempotence: a direction horizontal at A is its own transport to A.
        rng = np.random.default_rng(7)
        a, _ = random_product_point(rng, 6, 2, 1)
        v = _horizontal(a, (rng.standard_normal((6, 2)), rng.standard_normal((6, 1))))
        out = _horizontal(a, v)
        assert np.allclose(out[0], v[0], atol=1e-12)
        assert np.allclose(out[1], v[1])

    def test_horizontal_at_target(self):
        rng = np.random.default_rng(8)
        dst, _ = random_product_point(rng, 6, 2, 1)
        out = _horizontal(dst, (rng.standard_normal((6, 2)), rng.standard_normal((6, 1))))
        assert np.abs(adjoint(dst) @ out[0]).max() < 1e-12

    def test_zero_vector(self):
        rng = np.random.default_rng(9)
        dst, _ = random_product_point(rng, 6, 2, 1)
        out = _horizontal(dst, (np.zeros((6, 2)), np.zeros((6, 1))))
        assert np.abs(out[0]).max() == 0.0 and np.abs(out[1]).max() == 0.0


class TestMinimize:
    def test_quadratic_in_b(self):
        rng = np.random.default_rng(10)
        b0 = rng.standard_normal((6, 2))

        def loss(a, b):
            return float(np.sum((b - b0) ** 2)), (np.zeros_like(a), 2.0 * (b - b0))

        result = minimize(loss, *random_product_point(rng, 6, 2, 2), OptimizerConfig(max_iter=50))
        assert result.converged
        assert result.iterations <= 50
        assert result.grad_norm < 1e-6
        assert np.allclose(result.B, b0, atol=1e-6)

    def test_rayleigh_alignment(self):
        rng = np.random.default_rng(11)
        u = rng.standard_normal((8, 1))
        u /= np.linalg.norm(u)

        def loss(a, b):
            proj = u.T @ a
            return float(-np.sum(proj**2)), (-2.0 * u @ proj, np.zeros_like(b))

        result = minimize(loss, g.sample_stiefel_uniform(8, 1, rng=rng).basis, np.zeros((8, 0)))
        angle = g.principal_angles(g.GrassmannPoint(result.A), g.GrassmannPoint(u))[0]
        assert angle < 1e-4

    def test_noiseless_nested_loss_reaches_zero(self):
        from grassdr.geometry import _leading_left_singular_vectors
        from grassdr.nested import unsupervised_loss_and_grad

        data = g.generate(g.SynthConfig(N=20, n=8, m=3, p=1, sigma=0.0, seed=3))
        stacked = g.stack_points(data.points)

        def loss(a, b):
            return unsupervised_loss_and_grad(a, b, stacked, "projection")

        result = minimize(loss, _leading_left_singular_vectors(stacked, 3), np.zeros((8, 1)))
        assert result.loss_trace[-1] < 1e-8

    def test_trace_monotone_and_deterministic(self):
        rng = np.random.default_rng(12)
        b0 = rng.standard_normal((5, 2))
        q = rng.standard_normal((5, 5))
        q = q @ q.T + np.eye(5)

        def loss(a, b):
            r = b - b0
            return float(np.sum(r * (q @ r))), (np.zeros_like(a), 2.0 * q @ r)

        a, b = random_product_point(rng, 5, 2, 2)
        r1 = minimize(loss, a, b, OptimizerConfig(max_iter=100))
        r2 = minimize(loss, a, b, OptimizerConfig(max_iter=100))
        assert r1.loss_trace == r2.loss_trace
        diffs = np.diff(r1.loss_trace)
        assert np.all(diffs <= 0)

    def test_iterates_stay_orthonormal(self):
        rng = np.random.default_rng(13)
        target = g.sample_stiefel_uniform(7, 2, rng=rng).basis

        def loss(a, b):
            r = a - target @ (target.T @ a)
            return float(np.sum(r**2)), (2.0 * r, np.zeros_like(b))

        result = minimize(loss, *random_product_point(rng, 7, 2, 1))
        assert np.abs(adjoint(result.A) @ result.A - np.eye(2)).max() < 1e-8

    def test_line_search_failure_raises_with_best(self):
        rng = np.random.default_rng(14)
        b0 = rng.standard_normal((4, 1))

        def bad_loss(a, b):  # gradient points uphill: no Armijo step can succeed
            return float(np.sum((b - b0) ** 2)), (np.zeros_like(a), -2.0 * (b - b0))

        a, b = random_product_point(rng, 4, 2, 1)
        with pytest.raises(ConvergenceError) as err:
            minimize(bad_loss, a, b)
        result = err.value.result
        assert result.A is a and result.B is b
        assert (result.iterations, result.converged) == (1, False)
        assert result.loss_trace == [pytest.approx(float(np.sum((b - b0) ** 2)))]

    @pytest.mark.parametrize("a", (np.ones((3, 1)), np.full((3, 1), np.nan)))
    def test_non_orthonormal_or_non_finite_start_rejected(self, a):
        with pytest.raises(ShapeError, match="orthonormal"):
            minimize(lambda a, b: (0.0, (a, b)), a, np.zeros((3, 1)))

    def test_start_with_misshapen_b_rejected(self):
        a = np.eye(3)[:, :1]
        with pytest.raises(ShapeError, match="B must be 3 x p"):
            minimize(lambda a, b: (0.0, (a, b)), a, np.zeros((2, 1)))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            OptimizerConfig(grad_tol=-1.0)
        with pytest.raises(ValueError):
            OptimizerConfig(max_iter=0)
        with pytest.raises(ValueError):
            OptimizerConfig(grad_tol=float("nan"))


class TestGradientHarness:
    def test_analytic_matches_fd_on_smooth_loss(self):
        rng = np.random.default_rng(15)
        c = rng.standard_normal((6, 3))
        d = rng.standard_normal((6, 2))

        def loss(a, b):
            return float(np.sum((a - c) ** 2) + np.sum((b - d) ** 2)), (2.0 * (a - c), 2.0 * (b - d))

        assert g.check_gradient(loss, *random_product_point(rng, 6, 3, 2), rng=rng) < 1e-7

    def test_detects_wrong_gradient(self):
        rng = np.random.default_rng(16)

        def loss(a, b):
            return float(np.sum(a**2)), (a, np.zeros_like(b))  # off by factor 2

        assert g.check_gradient(loss, *random_product_point(rng, 5, 2, 1), rng=rng) > 0.1
