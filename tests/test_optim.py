import numpy as np
import pytest

import grassdr as g
from grassdr.errors import ConvergenceError, ShapeError
from grassdr.geometry import adjoint
from grassdr.optim import (
    OptimizerConfig,
    ProductPoint,
    ProductTangent,
    inner,
    minimize,
    retract,
    riemannian_gradient,
    transport,
)


def random_product_point(rng, n, m, p):
    a = g.sample_stiefel_uniform(n, m, rng=rng).basis
    return ProductPoint(a, rng.standard_normal((n, p)))


class TestRiemannianGradient:
    def test_gradient_in_span_vanishes(self):
        rng = np.random.default_rng(0)
        pt = random_product_point(rng, 7, 3, 2)
        ga = pt.A @ rng.standard_normal((3, 3))
        grad = riemannian_gradient(pt, (ga, np.zeros((7, 2))))
        assert np.abs(grad.dA).max() < 1e-12

    def test_horizontal_gradient_unchanged(self):
        rng = np.random.default_rng(1)
        pt = random_product_point(rng, 7, 3, 2)
        raw = rng.standard_normal((7, 3))
        horiz = raw - pt.A @ (pt.A.T @ raw)
        grad = riemannian_gradient(pt, (horiz, np.zeros((7, 2))))
        assert np.allclose(grad.dA, horiz, atol=1e-13)

    def test_result_is_horizontal(self):
        rng = np.random.default_rng(2)
        pt = random_product_point(rng, 7, 3, 2)
        grad = riemannian_gradient(pt, (rng.standard_normal((7, 3)), rng.standard_normal((7, 2))))
        assert np.abs(adjoint(pt.A) @ grad.dA).max() < 1e-12

    def test_shape_mismatch(self):
        rng = np.random.default_rng(3)
        pt = random_product_point(rng, 7, 3, 2)
        with pytest.raises(ShapeError):
            riemannian_gradient(pt, (np.zeros((7, 2)), np.zeros((7, 2))))


class TestRetract:
    def test_zero_step_identity(self):
        rng = np.random.default_rng(4)
        pt = random_product_point(rng, 6, 2, 1)
        step = ProductTangent(np.zeros((6, 2)), np.zeros((6, 1)))
        assert retract(pt, step, 0.0) is pt

    def test_euclidean_translation_only(self):
        rng = np.random.default_rng(5)
        pt = random_product_point(rng, 6, 2, 1)
        db = rng.standard_normal((6, 1))
        out = retract(pt, ProductTangent(np.zeros((6, 2)), db), 0.5)
        assert np.allclose(np.abs(out.A.T @ pt.A), np.eye(2), atol=1e-12)
        assert np.allclose(out.B, pt.B + 0.5 * db)

    def test_horizontal_step_gives_canonical_frozen_point(self):
        rng = np.random.default_rng(7)
        pt = random_product_point(rng, 6, 2, 1)
        step = ProductTangent(g.tangent_project(g.GrassmannPoint(pt.A), rng.standard_normal((6, 2))).mat,
                              rng.standard_normal((6, 1)))
        out = retract(pt, step, 0.7)
        assert np.array_equal(out.A, g.orthonormal_columns(pt.A + 0.7 * step.dA))
        assert np.abs(out.A.T @ out.A - np.eye(2)).max() < 1e-12
        assert not out.A.flags.writeable and not out.B.flags.writeable

    def test_second_order_agreement_with_exp(self):
        rng = np.random.default_rng(6)
        x = g.sample_stiefel_uniform(7, 2, rng=rng)
        h = g.tangent_project(x, rng.standard_normal((7, 2)))
        h = g.TangentVector(x, h.mat / np.linalg.norm(h.mat))
        pt = ProductPoint(x.basis, np.zeros((7, 0)))
        ts = np.logspace(-3.5, -1.5, 6)
        errs = []
        for t in ts:
            r = retract(pt, ProductTangent(h.mat, np.zeros((7, 0))), float(t))
            e = g.exp_map(x, g.TangentVector(x, t * h.mat))
            errs.append(max(g.projection_distance(g.GrassmannPoint(r.A), e), 1e-17))
        slope = np.polyfit(np.log(ts), np.log(errs), 1)[0]
        assert slope >= 1.9


class TestTransport:
    def test_same_point_unchanged(self):
        rng = np.random.default_rng(7)
        pt = random_product_point(rng, 6, 2, 1)
        v = riemannian_gradient(pt, (rng.standard_normal((6, 2)), rng.standard_normal((6, 1))))
        out = transport(pt, pt, v)
        assert np.allclose(out.dA, v.dA, atol=1e-12)
        assert np.allclose(out.dB, v.dB)

    def test_horizontal_at_target(self):
        rng = np.random.default_rng(8)
        src = random_product_point(rng, 6, 2, 1)
        dst = random_product_point(rng, 6, 2, 1)
        v = ProductTangent(rng.standard_normal((6, 2)), rng.standard_normal((6, 1)))
        out = transport(src, dst, v)
        assert np.abs(adjoint(dst.A) @ out.dA).max() < 1e-12

    def test_zero_vector(self):
        rng = np.random.default_rng(9)
        src = random_product_point(rng, 6, 2, 1)
        dst = random_product_point(rng, 6, 2, 1)
        out = transport(src, dst, ProductTangent(np.zeros((6, 2)), np.zeros((6, 1))))
        assert np.abs(out.dA).max() == 0.0 and np.abs(out.dB).max() == 0.0


class TestMinimize:
    def test_quadratic_in_b(self):
        rng = np.random.default_rng(10)
        b0 = rng.standard_normal((6, 2))

        def loss(a, b):
            return float(np.sum((b - b0) ** 2)), (np.zeros_like(a), 2.0 * (b - b0))

        init = random_product_point(rng, 6, 2, 2)
        result = minimize(loss, init, OptimizerConfig(max_iter=50))
        assert result.converged
        assert result.iterations <= 50
        assert result.grad_norm < 1e-6
        assert np.allclose(result.point.B, b0, atol=1e-6)

    def test_rayleigh_alignment(self):
        rng = np.random.default_rng(11)
        u = rng.standard_normal((8, 1))
        u /= np.linalg.norm(u)

        def loss(a, b):
            proj = u.T @ a
            return float(-np.sum(proj**2)), (-2.0 * u @ proj, np.zeros_like(b))

        init = ProductPoint(g.sample_stiefel_uniform(8, 1, rng=rng).basis, np.zeros((8, 0)))
        result = minimize(loss, init)
        angle = g.principal_angles(g.GrassmannPoint(result.point.A), g.GrassmannPoint(u))[0]
        assert angle < 1e-4

    def test_noiseless_nested_loss_reaches_zero(self):
        from grassdr.nested import unsupervised_loss_and_grad, _svd_init

        data = g.generate(g.SynthConfig(N=20, n=8, m=3, p=1, sigma=0.0, seed=3))
        stacked = g.stack_points(data.points)

        def loss(a, b):
            return unsupervised_loss_and_grad(a, b, stacked, "projection")

        init = ProductPoint(_svd_init(stacked, 3), np.zeros((8, 1)))
        result = minimize(loss, init)
        assert result.loss_trace[-1] < 1e-8

    def test_trace_monotone_and_deterministic(self):
        rng = np.random.default_rng(12)
        b0 = rng.standard_normal((5, 2))
        q = rng.standard_normal((5, 5))
        q = q @ q.T + np.eye(5)

        def loss(a, b):
            r = b - b0
            return float(np.sum(r * (q @ r))), (np.zeros_like(a), 2.0 * q @ r)

        init = random_product_point(rng, 5, 2, 2)
        r1 = minimize(loss, init, OptimizerConfig(max_iter=100))
        r2 = minimize(loss, init, OptimizerConfig(max_iter=100))
        assert r1.loss_trace == r2.loss_trace
        diffs = np.diff(r1.loss_trace)
        assert np.all(diffs <= 0)

    def test_iterates_stay_orthonormal(self):
        rng = np.random.default_rng(13)
        target = g.sample_stiefel_uniform(7, 2, rng=rng).basis

        def loss(a, b):
            r = a - target @ (target.T @ a)
            return float(np.sum(r**2)), (2.0 * r, np.zeros_like(b))

        init = random_product_point(rng, 7, 2, 1)
        result = minimize(loss, init)
        assert np.abs(adjoint(result.point.A) @ result.point.A - np.eye(2)).max() < 1e-8

    def test_line_search_failure_raises_with_best(self):
        rng = np.random.default_rng(14)
        b0 = rng.standard_normal((4, 1))

        def bad_loss(a, b):  # gradient points uphill: no Armijo step can succeed
            return float(np.sum((b - b0) ** 2)), (np.zeros_like(a), -2.0 * (b - b0))

        init = random_product_point(rng, 4, 2, 1)
        with pytest.raises(ConvergenceError) as err:
            minimize(bad_loss, init)
        assert err.value.result.point is init
        assert err.value.result.loss_trace[0] == pytest.approx(float(np.sum((init.B - b0) ** 2)))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            OptimizerConfig(backtrack_factor=1.5)
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

        pt = random_product_point(rng, 6, 3, 2)
        assert g.check_gradient(loss, pt.A, pt.B, rng=rng) < 1e-7

    def test_detects_wrong_gradient(self):
        rng = np.random.default_rng(16)

        def loss(a, b):
            return float(np.sum(a**2)), (a, np.zeros_like(b))  # off by factor 2

        pt = random_product_point(rng, 5, 2, 1)
        assert g.check_gradient(loss, pt.A, pt.B, rng=rng) > 0.1
