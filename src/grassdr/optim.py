"""Riemannian conjugate gradient on Gr(m, n) x R^{n x p}.

The Grassmann factor is handled through Stiefel representatives with
horizontal gradients (optimizing span(A) without quotient bookkeeping);
the Euclidean factor is unconstrained. Losses are plain Euclidean
functions ``loss_and_grad(A, B) -> (value, (G_A, G_B))`` where the
gradients follow the convention dL = Re tr(G^H dM), which coincides with
the ordinary gradient in the real case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConvergenceError, ShapeError
from .geometry import _as_matrix, _canonical_qr, adjoint

LossAndGrad = Callable[[np.ndarray, np.ndarray], tuple[float, tuple[np.ndarray, np.ndarray]]]


@dataclass(frozen=True, eq=False)
class ProductPoint:
    """A point of Gr(m, n) x R^{n x p}: Stiefel representative A, free factor B."""

    A: np.ndarray
    B: np.ndarray

    def __post_init__(self):
        a = _as_matrix(self.A, "A").copy()
        b = np.asarray(self.B, dtype=a.dtype).copy()
        if b.ndim != 2 or b.shape[0] != a.shape[0]:
            raise ShapeError(f"B must be {a.shape[0]} x p, got {b.shape}")
        if np.abs(adjoint(a) @ a - np.eye(a.shape[1])).max() > 1e-10:
            raise ShapeError("A must have orthonormal columns")
        self._freeze(a, b)

    def _freeze(self, a: np.ndarray, b: np.ndarray) -> None:
        a.setflags(write=False)
        b.setflags(write=False)
        object.__setattr__(self, "A", a)
        object.__setattr__(self, "B", b)


@dataclass(frozen=True, eq=False)
class ProductTangent:
    """Direction (dA, dB) with dA horizontal at the associated A."""

    dA: np.ndarray
    dB: np.ndarray


def inner(u: ProductTangent, v: ProductTangent) -> float:
    """Product metric: Re tr(dA_u^H dA_v) + Re tr(dB_u^H dB_v)."""
    val = np.vdot(u.dA, v.dA) + np.vdot(u.dB, v.dB)
    return float(np.real(val))


def riemannian_gradient(point: ProductPoint, euclid_grad) -> ProductTangent:
    """Convert Euclidean gradients to the Riemannian gradient.

    The Grassmann part is the horizontal projection (I - A A^H) G_A; the
    Euclidean part passes through unchanged.
    """
    g_a, g_b = euclid_grad
    g_a = np.asarray(g_a)
    g_b = np.asarray(g_b)
    if g_a.shape != point.A.shape or g_b.shape != point.B.shape:
        raise ShapeError("gradient shapes do not match the point")
    da = g_a - point.A @ (adjoint(point.A) @ g_a)
    return ProductTangent(da, g_b)


def retract(point: ProductPoint, step: ProductTangent, t: float) -> ProductPoint:
    """QR retraction on the Grassmann factor, translation on the Euclidean one.

    A horizontal step keeps full rank, since A^H (A + t dA) = I, so the
    canonical QR needs no rank check and the result no re-validation.
    """
    if t == 0.0:
        return point
    moved = object.__new__(ProductPoint)
    moved._freeze(_canonical_qr(point.A + t * step.dA), point.B + t * step.dB)
    return moved


def transport(from_point: ProductPoint, to_point: ProductPoint, v: ProductTangent) -> ProductTangent:
    """Projection transport: re-horizontalize dA at the target point."""
    a = to_point.A
    da = v.dA - a @ (adjoint(a) @ v.dA)
    return ProductTangent(da, v.dB)


@dataclass
class OptimizerConfig:
    max_iter: int = 300
    grad_tol: float = 1e-6
    initial_step: float = 1.0
    armijo_slope: float = 1e-4
    backtrack_factor: float = 0.5
    max_backtracks: int = 30

    def __post_init__(self):
        if min(self.max_iter, self.max_backtracks) < 1:
            raise ValueError("max_iter and max_backtracks must be positive")
        # Written as "not > 0" so that NaN fails too.
        if not all(v > 0 for v in (self.grad_tol, self.initial_step, self.armijo_slope)):
            raise ValueError("grad_tol, initial_step and armijo_slope must be positive")
        if not 0.0 < self.backtrack_factor < 1.0:
            raise ValueError("backtrack_factor must lie in (0, 1)")


@dataclass
class OptimizeResult:
    """Outcome of ``minimize``: best point plus the accepted-loss trace."""

    point: ProductPoint
    loss_trace: list[float]
    iterations: int
    converged: bool
    grad_norm: float


def _restart_period(point: ProductPoint) -> int:
    """CG restarts on steepest descent every dim Gr(m, n) + dim R^{n x p} iterations."""
    n, m = point.A.shape
    p = point.B.shape[1]
    return max(1, m * (n - m) + n * p)


def _line_search(loss_and_grad, point, f, d, slope_scale, t0, config):
    """Backtracking Armijo search; returns (candidate, f, grads, t) or None."""
    t = t0
    for _ in range(config.max_backtracks + 1):
        cand = retract(point, d, t)
        fc, gc = loss_and_grad(cand.A, cand.B)
        if fc <= f - config.armijo_slope * t * slope_scale:
            return cand, fc, gc, t
        t *= config.backtrack_factor
    return None


def minimize(
    loss_and_grad: LossAndGrad,
    init: ProductPoint,
    config: OptimizerConfig | None = None,
) -> OptimizeResult:
    """Conjugate-gradient descent with Polak-Ribiere-plus directions.

    Accepted steps satisfy f_new <= f - armijo_slope * t * max(|grad|^2, -<grad, d>),
    so the trace is strictly nonincreasing. Terminates when the Riemannian
    gradient norm reaches ``grad_tol`` or after ``max_iter`` iterations,
    returning the best point seen. If the line search stalls it retries once
    along steepest descent and then raises ConvergenceError carrying the best
    result so far. Deterministic: no internal randomness.
    """
    config = config or OptimizerConfig()
    restart_every = _restart_period(init)

    point = init
    f, eg = loss_and_grad(point.A, point.B)
    g = riemannian_gradient(point, eg)
    d = ProductTangent(-g.dA, -g.dB)
    trace = [float(f)]
    gnorm2 = inner(g, g)
    t_next = config.initial_step
    converged = False
    iterations = 0

    for k in range(config.max_iter):
        gnorm = math.sqrt(max(gnorm2, 0.0))
        if gnorm <= config.grad_tol:
            converged = True
            break
        iterations = k + 1

        gd = inner(g, d)
        if gd >= 0.0:  # not a descent direction: restart on steepest descent
            d = ProductTangent(-g.dA, -g.dB)
            gd = -gnorm2
        slope_scale = max(gnorm2, -gd)

        hit = _line_search(loss_and_grad, point, f, d, slope_scale, t_next, config)
        if hit is None:
            d = ProductTangent(-g.dA, -g.dB)
            hit = _line_search(loss_and_grad, point, f, d, gnorm2, config.initial_step, config)
        if hit is None:
            raise ConvergenceError(
                f"line search failed after {config.max_backtracks} backtracks "
                f"(iteration {k}, gradient norm {gnorm:.3e})",
                result=OptimizeResult(point, trace, iterations, False, gnorm),
            )
        cand, fc, egc, t = hit

        g_new = riemannian_gradient(cand, egc)
        gnorm2_new = inner(g_new, g_new)
        if (k + 1) % restart_every == 0:
            beta = 0.0
        else:
            g_old_t = transport(point, cand, g)
            diff = ProductTangent(g_new.dA - g_old_t.dA, g_new.dB - g_old_t.dB)
            beta = max(0.0, inner(g_new, diff) / gnorm2)
        d_t = transport(point, cand, d)
        d = ProductTangent(-g_new.dA + beta * d_t.dA, -g_new.dB + beta * d_t.dB)

        point, f, g, gnorm2 = cand, fc, g_new, gnorm2_new
        trace.append(float(f))
        t_next = min(config.initial_step, t / config.backtrack_factor)

    return OptimizeResult(point, trace, iterations, converged, math.sqrt(max(gnorm2, 0.0)))


def check_gradient(
    loss_and_grad: LossAndGrad,
    a: np.ndarray,
    b: np.ndarray,
    *,
    rng: np.random.Generator,
    num_directions: int = 20,
    h: float = 1e-6,
) -> float:
    """Max relative error between analytic and central-difference derivatives.

    Probes ``num_directions`` random Euclidean directions; the analytic
    directional derivative is Re tr(G_A^H dA) + Re tr(G_B^H dB).
    """
    a = np.asarray(a)
    b = np.asarray(b)
    _, (g_a, g_b) = loss_and_grad(a, b)
    worst = 0.0
    for _ in range(num_directions):
        da = rng.standard_normal(a.shape)
        db = rng.standard_normal(b.shape) if b.size else np.zeros_like(b)
        if np.iscomplexobj(a):
            da = da + 1j * rng.standard_normal(a.shape)
            if b.size:
                db = db + 1j * rng.standard_normal(b.shape)
        scale = math.sqrt(np.vdot(da, da).real + np.vdot(db, db).real)
        da /= scale
        db = db / scale if b.size else db
        analytic = float(np.real(np.vdot(g_a, da) + (np.vdot(g_b, db) if b.size else 0.0)))
        f_plus, _ = loss_and_grad(a + h * da, b + h * db)
        f_minus, _ = loss_and_grad(a - h * da, b - h * db)
        numeric = (f_plus - f_minus) / (2.0 * h)
        rel = abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-10)
        worst = max(worst, rel)
    return worst
