"""Riemannian conjugate gradient on Gr(m, n) x R^{n x p}.

A point is a pair of arrays (A, B): a Stiefel representative A of span(A)
and a free n x p factor B. A direction is a pair (dA, dB) with dA
horizontal at A, so span(A) is optimized without quotient bookkeeping.
Losses are plain Euclidean functions ``loss_and_grad(A, B) -> (value, (G_A, G_B))``
where the gradients follow the convention dL = Re tr(G^H dM), which
coincides with the ordinary gradient in the real case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConvergenceError, ShapeError
from .geometry import ORTHONORMAL_ATOL, _as_matrix, _canonical_qr, adjoint, check_orthonormal

LossAndGrad = Callable[[np.ndarray, np.ndarray], tuple[float, tuple[np.ndarray, np.ndarray]]]
Pair = tuple[np.ndarray, np.ndarray]

# Line search: the first trial step, the Armijo sufficient-decrease slope, the
# factor each backtrack shrinks the step by, and the backtracks allowed.
INITIAL_STEP = 1.0
ARMIJO_SLOPE = 1e-4
BACKTRACK_FACTOR = 0.5
MAX_BACKTRACKS = 30


def inner(u: Pair, v: Pair) -> float:
    """Product metric of two directions: Re tr(dA_u^H dA_v) + Re tr(dB_u^H dB_v)."""
    val = np.vdot(u[0], v[0]) + np.vdot(u[1], v[1])
    return float(np.real(val))


def _horizontal(a: np.ndarray, v: Pair) -> Pair:
    """Orthogonal projection of (vA, vB) onto the horizontal space at A: ((I - A A^H) vA, vB).

    Applied to Euclidean gradients it gives the Riemannian gradient; applied
    to a direction at another point it is the projection transport to A.
    """
    va, vb = v
    return va - a @ (adjoint(a) @ va), vb


def retract(a: np.ndarray, b: np.ndarray, d: Pair, t: float) -> Pair:
    """QR retraction on the Grassmann factor, translation on the Euclidean one.

    A horizontal step keeps full rank, since A^H (A + t dA) = I, so the
    canonical QR needs no rank check and the result no re-validation.
    """
    if t == 0.0:
        return a, b
    return _canonical_qr(a + t * d[0]), b + t * d[1]


@dataclass
class OptimizerConfig:
    max_iter: int = 300
    grad_tol: float = 1e-6

    def __post_init__(self):
        if self.max_iter < 1:
            raise ValueError("max_iter must be positive")
        if not self.grad_tol > 0:  # NaN fails too
            raise ValueError("grad_tol must be positive")


@dataclass
class OptimizeResult:
    """Outcome of ``minimize``: the best point (A, B) plus the accepted-loss trace."""

    A: np.ndarray
    B: np.ndarray
    loss_trace: list[float]
    iterations: int
    converged: bool
    grad_norm: float


def _evaluate(loss_and_grad: LossAndGrad, a: np.ndarray, b: np.ndarray) -> tuple[float, Pair]:
    """The loss and its Euclidean gradients at (A, B); gradients not shaped like A and B raise ShapeError."""
    f, (g_a, g_b) = loss_and_grad(a, b)
    g_a, g_b = np.asarray(g_a), np.asarray(g_b)
    if g_a.shape != a.shape or g_b.shape != b.shape:
        raise ShapeError("gradient shapes do not match the point")
    return f, (g_a, g_b)


def _line_search(loss_and_grad, a, b, f, d, slope_scale, t0):
    """Backtracking Armijo search; returns (A, B, f, Euclidean grads, t) or None."""
    t = t0
    for _ in range(MAX_BACKTRACKS + 1):
        a_c, b_c = retract(a, b, d, t)
        fc, gc = _evaluate(loss_and_grad, a_c, b_c)
        if fc <= f - ARMIJO_SLOPE * t * slope_scale:
            return a_c, b_c, fc, gc, t
        t *= BACKTRACK_FACTOR
    return None


def minimize(
    loss_and_grad: LossAndGrad,
    a: np.ndarray,
    b: np.ndarray,
    config: OptimizerConfig | None = None,
) -> OptimizeResult:
    """Conjugate-gradient descent with Polak-Ribiere-plus directions, from (A, B) = (``a``, ``b``).

    ``a`` (n x m) must have orthonormal columns, ``b`` be n x p and the loss's
    gradients be shaped like them; otherwise ShapeError. Accepted steps satisfy
    f_new <= f - ARMIJO_SLOPE * t * max(|grad|^2, -<grad, d>), so the trace is
    strictly nonincreasing. Restarts on steepest descent every
    dim Gr(m, n) + dim R^{n x p} iterations. Terminates when the Riemannian
    gradient norm reaches ``grad_tol`` or after ``max_iter`` iterations,
    returning the best point seen. If the line search stalls it retries once
    along steepest descent and then raises ConvergenceError carrying the best
    result so far. Deterministic: no internal randomness.
    """
    config = config or OptimizerConfig()
    a = _as_matrix(a, "A")
    b = np.asarray(b, dtype=a.dtype)
    if b.ndim != 2 or b.shape[0] != a.shape[0]:
        raise ShapeError(f"B must be {a.shape[0]} x p, got {b.shape}")
    check_orthonormal(a, ORTHONORMAL_ATOL, ShapeError, "A must have orthonormal columns")
    n, m = a.shape
    restart_every = max(1, m * (n - m) + n * b.shape[1])

    f, eg = _evaluate(loss_and_grad, a, b)
    g = _horizontal(a, eg)
    d = (-g[0], -g[1])
    trace = [float(f)]
    gnorm2 = inner(g, g)
    t_next = INITIAL_STEP
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
            d = (-g[0], -g[1])
            gd = -gnorm2
        slope_scale = max(gnorm2, -gd)

        hit = _line_search(loss_and_grad, a, b, f, d, slope_scale, t_next)
        if hit is None:
            d = (-g[0], -g[1])
            hit = _line_search(loss_and_grad, a, b, f, d, gnorm2, INITIAL_STEP)
        if hit is None:
            raise ConvergenceError(
                f"line search failed after {MAX_BACKTRACKS} backtracks "
                f"(iteration {k}, gradient norm {gnorm:.3e})",
                result=OptimizeResult(a, b, trace, iterations, False, gnorm),
            )
        a_new, b_new, f_new, eg, t = hit

        g_new = _horizontal(a_new, eg)
        gnorm2_new = inner(g_new, g_new)
        if (k + 1) % restart_every == 0:
            beta = 0.0
        else:
            g_old = _horizontal(a_new, g)
            beta = max(0.0, inner(g_new, (g_new[0] - g_old[0], g_new[1] - g_old[1])) / gnorm2)
        d_t = _horizontal(a_new, d)
        d = (-g_new[0] + beta * d_t[0], -g_new[1] + beta * d_t[1])

        a, b, f, g, gnorm2 = a_new, b_new, f_new, g_new, gnorm2_new
        trace.append(float(f))
        t_next = min(INITIAL_STEP, t / BACKTRACK_FACTOR)

    return OptimizeResult(a, b, trace, iterations, converged, math.sqrt(max(gnorm2, 0.0)))


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
        db = rng.standard_normal(b.shape)
        if np.iscomplexobj(a):
            da = da + 1j * rng.standard_normal(a.shape)
            db = db + 1j * rng.standard_normal(b.shape)
        scale = math.sqrt(np.vdot(da, da).real + np.vdot(db, db).real)
        da /= scale
        db /= scale
        analytic = float(np.real(np.vdot(g_a, da) + np.vdot(g_b, db)))
        f_plus, _ = loss_and_grad(a + h * da, b + h * db)
        f_minus, _ = loss_and_grad(a - h * da, b - h * db)
        numeric = (f_plus - f_minus) / (2.0 * h)
        rel = abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-10)
        worst = max(worst, rel)
    return worst
