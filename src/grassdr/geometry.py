"""Grassmann and Stiefel geometry over the real and complex fields.

A point of Gr(p, n) is stored as an n x p matrix with orthonormal columns;
two bases denote the same point exactly when their column spans coincide.
"Transpose" always means conjugate transpose, so the real and complex cases
share one code path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    ConvergenceError,
    CutLocusError,
    DegenerateInputError,
    InvalidTangentError,
    ShapeError,
)

# Library tolerances. Every operation that uses one accepts a keyword override.
ORTHONORMAL_ATOL = 1e-12
TANGENT_ATOL = 1e-10
EXP_TANGENT_ATOL = 1e-8
EQUAL_ANGLE_TOL = 1e-9
RANK_RTOL = 1e-12
CUT_LOCUS_MARGIN = 1e-6

REAL_DTYPE = np.float64
COMPLEX_DTYPE = np.complex128

# Cosines this close to one are pure rounding; snapping them makes coincident
# subspaces measure exactly zero. Angles below ~1e-7 flatten to zero as a
# result, consistent with the documented ~1e-8 small-angle precision of the
# arccos construction.
_COS_SNAP = 1e-13


def _angles_from_cosines(s: np.ndarray) -> np.ndarray:
    s = np.clip(s, 0.0, 1.0)
    return np.arccos(np.where(s > 1.0 - _COS_SNAP, 1.0, s))


def adjoint(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose over the last two axes.

    For real input this is the transposed view, not a copy.
    """
    return np.asarray(m).swapaxes(-1, -2).conj()


def _as_matrix(m, name: str = "matrix") -> np.ndarray:
    a = np.asarray(m)
    if a.ndim != 2:
        raise ShapeError(f"{name} must be 2-dimensional, got shape {a.shape}")
    dtype = COMPLEX_DTYPE if np.iscomplexobj(a) else REAL_DTYPE
    return a.astype(dtype, copy=False)


@dataclass(frozen=True, eq=False)
class GrassmannPoint:
    """An element of Gr(p, n), held as an n x p orthonormal basis."""

    basis: np.ndarray

    def __post_init__(self):
        b = _as_matrix(self.basis, "basis").copy()
        n, p = b.shape
        if not 1 <= p <= n:
            raise ShapeError(f"need 1 <= p <= n, got basis shape {(n, p)}")
        gram = adjoint(b) @ b
        if not np.abs(gram - np.eye(p)).max() <= 1e-10:  # NaN and inf fail too
            raise DegenerateInputError(
                "basis columns are not orthonormal; use orthonormalize() first"
            )
        b.setflags(write=False)
        object.__setattr__(self, "basis", b)

    @property
    def n(self) -> int:
        return self.basis.shape[0]

    @property
    def p(self) -> int:
        return self.basis.shape[1]

    @property
    def field(self) -> str:
        return "complex" if np.iscomplexobj(self.basis) else "real"

    def same_subspace(self, other: "GrassmannPoint", angle_tol: float = EQUAL_ANGLE_TOL) -> bool:
        """Whether both points denote the same subspace.

        True iff every principal angle between the spans is below ``angle_tol``,
        measured through the sines (exact near zero); invariant under
        right-unitary change of either basis.
        """
        _check_pair(self, other)
        residual = other.basis - self.basis @ (adjoint(self.basis) @ other.basis)
        sines = np.linalg.svd(residual, compute_uv=False)
        return bool(sines.max() < angle_tol)

    def __repr__(self) -> str:
        return f"GrassmannPoint(n={self.n}, p={self.p}, field={self.field!r})"


@dataclass(frozen=True, eq=False)
class TangentVector:
    """A horizontal tangent vector at ``base``: an n x p matrix H with X^H H = 0."""

    base: GrassmannPoint
    mat: np.ndarray

    def __post_init__(self):
        m = _as_matrix(self.mat, "mat").copy()
        if m.shape != self.base.basis.shape:
            raise ShapeError(
                f"tangent matrix shape {m.shape} does not match base {self.base.basis.shape}"
            )
        if np.abs(adjoint(self.base.basis) @ m).max() > TANGENT_ATOL:
            raise InvalidTangentError("matrix is not horizontal at the base point")
        m.setflags(write=False)
        object.__setattr__(self, "mat", m)

    @property
    def norm(self) -> float:
        """Frobenius norm, which is the Riemannian norm in this metric."""
        return float(np.linalg.norm(self.mat))


def orthonormal_columns(m, rank_rtol: float = RANK_RTOL) -> np.ndarray:
    """Orthonormal basis of span(m) via thin QR, with a canonical representative.

    The R factor is normalized to have nonnegative real diagonal, so the result
    is a deterministic function of the input. Raises DegenerateInputError when
    the smallest singular value is below ``rank_rtol`` times the largest.
    """
    a = _as_matrix(m)
    n, p = a.shape
    if not 1 <= p <= n:
        raise ShapeError(f"need 1 <= p <= n, got shape {(n, p)}")
    s = np.linalg.svd(a, compute_uv=False)
    if s[0] == 0.0 or s[-1] < rank_rtol * s[0]:
        raise DegenerateInputError(
            f"matrix is numerically rank deficient (singular values {s[-1]:.3e} vs {s[0]:.3e})"
        )
    return _canonical_qr(a)


def _canonical_qr(a: np.ndarray) -> np.ndarray:
    """Q of the thin QR of a matrix or a stack of matrices, phased so diag(R) is real and nonnegative."""
    q, r = np.linalg.qr(a)
    d = np.diagonal(r, axis1=-2, axis2=-1).copy()
    d[d == 0] = 1.0
    return q * np.conj(d / np.abs(d))[..., None, :]


def orthonormalize(m, rank_rtol: float = RANK_RTOL) -> GrassmannPoint:
    """GrassmannPoint spanning the columns of ``m`` (must have full column rank)."""
    return GrassmannPoint(orthonormal_columns(m, rank_rtol=rank_rtol))


def _check_pair(x: GrassmannPoint, y: GrassmannPoint) -> None:
    if x.basis.shape != y.basis.shape:
        raise ShapeError(f"points live on different manifolds: {x!r} vs {y!r}")
    if x.field != y.field:
        raise ShapeError(f"scalar fields differ: {x.field} vs {y.field}")


def principal_angles(x: GrassmannPoint, y: GrassmannPoint) -> np.ndarray:
    """Principal angles between span(x) and span(y), ascending, each in [0, pi/2].

    Computed as arccos of the singular values of x^H y, clipped to [0, 1]
    (cosines within rounding of one snap to one, see _COS_SNAP).
    """
    _check_pair(x, y)
    s = np.linalg.svd(adjoint(x.basis) @ y.basis, compute_uv=False)
    return _angles_from_cosines(s)


def geodesic_distance(x: GrassmannPoint, y: GrassmannPoint) -> float:
    """Arc-length distance: sqrt of the sum of squared principal angles."""
    return float(np.linalg.norm(principal_angles(x, y)))


def projection_distance(x: GrassmannPoint, y: GrassmannPoint) -> float:
    """Projector distance ||P_x - P_y||_F / sqrt(2) = sqrt(sum of sin^2(theta_i))."""
    return float(np.linalg.norm(np.sin(principal_angles(x, y))))


def tangent_project(x: GrassmannPoint, m) -> TangentVector:
    """Project an arbitrary n x p matrix onto the horizontal space at ``x``."""
    a = _as_matrix(m)
    if a.shape != x.basis.shape:
        raise ShapeError(f"matrix shape {a.shape} does not match point {x!r}")
    h = a - x.basis @ (adjoint(x.basis) @ a)
    return TangentVector(x, h)


def exp_map(x: GrassmannPoint, h: TangentVector, atol: float = EXP_TANGENT_ATOL) -> GrassmannPoint:
    """Geodesic exponential: span(X V cos(S) + U sin(S)) for the compact SVD H = U S V^H."""
    hm = _as_matrix(h.mat, "tangent")
    if hm.shape != x.basis.shape:
        raise ShapeError(f"tangent shape {hm.shape} does not match point {x!r}")
    if np.abs(adjoint(x.basis) @ hm).max() > atol:
        raise InvalidTangentError("tangent matrix is not horizontal at x")
    if not np.any(hm):
        return x
    u, s, vh = np.linalg.svd(hm, full_matrices=False)
    g = (x.basis @ adjoint(vh)) * np.cos(s)[None, :] + u * np.sin(s)[None, :]
    return orthonormalize(g)


def log_map(x: GrassmannPoint, y: GrassmannPoint, cut_margin: float = CUT_LOCUS_MARGIN) -> TangentVector:
    """Inverse of exp_map at ``x``: the tangent H with exp_map(x, H) = y.

    H = U arctan(S) V^H from the compact SVD of (I - X X^H) Y (X^H Y)^{-1}.
    Raises CutLocusError when the largest principal angle is within
    ``cut_margin`` of pi/2 (X^H Y nearly singular).
    """
    _check_pair(x, y)
    m = adjoint(x.basis) @ y.basis
    smin = np.linalg.svd(m, compute_uv=False)[-1]
    if smin <= np.sin(cut_margin):
        raise CutLocusError(
            f"largest principal angle within {cut_margin:.1e} of pi/2; logarithm undefined"
        )
    g = (y.basis - x.basis @ m) @ np.linalg.inv(m)
    u, s, vh = np.linalg.svd(g, full_matrices=False)
    h = (u * np.arctan(s)[None, :]) @ vh
    # Scrub rounding so the horizontal invariant holds exactly.
    h -= x.basis @ (adjoint(x.basis) @ h)
    return TangentVector(x, h)


def sample_stiefel_uniform(n: int, p: int, field: str = "real", *, rng: np.random.Generator) -> GrassmannPoint:
    """Draw a uniformly distributed point of Gr(p, n) (Haar on the Stiefel quotient).

    Orthonormalizes an n x p matrix of i.i.d. standard Gaussian entries
    (complex Gaussian for field="complex"); resamples on the measure-zero
    rank-deficiency event.
    """
    if field not in ("real", "complex"):
        raise ShapeError(f"unknown field {field!r}")
    if not 1 <= p <= n:
        raise ShapeError(f"need 1 <= p <= n, got (n, p) = {(n, p)}")
    while True:
        g = rng.standard_normal((n, p))
        if field == "complex":
            g = g + 1j * rng.standard_normal((n, p))
        try:
            return orthonormalize(g)
        except DegenerateInputError:  # pragma: no cover - probability zero
            continue


def stack_points(points: Sequence[GrassmannPoint]) -> np.ndarray:
    """Stack a homogeneous sequence of points into an (N, n, p) array."""
    if len(points) == 0:
        raise ShapeError("empty point sequence")
    shape = points[0].basis.shape
    field = points[0].field
    for i, pt in enumerate(points):
        if pt.basis.shape != shape or pt.field != field:
            raise ShapeError(f"point {i} has shape {pt.basis.shape}/{pt.field}, expected {shape}/{field}")
    return np.stack([pt.basis for pt in points])


def _batched_log_mats(base: np.ndarray, stacked: np.ndarray, cut_margin: float = CUT_LOCUS_MARGIN) -> np.ndarray:
    """Log-map matrices of many points at one base, stacked as (N, n, p)."""
    m = np.einsum("nq,inp->iqp", np.conj(base), stacked)
    smin = np.linalg.svd(m, compute_uv=False)[..., -1]
    bad = np.nonzero(smin <= np.sin(cut_margin))[0]
    if bad.size:
        raise CutLocusError(
            f"point {bad[0]}: largest principal angle within {cut_margin:.1e} of pi/2"
        )
    g = (stacked - np.einsum("nq,iqp->inp", base, m)) @ np.linalg.inv(m)
    u, s, vh = np.linalg.svd(g, full_matrices=False)
    h = (u * np.arctan(s)[:, None, :]) @ vh
    return h - np.einsum("nq,iqp->inp", base, np.einsum("nq,inp->iqp", np.conj(base), h))


def _pairwise_angles(stacked_a: np.ndarray, stacked_b: np.ndarray) -> np.ndarray:
    gram = np.einsum("inp,jnq->ijpq", np.conj(stacked_a), stacked_b)
    s = np.linalg.svd(gram, compute_uv=False)
    return _angles_from_cosines(s)


def pairwise_distances(points: Sequence[GrassmannPoint], metric: str = "geodesic") -> np.ndarray:
    """Symmetric N x N distance matrix under the chosen metric, zero diagonal."""
    stacked = points if isinstance(points, np.ndarray) else stack_points(points)
    theta = _pairwise_angles(stacked, stacked)
    if metric == "geodesic":
        d = np.sqrt((theta**2).sum(axis=-1))
    elif metric == "projection":
        d = np.sqrt((np.sin(theta) ** 2).sum(axis=-1))
    else:
        raise ShapeError(f"unknown metric {metric!r}")
    d = 0.5 * (d + d.T)
    np.fill_diagonal(d, 0.0)
    return d


def frechet_mean(
    points: Sequence[GrassmannPoint],
    tol: float = 1e-9,
    max_iter: int = 200,
    step: float = 1.0,
) -> GrassmannPoint:
    """Karcher mean: fixed point of mu <- exp_mu(step * mean_i log_mu(X_i)).

    Initialized at the first point; returns once the gradient norm drops to
    ``tol``. A step below one damps the iteration on spread data where the
    unit step cycles. Raises ConvergenceError (carrying the last iterate)
    after ``max_iter`` sweeps, and propagates CutLocusError from the log map.
    """
    if len(points) == 0:
        raise ShapeError("frechet_mean of an empty sequence")
    stacked = stack_points(points)
    mu = points[0]
    for _ in range(max_iter):
        logs = _batched_log_mats(mu.basis, stacked)
        g = logs.mean(axis=0)
        if np.linalg.norm(g) <= tol:
            return mu
        mu = exp_map(mu, TangentVector(mu, step * g))
    raise ConvergenceError(
        f"Karcher iteration (step {step}) did not reach gradient norm {tol:.1e} in {max_iter} steps",
        result=mu,
    )
