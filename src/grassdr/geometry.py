"""Grassmann and Stiefel geometry over the real and complex fields.

A point of Gr(p, n) is stored as an n x p matrix with orthonormal columns;
two bases denote the same point exactly when their column spans coincide.
"Transpose" always means conjugate transpose, so the real and complex cases
share one code path.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    ConvergenceError,
    CutLocusError,
    DegenerateInputError,
    InvalidTangentError,
    ShapeError,
)

# Library tolerances.
ORTHONORMAL_ATOL = 1e-10
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


def _as_matrix(m, name: str = "matrix", stack: bool = False) -> np.ndarray:
    """``m`` as a float64/complex128 matrix, or with ``stack`` also an (..., n, p) stack of them."""
    a = np.asarray(m)
    if a.ndim != 2 and not (stack and a.ndim > 2):
        raise ShapeError(f"{name} must be 2-dimensional{' or a stack' if stack else ''}, got shape {a.shape}")
    dtype = COMPLEX_DTYPE if np.iscomplexobj(a) else REAL_DTYPE
    return a.astype(dtype, copy=False)


def check_orthonormal(a: np.ndarray, atol: float, error: type[Exception], message: str, *args) -> float | np.ndarray:
    """max |A^H A - I| of a matrix ``a``, or the (N,) values of an (N, n, p) stack.

    A value above ``atol``, or NaN, raises ``error(message.format(drift=...), *args)``; in a stack the
    message names the first such point i as ``point i: ...``.
    """
    drift = np.abs(adjoint(a) @ a - np.eye(a.shape[-1])).max(axis=(-2, -1))
    bad = np.flatnonzero(~(drift <= atol))
    if bad.size:
        text = message.format(drift=float(drift.flat[bad[0]]))
        raise error(f"point {bad[0]}: {text}" if a.ndim > 2 else text, *args)
    return drift if a.ndim > 2 else float(drift)


def _checked_bases(m, ndim: int) -> np.ndarray:
    """A read-only copy of one n x p basis (``ndim`` 2) or of a non-empty (N, n, p) stack (3), checked."""
    b = _as_matrix(m, "basis", stack=True).copy()
    if b.ndim != ndim or not b.size or not 1 <= b.shape[-1] <= b.shape[-2]:
        raise ShapeError(f"need {ndim} axes, a nonzero size and 1 <= p <= n, got basis shape {b.shape}")
    check_orthonormal(b, ORTHONORMAL_ATOL, DegenerateInputError, "basis is not orthonormal; use orthonormalize() first")
    b.setflags(write=False)
    return b


@dataclass(frozen=True, eq=False)
class GrassmannPoint:
    """An element of Gr(p, n), held as an n x p orthonormal basis."""

    basis: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "basis", _checked_bases(self.basis, 2))

    @property
    def n(self) -> int:
        return self.basis.shape[0]

    @property
    def p(self) -> int:
        return self.basis.shape[1]

    @property
    def field(self) -> str:
        return "complex" if np.iscomplexobj(self.basis) else "real"

    def same_subspace(self, other: "GrassmannPoint") -> bool:
        """Whether both points denote the same subspace.

        True iff every principal angle between the spans is below ``EQUAL_ANGLE_TOL``,
        measured through the sines (exact near zero); invariant under
        right-unitary change of either basis.
        """
        _check_pair(self, other)
        residual = other.basis - self.basis @ (adjoint(self.basis) @ other.basis)
        sines = np.linalg.svd(residual, compute_uv=False)
        return bool(sines.max() < EQUAL_ANGLE_TOL)

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


def orthonormal_columns(m) -> np.ndarray:
    """Orthonormal basis of span(m) via thin QR, with a canonical representative.

    ``m`` is an n x p matrix or an (..., n, p) stack, each matrix handled on
    its own. The R factor is normalized to have nonnegative real diagonal, so
    the result is a deterministic function of the input. Raises
    DegenerateInputError when a matrix has a NaN or infinite entry, or when its
    smallest singular value is below ``RANK_RTOL`` times its largest; for a
    stack the error's ``index`` is the flat position of the first such matrix,
    and the message names it.
    """
    a = _as_matrix(m, stack=True)
    n, p = a.shape[-2:]
    if not 1 <= p <= n:
        raise ShapeError(f"need 1 <= p <= n, got shape {(n, p)}")
    finite = np.isfinite(a)
    if not finite.all():
        i = np.flatnonzero(~finite.all(axis=(-2, -1)))[0]
        raise _degenerate_matrix(a, i, "has a NaN or infinite entry")
    s = np.linalg.svd(a, compute_uv=False)
    lo, hi = s[..., -1], s[..., 0]
    bad = np.flatnonzero((hi == 0.0) | (lo < RANK_RTOL * hi))
    if bad.size:
        i = bad[0]
        raise _degenerate_matrix(
            a, i, f"is numerically rank deficient (singular values {lo.flat[i]:.3e} vs {hi.flat[i]:.3e})"
        )
    return _canonical_qr(a)


def _degenerate_matrix(a: np.ndarray, i: int, reason: str) -> DegenerateInputError:
    """The error for matrix ``i`` (flat position) of a matrix or stack ``a``, naming it in a stack."""
    index = np.unravel_index(i, a.shape[:-2])
    what = f"matrix {', '.join(map(str, index))} of the stack" if index else "matrix"
    return DegenerateInputError(f"{what} {reason}", index=int(i) if a.ndim > 2 else None)


def _canonical_qr(a: np.ndarray) -> np.ndarray:
    """Q of the thin QR of a matrix or a stack of matrices, phased so diag(R) is real and nonnegative."""
    q, r = np.linalg.qr(a)
    d = np.diagonal(r, axis1=-2, axis2=-1).copy()
    d[d == 0] = 1.0
    return q * np.conj(d / np.abs(d))[..., None, :]


def orthonormalize(m) -> GrassmannPoint:
    """GrassmannPoint spanning the columns of ``m`` (must have full column rank)."""
    return GrassmannPoint(orthonormal_columns(m))


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


def exp_map(x: GrassmannPoint, h: TangentVector) -> GrassmannPoint:
    """Geodesic exponential: span(X V cos(S) + U sin(S)) for the compact SVD H = U S V^H."""
    hm = _as_matrix(h.mat, "tangent")
    if hm.shape != x.basis.shape:
        raise ShapeError(f"tangent shape {hm.shape} does not match point {x!r}")
    if np.abs(adjoint(x.basis) @ hm).max() > EXP_TANGENT_ATOL:
        raise InvalidTangentError("tangent matrix is not horizontal at x")
    if not np.any(hm):
        return x
    return GrassmannPoint(_exp_basis(x.basis, hm))


def _exp_basis(base: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Canonical basis of exp_base(h) for a nonzero horizontal h; a geodesic keeps full rank.

    ``base`` and ``h`` may be matching (N, n, p) stacks, one exp per matrix.
    """
    u, s, vh = np.linalg.svd(h, full_matrices=False)
    s = s[..., None, :]
    return _canonical_qr((base @ adjoint(vh)) * np.cos(s) + u * np.sin(s))


def log_map(x: GrassmannPoint, y: GrassmannPoint) -> TangentVector:
    """Inverse of exp_map at ``x``: the tangent H with exp_map(x, H) = y.

    Raises CutLocusError when the largest principal angle is within
    ``CUT_LOCUS_MARGIN`` of pi/2, where the minimizing geodesic stops being
    unique (the smallest singular value of X^H Y is at most sin(CUT_LOCUS_MARGIN)).
    """
    _check_pair(x, y)
    smin = np.linalg.svd(adjoint(x.basis) @ y.basis, compute_uv=False)[-1]
    if smin <= np.sin(CUT_LOCUS_MARGIN):
        raise CutLocusError(f"largest principal angle within {CUT_LOCUS_MARGIN:.1e} of pi/2")
    return TangentVector(x, _batched_log_mats(x.basis, y.basis[None])[0])


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


def _batched_log_mats(base: np.ndarray, stacked: np.ndarray) -> np.ndarray:
    """Log-map matrices of many points at one base, stacked as (N, n, p).

    With the SVD X^H Y = U C V^H, the residual Y V - X U C = (I - X X^H) Y V
    has orthogonal columns whose norms are the principal sines, and
    H = resid diag(theta / sin) U^H with theta = arctan2(sin, C) (Bendokat,
    Zimmermann & Absil, "A Grassmann manifold handbook"). There is no
    inverse, so a point on the cut locus (theta = pi/2) maps to one of its
    minimizing geodesics, and small angles come from sines.
    """
    u, c, vh = np.linalg.svd(adjoint(base) @ stacked)
    resid = stacked @ adjoint(vh) - base @ (u * c[:, None, :])
    sin = np.linalg.norm(resid, axis=1)
    ratio = np.divide(np.arctan2(sin, c), sin, out=np.ones_like(sin), where=sin > 0)
    return resid @ (ratio[:, :, None] * adjoint(u))


def _pairwise_angles(stacked: np.ndarray) -> np.ndarray:
    """(N, N, p) angles from one (Np x Np) GEMM of all blocks X_i^H X_j; a 1 x 1 block's cosine is its modulus."""
    n_pts, _, p = stacked.shape
    flat = _columns(stacked)
    cos = (adjoint(flat) @ flat).reshape(n_pts, p, n_pts, p).transpose(0, 2, 1, 3)
    s = np.abs(cos[..., 0]) if p == 1 else np.linalg.svd(cos, compute_uv=False)
    return _angles_from_cosines(s)


def pairwise_distances(points: Sequence[GrassmannPoint], metric: str = "geodesic") -> np.ndarray:
    """Symmetric N x N distance matrix under the chosen metric, zero diagonal; ``points`` goes through ``as_dataset``."""
    theta = _pairwise_angles(as_dataset(points).stacked)
    if metric == "geodesic":
        d = np.sqrt((theta**2).sum(axis=-1))
    elif metric == "projection":
        d = np.sqrt((np.sin(theta) ** 2).sum(axis=-1))
    else:
        raise ShapeError(f"unknown metric {metric!r}")
    d = 0.5 * (d + d.T)
    np.fill_diagonal(d, 0.0)
    return d


def _k_nearest(distances: np.ndarray, allowed: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Each row's k nearest allowed columns of an N x N distance matrix, as a stable sort of the row finds them.

    ``allowed`` is an N x N boolean mask. Returns the pairs (rows, cols) with col among its row's
    min(k, number allowed) nearest allowed columns, ordered by row, then distance, then column: among
    equal distances the lower column is nearer. One partition per row finds its k-th smallest allowed
    distance, and only the allowed entries at or below it are sorted. Raises DegenerateInputError on a
    NaN or infinite distance.
    """
    if not np.isfinite(distances).all():
        raise DegenerateInputError("distances must be finite, got a NaN or infinite entry")
    n_cols = distances.shape[1]
    if k < 1 or n_cols == 0:
        none = np.zeros(0, dtype=np.intp)
        return none, none
    kth = min(k, n_cols) - 1
    masked = np.where(allowed, distances, np.inf)
    masked.partition(kth, axis=1)
    rows, cols = np.nonzero(allowed & (distances <= masked[:, kth, None]))
    order = np.lexsort((cols, distances[rows, cols], rows))
    rows, cols = rows[order], cols[order]
    # rows is sorted, so searchsorted finds where each row's run starts.
    keep = np.arange(rows.size) - np.searchsorted(rows, rows) < k
    return rows[keep], cols[keep]


def _columns(stack: np.ndarray) -> np.ndarray:
    """(N, n, p) stack as the n x Np matrix [S_1 ... S_N]."""
    return stack.transpose(1, 0, 2).reshape(stack.shape[1], -1)


def _leading_left_singular_vectors(stacked: np.ndarray, k: int) -> np.ndarray:
    """The k leading left singular vectors of [X_1 ... X_N], from a thin SVD.

    When Np < k the columns are padded with zeros up to k, so the last k - Np
    vectors complete the basis orthonormally without forming the n x n factor.
    """
    flat = _columns(stacked)
    if flat.shape[1] < k:
        flat = np.pad(flat, ((0, 0), (0, k - flat.shape[1])))
    u, _, _ = np.linalg.svd(flat, full_matrices=False)
    return u[:, :k].copy()


def frechet_mean(
    points: Sequence[GrassmannPoint],
    tol: float = 1e-9,
    max_iter: int = 1000,
) -> GrassmannPoint:
    """Karcher mean: fixed point of mu <- exp_mu(mean_i log_mu(X_i)).

    Starts at the extrinsic mean, the span of the p leading left singular
    vectors of [X_1 ... X_N] (the minimizer of the summed squared projection
    distance), so the result does not depend on the order of the points.
    Inside the ball where the mean is unique (Afsari 2011) the iteration
    converges to it; beyond it the start selects the stationary point.
    Always takes the unit step and returns once the gradient norm drops to
    ``tol``. Raises ConvergenceError (carrying the last iterate) after
    ``max_iter`` sweeps. The log map is defined on the whole manifold, so
    no point raises CutLocusError. ``Dataset.mean`` keeps this mean.
    """
    stacked = as_dataset(points).stacked
    mu = _leading_left_singular_vectors(stacked, stacked.shape[2])
    for _ in range(max_iter):
        g = _batched_log_mats(mu, stacked).mean(axis=0)
        if np.linalg.norm(g) <= tol:
            return GrassmannPoint(mu)
        mu = _exp_basis(mu, g)
    raise ConvergenceError(
        f"Karcher iteration did not reach gradient norm {tol:.1e} in {max_iter} steps",
        result=GrassmannPoint(mu),
    )


def variance(points: Sequence[GrassmannPoint]) -> float:
    """Frechet variance: mean squared geodesic distance to the Karcher mean (``Dataset.variance`` keeps it)."""
    ds = as_dataset(points)
    s = np.linalg.svd(adjoint(ds.mean.basis) @ ds.stacked, compute_uv=False)
    return float((_angles_from_cosines(s) ** 2).sum(axis=-1).mean())


class Dataset(Sequence):
    """An immutable dataset on one Gr(p, n) over one field, held as the read-only (N, n, p) ``stacked``.

    Built from such a stack (copied) or from GrassmannPoints (``stack_points``) and checked once, as a whole.
    Indexing (by an integer) and iteration make a GrassmannPoint only for the point asked for. The Karcher
    mean and Frechet variance are computed on first use and kept, so all fits and ratios on one Dataset share
    them; a mean that fails to converge raises its ConvergenceError again on every use.
    """

    def __init__(self, points: np.ndarray | Iterable[GrassmannPoint]):
        stack = points if isinstance(points, np.ndarray) else stack_points(list(points))
        self.__dict__["stacked"] = _checked_bases(stack, 3)

    def __setattr__(self, name, value):
        raise AttributeError(f"a Dataset is immutable; cannot set {name!r}")

    def __len__(self) -> int:
        return len(self.stacked)

    def __getitem__(self, index: int) -> GrassmannPoint:
        return GrassmannPoint(self.stacked[index])

    @cached_property
    def _mean(self) -> GrassmannPoint | ConvergenceError:
        try:
            return frechet_mean(self)
        except ConvergenceError as exc:
            return exc

    @property
    def mean(self) -> GrassmannPoint:
        """The Karcher mean, from ``frechet_mean`` with its defaults."""
        if isinstance(self._mean, ConvergenceError):
            raise self._mean
        return self._mean

    @cached_property
    def variance(self) -> float:
        """The Frechet variance about ``mean`` (module-level ``variance``)."""
        return variance(self)


def as_dataset(points: Sequence[GrassmannPoint]) -> Dataset:
    """``points`` as a Dataset: a Dataset unchanged, an (N, n, p) array or any other sequence checked and stacked."""
    return points if isinstance(points, Dataset) else Dataset(points)
