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
# The Karcher iteration of ``frechet_mean`` stops at this gradient norm, or fails after this many sweeps.
KARCHER_TOL = 1e-9
KARCHER_MAX_ITER = 1000

REAL_DTYPE = np.float64
COMPLEX_DTYPE = np.complex128

# Cosines this close to one are pure rounding; snapping them makes coincident
# subspaces measure exactly zero. Angles below arccos(1 - 1e-13) ~ 4.5e-7
# flatten to zero as a result (``same_subspace``, the log map and ``variance`` use sines).
_COS_SNAP = 1e-13

# A log map at the Karcher mean shorter than this is rounding: coincident bases measure up to about
# 2.3e-15 (n <= 200, p <= 3), and ``variance`` counts such a point as zero. Its square, 1e-28, is far
# below the zero-variance bound (1e-24) of ``nested.explained_variance_ratio``.
_LOG_SNAP = 1e-14

# Rows per step when an N x N matrix is filled or scanned: a call holds it plus O(_ROW_BLOCK * N) scalars.
_ROW_BLOCK = 128


def _angles_from_cosines(s: np.ndarray) -> np.ndarray:
    """Overwrite the float cosines ``s`` with their angles and return it: clipped to [0, 1], snapped, arccos."""
    np.clip(s, 0.0, 1.0, out=s)
    s[s > 1.0 - _COS_SNAP] = 1.0
    return np.arccos(s, out=s)


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
        sines = _svd(residual, compute_uv=False)
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
        # A non-finite matrix fails before the product (which would warn), and "not <=" fails a NaN product.
        if not np.isfinite(m).all() or not np.abs(adjoint(self.base.basis) @ m).max() <= TANGENT_ATOL:
            raise InvalidTangentError("matrix is not a finite horizontal matrix at the base point")
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
    if p == 1:
        q, s = _column_svd(a)
        s = s[..., 0]
    else:
        q, s = None, np.linalg.svd(a, compute_uv=False)
    lo, hi = s[..., -1], s[..., 0]
    bad = np.flatnonzero((hi == 0.0) | (lo < RANK_RTOL * hi))
    if bad.size:
        i = bad[0]
        raise _degenerate_matrix(
            a, i, f"is numerically rank deficient (singular values {lo.flat[i]:.3e} vs {hi.flat[i]:.3e})"
        )
    return _canonical_qr(a) if q is None else q


def _degenerate_matrix(a: np.ndarray, i: int, reason: str) -> DegenerateInputError:
    """The error for matrix ``i`` (flat position) of a matrix or stack ``a``, naming it in a stack."""
    index = np.unravel_index(i, a.shape[:-2])
    what = f"matrix {', '.join(map(str, index))} of the stack" if index else "matrix"
    return DegenerateInputError(f"{what} {reason}", index=int(i) if a.ndim > 2 else None)


def _column_svd(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """U = a / |a| and S = |a| of an (..., n, 1) stack, as (..., n, 1) and (..., 1, 1), with no LAPACK call.

    For n > 1 each column is first scaled by the power of two that brings its largest modulus into
    [0.5, 1) (a subnormal column stops at 2^1022), so entries near 1e-300 or 1e300 neither underflow
    nor overflow when squared, and a column scaled by a power of two gives the same U. The squared
    norm sums re^2 + im^2 and U comes from a division, as in LAPACK's norm and QR. A single entry's
    modulus (a hypot over C) needs no scaling. A zero column gives U = e_1 and S = 0, as LAPACK does.
    """
    if a.shape[-2] == 1:
        scaled, scale, norms = a, 1.0, np.abs(a)
    else:
        _, e = np.frexp(np.abs(a).max(axis=-2, keepdims=True))
        scale = np.ldexp(1.0, -np.maximum(e, -1022))
        scaled = a * scale
        norms = np.sqrt((scaled.conj() * scaled).real.sum(axis=-2, keepdims=True))
    zero = norms == 0.0
    u = scaled / np.where(zero, 1.0, norms)
    u[..., :1, :] += zero
    return u, norms / scale


def _svd(m: np.ndarray, compute_uv: bool = True):
    """``np.linalg.svd(m, full_matrices=False, compute_uv=compute_uv)`` of a matrix or an (..., n, p) stack.

    A single column (p = 1) needs no factorization: U = m / |m|, S = |m| and V = 1, elementwise over
    the stack (``_column_svd``). Every other shape goes to LAPACK.
    """
    if m.shape[-1] != 1:
        return np.linalg.svd(m, full_matrices=False, compute_uv=compute_uv)
    u, s = _column_svd(m)
    if not compute_uv:
        return s[..., 0]
    return u, s[..., 0], np.ones(s.shape)


def _canonical_qr(a: np.ndarray) -> np.ndarray:
    """Q of the thin QR of a matrix or a stack of matrices, phased so diag(R) is real and nonnegative.

    A single column's Q is a / |a| (``_column_svd``), with no LAPACK call.
    """
    if a.shape[-1] == 1:
        return _column_svd(a)[0]
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
    s = _svd(adjoint(x.basis) @ y.basis, compute_uv=False)
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
    if not np.isfinite(hm).all() or not np.abs(adjoint(x.basis) @ hm).max() <= EXP_TANGENT_ATOL:
        raise InvalidTangentError("tangent matrix is not a finite horizontal matrix at x")
    if not np.any(hm):
        return x
    return GrassmannPoint(_exp_basis(x.basis, hm))


def _exp_basis(base: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Canonical basis of exp_base(h) for a nonzero horizontal h; a geodesic keeps full rank.

    ``base`` and ``h`` may be matching (N, n, p) stacks, one exp per matrix.
    """
    u, s, vh = _svd(h)
    s = s[..., None, :]
    return _canonical_qr((base @ adjoint(vh)) * np.cos(s) + u * np.sin(s))


def log_map(x: GrassmannPoint, y: GrassmannPoint) -> TangentVector:
    """Inverse of exp_map at ``x``: the tangent H with exp_map(x, H) = y.

    Raises CutLocusError when the largest principal angle is within
    ``CUT_LOCUS_MARGIN`` of pi/2, where the minimizing geodesic stops being
    unique (the smallest singular value of X^H Y is at most sin(CUT_LOCUS_MARGIN)).
    """
    _check_pair(x, y)
    smin = _svd(adjoint(x.basis) @ y.basis, compute_uv=False)[-1]
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

    With the SVD X^H Y = U C V^H (``_svd``, closed form for p = 1), the
    residual Y V - X U C = (I - X X^H) Y V has orthogonal columns whose
    norms are the principal sines, and
    H = resid diag(theta / sin) U^H with theta = arctan2(sin, C) (Bendokat,
    Zimmermann & Absil, "A Grassmann manifold handbook"). There is no
    inverse, so a point on the cut locus (theta = pi/2) maps to one of its
    minimizing geodesics, and small angles come from sines.
    """
    u, c, vh = _svd(adjoint(base) @ stacked)
    resid = stacked @ adjoint(vh) - base @ (u * c[:, None, :])
    sin = np.linalg.norm(resid, axis=1)
    ratio = np.divide(np.arctan2(sin, c), sin, out=np.ones_like(sin), where=sin > 0)
    return resid @ (ratio[:, :, None] * adjoint(u))


def pairwise_distances(points: Sequence[GrassmannPoint], metric: str = "geodesic") -> np.ndarray:
    """Symmetric N x N distance matrix under the chosen metric, zero diagonal; ``points`` goes through ``as_dataset``.

    Fills the upper triangle ``_ROW_BLOCK`` rows at a time: rows I from column I onward, from the Gram
    block X_I^H [X_I ... X_N] of the column layout. For p = 1 the cosine is the modulus of the inner
    product, for p > 1 the batched SVD of the p x p blocks gives the cosines. Angles, squares and roots
    are taken in place on those rows. Each block's part right of its diagonal square is mirrored below
    it, and the square itself is rebuilt from its strict upper triangle, so d is exactly symmetric with
    a zero diagonal, and one call holds the result plus O(_ROW_BLOCK * N) scalars.
    """
    if metric not in ("geodesic", "projection"):
        raise ShapeError(f"unknown metric {metric!r}")
    stacked = as_dataset(points).stacked
    n_pts, _, p = stacked.shape
    flat = _columns(stacked)
    d = np.empty((n_pts, n_pts))
    for start in range(0, n_pts, _ROW_BLOCK):
        stop = min(start + _ROW_BLOCK, n_pts)
        rows = d[start:stop, start:]
        gram = adjoint(flat[:, start * p : stop * p]) @ flat[:, start * p :]
        if p == 1:
            theta = _angles_from_cosines(np.abs(gram, out=rows))
        else:
            blocks = gram.reshape(stop - start, p, n_pts - start, p).transpose(0, 2, 1, 3)
            theta = _angles_from_cosines(_svd(blocks, compute_uv=False))
        if metric == "projection":
            np.sin(theta, out=theta)
        np.square(theta, out=theta)
        if p > 1:
            theta.sum(axis=-1, out=rows)
        np.sqrt(rows, out=rows)
        d[stop:, start:stop] = d[start:stop, stop:].T
        upper = np.triu(d[start:stop, start:stop], 1)
        np.add(upper, upper.T, out=d[start:stop, start:stop])
    return d


def _k_nearest(distances: np.ndarray, allowed: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Each row's k nearest allowed columns of an N x N distance matrix, as a stable sort of the row finds them.

    ``allowed`` is an N x N boolean mask. Returns the pairs (rows, cols) with col among its row's
    min(k, number allowed) nearest allowed columns, ordered by row, then distance, then column: among
    equal distances the lower column is nearer. One partition per row finds its k-th smallest allowed
    distance, and only the allowed entries at or below it are sorted; both work on ``_ROW_BLOCK`` rows
    at a time. Raises DegenerateInputError on a NaN or infinite distance.
    """
    if not np.isfinite(distances).all():
        raise DegenerateInputError("distances must be finite, got a NaN or infinite entry")
    n_rows, n_cols = distances.shape
    if k < 1 or n_cols == 0:
        none = np.zeros(0, dtype=np.intp)
        return none, none
    kth = min(k, n_cols) - 1
    found_rows, found_cols = [], []
    for start in range(0, n_rows, _ROW_BLOCK):
        block, ok = distances[start : start + _ROW_BLOCK], allowed[start : start + _ROW_BLOCK]
        masked = np.where(ok, block, np.inf)
        masked.partition(kth, axis=1)
        rows, cols = np.nonzero(ok & (block <= masked[:, kth, None]))
        order = np.lexsort((cols, block[rows, cols], rows))
        rows, cols = rows[order], cols[order]
        # rows is sorted, so searchsorted finds where each row's run starts.
        keep = np.arange(rows.size) - np.searchsorted(rows, rows) < k
        found_rows.append(rows[keep] + start)
        found_cols.append(cols[keep])
    return np.concatenate(found_rows), np.concatenate(found_cols)


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
    u, _, _ = _svd(flat)
    return u[:, :k].copy()


def frechet_mean(points: Sequence[GrassmannPoint]) -> GrassmannPoint:
    """Karcher mean: fixed point of mu <- exp_mu(mean_i log_mu(X_i)).

    Starts at the extrinsic mean, the span of the p leading left singular
    vectors of [X_1 ... X_N] (the minimizer of the summed squared projection
    distance), so the result does not depend on the order of the points.
    Inside the ball where the mean is unique (Afsari 2011) the iteration
    converges to it; beyond it the start selects the stationary point.
    Always takes the unit step and returns once the gradient norm drops to
    ``KARCHER_TOL``. Raises ConvergenceError (carrying the last iterate)
    after ``KARCHER_MAX_ITER`` sweeps. The log map is defined on the whole
    manifold, so no point raises CutLocusError. ``Dataset.mean`` keeps this mean.
    Single-column data (p = 1) sweep on the n x N column matrix (``_karcher_step_columns``).
    """
    stacked = as_dataset(points).stacked
    p = stacked.shape[2]
    mu = _leading_left_singular_vectors(stacked, p)
    data, step = (_columns(stacked), _karcher_step_columns) if p == 1 else (stacked, _karcher_step_stacked)
    for _ in range(KARCHER_MAX_ITER):
        mu_next = step(mu, data)
        if mu_next is None:
            return GrassmannPoint(mu)
        mu = mu_next
    raise ConvergenceError(
        f"Karcher iteration did not reach gradient norm {KARCHER_TOL:.1e} in {KARCHER_MAX_ITER} steps",
        result=GrassmannPoint(mu),
    )


def _karcher_step_stacked(mu: np.ndarray, stacked: np.ndarray) -> np.ndarray | None:
    """One Karcher sweep at ``mu`` over an (N, n, p) stack: exp_mu of the mean log map, or None at ``KARCHER_TOL``."""
    g = _batched_log_mats(mu, stacked).mean(axis=0)
    return None if np.linalg.norm(g) <= KARCHER_TOL else _exp_basis(mu, g)


def _karcher_step_columns(mu: np.ndarray, x: np.ndarray) -> np.ndarray | None:
    """``_karcher_step_stacked`` for p = 1 on the n x N column matrix ``x``, one number per point.

    With c = mu^H X and u = c / |c| (u = 1 where c = 0, LAPACK's rule for a zero column), the log map of X_i
    is resid_i theta_i / sin_i, where resid_i = X_i conj(u_i) - mu |c_i| has norm sin_i and
    theta_i = arctan2(sin_i, |c_i|). The mean log g is one GEMV, and the step is
    mu cos|g| + g sin|g| / |g|, divided by its norm (about 1, as g is orthogonal to mu).
    """
    c = (adjoint(mu) @ x)[0]
    cos = np.abs(c)
    u = np.divide(c, cos, out=np.ones_like(c), where=cos > 0)
    resid = x * u.conj() - mu * cos
    sin = np.linalg.norm(resid, axis=0)
    ratio = np.divide(np.arctan2(sin, cos), sin, out=np.ones_like(sin), where=sin > 0)
    g = resid @ (ratio / len(ratio))
    norm = np.linalg.norm(g)
    if norm <= KARCHER_TOL:
        return None
    step = mu * np.cos(norm) + g[:, None] * (np.sin(norm) / norm)
    return step / np.linalg.norm(step)


def variance(points: Sequence[GrassmannPoint]) -> float:
    """Frechet variance: mean squared geodesic distance to the Karcher mean (``Dataset.variance`` keeps it).

    The mean of ||log_mu X_i||_F^2 over the batched log map of the Karcher sweep, that is of
    sum(theta^2) with theta = arctan2(sin, cos), so small spreads keep their size; a squared norm
    below ``_LOG_SNAP``^2 counts as zero.
    """
    ds = as_dataset(points)
    logs = _batched_log_mats(ds.mean.basis, ds.stacked)
    d2 = (logs.conj() * logs).real.sum(axis=(1, 2))
    d2[d2 < _LOG_SNAP**2] = 0.0
    return float(d2.mean())


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
        """The Karcher mean, from ``frechet_mean``."""
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
