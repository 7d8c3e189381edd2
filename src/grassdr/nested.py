"""Nested-Grassmann dimensionality reduction.

Embeds Gr(p, m) into Gr(p, n) through span(A X + B) with A an n x m
orthonormal-column matrix and B an n x p matrix satisfying A^H B = 0, and
projects back through span(A^H X). Model fitting minimizes either the mean
squared reconstruction distance (unsupervised) or an affinity-weighted sum
of pairwise squared distances between projected points (supervised).

Both losses share one spectral formulation: writing Phi_i for the p x p
Hermitian matrix whose eigenvalues are the squared principal-angle cosines
between a data point and its reconstruction (or between two projected
points), the projection metric contributes sum(1 - lambda) and the geodesic
metric sum(arccos(sqrt(lambda))^2). Differentiating that spectral
function gives closed-form gradients for both losses under both metrics;
``optim.check_gradient`` compares them with central differences in the
tests.

Both losses work in the reduced coordinates Y_i = A^H X_i and never form an
n x p matrix per point. In the unsupervised loss, with V_i = B-tilde^H X_i,
c = A^H B-tilde and beta = B-tilde^H B-tilde, the reconstruction
M_i = A A^H X_i + (I - A A^H) B-tilde enters only through
S_i = M_i^H X_i = Y_i^H Y_i - c^H Y_i + V_i and, at orthonormal A,
W_i = M_i^H M_i = Y_i^H Y_i - c^H c + beta. One GEMM [A B-tilde]^H [X_1 ... X_N]
gives every Y_i and V_i, and one GEMM [X_1 ... X_N] [Y-bar | V-bar]^H returns
the gradients, each of about n Np (m + p) multiply-adds; all other work is on
m x p and p x p blocks. The gradient is exact for this function of any
(A, B-tilde), which differs from the reconstruction loss off the Stiefel
manifold, so at orthonormal A only its vertical part A A^H G_A, which the
optimizer discards, differs from that of the n-dimensional form.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .errors import (
    ConvergenceError,
    DegenerateInputError,
    DegenerateProjectionError,
    ShapeError,
    SupervisionDegenerateError,
    UndefinedRatioError,
)
from .geometry import (
    ORTHONORMAL_ATOL,
    Dataset,
    GrassmannPoint,
    _canonical_qr,
    _columns,
    _k_nearest,
    _leading_left_singular_vectors,
    adjoint,
    as_dataset,
    check_orthonormal,
    orthonormal_columns,
    pairwise_distances,
    sample_stiefel_uniform,
    variance,
)
from .optim import OptimizeResult, OptimizerConfig, minimize

METRICS = ("projection", "geodesic")

# Floor on squared cosines when dividing in the geodesic gradient; the
# geodesic squared distance is genuinely non-smooth at right angles.
_LAMBDA_FLOOR = 1e-12
_COND_FLOOR = 1e-24  # squared rank tolerance for M^H M


@dataclass(frozen=True, eq=False)
class NestedMap:
    """The pair (A, B) parametrizing the embedding of Gr(p, m) in Gr(p, n).

    A has orthonormal columns; B is stored in the nullspace of A^H
    (the projected representative (I - A A^H) B-tilde).
    """

    A: np.ndarray
    B: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.A)
        b = np.asarray(self.B, dtype=a.dtype)
        if a.ndim != 2 or b.ndim != 2 or b.shape[0] != a.shape[0]:
            raise ShapeError(f"incompatible shapes A {a.shape}, B {b.shape}")
        check_orthonormal(a, ORTHONORMAL_ATOL, ShapeError, "A must have orthonormal columns")
        # Written as "not <=" so that NaN and inf fail the check.
        if b.shape[1] and not np.abs(adjoint(a) @ b).max() <= 1e-8:
            raise ShapeError("B must lie in the nullspace of A^H; use from_unprojected()")
        a = a.copy()
        b = b.copy()
        a.setflags(write=False)
        b.setflags(write=False)
        object.__setattr__(self, "A", a)
        object.__setattr__(self, "B", b)

    @classmethod
    def from_unprojected(cls, a: np.ndarray, b_tilde: np.ndarray) -> "NestedMap":
        """Build a map from an arbitrary B-tilde by projecting it onto null(A^H)."""
        a = np.asarray(a)
        b_tilde = np.asarray(b_tilde, dtype=a.dtype)
        return cls(a, b_tilde - a @ (adjoint(a) @ b_tilde))

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return self.A.shape[1]

    @property
    def p(self) -> int:
        return self.B.shape[1]

    @property
    def field(self) -> str:
        return "complex" if np.iscomplexobj(self.A) else "real"


@dataclass
class FitReport:
    """Fitted map plus optimization diagnostics."""

    map: NestedMap
    loss_trace: list[float]
    explained_variance_ratio: float
    iterations: int
    converged: bool
    grad_norm: float  # Riemannian gradient norm at the returned point


def embed_point(nmap: NestedMap, x: GrassmannPoint) -> GrassmannPoint:
    """Map a point of Gr(p, m) to Gr(p, n): span(A X + B), as ``embed_dataset`` of one point."""
    return embed_dataset(nmap, [x])[0]


def project_point(nmap: NestedMap, x: GrassmannPoint) -> GrassmannPoint:
    """Map a point of Gr(p, n) to Gr(p, m): span(A^H X), as ``project_dataset`` of one point."""
    return project_dataset(nmap, [x])[0]


def reconstruct_point(nmap: NestedMap, x: GrassmannPoint) -> GrassmannPoint:
    """Reconstruction in Gr(p, n): span(A Q + B), embedding the canonical basis Q of span(A^H X).

    Fixes every point of the embedded submanifold exactly and is idempotent. It is not the reconstruction
    span(A A^H X + B) = span(A Q R + B) that the unsupervised loss measures: whenever B != 0 the two differ,
    so a fitted model's ``reconstruct_point`` is not the fit's optimum.
    """
    return embed_point(nmap, project_point(nmap, x))


def _stacked_on(nmap: NestedMap, points: Sequence[GrassmannPoint], side: str) -> np.ndarray:
    """The (N, d, p) stack of ``points``, which must match the map's (``side``, p, field); ``side`` is "n" or "m"."""
    stacked = as_dataset(points).stacked
    dims = (*stacked.shape[1:], "complex" if np.iscomplexobj(stacked) else "real")
    expected = (getattr(nmap, side), nmap.p, nmap.field)
    if dims != expected:
        raise ShapeError(f"data of ({side}, p, field) {dims} do not match the map's {expected}")
    return stacked


def embed_dataset(nmap: NestedMap, points: Sequence[GrassmannPoint]) -> Dataset:
    """Embed many points of Gr(p, m) at once, span(A X_i + B), as a Dataset."""
    return Dataset(orthonormal_columns(nmap.A @ _stacked_on(nmap, points, "m") + nmap.B))


def project_dataset(nmap: NestedMap, points: Sequence[GrassmannPoint]) -> Dataset:
    """Project many points at once, span(A^H X_i), as a Dataset; errors name the offending data index."""
    stacked = _stacked_on(nmap, points, "n")
    try:
        q = orthonormal_columns(adjoint(nmap.A) @ stacked)
    except DegenerateInputError as exc:
        message = f"data point {exc.index}: subspace nearly orthogonal to span(A)"
        raise DegenerateProjectionError(message, index=exc.index) from exc
    return Dataset(q)


# ---------------------------------------------------------------------------
# Losses
# ---------------------------------------------------------------------------


def _check_metric(metric: str) -> None:
    if metric not in METRICS:
        raise ShapeError(f"unknown metric {metric!r}; expected one of {METRICS}")


def _geodesic_terms(lam: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """theta^2 = arccos(sqrt(lambda))^2 of squared cosines ``lam`` and its derivative in lambda, elementwise."""
    lam = np.clip(lam, 0.0, 1.0)
    theta = np.arccos(np.sqrt(lam))
    sin_theta = np.sqrt(np.clip(1.0 - lam, 0.0, 1.0))
    ratio = np.where(sin_theta > 1e-12, theta / np.where(sin_theta > 1e-12, sin_theta, 1.0), 1.0)
    return theta**2, -ratio / np.sqrt(np.clip(lam, _LAMBDA_FLOOR, 1.0))


def _geodesic_spectrum(phi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Squared geodesic distances and the gradient factor Psi = d/dPhi of each.

    ``phi`` is a stack of Hermitian p x p matrices whose eigenvalues lambda
    are squared principal-angle cosines; the distance is
    sum(arccos(sqrt(lambda))^2) and Psi shares Phi's eigenvectors.
    """
    lam, vec = np.linalg.eigh(phi)
    theta2, dphi = _geodesic_terms(lam)
    psi = (vec * dphi[..., None, :]) @ adjoint(vec)
    return theta2.sum(axis=-1), psi


def _rank_deficient(index: int, what: str) -> DegenerateProjectionError:
    return DegenerateProjectionError(f"data point {index}: {what} is numerically rank deficient", index=index)


def _checked_inverse(w: np.ndarray, what: str) -> np.ndarray:
    """Inverses of a stack of Hermitian Gram matrices, rejecting numerically singular ones.

    The rank test is written "not >" so that a Gram holding a NaN, whose eigenvalues are NaN, fails it.
    """
    lam, vec = np.linalg.eigh(w)
    ok = lam[:, 0] > _COND_FLOOR * np.maximum(lam[:, -1], np.finfo(float).tiny)
    if not ok.all():
        raise _rank_deficient(int(np.argmin(ok)), what)
    return (vec / lam[:, None, :]) @ adjoint(vec)


def unsupervised_loss_and_grad(
    a: np.ndarray,
    b_tilde: np.ndarray,
    stacked: np.ndarray,
    metric: str = "projection",
) -> tuple[float, tuple[np.ndarray, np.ndarray]]:
    """Mean squared reconstruction distance and its Euclidean gradients.

    Phi_i = S_i^H W_i^{-1} S_i, in the reduced coordinates of the module
    docstring, has the squared cosines of the angles between X_i and its
    reconstruction span(M_i) as its spectrum. The gradients follow
    dL = Re tr(G^H dM) and are exact for any (A, B-tilde). Single-column
    data (p = 1) take ``_unsupervised_columns``, with one number per point;
    every other p takes ``_unsupervised_stacked``.
    """
    _check_metric(metric)
    a = np.asarray(a)
    b_tilde = np.asarray(b_tilde, dtype=a.dtype)
    kernel = _unsupervised_columns if stacked.shape[2] == 1 else _unsupervised_stacked
    return kernel(a, b_tilde, stacked, metric)


def _unsupervised_stacked(
    a: np.ndarray, b_tilde: np.ndarray, stacked: np.ndarray, metric: str
) -> tuple[float, tuple[np.ndarray, np.ndarray]]:
    """``unsupervised_loss_and_grad`` on the (N, p, p) blocks S_i, W_i and Phi_i, for any p."""
    (n_pts, _, p), m = stacked.shape, a.shape[1]
    ab_h = adjoint(np.concatenate((a, b_tilde), axis=1))
    x_flat = _columns(stacked)
    yv = (ab_h @ x_flat).reshape(m + p, n_pts, p).transpose(1, 0, 2)
    y, gram = yv[:, :m], ab_h @ b_tilde
    c, c_h = gram[:m], adjoint(gram[:m])
    yy = adjoint(y) @ y
    s_mat = yy - c_h @ y + yv[:, m:]  # S_i = Y_i^H Y_i - c^H Y_i + V_i, W_i = Y_i^H Y_i - c^H c + beta
    winv_s = _checked_inverse(yy + (gram[m:] - c_h @ c), "reconstruction") @ s_mat
    if metric == "projection":
        # Loss p - tr(Phi_i), so dL/dPhi_i = -I.
        values = np.maximum(p - np.einsum("ipq,ipq->i", np.conj(s_mat), winv_s).real, 0.0)
        t = -winv_s
    else:
        phi = adjoint(s_mat) @ winv_s
        values, psi = _geodesic_spectrum(0.5 * (phi + adjoint(phi)))
        t = winv_s @ psi
    loss = float(values.sum()) / n_pts

    # With T_i = W_i^{-1} S_i Psi_i: dL/dS_i = 2 T_i / N, dL/dW_i = -T_i (W_i^{-1} S_i)^H / N.
    s_bar = (2.0 / n_pts) * t
    w_bar = (-1.0 / n_pts) * (t @ adjoint(winv_s))
    # Columns [Y-bar_i; V-bar_i]: V-bar_i = dL/dS_i, Y-bar_i = Y_i (S-bar_i^H + S-bar_i + 2 W-bar_i) - c S-bar_i.
    bars = np.empty((m + p, n_pts, p), dtype=yv.dtype)
    bars[m:] = s_bar.transpose(1, 0, 2)
    np.matmul(y, adjoint(s_bar) + s_bar + 2.0 * w_bar, out=bars[:m].transpose(1, 0, 2))
    return loss, _unsupervised_gradients(a, b_tilde, c, x_flat, bars.reshape(m + p, -1), w_bar.sum(axis=0))


def _unsupervised_columns(
    a: np.ndarray, b_tilde: np.ndarray, stacked: np.ndarray, metric: str
) -> tuple[float, tuple[np.ndarray, np.ndarray]]:
    """``unsupervised_loss_and_grad`` for single-column data (p = 1), on the n x N column matrix X.

    Every p x p block is a number: with Y = A^H X (m x N) and v = B-tilde^H X, S_i = |Y_i|^2 - c^H Y_i + v_i,
    W_i = |Y_i|^2 - c^H c + beta is real, Phi_i = |S_i|^2 / W_i, and the geodesic derivative is elementwise.
    """
    x_flat, m = _columns(stacked), a.shape[1]
    n_pts = x_flat.shape[1]
    ab_h = adjoint(np.concatenate((a, b_tilde), axis=1))
    yv, gram = ab_h @ x_flat, ab_h @ b_tilde
    y, c = yv[:m], gram[:m]
    yy = (y.conj() * y).real.sum(axis=0)
    s = yy - (adjoint(c) @ y)[0] + yv[m]
    w = yy + (gram[m, 0] - np.vdot(c, c)).real
    # The stacked path's rank test at p = 1, written as "not >" so that a NaN W fails it too.
    ok = w > _COND_FLOOR * np.maximum(w, np.finfo(float).tiny)
    if not ok.all():
        raise _rank_deficient(int(np.argmin(ok)), "reconstruction")
    r = s / w  # W_i^{-1} S_i
    r2 = (r.conj() * r).real
    phi = w * r2  # |S_i|^2 / W_i
    if metric == "projection":
        values, psi = np.maximum(1.0 - phi, 0.0), -1.0  # loss 1 - Phi_i, so dL/dPhi_i = -1
    else:
        values, psi = _geodesic_terms(phi)
    loss = float(values.sum()) / n_pts

    # The stacked path's S-bar_i = 2 psi_i r_i / N and W-bar_i = -psi_i |r_i|^2 / N, so the Y-bar rows
    # hold Y_i (S-bar_i^H + S-bar_i + 2 W-bar_i) = Y_i 2 psi_i (2 Re r_i - |r_i|^2) / N.
    bars = np.empty((m + 1, n_pts), dtype=yv.dtype)
    np.multiply((2.0 / n_pts) * psi, r, out=bars[m])
    np.multiply(y, (2.0 / n_pts) * psi * (2.0 * r.real - r2), out=bars[:m])
    beta_bar = np.full((1, 1), -np.sum(psi * r2) / n_pts)
    return loss, _unsupervised_gradients(a, b_tilde, c, x_flat, bars, beta_bar)


def _unsupervised_gradients(
    a: np.ndarray, b_tilde: np.ndarray, c: np.ndarray, x_flat: np.ndarray, bars: np.ndarray, beta_bar: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(G_A, G_B) from the columns [Y_i (S-bar_i^H + S-bar_i + 2 W-bar_i); V-bar_i] of ``bars`` and beta-bar.

    Subtracts c S-bar_i from the Y-bar rows in place, then G_A = X Y-bar^H + B-tilde c-bar^H and
    G_B = X V-bar^H + A c-bar + 2 B-tilde beta-bar, with c-bar = -sum_i Y_i S-bar_i^H - 2 c beta-bar and
    sum_i Y_i S-bar_i^H = A^H X V-bar^H.
    """
    m = a.shape[1]
    bars[:m] -= c @ bars[m:]
    g_ab = x_flat @ adjoint(bars)
    c_bar = -(adjoint(a) @ g_ab[:, m:]) - 2.0 * (c @ beta_bar)
    return g_ab[:, :m] + b_tilde @ adjoint(c_bar), g_ab[:, m:] + a @ c_bar + 2.0 * (b_tilde @ beta_bar)


def build_affinity(labels, distances: np.ndarray, k_w: int = 5, k_b: int = 5) -> np.ndarray:
    """Symmetric {-1, 0, +1} affinity from labels and a distance matrix.

    a_ij = +1 when i and j share a label and either is among the other's k_w
    nearest same-class neighbors; -1 when labels differ and either is among
    the other's k_b nearest different-class neighbors; 0 otherwise. The
    nearest are those a stable sort of the row puts first: among equal
    distances the lower index is nearer. A row with fewer than k_w (k_b)
    candidates takes all of them, and a label with a single member warns.
    Raises DegenerateInputError on a NaN or infinite distance.
    """
    labels = np.asarray(labels)
    n_pts = labels.shape[0]
    distances = np.asarray(distances, dtype=float)
    if distances.shape != (n_pts, n_pts):
        raise ShapeError(f"distances must be {n_pts} x {n_pts}, got {distances.shape}")
    if k_w < 0 or k_b < 0:
        raise ShapeError("k_w and k_b must be nonnegative")
    other = labels[:, None] != labels[None, :]
    same = ~other
    np.fill_diagonal(same, False)
    if k_w >= 1:
        for i in np.flatnonzero(~same.any(axis=1)):
            warnings.warn(
                f"label {labels[i]!r} has a single member; row {i} gets no positive affinity",
                stacklevel=2,
            )
    aff = np.zeros((n_pts, n_pts))
    for allowed, count, value in ((same, k_w, 1.0), (other, k_b, -1.0)):
        rows, cols = _k_nearest(distances, allowed, count)
        aff[rows, cols] = value
        aff[cols, rows] = value
    return aff


def supervised_loss_and_grad(
    a: np.ndarray,
    stacked: np.ndarray,
    affinity: np.ndarray,
    metric: str = "projection",
) -> tuple[float, tuple[np.ndarray, np.ndarray]]:
    """Affinity-weighted mean of pairwise squared distances between projections.

    L(A) = (1/N^2) sum_ij a_ij d^2(span(A^H X_i), span(A^H X_j)). With
    Y_i = A^H X_i = Q_i R_i (canonical QR), C_ij = Q_i^H Q_j holds the
    principal cosines of pair (i, j) and Phi_ij = C_ij C_ij^H their squares.
    Writing Psi_ij = dd^2_ij/dPhi_ij (-I for the projection metric, the
    spectral derivative for the geodesic one) and
    T_j = sum_i a_ij Q_i Psi_ij C_ij, the gradient is
    G_A = (2/N^2) sum_j X_j Gamma_j^H with Gamma_j = 2 (I - Q_j Q_j^H) T_j R_j^{-H}.
    Every pairwise product is one GEMM over the m x Np matrix [Q_1 ... Q_N].
    Single-column data (p = 1) take ``_supervised_columns``, with one number
    per pair; every other p takes ``_supervised_stacked``.
    Returns (value, (G_A, G_B)) with a zero-width G_B for optimizer reuse.
    """
    _check_metric(metric)
    a = np.asarray(a)
    n_pts = stacked.shape[0]
    if affinity.shape != (n_pts, n_pts):
        raise ShapeError("affinity size does not match dataset")
    kernel = _supervised_columns if stacked.shape[2] == 1 else _supervised_stacked
    value, g_a = kernel(a, stacked, affinity, metric)
    return value, (g_a, np.zeros((a.shape[0], 0), dtype=a.dtype))


def _supervised_stacked(a: np.ndarray, stacked: np.ndarray, affinity: np.ndarray, metric: str):
    """``supervised_loss_and_grad``'s (value, G_A) on the (N, N, p, p) cosine blocks C_ij, for any p."""
    n_pts, _, p = stacked.shape
    y = adjoint(a) @ stacked
    winv = _checked_inverse(adjoint(y) @ y, "projection")
    q = _canonical_qr(y)
    q_flat = _columns(q)
    cos = (adjoint(q_flat) @ q_flat).reshape(n_pts, p, n_pts, p).transpose(0, 2, 1, 3)
    if metric == "projection":
        d2 = p - (np.abs(cos) ** 2).sum(axis=(-2, -1))
        psi_cos = -cos
    else:
        d2, psi = _geodesic_spectrum(cos @ adjoint(cos))
        psi_cos = psi @ cos
    value = float((affinity * d2).sum() / n_pts**2)

    weighted = (affinity[:, :, None, None] * psi_cos).transpose(0, 2, 1, 3).reshape(n_pts * p, -1)
    t = (q_flat @ weighted).reshape(-1, n_pts, p).transpose(1, 0, 2)
    r_inv_h = (adjoint(q) @ y) @ winv
    gamma = 2.0 * (t - q @ (adjoint(q) @ t)) @ r_inv_h
    return value, (2.0 / n_pts**2) * (_columns(stacked) @ adjoint(_columns(gamma)))


def _supervised_columns(a: np.ndarray, stacked: np.ndarray, affinity: np.ndarray, metric: str):
    """``supervised_loss_and_grad``'s (value, G_A) for single-column data (p = 1), on the n x N column matrix X.

    Every block is a number: Y = A^H X (m x N) with column norms r_i = R_i, Q = Y / r, the cosines
    C = Q^H Q (N x N) and d^2_ij = 1 - |C_ij|^2, or the elementwise geodesic terms of |C_ij|^2. Then
    T = Q (a o Psi o C) and Gamma = 2 (T - Q diag(Q^H T)) / r.
    """
    x_flat = _columns(stacked)
    n_pts = x_flat.shape[1]
    y = adjoint(a) @ x_flat
    r2 = (y.conj() * y).real.sum(axis=0)
    # The stacked path's rank test at p = 1, written as "not >" so that a NaN projection fails it too.
    ok = r2 > _COND_FLOOR * np.maximum(r2, np.finfo(float).tiny)
    if not ok.all():
        raise _rank_deficient(int(np.argmin(ok)), "projection")
    r = np.sqrt(r2)
    q = y / r
    cos = adjoint(q) @ q
    phi = (cos.conj() * cos).real
    if metric == "projection":
        d2, psi = 1.0 - phi, -1.0
    else:
        d2, psi = _geodesic_terms(phi)
    value = float((affinity * d2).sum() / n_pts**2)

    t = q @ (affinity * psi * cos)
    gamma = (2.0 / r) * (t - q * (q.conj() * t).sum(axis=0))
    return value, (2.0 / n_pts**2) * (x_flat @ adjoint(gamma))


# ---------------------------------------------------------------------------
# Variance and fitting
# ---------------------------------------------------------------------------


def explained_variance_ratio(nmap: NestedMap, dataset: Sequence[GrassmannPoint]) -> float:
    """Variance of the projected points over the variance of the originals.

    The denominator is ``Dataset.variance``, so ratios on one Dataset share it.
    """
    if len(dataset) < 2:
        raise ShapeError("need at least two points for a variance ratio")
    ds = as_dataset(dataset)
    if ds.variance <= 1e-24:
        raise UndefinedRatioError("original dataset has zero Frechet variance")
    return variance(project_dataset(nmap, ds)) / ds.variance


def _fit_dims(stacked: np.ndarray, m: int) -> tuple[int, int]:
    n_pts, n, p = stacked.shape
    if n_pts < 2:
        raise ShapeError("need at least two data points")
    if not p < m <= n:
        raise ShapeError(f"target dimension m={m} must satisfy p < m <= n (p={p}, n={n})")
    return n, p


def _column_stack(flat: np.ndarray, n_pts: int) -> np.ndarray:
    """The (N, d, p) stack over the d x Np column matrix ``flat``, whose ``_columns`` is ``flat`` itself."""
    return flat.reshape(flat.shape[0], n_pts, -1).transpose(1, 0, 2)


def _best_of_restarts(
    loss,
    stacked: np.ndarray,
    m: int,
    width: int,
    config: OptimizerConfig | None,
    rng: np.random.Generator | None,
    restarts: int,
) -> OptimizeResult:
    """Minimize ``loss(A, B, X)`` over the data X from several starts and keep the lowest final loss.

    A starts at the m leading left singular vectors of [X_1 ... X_N] and then
    at ``restarts - 1`` uniform Stiefel draws from ``rng``; B (n x ``width``)
    starts at zero. The n x Np column layout of the data is built once per
    fit, and X is a stack over it.

    When m <= Np < n the singular-vector start runs in the coordinates of
    span(X): with U (n x Np) the left singular vectors of the thin SVD that
    gives the start, it minimizes over the data U^H X_i from A = I[:, :m]
    and lifts the result to (U A, U B). Both losses have gradients in
    span(X, A, B), so from a start inside span(X) every projected gradient,
    retraction and conjugate direction stays there, and in exact arithmetic
    the reduced run is the full-space fit. Its restart period on steepest
    descent is the reduced manifold's dimension m(Np - m) + Np ``width``.
    Random starts leave span(X), so they run in the full space.
    """
    if restarts < 1:
        raise ShapeError(f"restarts must be at least 1, got {restarts}")
    n_pts, n, p = stacked.shape
    field = "complex" if np.iscomplexobj(stacked) else "real"
    flat = _columns(stacked)
    reduce = m <= n_pts * p < n
    u = _leading_left_singular_vectors(stacked, n_pts * p if reduce else m)
    full = _column_stack(flat, n_pts)
    if reduce:
        starts = [(np.eye(n_pts * p, m, dtype=stacked.dtype), _column_stack(adjoint(u) @ flat, n_pts), u)]
    else:
        starts = [(u, full, None)]
    if restarts > 1:
        rng = rng or np.random.default_rng(0)
        starts += [(sample_stiefel_uniform(n, m, field, rng=rng).basis, full, None) for _ in range(restarts - 1)]

    best: OptimizeResult | None = None
    for a0, data, basis in starts:
        b0 = np.zeros((a0.shape[0], width), dtype=a0.dtype)
        try:
            result = minimize(lambda a, b: loss(a, b, data), a0, b0, config)
        except ConvergenceError as exc:
            # Line search stalled at numerical precision: keep the best iterate.
            result = exc.result
        if basis is not None:
            result = replace(result, A=basis @ result.A, B=basis @ result.B)
        if best is None or result.loss_trace[-1] < best.loss_trace[-1]:
            best = result
    return best


def fit_unsupervised(
    dataset: Sequence[GrassmannPoint],
    m: int,
    metric: str = "projection",
    config: OptimizerConfig | None = None,
    rng: np.random.Generator | None = None,
    restarts: int = 1,
) -> FitReport:
    """Fit the unsupervised nested model by minimizing reconstruction error.

    Optimizes over span(A) in Gr(m, n) and an unconstrained B-tilde; the
    returned map stores B = (I - A A^H) B-tilde. A is initialized from the
    m leading left singular vectors of the column-stacked data; additional
    restarts (seeded by ``rng``) keep the best final loss. When m <= Np < n
    the singular-vector start runs, exactly, in the coordinates of
    span(X_1 ... X_N) (``_best_of_restarts``). With B != 0 the loss
    depends on the bases, not only the subspaces: span(A A^H X_i + B) moves when
    X_i becomes X_i Q_i (for p = 1, a sign flip), and so may the fit. Permuting
    the points, or mapping them all by one ambient unitary, changes nothing.
    """
    _check_metric(metric)
    ds = as_dataset(dataset)
    _, p = _fit_dims(ds.stacked, m)
    ds.variance  # a dataset without a Karcher mean fails here, before the fit

    def loss(a, b, data):
        return unsupervised_loss_and_grad(a, b, data, metric)

    best = _best_of_restarts(loss, ds.stacked, m, p, config, rng, restarts)
    nmap = NestedMap.from_unprojected(best.A, best.B)
    ratio = explained_variance_ratio(nmap, ds)
    return FitReport(nmap, best.loss_trace, ratio, best.iterations, best.converged, best.grad_norm)


def fit_supervised(
    dataset: Sequence[GrassmannPoint],
    labels,
    m: int,
    metric: str = "projection",
    k_w: int = 5,
    k_b: int = 5,
    config: OptimizerConfig | None = None,
    rng: np.random.Generator | None = None,
    restarts: int = 1,
) -> FitReport:
    """Fit the supervised nested model (B fixed at zero).

    Builds the affinity from ambient projection distances, then minimizes the
    affinity-weighted pairwise loss over span(A) in Gr(m, n).
    """
    _check_metric(metric)
    ds = as_dataset(dataset)
    stacked = ds.stacked
    n, p = _fit_dims(stacked, m)
    labels = np.asarray(labels)
    if labels.shape[0] != stacked.shape[0]:
        raise ShapeError("labels length does not match dataset")
    if np.unique(labels).size < 2:
        raise SupervisionDegenerateError(
            "supervised fit needs at least two classes; use fit_unsupervised instead"
        )
    ds.variance  # a dataset without a Karcher mean fails here, before the fit
    distances = pairwise_distances(ds, metric="projection")
    affinity = build_affinity(labels, distances, k_w, k_b)

    def loss(a, b, data):
        return supervised_loss_and_grad(a, data, affinity, metric)

    best = _best_of_restarts(loss, stacked, m, 0, config, rng, restarts)
    nmap = NestedMap(best.A, np.zeros((n, p), dtype=stacked.dtype))
    ratio = explained_variance_ratio(nmap, ds)
    return FitReport(nmap, best.loss_trace, ratio, best.iterations, best.converged, best.grad_norm)


def nested_sequence(
    dataset: Sequence[GrassmannPoint],
    dims: Sequence[int],
    metric: str = "projection",
    config: OptimizerConfig | None = None,
    rng: np.random.Generator | None = None,
) -> list[FitReport]:
    """Fit one unsupervised model per candidate dimension, in the order of ``dims``.

    Fits are independent and share one ``Dataset``, hence its variance;
    report i fits dims[i] (its ``map.m``). A failing fit raises its
    GrassdrError. ``dims`` must be strictly increasing.
    """
    dims = list(dims)
    if any(b <= a for a, b in zip(dims, dims[1:])):
        raise ShapeError("dims must be strictly increasing")
    ds = as_dataset(dataset)
    return [fit_unsupervised(ds, m, metric=metric, config=config, rng=rng) for m in dims]
