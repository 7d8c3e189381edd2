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
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    ConvergenceError,
    CutLocusError,
    DegenerateInputError,
    DegenerateProjectionError,
    GrassdrError,
    ShapeError,
    SupervisionDegenerateError,
    UndefinedRatioError,
)
from .geometry import (
    GrassmannPoint,
    _angles_from_cosines,
    _canonical_qr,
    adjoint,
    frechet_mean,
    orthonormalize,
    pairwise_distances,
    sample_stiefel_uniform,
    stack_points,
)
from .optim import OptimizeResult, OptimizerConfig, ProductPoint, minimize

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
        # Written as "not <=" so that NaN and inf fail the checks.
        if not np.abs(adjoint(a) @ a - np.eye(a.shape[1])).max() <= 1e-10:
            raise ShapeError("A must have orthonormal columns")
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


@dataclass
class SequenceEntry:
    """One fitted dimension of a nested sequence scan."""

    m: int
    ratio: float
    report: FitReport | None = None
    error: str | None = None


def embed_point(nmap: NestedMap, x: GrassmannPoint) -> GrassmannPoint:
    """Map a point of Gr(p, m) to Gr(p, n): span(A X + B)."""
    if x.n != nmap.m or x.p != nmap.p or x.field != nmap.field:
        raise ShapeError(f"point {x!r} does not match map dims (m={nmap.m}, p={nmap.p})")
    return orthonormalize(nmap.A @ x.basis + nmap.B)


def project_point(nmap: NestedMap, x: GrassmannPoint) -> GrassmannPoint:
    """Map a point of Gr(p, n) to Gr(p, m): span(A^H X)."""
    if x.n != nmap.n or x.p != nmap.p or x.field != nmap.field:
        raise ShapeError(f"point {x!r} does not match map dims (n={nmap.n}, p={nmap.p})")
    try:
        return orthonormalize(adjoint(nmap.A) @ x.basis)
    except DegenerateInputError as exc:
        raise DegenerateProjectionError(
            f"subspace nearly orthogonal to span(A): {exc}"
        ) from exc


def reconstruct_point(nmap: NestedMap, x: GrassmannPoint) -> GrassmannPoint:
    """Reconstruction in Gr(p, n): embed the projection of ``x``.

    Fixes every point of the embedded submanifold exactly and is idempotent.
    """
    return embed_point(nmap, project_point(nmap, x))


def project_dataset(nmap: NestedMap, points: Sequence[GrassmannPoint]) -> list[GrassmannPoint]:
    """Project many points at once; errors name the offending data index."""
    stacked = stack_points(points)
    if stacked.shape[1] != nmap.n or stacked.shape[2] != nmap.p:
        raise ShapeError("dataset dims do not match the map")
    y = np.einsum("nm,inp->imp", np.conj(nmap.A), stacked)
    s = np.linalg.svd(y, compute_uv=False)
    bad = np.nonzero(s[:, -1] < 1e-12 * np.maximum(s[:, 0], np.finfo(float).tiny))[0]
    if bad.size:
        raise DegenerateProjectionError(
            f"data point {bad[0]}: subspace nearly orthogonal to span(A)", index=int(bad[0])
        )
    q = _canonical_qr(y)
    return [GrassmannPoint(q[i]) for i in range(q.shape[0])]


# ---------------------------------------------------------------------------
# Losses
# ---------------------------------------------------------------------------


def _check_metric(metric: str) -> None:
    if metric not in METRICS:
        raise ShapeError(f"unknown metric {metric!r}; expected one of {METRICS}")


def _geodesic_spectrum(phi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Squared geodesic distances and the gradient factor Psi = d/dPhi of each.

    ``phi`` is a stack of Hermitian p x p matrices whose eigenvalues lambda
    are squared principal-angle cosines; the distance is
    sum(arccos(sqrt(lambda))^2) and Psi shares Phi's eigenvectors.
    """
    lam, vec = np.linalg.eigh(phi)
    lam = np.clip(lam, 0.0, 1.0)
    theta = np.arccos(np.sqrt(lam))
    values = (theta**2).sum(axis=-1)
    sin_theta = np.sqrt(np.clip(1.0 - lam, 0.0, 1.0))
    ratio = np.where(sin_theta > 1e-12, theta / np.where(sin_theta > 1e-12, sin_theta, 1.0), 1.0)
    dphi = -ratio / np.sqrt(np.clip(lam, _LAMBDA_FLOOR, 1.0))
    psi = (vec * dphi[..., None, :]) @ adjoint(vec)
    return values, psi


def _checked_inverse(w: np.ndarray, what: str) -> np.ndarray:
    """Inverses of a stack of Hermitian Gram matrices, rejecting numerically singular ones."""
    lam, vec = np.linalg.eigh(w)
    bad = lam[:, 0] <= _COND_FLOOR * np.maximum(lam[:, -1], np.finfo(float).tiny)
    if bad.any():
        index = int(np.argmax(bad))
        raise DegenerateProjectionError(f"data point {index}: {what} is numerically rank deficient", index=index)
    return (vec / lam[:, None, :]) @ adjoint(vec)


def _columns(stack: np.ndarray) -> np.ndarray:
    """(N, n, p) stack as the n x Np matrix [S_1 ... S_N]."""
    return stack.transpose(1, 0, 2).reshape(stack.shape[1], -1)


def unsupervised_loss_and_grad(
    a: np.ndarray,
    b_tilde: np.ndarray,
    stacked: np.ndarray,
    metric: str = "projection",
) -> tuple[float, tuple[np.ndarray, np.ndarray]]:
    """Mean squared reconstruction distance and its Euclidean gradients.

    Reconstruction of X_i uses span(M_i) with M_i = A A^H X_i + (I - A A^H)
    B-tilde; the constraint A^H B = 0 is enforced by the nullspace
    projector, so the loss is a smooth function of arbitrary (A, B-tilde).
    With S_i = M_i^H X_i and W_i = M_i^H M_i, Phi_i = S_i^H W_i^{-1} S_i has
    the squared reconstruction-angle cosines as its spectrum. Both metrics
    have closed-form gradients in the convention dL = Re tr(G^H dM): the
    projection metric through tr(Phi_i), the geodesic metric through the
    spectral derivative of ``_geodesic_spectrum`` (non-smooth only where an
    angle reaches pi/2).
    """
    _check_metric(metric)
    a = np.asarray(a)
    b_tilde = np.asarray(b_tilde, dtype=a.dtype)
    n_pts, _, p = stacked.shape
    a_h = adjoint(a)

    m_mat = a @ (a_h @ stacked) + (b_tilde - a @ (a_h @ b_tilde))
    m_h = adjoint(m_mat)
    winv = _checked_inverse(m_h @ m_mat, "reconstruction")
    s_mat = m_h @ stacked
    winv_s = winv @ s_mat
    if metric == "projection":
        # Loss p - tr(Phi_i), so dL/dPhi_i = -I.
        values = np.maximum(p - np.einsum("ipq,ipq->i", np.conj(s_mat), winv_s).real, 0.0)
        e_mat = -adjoint(winv_s)
    else:
        phi = adjoint(s_mat) @ winv_s
        values, psi = _geodesic_spectrum(0.5 * (phi + adjoint(phi)))
        e_mat = psi @ adjoint(winv_s)
    loss = float(values.sum()) / n_pts

    # dL/dM_i = (2/N) (I - Pi_i) X_i Psi_i X_i^H M_i W_i^{-1}
    f_mat = stacked @ e_mat
    g_m = (2.0 / n_pts) * (f_mat - m_mat @ (winv @ (m_h @ f_mat)))

    # G_A = sum_i [ G_i (D_i^H A) + D_i (G_i^H A) ],  D_i = X_i - B-tilde,
    # as four GEMMs over the column-concatenated n x Np blocks.
    g_flat = _columns(g_m)
    d_flat = _columns(stacked - b_tilde)
    g_a = g_flat @ (adjoint(d_flat) @ a) + d_flat @ (adjoint(g_flat) @ a)
    g_sum = g_m.sum(axis=0)
    g_b = g_sum - a @ (a_h @ g_sum)
    return loss, (g_a, g_b)


def loss_unsupervised(
    nmap: NestedMap,
    dataset: Sequence[GrassmannPoint],
    metric: str = "projection",
) -> tuple[float, tuple[np.ndarray, np.ndarray]]:
    """Reconstruction loss of a fitted map on a dataset, with gradients."""
    stacked = stack_points(dataset)
    if stacked.shape[1] != nmap.n or stacked.shape[2] != nmap.p:
        raise ShapeError("dataset dims do not match the map")
    return unsupervised_loss_and_grad(nmap.A, nmap.B, stacked, metric)


def build_affinity(labels, distances: np.ndarray, k_w: int = 5, k_b: int = 5) -> np.ndarray:
    """Symmetric {-1, 0, +1} affinity from labels and a distance matrix.

    a_ij = +1 when i and j share a label and either is among the other's k_w
    nearest same-class neighbors; -1 when labels differ and either is among
    the other's k_b nearest different-class neighbors; 0 otherwise.
    """
    labels = np.asarray(labels)
    n_pts = labels.shape[0]
    distances = np.asarray(distances, dtype=float)
    if distances.shape != (n_pts, n_pts):
        raise ShapeError(f"distances must be {n_pts} x {n_pts}, got {distances.shape}")
    if k_w < 0 or k_b < 0:
        raise ShapeError("k_w and k_b must be nonnegative")
    aff = np.zeros((n_pts, n_pts))
    for i in range(n_pts):
        same = np.nonzero((labels == labels[i]) & (np.arange(n_pts) != i))[0]
        if same.size == 0 and k_w >= 1:
            warnings.warn(
                f"label {labels[i]!r} has a single member; row {i} gets no positive affinity",
                stacklevel=2,
            )
        other = np.nonzero(labels != labels[i])[0]
        for neighbors, count, value in ((same, k_w, 1.0), (other, k_b, -1.0)):
            if count == 0 or neighbors.size == 0:
                continue
            chosen = neighbors[np.argsort(distances[i, neighbors], kind="stable")[:count]]
            aff[i, chosen] = value
            aff[chosen, i] = value
    np.fill_diagonal(aff, 0.0)
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
    Returns (value, (G_A, G_B)) with a zero-width G_B for optimizer reuse.
    """
    _check_metric(metric)
    a = np.asarray(a)
    n_pts, _, p = stacked.shape
    if affinity.shape != (n_pts, n_pts):
        raise ShapeError("affinity size does not match dataset")

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
    g_a = (2.0 / n_pts**2) * (_columns(stacked) @ adjoint(_columns(gamma)))
    return value, (g_a, np.zeros((a.shape[0], 0), dtype=a.dtype))


def loss_supervised(
    a: np.ndarray,
    dataset: Sequence[GrassmannPoint],
    affinity: np.ndarray,
    metric: str = "projection",
) -> tuple[float, np.ndarray]:
    """Supervised loss of a Stiefel representative A on a dataset."""
    stacked = stack_points(dataset)
    value, (g_a, _) = supervised_loss_and_grad(np.asarray(a), stacked, np.asarray(affinity), metric)
    return value, g_a


# ---------------------------------------------------------------------------
# Variance and fitting
# ---------------------------------------------------------------------------


# (rotated starts, step, max_iter) tried in order: the unit step first, then
# a damped step for spread data where the unit step cycles.
_KARCHER_SCHEDULE = ((4, 1.0, 200), (2, 0.5, 1000))


def _frechet_with_restarts(points: Sequence[GrassmannPoint]) -> GrassmannPoint:
    """Karcher mean, retrying other inits and a damped step if the default stalls."""
    last: Exception | None = None
    for starts, step, max_iter in _KARCHER_SCHEDULE:
        for start in range(min(starts, len(points))):
            rotated = list(points[start:]) + list(points[:start])
            try:
                return frechet_mean(rotated, max_iter=max_iter, step=step)
            except (CutLocusError, ConvergenceError) as exc:
                last = exc
    raise last  # type: ignore[misc]


def variance(points: Sequence[GrassmannPoint]) -> float:
    """Frechet variance: mean squared geodesic distance to the Karcher mean."""
    stacked = stack_points(points)
    mu = _frechet_with_restarts(points)
    gram = np.einsum("nq,inp->iqp", np.conj(mu.basis), stacked)
    s = np.linalg.svd(gram, compute_uv=False)
    theta = _angles_from_cosines(s)
    return float((theta**2).sum(axis=-1).mean())


def explained_variance_ratio(nmap: NestedMap, dataset: Sequence[GrassmannPoint]) -> float:
    """Variance of the projected points over the variance of the originals."""
    if len(dataset) < 2:
        raise ShapeError("need at least two points for a variance ratio")
    var_orig = variance(dataset)
    if var_orig <= 1e-24:
        raise UndefinedRatioError("original dataset has zero Frechet variance")
    var_proj = variance(project_dataset(nmap, dataset))
    return var_proj / var_orig


def _svd_init(stacked: np.ndarray, m: int) -> np.ndarray:
    """The m leading left singular vectors of [X_1 ... X_N]; thin unless Np < m."""
    flat = _columns(stacked)
    u, _, _ = np.linalg.svd(flat, full_matrices=flat.shape[1] < m)
    return u[:, :m].copy()


def _fit_dims(stacked: np.ndarray, m: int) -> tuple[int, int]:
    n_pts, n, p = stacked.shape
    if n_pts < 2:
        raise ShapeError("need at least two data points")
    if not p < m <= n:
        raise ShapeError(f"target dimension m={m} must satisfy p < m <= n (p={p}, n={n})")
    return n, p


def _best_of_restarts(
    loss,
    stacked: np.ndarray,
    m: int,
    width: int,
    config: OptimizerConfig | None,
    rng: np.random.Generator | None,
    restarts: int,
) -> OptimizeResult:
    """Minimize ``loss(A, B)`` from several starts and keep the lowest final loss.

    A starts at the SVD init and then at ``restarts - 1`` uniform Stiefel
    draws from ``rng``; B (n x ``width``) starts at zero.
    """
    n = stacked.shape[1]
    field = "complex" if np.iscomplexobj(stacked) else "real"
    inits = [_svd_init(stacked, m)]
    if restarts > 1:
        rng = rng or np.random.default_rng(0)
        inits += [sample_stiefel_uniform(n, m, field, rng=rng).basis for _ in range(restarts - 1)]

    best: OptimizeResult | None = None
    for a0 in inits:
        try:
            result = minimize(loss, ProductPoint(a0, np.zeros((n, width), dtype=stacked.dtype)), config)
        except ConvergenceError as exc:
            # Line search stalled at numerical precision: keep the best iterate.
            result = exc.result
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
    restarts (seeded by ``rng``) keep the best final loss.
    """
    _check_metric(metric)
    stacked = stack_points(dataset)
    _, p = _fit_dims(stacked, m)

    def loss(a, b):
        return unsupervised_loss_and_grad(a, b, stacked, metric)

    best = _best_of_restarts(loss, stacked, m, p, config, rng, restarts)
    nmap = NestedMap.from_unprojected(best.point.A, best.point.B)
    ratio = explained_variance_ratio(nmap, dataset)
    return FitReport(nmap, best.loss_trace, ratio, best.iterations, best.converged)


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
    stacked = stack_points(dataset)
    n, p = _fit_dims(stacked, m)
    labels = np.asarray(labels)
    if labels.shape[0] != stacked.shape[0]:
        raise ShapeError("labels length does not match dataset")
    if np.unique(labels).size < 2:
        raise SupervisionDegenerateError(
            "supervised fit needs at least two classes; use fit_unsupervised instead"
        )
    distances = pairwise_distances(stacked, metric="projection")
    affinity = build_affinity(labels, distances, k_w, k_b)

    def loss(a, b):
        return supervised_loss_and_grad(a, stacked, affinity, metric)

    best = _best_of_restarts(loss, stacked, m, 0, config, rng, restarts)
    nmap = NestedMap(best.point.A, np.zeros((n, p), dtype=stacked.dtype))
    ratio = explained_variance_ratio(nmap, dataset)
    return FitReport(nmap, best.loss_trace, ratio, best.iterations, best.converged)


def nested_sequence(
    dataset: Sequence[GrassmannPoint],
    dims: Sequence[int],
    metric: str = "projection",
    config: OptimizerConfig | None = None,
    rng: np.random.Generator | None = None,
) -> list[SequenceEntry]:
    """Fit one model per candidate dimension and report the variance ratios.

    Fits are independent; per-fit failures are recorded in the entry and the
    scan continues. ``dims`` must be strictly increasing.
    """
    dims = list(dims)
    if any(b <= a for a, b in zip(dims, dims[1:])):
        raise ShapeError("dims must be strictly increasing")
    entries: list[SequenceEntry] = []
    for m in dims:
        try:
            report = fit_unsupervised(dataset, m, metric=metric, config=config, rng=rng)
            entries.append(SequenceEntry(m, report.explained_variance_ratio, report=report))
        except GrassdrError as exc:
            entries.append(SequenceEntry(m, float("nan"), error=str(exc)))
    return entries
