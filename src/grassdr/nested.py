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
metric sum(arccos(sqrt(lambda))^2). Gradients follow by differentiating
the spectral function, which yields closed forms for every analytic path.
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


def _phi_and_psi(phi: np.ndarray, metric: str) -> tuple[np.ndarray, np.ndarray]:
    """Per-item loss values and the gradient factor Psi = d tr(phi)/d Phi.

    ``phi`` is a stack of Hermitian p x p matrices with spectra in [0, 1]
    (squared principal-angle cosines).
    """
    p = phi.shape[-1]
    if metric == "projection":
        values = np.maximum(p - np.einsum("ikk->i", phi).real, 0.0)
        psi = -np.broadcast_to(np.eye(p, dtype=phi.dtype), phi.shape)
        return values, psi
    lam, vec = np.linalg.eigh(phi)
    lam = np.clip(lam, 0.0, 1.0)
    theta = np.arccos(np.sqrt(lam))
    values = (theta**2).sum(axis=-1)
    sin_theta = np.sqrt(np.clip(1.0 - lam, 0.0, 1.0))
    ratio = np.where(sin_theta > 1e-12, theta / np.where(sin_theta > 1e-12, sin_theta, 1.0), 1.0)
    dphi = -ratio / np.sqrt(np.clip(lam, _LAMBDA_FLOOR, 1.0))
    psi = np.einsum("iab,ib,icb->iac", vec, dphi.astype(vec.dtype), np.conj(vec))
    return values, psi


def _cond_check(w: np.ndarray, what: str) -> None:
    eigs = np.linalg.eigvalsh(w)
    floor = _COND_FLOOR * np.maximum(eigs[:, -1], np.finfo(float).tiny)
    bad = np.nonzero(eigs[:, 0] <= floor)[0]
    if bad.size:
        raise DegenerateProjectionError(
            f"data point {bad[0]}: {what} is numerically rank deficient", index=int(bad[0])
        )


def _reconstruction_phi(a: np.ndarray, b_tilde: np.ndarray, stacked: np.ndarray):
    """Per-point Hermitian Phi whose spectrum is cos^2 of the reconstruction angles."""
    ah_x = np.einsum("nm,inp->imp", np.conj(a), stacked)
    b_proj = b_tilde - a @ (adjoint(a) @ b_tilde)
    m_mat = np.einsum("nm,imp->inp", a, ah_x) + b_proj[None]
    w = np.einsum("inp,inq->ipq", np.conj(m_mat), m_mat)
    _cond_check(w, "reconstruction")
    s_mat = np.einsum("inp,inq->ipq", np.conj(m_mat), stacked)
    winv_s = np.linalg.solve(w, s_mat)
    phi = np.einsum("ipq,ipr->iqr", np.conj(s_mat), winv_s)
    return m_mat, w, winv_s, 0.5 * (phi + adjoint(phi))


def _geodesic_reconstruction_loss(a: np.ndarray, b_tilde: np.ndarray, stacked: np.ndarray) -> float:
    _, _, _, phi = _reconstruction_phi(a, b_tilde, stacked)
    lam = np.clip(np.linalg.eigvalsh(phi), 0.0, 1.0)
    return float((np.arccos(np.sqrt(lam)) ** 2).sum(axis=-1).mean())


def _fd_matrix_gradient(func, a: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Central-difference Euclidean gradient of a scalar function of a matrix."""
    g = np.zeros_like(a)
    it = np.nditer(np.zeros(a.shape), flags=["multi_index"])
    directions = (1.0, 1.0j) if np.iscomplexobj(a) else (1.0,)
    for _ in it:
        idx = it.multi_index
        for direction in directions:
            e = np.zeros_like(a)
            e[idx] = direction
            deriv = (func(a + h * e) - func(a - h * e)) / (2.0 * h)
            g[idx] += deriv * direction
    return g


def unsupervised_loss_and_grad(
    a: np.ndarray,
    b_tilde: np.ndarray,
    stacked: np.ndarray,
    metric: str = "projection",
    geodesic_grad: str = "fd",
) -> tuple[float, tuple[np.ndarray, np.ndarray]]:
    """Mean squared reconstruction distance and its Euclidean gradients.

    Reconstruction of X_i uses span(A A^H X_i + (I - A A^H) B-tilde); the
    constraint A^H B = 0 is enforced by the nullspace projector, so the loss
    is a smooth function of arbitrary (A, B-tilde). Gradients follow the
    convention dL = Re tr(G^H dM). The projection metric has closed-form
    gradients; the geodesic metric defaults to central finite differences
    (``geodesic_grad="analytic"`` selects the spectral closed form instead,
    which is faster but shares the metric's non-smoothness at right angles).
    """
    _check_metric(metric)
    a = np.asarray(a)
    b_tilde = np.asarray(b_tilde, dtype=a.dtype)
    n_pts = stacked.shape[0]

    if metric == "geodesic" and geodesic_grad == "fd":
        value = _geodesic_reconstruction_loss(a, b_tilde, stacked)
        g_a = _fd_matrix_gradient(lambda x: _geodesic_reconstruction_loss(x, b_tilde, stacked), a)
        g_b = _fd_matrix_gradient(lambda y: _geodesic_reconstruction_loss(a, y, stacked), b_tilde)
        return value, (g_a, g_b)

    m_mat, w, winv_s, phi = _reconstruction_phi(a, b_tilde, stacked)
    values, psi = _phi_and_psi(phi, metric)
    loss = float(values.mean())

    # dL/dM_i = (2/N) (I - Pi_i) X_i Psi_i X_i^H M_i W_i^{-1}
    e_mat = np.einsum("ipq,irq->ipr", psi, np.conj(winv_s))
    f_mat = np.einsum("inp,ipq->inq", stacked, e_mat)
    k_mat = np.linalg.solve(w, np.einsum("inp,inq->ipq", np.conj(m_mat), f_mat))
    g_m = (2.0 / n_pts) * (f_mat - np.einsum("inp,ipq->inq", m_mat, k_mat))

    # G_A = sum_i [ G_i (D_i^H A) + D_i (G_i^H A) ],  D_i = X_i - B-tilde
    diff = stacked - b_tilde[None]
    dh_a = np.einsum("inp,nm->ipm", np.conj(diff), a)
    gh_a = np.einsum("inp,nm->ipm", np.conj(g_m), a)
    g_a = np.einsum("inp,ipm->nm", g_m, dh_a) + np.einsum("inp,ipm->nm", diff, gh_a)

    g_sum = g_m.sum(axis=0)
    g_b = g_sum - a @ (adjoint(a) @ g_sum)
    return loss, (g_a, g_b)


def loss_unsupervised(
    nmap: NestedMap,
    dataset: Sequence[GrassmannPoint],
    metric: str = "projection",
    geodesic_grad: str = "fd",
) -> tuple[float, tuple[np.ndarray, np.ndarray]]:
    """Reconstruction loss of a fitted map on a dataset, with gradients."""
    stacked = stack_points(dataset)
    if stacked.shape[1] != nmap.n or stacked.shape[2] != nmap.p:
        raise ShapeError("dataset dims do not match the map")
    return unsupervised_loss_and_grad(nmap.A, nmap.B, stacked, metric, geodesic_grad)


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


def _projected_frames(a: np.ndarray, stacked: np.ndarray):
    y = np.einsum("nm,inp->imp", np.conj(a), stacked)
    w = np.einsum("imp,imq->ipq", np.conj(y), y)
    _cond_check(w, "projection")
    return y, w


def _geodesic_pairwise_loss(a: np.ndarray, stacked: np.ndarray, affinity: np.ndarray) -> float:
    y, _ = _projected_frames(a, stacked)
    n_pts = stacked.shape[0]
    q, r = np.linalg.qr(y)
    gram = np.einsum("imp,jmq->ijpq", np.conj(q), q)
    s = np.linalg.svd(gram, compute_uv=False)
    theta = np.arccos(np.clip(s, 0.0, 1.0))
    d2 = (theta**2).sum(axis=-1)
    return float((affinity * d2).sum() / n_pts**2)


def supervised_loss_and_grad(
    a: np.ndarray,
    stacked: np.ndarray,
    affinity: np.ndarray,
    metric: str = "projection",
) -> tuple[float, tuple[np.ndarray, np.ndarray]]:
    """Affinity-weighted mean of pairwise squared distances between projections.

    L(A) = (1/N^2) sum_ij a_ij d^2(span(A^H X_i), span(A^H X_j)). The
    projection metric has an analytic gradient; the geodesic metric falls
    back to central finite differences (slow, retained behind the flag).
    Returns (value, (G_A, G_B)) with a zero-width G_B for optimizer reuse.
    """
    _check_metric(metric)
    a = np.asarray(a)
    n_pts = stacked.shape[0]
    p = stacked.shape[2]
    if affinity.shape != (n_pts, n_pts):
        raise ShapeError("affinity size does not match dataset")
    g_b = np.zeros((a.shape[0], 0), dtype=a.dtype)

    if metric == "geodesic":
        value = _geodesic_pairwise_loss(a, stacked, affinity)
        g_a = _fd_matrix_gradient(lambda m: _geodesic_pairwise_loss(m, stacked, affinity), a)
        return value, (g_a, g_b)

    y, w = _projected_frames(a, stacked)
    winv = np.linalg.inv(w)
    e = np.einsum("imp,ipq->imq", y, winv)
    pi = np.einsum("imp,iqp->imq", e, np.conj(y))
    t = np.einsum("imq,jqm->ij", pi, pi).real
    value = float((affinity * (p - t)).sum() / n_pts**2)

    # d t_ij / d Y_i = 2 (I - Pi_i) Pi_j E_i; fold the j-sum through Q_i.
    q_mat = np.einsum("ij,jmq->imq", affinity, pi).astype(pi.dtype)
    qe = np.einsum("imq,iqp->imp", q_mat, e)
    gamma = 2.0 * (qe - np.einsum("imq,iqp->imp", pi, qe))
    g_a = (-2.0 / n_pts**2) * np.einsum("inq,imq->nm", stacked, np.conj(gamma))
    return value, (g_a, g_b)


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
    n = stacked.shape[1]
    flat = np.moveaxis(stacked, 0, 1).reshape(n, -1)
    u, _, _ = np.linalg.svd(flat, full_matrices=True)
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
