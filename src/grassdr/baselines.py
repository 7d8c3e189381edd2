"""Comparison methods: tangent-space PGA, supervised PGA, and geodesic kNN.

PGA is the tangent-PCA approximation: log-map the data at the Frechet mean,
write the log maps in an orthonormal basis of the mean's complement as real
coordinate vectors, and eigendecompose their (uncentered) sample covariance.
Supervised PGA replaces the covariance with the dependence-maximizing
operator T^H H K H T built from the label kernel.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DegenerateInputError, ShapeError, SupervisionDegenerateError, UndefinedRatioError
from .geometry import _ROW_BLOCK, Dataset, GrassmannPoint, _batched_log_mats, _k_nearest, adjoint, as_dataset, pairwise_distances


@dataclass(frozen=True, eq=False)
class PgaModel:
    """Frechet mean plus orthonormal tangent directions and their variances.

    Components are horizontal n x p matrices at the mean, mutually orthogonal
    under the real trace inner product; ``component_variances`` is sorted
    nonincreasing.
    """

    mean: GrassmannPoint
    components: np.ndarray  # (k, n, p)
    component_variances: np.ndarray  # (k,)


def _flatten_tangents(mats: np.ndarray) -> np.ndarray:
    """Real coordinate vectors for tangent matrices (re/im stacked if complex)."""
    flat = mats.reshape(mats.shape[0], -1)
    if np.iscomplexobj(flat):
        return np.concatenate([flat.real, flat.imag], axis=1)
    return np.asarray(flat, dtype=float)


def _tangent_coordinates(stacked: np.ndarray, mean: GrassmannPoint) -> np.ndarray:
    return _flatten_tangents(_batched_log_mats(mean.basis, stacked))


def _tangent_frame(ds: Dataset, num_components: int) -> tuple[np.ndarray, np.ndarray]:
    """Head of both fits: X_perp and the coordinates of the points' log maps at ``Dataset.mean`` in it.

    X_perp holds the last n - p columns of the complete QR of the mean's basis, an orthonormal basis
    of its complement, and row i of the coordinates is X_perp^H log_mu(X_i) flattened. Their width,
    p(n - p) (2p(n - p) over C), is the tangent dimension: ``num_components`` must lie in [1, width].
    """
    basis = ds.mean.basis
    perp = np.linalg.qr(basis, mode="complete")[0][:, basis.shape[1] :]
    coords = _flatten_tangents(adjoint(perp) @ _batched_log_mats(basis, ds.stacked))
    if not 1 <= num_components <= coords.shape[1]:
        raise ShapeError(f"num_components must be in [1, {coords.shape[1]}], got {num_components}")
    return perp, coords


def _components(perp: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """Tail of both fits: orthonormal coordinate vectors (columns of ``vectors``) as components X_perp V.

    X_perp^H X_perp = I, so the (k, n, p) components are horizontal at the mean and orthonormal.
    """
    mats = vectors.T
    if np.iscomplexobj(perp):
        half = mats.shape[1] // 2
        mats = mats[:, :half] + 1j * mats[:, half:]
    return perp @ mats.reshape(len(mats), perp.shape[1], -1)


def pga_fit(dataset: Sequence[GrassmannPoint], num_components: int) -> PgaModel:
    """Tangent PCA at the Frechet mean (``Dataset.mean``).

    Eigenvectors of the uncentered sample covariance of the log-mapped data
    (tangent vectors at the mean already average to approximately zero);
    eigenvalues become the component variances.
    """
    if len(dataset) < 2:
        raise ShapeError("PGA needs at least two points")
    ds = as_dataset(dataset)
    perp, coords = _tangent_frame(ds, num_components)
    if float((coords**2).sum(axis=1).mean()) <= 1e-24:
        raise DegenerateInputError("all points coincide: tangent variance is zero")
    eigvals, eigvecs = np.linalg.eigh(coords.T @ coords / coords.shape[0])
    order = np.argsort(eigvals)[::-1][:num_components]
    return PgaModel(ds.mean, _components(perp, eigvecs[:, order]), np.clip(eigvals[order], 0.0, None))


def pga_explained_variance(model: PgaModel, dataset: Sequence[GrassmannPoint], k: int) -> float:
    """Tangent variance captured by the model's top-k components, in [0, 1]."""
    if k < 0 or k > model.components.shape[0]:
        raise ShapeError(f"k must be in [0, {model.components.shape[0]}], got {k}")
    coords = _tangent_coordinates(as_dataset(dataset).stacked, model.mean)
    total = float((coords**2).sum(axis=1).mean())
    if total <= 1e-24:
        raise UndefinedRatioError("zero total tangent variance")
    comp = _flatten_tangents(model.components)[:k]
    captured = float(((coords @ comp.T) ** 2).sum(axis=1).mean())
    return captured / total


def spga_fit(dataset: Sequence[GrassmannPoint], labels, num_components: int) -> PgaModel:
    """Supervised PGA: supervised PCA in the tangent space at the Frechet mean (``Dataset.mean``).

    The leading components are eigenvectors of T^H H K H T with T the N x d
    tangent coordinate matrix, H the centering operator and K_ij = 1[y_i = y_j].
    K = E E^T for the N x c class indicator E, so that operator is the Gram
    matrix B^H B of the c x d matrix B = E^T H T (the class sums of the
    centered coordinates): its eigenvectors are B's right singular vectors
    and its eigenvalues their squared singular values. Its rank is at most
    c - 1, so only its eigenvectors up to its numerical rank (eigenvalues
    above 1e-10 times the largest, at most c - 1) are kept. The remaining
    components are the leading eigenvectors of the tangent covariance
    T^H T / N restricted to the orthogonal complement of the kept ones, so
    no component is a null-space vector chosen by rounding.
    ``component_variances`` holds the operator's eigenvalues (supervised
    objective scores, not captured variances), and 0 for the completion.
    """
    labels = np.asarray(labels)
    if labels.shape[0] != len(dataset):
        raise ShapeError("labels length does not match dataset")
    classes, codes = np.unique(labels, return_inverse=True)
    if classes.size < 2:
        raise SupervisionDegenerateError("supervised PGA needs at least two classes")
    ds = as_dataset(dataset)
    perp, coords = _tangent_frame(ds, num_components)
    indicator = (codes[:, None] == np.arange(classes.size)).astype(float)
    _, sing, vh = np.linalg.svd(indicator.T @ (coords - coords.mean(axis=0)))
    eigvals = sing**2
    rank = int((eigvals > 1e-10 * eigvals[0]).sum()) if eigvals[0] > 0 else 0
    rank = min(rank, classes.size - 1, num_components)
    rest = vh[rank:].T
    rest_coords = coords @ rest
    _, fill = np.linalg.eigh(rest_coords.T @ rest_coords)
    vectors = np.concatenate([vh[:rank].T, rest @ fill[:, ::-1][:, : num_components - rank]], axis=1)
    variances = np.concatenate([eigvals[:rank], np.zeros(num_components - rank)])
    return PgaModel(ds.mean, _components(perp, vectors), variances)


def pga_coordinates(model: PgaModel, dataset: Sequence[GrassmannPoint]) -> np.ndarray:
    """Coefficients of each point on the model's components (N, k)."""
    coords = _tangent_coordinates(as_dataset(dataset).stacked, model.mean)
    return coords @ _flatten_tangents(model.components).T


def pga_distances(model: PgaModel, dataset: Sequence[GrassmannPoint]) -> np.ndarray:
    """Euclidean distances (N x N) between the points' ``pga_coordinates``.

    One GEMM gives the inner products g_ij; then sqrt(max(|c_i|^2 + |c_j|^2 - 2 g_ij, 0)) overwrites
    them ``_ROW_BLOCK`` rows at a time, so a call holds the result plus O(_ROW_BLOCK * N) scalars.
    """
    coeffs = pga_coordinates(model, dataset)
    sq = (coeffs**2).sum(axis=1)
    d = coeffs @ coeffs.T
    for start in range(0, len(d), _ROW_BLOCK):
        rows = d[start : start + _ROW_BLOCK]
        rows *= 2.0
        np.subtract(sq[start : start + len(rows), None] + sq, rows, out=rows)
        np.maximum(rows, 0.0, out=rows)
        np.sqrt(rows, out=rows)
    return d


def gknn_loo(dataset: Sequence[GrassmannPoint], labels, k: int = 5) -> tuple[float, np.ndarray]:
    """Leave-one-out k-nearest-neighbor classification under the geodesic distance.

    Each point is classified by the majority label among its k nearest other
    points; ties go to the class of the nearest tied neighbor. Returns the
    accuracy and the per-point predictions. Raises ShapeError, before any
    distance is computed, unless there are N labels and 1 <= k <= N - 1.
    """
    labels = np.asarray(labels)
    n_pts = len(dataset)
    if labels.shape[0] != n_pts:
        raise ShapeError("labels length does not match dataset")
    _check_k(k, n_pts)
    distances = pairwise_distances(dataset)
    return knn_loo_from_distances(distances, labels, k)


def _check_k(k: int, n_pts: int) -> None:
    """Require 1 <= k <= N - 1: every point has k other points to vote."""
    if not 1 <= k <= n_pts - 1:
        raise ShapeError(f"k must be in [1, {n_pts - 1}], got {k}")


def knn_loo_from_distances(distances: np.ndarray, labels, k: int) -> tuple[float, np.ndarray]:
    """Leave-one-out kNN on a precomputed distance matrix, with the tie rule of ``gknn_loo``.

    The k nearest other points are those a stable sort of each row puts first: among equal
    distances the lower index is nearer. They are found by a partition of each row and a sort of
    the few candidates at or below its k-th distance, O(N^2) in all, not a full sort of every row.
    Raises ShapeError unless the matrix is N x N for N labels and 1 <= k <= N - 1, and
    DegenerateInputError on a NaN or infinite distance.
    """
    labels = np.asarray(labels)
    n_pts = labels.shape[0]
    distances = np.asarray(distances)
    if distances.shape != (n_pts, n_pts):
        raise ShapeError(f"distances must be {n_pts} x {n_pts}, got {distances.shape}")
    _check_k(k, n_pts)
    idx = np.arange(n_pts)
    _, neighbors = _k_nearest(distances, ~np.eye(n_pts, dtype=bool), k)
    neighbors = neighbors.reshape(n_pts, k)
    _, codes = np.unique(labels, return_inverse=True)
    neighbor_codes = codes[neighbors]
    votes = np.zeros((n_pts, codes.max() + 1), dtype=int)
    np.add.at(votes, (idx[:, None], neighbor_codes), 1)
    tied = votes == votes.max(axis=1, keepdims=True)
    nearest_tied = np.take_along_axis(tied, neighbor_codes, axis=1).argmax(axis=1)
    predictions = labels[neighbors[idx, nearest_tied]]
    return float((predictions == labels).mean()), predictions
