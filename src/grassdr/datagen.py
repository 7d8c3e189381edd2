"""Synthetic data generators.

The subspace protocol plants points on an embedded nested-Grassmann
submanifold and perturbs each geodesically by an exact distance sigma along
a random unit-norm horizontal direction. A labeled two-class planar-shape
generator backs the supervised pipeline where real landmark data is absent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError
from .geometry import (
    Dataset,
    _exp_basis,
    adjoint,
    orthonormal_columns,
    sample_stiefel_uniform,
)
from .nested import NestedMap, embed_dataset
from .shape import KAds

# Random radial harmonics of shared nuisance variation in ``two_class_shapes``.
NUISANCE_MODES = 30


@dataclass
class SynthConfig:
    """Parameters of the planted-subspace protocol."""

    N: int
    n: int
    m: int
    p: int
    sigma: float
    b_std: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if not (1 <= self.p <= self.m < self.n):
            raise ShapeError(f"need p <= m < n, got (n, m, p) = {(self.n, self.m, self.p)}")
        if self.N < 1:
            raise ShapeError("N must be at least 1")
        if not (np.isfinite(self.sigma) and self.sigma >= 0):
            raise ShapeError(f"sigma must be finite and nonnegative, got {self.sigma}")
        if not (np.isfinite(self.b_std) and self.b_std >= 0):
            raise ShapeError(f"b_std must be finite and nonnegative, got {self.b_std}")


@dataclass
class SyntheticData:
    """Generated dataset plus the planting map and coordinates."""

    points: Dataset
    map: NestedMap
    planted: Dataset  # the low-dimensional coordinates Z_i in Gr(p, m)


def generate(config: SynthConfig) -> SyntheticData:
    """Run the planted-subspace protocol; deterministic per seed.

    Draws A uniformly on St(m, n), B-tilde with i.i.d. N(0, b_std) entries,
    and Z_i uniformly on St(p, m); plants X-tilde_i = span(A Z_i + (I - A A^H) B)
    (``embed_dataset``) and emits X_i = Exp(X-tilde_i, sigma U_i) with U_i a
    unit-Frobenius-norm random horizontal tangent. Any finite sigma works;
    past pi/2 the geodesic wraps around.

    After A and B-tilde, one (N, m p + n p) Gaussian block holds row i =
    [Z_i draw, U_i draw] (only the Z_i part when sigma = 0), which is the
    order of drawing point by point, and the whole dataset is built as an
    (N, n, p) stack with no per-point loop; ``points`` and ``planted`` are
    Datasets over those stacks. A rank-deficient Z_i draw
    (probability zero) raises DegenerateInputError instead of being redrawn.
    """
    n, m, p, sigma = config.n, config.m, config.p, config.sigma
    rng = np.random.default_rng(config.seed)
    a = sample_stiefel_uniform(n, m, rng=rng).basis
    b_tilde = rng.normal(0.0, config.b_std, size=(n, p))
    nmap = NestedMap.from_unprojected(a, b_tilde)

    draws = rng.standard_normal((config.N, m * p + (n * p if sigma > 0.0 else 0)))
    planted = Dataset(orthonormal_columns(draws[:, : m * p].reshape(-1, m, p)))
    embedded = embed_dataset(nmap, planted)
    if sigma == 0.0:
        return SyntheticData(embedded, nmap, planted)
    base = embedded.stacked
    g = draws[:, m * p :].reshape(-1, n, p)
    direction = g - base @ (adjoint(base) @ g)
    # The norm as a dot product and the second projection repeat the
    # point-by-point arithmetic, so each seed keeps its data bit for bit.
    flat = direction.reshape(-1, 1, n * p)
    h = sigma * (direction / np.sqrt(flat @ adjoint(flat)))
    return SyntheticData(Dataset(_exp_basis(base, h - base @ (adjoint(base) @ h))), nmap, planted)


def two_class_shapes(
    n_shapes: int,
    k: int,
    *,
    rng: np.random.Generator,
    deform: float = 0.25,
    nuisance: float = 0.12,
    noise: float = 0.003,
) -> tuple[KAds, np.ndarray]:
    """Labeled two-class boundary shapes with a planted class deformation.

    Every shape is a unit circle boundary perturbed by ``NUISANCE_MODES`` random
    radial harmonics of amplitude ``nuisance`` (shared nuisance variation
    that dominates raw nearest-neighbor distances); class 1 additionally
    carries a fixed fourth-harmonic bump of magnitude ``deform``. Each shape
    receives a random similarity transform and landmark noise. Landmarks are
    corresponded by boundary parameter; the shapes come as one (n_shapes, k, 2) KAds.
    """
    if n_shapes < 2:
        raise ShapeError("need at least two shapes")
    if k <= 2:
        raise ShapeError("need k > 2 landmarks")
    if not np.isfinite(deform):
        raise ShapeError(f"deform must be finite, got {deform}")
    for name, value in (("nuisance", nuisance), ("noise", noise)):
        if not (np.isfinite(value) and value >= 0):
            raise ShapeError(f"{name} must be finite and nonnegative, got {value}")
    theta = 2.0 * np.pi * np.arange(k) / k
    harmonics = [h for h in range(2, NUISANCE_MODES + 4) if h != 4][:NUISANCE_MODES]
    labels = np.arange(n_shapes) % 2
    # Every random draw, in the per-shape order that fixes the output for a seed.
    amplitude = np.empty((len(harmonics), n_shapes))
    phase = np.empty((len(harmonics), n_shapes))
    jitter = np.empty((n_shapes, k, 2))
    angle, scale, shift = np.empty(n_shapes), np.empty(n_shapes), np.empty((n_shapes, 2))
    for i in range(n_shapes):
        for j in range(len(harmonics)):
            amplitude[j, i] = rng.normal(0.0, nuisance)
            phase[j, i] = rng.uniform(0.0, 2.0 * np.pi)
        jitter[i] = rng.normal(0.0, noise, size=(k, 2))
        angle[i], scale[i] = rng.uniform(0.0, 2.0 * np.pi), rng.uniform(0.5, 2.0)
        shift[i] = rng.uniform(-5.0, 5.0, size=2)

    radius = np.ones((n_shapes, k))
    for h, amp, phi in zip(harmonics, amplitude, phase):
        radius += amp[:, None] * np.cos(h * theta + phi[:, None])
    radius[labels == 1] += deform * np.cos(4.0 * theta)

    pts = np.stack([radius * np.cos(theta), radius * np.sin(theta)], axis=-1) + jitter
    # Each rotation a C-contiguous 2 x 2 matrix, applied transposed, as one shape at a time applies it.
    rot = np.moveaxis(np.array([[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]]), -1, 0).copy()
    return KAds(scale[:, None, None] * pts @ rot.transpose(0, 2, 1) + shift[:, None, :]), labels
