"""Kendall planar-shape preprocessing.

An ordered list of k > 2 landmarks in the plane maps to a point of
Gr(1, C^(k-1)): subtract the first landmark (removing translation), drop the
zeroed first entry, read each remaining (x, y) as x + iy, and take the
complex span (removing rotation and positive scaling).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateShapeError, ShapeError
from .geometry import GrassmannPoint, geodesic_distance, orthonormalize


@dataclass(frozen=True, eq=False)
class KAds:
    """An ordered set of k > 2 planar landmark points."""

    points: np.ndarray  # (k, 2)

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float).copy()
        if pts.ndim != 2 or pts.shape[1] != 2:
            raise ShapeError(f"landmarks must be a k x 2 array, got shape {pts.shape}")
        if pts.shape[0] <= 2:
            raise ShapeError(f"need k > 2 landmarks, got {pts.shape[0]}")
        if not np.all(np.isfinite(pts)):
            raise ShapeError("landmarks must be finite")
        # The size (norm of the offsets from the first landmark) is computed scaled, so it
        # overflows only when it is not representable.
        with np.errstate(over="ignore", invalid="ignore"):
            offsets = pts - pts[0]
            scale = np.abs(offsets).max()
            size = scale * np.linalg.norm(offsets / scale) if scale > 0.0 else 0.0
        if not np.isfinite(size):
            raise ShapeError("the landmarks' offsets from the first landmark overflow")
        if size == 0.0:
            raise DegenerateShapeError("all landmarks coincide")
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    @property
    def k(self) -> int:
        return self.points.shape[0]


def kads_to_grassmann(shape: KAds) -> GrassmannPoint:
    """Similarity-invariant representation of a k-ad in Gr(1, C^(k-1)).

    Translation, rotation and positive scaling of the landmarks yield the
    same point; reflections generally do not (the complex span quotients
    SO(2), not O(2)).
    """
    offsets = shape.points[1:] - shape.points[0]
    # Scaling by an exact power of two to max |z| in [0.5, 1) leaves the span as it is
    # and keeps a tiny or huge shape from underflowing or overflowing in the QR.
    _, exponent = np.frexp(np.hypot(offsets[:, 0], offsets[:, 1]).max())
    offsets = np.ldexp(offsets, -exponent)
    z = offsets[:, 0] + 1j * offsets[:, 1]
    return orthonormalize(z.reshape(-1, 1))


def shape_distance(s1: KAds, s2: KAds) -> float:
    """Geodesic distance between the Grassmann images of two k-ads.

    A pseudometric on raw landmark lists and a metric on similarity classes;
    values lie in [0, pi/2].
    """
    if s1.k != s2.k:
        raise ShapeError(f"landmark counts differ: {s1.k} vs {s2.k}")
    return geodesic_distance(kads_to_grassmann(s1), kads_to_grassmann(s2))
