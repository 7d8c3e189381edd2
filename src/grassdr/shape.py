"""Kendall planar-shape preprocessing.

An ordered list of k > 2 landmarks in the plane maps to a point of
Gr(1, C^(k-1)): subtract the first landmark (removing translation), drop the
zeroed first entry, read each remaining (x, y) as x + iy, and take the
complex span (removing rotation and positive scaling). A ``KAds`` holds one
such k-ad or a non-empty stack of them sharing k, checked as a whole: the
first bad shape i of a stack raises its one-shape error as ``shape i: ...``,
with ``index`` i. ``kads_to_grassmann`` maps a stack to a ``Dataset`` in one pass.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateShapeError, ShapeError
from .geometry import Dataset, GrassmannPoint, geodesic_distance, orthonormal_columns


@dataclass(frozen=True, eq=False)
class KAds:
    """An ordered set of k > 2 planar landmarks, (k, 2), or a stack of them, (N, k, 2); see the module docstring."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float).copy()
        if pts.ndim not in (2, 3) or pts.shape[-1] != 2 or pts.shape[-2] <= 2 or not len(pts):
            raise ShapeError(f"need a k x 2 array with k > 2 or a non-empty stack of them, got shape {pts.shape}")
        stack = pts.reshape(-1, *pts.shape[-2:])
        # The size (norm of the offsets from the first landmark) is computed scaled, in place,
        # so it overflows only when it is not representable.
        with np.errstate(all="ignore"):
            offsets = stack - stack[:, :1]
            scale = np.maximum(offsets.max(axis=(1, 2)), -offsets.min(axis=(1, 2)))
            offsets /= scale[:, None, None]
            size = scale * np.sqrt(np.einsum("ijk,ijk->i", offsets, offsets))
        faults = (  # each shape's first fault, in this order, is its error
            (~np.isfinite(stack).all(axis=(1, 2)), ShapeError, "landmarks must be finite"),
            (scale == 0.0, DegenerateShapeError, "all landmarks coincide"),
            (~np.isfinite(size), ShapeError, "the landmarks' offsets from the first landmark overflow"),
        )
        bad = np.array([flags for flags, _, _ in faults])
        if bad.any():
            i = int(bad.any(axis=0).argmax())
            _, error, reason = faults[bad[:, i].argmax()]
            raise error(f"shape {i}: {reason}", index=i) if pts.ndim == 3 else error(reason)
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    @property
    def k(self) -> int:
        return self.points.shape[-2]


def kads_to_grassmann(shapes: KAds) -> GrassmannPoint | Dataset:
    """Similarity-invariant representation of a k-ad in Gr(1, C^(k-1)); a stack of k-ads gives their Dataset.

    Translation, rotation and positive scaling of the landmarks yield the
    same point; reflections generally do not (the complex span quotients
    SO(2), not O(2)). A stack is mapped in one pass, each shape bit for bit
    as on its own.
    """
    pts = shapes.points
    offsets = pts[..., 1:, :] - pts[..., :1, :]
    # Scaling by an exact power of two to max |z| in [0.5, 1) leaves the span as it is
    # and keeps a tiny or huge shape from underflowing or overflowing in the QR.
    _, exponent = np.frexp(np.hypot(offsets[..., 0], offsets[..., 1]).max(axis=-1))
    np.ldexp(offsets, -exponent[..., None, None], out=offsets)
    basis = orthonormal_columns(offsets.view(np.complex128))  # each (x, y) row read as x + iy
    return Dataset(basis) if pts.ndim == 3 else GrassmannPoint(basis)


def shape_distance(s1: KAds, s2: KAds) -> float:
    """Geodesic distance between the Grassmann images of two k-ads.

    A pseudometric on raw landmark lists and a metric on similarity classes;
    values lie in [0, pi/2].
    """
    if s1.points.ndim != 2 or s1.points.shape != s2.points.shape:
        raise ShapeError(f"need two k-ads with one k, got shapes {s1.points.shape} and {s2.points.shape}")
    return geodesic_distance(kads_to_grassmann(s1), kads_to_grassmann(s2))
