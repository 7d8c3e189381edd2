import warnings

import numpy as np
import pytest

import grassdr as g
from grassdr.errors import DegenerateShapeError, ShapeError
from grassdr.shape import KAds, kads_to_grassmann, shape_distance


def random_shape(rng, k):
    return KAds(rng.standard_normal((k, 2)))


def similarity(shape, scale, angle, shift):
    rot = np.array([[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]])
    return KAds(scale * shape.points @ rot.T + np.asarray(shift))


class TestKadsToGrassmann:
    def test_right_triangle_image(self):
        tri = KAds(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
        target = g.GrassmannPoint(np.array([[1.0], [1.0j]]) / np.sqrt(2))
        assert kads_to_grassmann(tri).same_subspace(target)

    def test_similarity_invariance_single_case(self):
        tri = KAds(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
        moved = similarity(tri, 3.0, np.deg2rad(40.0), (5.0, -2.0))
        assert g.geodesic_distance(kads_to_grassmann(tri), kads_to_grassmann(moved)) < 1e-10

    def test_reflection_changes_point(self):
        # The complex span quotients rotations, not reflections: the mirrored
        # right triangle lands orthogonally, at distance pi/2.
        tri = KAds(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
        mirrored = KAds(np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0]]))
        assert shape_distance(tri, mirrored) == pytest.approx(np.pi / 2, abs=1e-12)

    def test_output_dimensions(self):
        rng = np.random.default_rng(0)
        pt = kads_to_grassmann(random_shape(rng, 250))
        assert (pt.n, pt.p, pt.field) == (249, 1, "complex")

    def test_degenerate_shape_rejected(self):
        with pytest.raises(DegenerateShapeError):
            KAds(np.ones((5, 2)))

    @pytest.mark.parametrize("points", (
        [[1e308, 0.0], [-1e308, 0.0], [1.0, 1.0]],  # an offset overflows
        [[0.0, -1e308], [0.0, 1.0], [1.0, 2.0], [2.0, 3.0], [3.0, 1.0]],  # the offsets' norm overflows
    ))
    def test_overflowing_offsets_rejected(self, points):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ShapeError, match="overflow"):
                KAds(np.array(points))

    @pytest.mark.parametrize("scale", (1e-170, 1e-310, 1e200))
    def test_scale_alone_changes_nothing(self, scale):
        # A power-of-two rescaling inside keeps tiny (even subnormal) and huge
        # shapes from underflowing or overflowing on the way to their point.
        square = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            scaled = kads_to_grassmann(KAds(square * scale))
        assert np.array_equal(scaled.basis, kads_to_grassmann(KAds(square)).basis)

    def test_too_few_landmarks_rejected(self):
        with pytest.raises(ShapeError):
            KAds(np.array([[0.0, 0.0], [1.0, 1.0]]))


class TestShapeDistance:
    def test_zero_on_self_and_similarity_orbit(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            s = random_shape(rng, 30)
            assert shape_distance(s, s) == 0.0
            moved = similarity(s, rng.uniform(0.1, 10.0), rng.uniform(0.0, 2 * np.pi), rng.uniform(-100, 100, 2))
            assert shape_distance(s, moved) < 1e-10

    def test_matches_manifold_distance_and_range(self):
        rng = np.random.default_rng(2)
        s1, s2 = random_shape(rng, 250), random_shape(rng, 250)
        d = shape_distance(s1, s2)
        assert d == g.geodesic_distance(kads_to_grassmann(s1), kads_to_grassmann(s2))
        assert 0.0 <= d <= np.pi / 2 + 1e-12

    def test_triangle_inequality(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            a, b, c = (random_shape(rng, 12) for _ in range(3))
            assert shape_distance(a, c) <= shape_distance(a, b) + shape_distance(b, c) + 1e-9

    def test_k_mismatch(self):
        rng = np.random.default_rng(4)
        with pytest.raises(ShapeError):
            shape_distance(random_shape(rng, 10), random_shape(rng, 11))
