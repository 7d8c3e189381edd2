import numpy as np
import pytest

import grassdr as g
from grassdr.errors import ShapeError


class TestSynthConfig:
    def test_dimension_validation(self):
        with pytest.raises(ShapeError):
            g.SynthConfig(N=5, n=4, m=4, p=1, sigma=0.0)  # m must be below n
        with pytest.raises(ShapeError):
            g.SynthConfig(N=5, n=6, m=2, p=3, sigma=0.0)
        with pytest.raises(ShapeError):
            g.SynthConfig(N=5, n=6, m=3, p=1, sigma=-1.0)

    @pytest.mark.parametrize("value", (float("nan"), float("inf"), -1.0))
    def test_non_finite_or_negative_scales_rejected(self, value):
        with pytest.raises(ShapeError, match="sigma"):
            g.SynthConfig(N=5, n=6, m=3, p=1, sigma=value)
        with pytest.raises(ShapeError, match="b_std"):
            g.SynthConfig(N=5, n=6, m=3, p=1, sigma=0.1, b_std=value)


class TestGenerate:
    def test_sigma_zero_on_submanifold(self):
        data = g.generate(g.SynthConfig(N=25, n=10, m=3, p=1, sigma=0.0, seed=0))
        for pt in data.points:
            assert g.geodesic_distance(pt, g.reconstruct_point(data.map, pt)) < 1e-10

    def test_sigma_zero_b_zero_matches_embedding(self):
        data = g.generate(g.SynthConfig(N=15, n=9, m=3, p=2, sigma=0.0, b_std=0.0, seed=1))
        for pt, z in zip(data.points, data.planted):
            assert g.geodesic_distance(pt, g.embed_point(data.map, z)) == 0.0

    def test_perturbation_distance_matches_sigma(self):
        sigma = 0.5
        data = g.generate(g.SynthConfig(N=1000, n=8, m=3, p=2, sigma=sigma, seed=2))
        dists = [
            g.geodesic_distance(pt, g.embed_point(data.map, z))
            for pt, z in zip(data.points, data.planted)
        ]
        assert abs(np.mean(dists) - sigma) < 0.02 * sigma

    def test_seed_determinism(self):
        cfg = g.SynthConfig(N=10, n=8, m=3, p=1, sigma=0.7, seed=11)
        d1 = g.generate(cfg)
        d2 = g.generate(cfg)
        assert np.array_equal(d1.map.A, d2.map.A)
        assert np.array_equal(d1.map.B, d2.map.B)
        for a, b in zip(d1.points, d2.points):
            assert np.array_equal(a.basis, b.basis)

    def test_ground_truth_satisfies_map_invariants(self):
        data = g.generate(g.SynthConfig(N=5, n=10, m=4, p=2, sigma=1.0, seed=3))
        assert np.abs(g.adjoint(data.map.A) @ data.map.B).max() < 1e-12

    def test_reference_regime_dimensions(self):
        data = g.generate(g.SynthConfig(N=50, n=10, m=3, p=1, sigma=4.0, seed=4))
        assert len(data.points) == 50
        assert all(pt.n == 10 and pt.p == 1 for pt in data.points)


class TestTwoClassShapes:
    def test_shapes_and_labels(self):
        rng = np.random.default_rng(5)
        shapes, labels = g.two_class_shapes(20, 50, rng=rng)
        assert len(shapes) == 20
        assert set(labels) == {0, 1}
        assert all(s.k == 50 for s in shapes)
        assert np.bincount(labels).tolist() == [10, 10]

    def test_determinism(self):
        s1, l1 = g.two_class_shapes(8, 30, rng=np.random.default_rng(6))
        s2, l2 = g.two_class_shapes(8, 30, rng=np.random.default_rng(6))
        assert np.array_equal(l1, l2)
        for a, b in zip(s1, s2):
            assert np.array_equal(a.points, b.points)

    def test_classes_differ_in_shape_space(self):
        rng = np.random.default_rng(7)
        shapes, labels = g.two_class_shapes(12, 40, rng=rng, deform=0.5, nuisance=0.03, noise=0.0)
        pts = [g.kads_to_grassmann(s) for s in shapes]
        d = g.pairwise_distances(pts)
        same = np.equal.outer(labels, labels)
        off = ~np.eye(12, dtype=bool)
        assert d[~same].mean() > d[same & off].mean()
