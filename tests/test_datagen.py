import numpy as np
import pytest

import grassdr as g
from grassdr.errors import ShapeError
from grassdr.nested import NestedMap
from grassdr.shape import KAds


def _generate_loop(config):
    """Reference planted-subspace generator: one point at a time, every draw in order."""
    rng = np.random.default_rng(config.seed)
    a = g.sample_stiefel_uniform(config.n, config.m, rng=rng).basis
    b_tilde = rng.normal(0.0, config.b_std, size=(config.n, config.p))
    nmap = NestedMap.from_unprojected(a, b_tilde)
    points, planted = [], []
    for _ in range(config.N):
        z = g.sample_stiefel_uniform(config.m, config.p, rng=rng)
        planted.append(z)
        base = g.orthonormalize(a @ z.basis + nmap.B)
        if config.sigma == 0.0:
            points.append(base)
            continue
        direction = g.tangent_project(base, rng.standard_normal((config.n, config.p)))
        unit = direction.mat / np.linalg.norm(direction.mat)
        points.append(g.exp_map(base, g.tangent_project(base, config.sigma * unit)))
    return points, nmap, planted


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
    @pytest.mark.parametrize("seed", (0, 17))
    @pytest.mark.parametrize("b_std", (0.1, 0.0))
    @pytest.mark.parametrize("sigma", (0.0, 0.1, 4.0))
    @pytest.mark.parametrize("n,m,p", [(10, 3, 1), (30, 20, 2)])
    def test_matches_reference_loop(self, n, m, p, sigma, b_std, seed):
        config = g.SynthConfig(N=20, n=n, m=m, p=p, sigma=sigma, b_std=b_std, seed=seed)
        data = g.generate(config)
        points, nmap, planted = _generate_loop(config)
        assert np.abs(data.map.A - nmap.A).max() < 1e-12
        assert np.abs(data.map.B - nmap.B).max() < 1e-12
        for got, want in ((data.points, points), (data.planted, planted)):
            assert isinstance(got, g.Dataset)
            assert np.abs(got.stacked - g.stack_points(want)).max() < 1e-12

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


def _two_class_shapes_loop(n_shapes, k, *, rng, deform=0.25, nuisance=0.12, n_modes=30, noise=0.003):
    """Reference generator: one shape at a time, every operation in draw order."""
    theta = 2.0 * np.pi * np.arange(k) / k
    harmonics = [h for h in range(2, n_modes + 4) if h != 4][:n_modes]
    shapes = []
    labels = np.empty(n_shapes, dtype=int)
    for i in range(n_shapes):
        label = i % 2
        labels[i] = label
        radius = np.ones(k)
        for h in harmonics:
            radius += rng.normal(0.0, nuisance) * np.cos(h * theta + rng.uniform(0.0, 2.0 * np.pi))
        if label == 1:
            radius = radius + deform * np.cos(4.0 * theta)
        pts = np.stack([radius * np.cos(theta), radius * np.sin(theta)], axis=1)
        pts += rng.normal(0.0, noise, size=pts.shape)
        angle = rng.uniform(0.0, 2.0 * np.pi)
        rot = np.array([[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]])
        scale = rng.uniform(0.5, 2.0)
        shift = rng.uniform(-5.0, 5.0, size=2)
        shapes.append(KAds(scale * pts @ rot.T + shift))
    return shapes, labels


class TestTwoClassShapes:
    @pytest.mark.parametrize("count,landmarks,seed", [(2, 3, 0), (7, 8, 1), (40, 100, 3), (50, 50, 7), (13, 17, [5, 0])])
    def test_matches_reference_loop(self, count, landmarks, seed):
        got, got_labels = g.two_class_shapes(count, landmarks, rng=np.random.default_rng(seed))
        want, want_labels = _two_class_shapes_loop(count, landmarks, rng=np.random.default_rng(seed))
        assert np.array_equal(got_labels, want_labels)
        assert np.array_equal(got.points, np.array([b.points for b in want]))

    def test_shapes_and_labels(self):
        rng = np.random.default_rng(5)
        shapes, labels = g.two_class_shapes(20, 50, rng=rng)
        assert isinstance(shapes, KAds) and shapes.points.shape == (20, 50, 2) and shapes.k == 50
        assert set(labels) == {0, 1}
        assert np.bincount(labels).tolist() == [10, 10]

    def test_determinism(self):
        s1, l1 = g.two_class_shapes(8, 30, rng=np.random.default_rng(6))
        s2, l2 = g.two_class_shapes(8, 30, rng=np.random.default_rng(6))
        assert np.array_equal(l1, l2)
        assert np.array_equal(s1.points, s2.points)

    def test_classes_differ_in_shape_space(self):
        rng = np.random.default_rng(7)
        shapes, labels = g.two_class_shapes(12, 40, rng=rng, deform=0.5, nuisance=0.03, noise=0.0)
        d = g.pairwise_distances(g.kads_to_grassmann(shapes))
        same = np.equal.outer(labels, labels)
        off = ~np.eye(12, dtype=bool)
        assert d[~same].mean() > d[same & off].mean()
