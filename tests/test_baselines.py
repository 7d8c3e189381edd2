import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import grassdr as g
from grassdr import baselines
from grassdr.baselines import (
    _flatten_tangents,
    _tangent_coordinates,
    knn_loo_from_distances,
    pga_coordinates,
    pga_distances,
)
from grassdr.errors import DegenerateInputError, ShapeError, SupervisionDegenerateError
from grassdr.geometry import adjoint, stack_points


def traced_peak(call) -> int:
    """Bytes a second ``call()`` allocates at its peak beyond what was live before it (the first warms caches)."""
    call()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def shapes_large_points():
    """1000 labeled Kendall shapes of 50 landmarks as complex lines in C^49, the data of the shapes-large bench."""
    shapes, labels = g.two_class_shapes(1000, 50, rng=np.random.default_rng(32))
    return g.kads_to_grassmann(shapes), labels


def geodesic_family(rng, n=6, count=10, spread=0.5):
    """Points along a single geodesic through a base point."""
    x0 = g.sample_stiefel_uniform(n, 1, rng=rng)
    h = g.tangent_project(x0, rng.standard_normal((n, 1)))
    h = h.mat / np.linalg.norm(h.mat)
    ts = np.linspace(-spread, spread, count)
    return [g.exp_map(x0, g.TangentVector(x0, t * h)) for t in ts]


def trace_cosine(u, v):
    num = abs(np.vdot(u, v))
    return num / (np.linalg.norm(u) * np.linalg.norm(v))


class TestPgaFit:
    def test_single_geodesic_first_component_dominates(self):
        rng = np.random.default_rng(0)
        pts = geodesic_family(rng)
        model = g.pga_fit(pts, 2)
        ev1 = g.pga_explained_variance(model, pts, 1)
        assert ev1 > 0.999

    def test_components_orthonormal_and_horizontal(self):
        rng = np.random.default_rng(1)
        pts = [g.sample_stiefel_uniform(6, 2, rng=rng) for _ in range(12)]
        model = g.pga_fit(pts, 4)
        flat = model.components.reshape(4, -1)
        gram = flat @ flat.T
        assert np.abs(gram - np.eye(4)).max() < 1e-8
        for comp in model.components:
            assert np.abs(adjoint(model.mean.basis) @ comp).max() < 1e-8
        assert np.all(np.diff(model.component_variances) <= 1e-12)

    def test_full_dimension_captures_everything(self):
        rng = np.random.default_rng(2)
        pts = [g.sample_stiefel_uniform(5, 1, rng=rng) for _ in range(10)]
        dim = 1 * (5 - 1)
        model = g.pga_fit(pts, dim)
        assert abs(g.pga_explained_variance(model, pts, dim) - 1.0) < 1e-9

    def test_identical_points_degenerate(self):
        rng = np.random.default_rng(3)
        x = g.sample_stiefel_uniform(5, 1, rng=rng)
        with pytest.raises(DegenerateInputError):
            g.pga_fit([x, x, x], 1)

    @pytest.mark.parametrize("field", ("real", "complex"))
    def test_explained_variance_monotone(self, field):
        rng = np.random.default_rng(4)
        pts = [g.sample_stiefel_uniform(6, 1, field, rng=rng) for _ in range(15)]
        model = g.pga_fit(pts, 5)
        evs = [g.pga_explained_variance(model, pts, k) for k in range(6)]
        assert evs[0] == 0.0
        assert np.all(np.diff(evs) >= -1e-12)
        assert evs[-1] <= 1.0 + 1e-9


@pytest.mark.parametrize("field", ("real", "complex"))
@pytest.mark.parametrize("method", ("pga", "spga"))
def test_components_bounded_by_the_tangent_dimension(field, method):
    # The tangent space of Gr(1, 3) has real dimension 2 (4 over C). One more
    # component can only be a vertical QR fill-in (|mu^H C| = 1, EV above 1).
    rng = np.random.default_rng(8)
    pts = [g.sample_stiefel_uniform(3, 1, field, rng=rng) for _ in range(10)]
    labels = [0, 1] * 5
    dim = 2 if field == "real" else 4

    def fit(k):
        return g.pga_fit(pts, k) if method == "pga" else g.spga_fit(pts, labels, k)

    model = fit(dim)
    assert np.abs(adjoint(model.mean.basis) @ model.components).max() < 1e-8
    assert abs(g.pga_explained_variance(model, pts, dim) - 1.0) < 1e-9
    with pytest.raises(ShapeError, match=rf"num_components must be in \[1, {dim}\], got {dim + 1}"):
        fit(dim + 1)



@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize(("n", "p", "count", "field"), ((4, 2, 2, "real"), (8, 3, 4, "complex")))
@pytest.mark.parametrize("method", ("pga", "spga"))
def test_rank_deficient_fit_is_horizontal_and_orthonormal(method, n, p, count, field, seed):
    # N - 1 < k = tangent dimension: most components span directions that no
    # data point reaches, so nothing but their construction keeps them in the
    # tangent space at the mean.
    rng = np.random.default_rng(seed)
    pts = g.Dataset([g.sample_stiefel_uniform(n, p, field, rng=rng) for _ in range(count)])
    dim = p * (n - p) * (2 if field == "complex" else 1)
    labels = [0, 1] * (count // 2)
    model = g.pga_fit(pts, dim) if method == "pga" else g.spga_fit(pts, labels, dim)
    assert np.abs(adjoint(model.mean.basis) @ model.components).max() <= 1e-14
    flat = _flatten_tangents(model.components)
    assert np.abs(flat @ flat.T - np.eye(dim)).max() <= 1e-13
    assert abs(g.pga_explained_variance(model, pts, dim) - 1.0) <= 1e-12

class TestSpga:
    def _planted(self, rng, sep=0.3, noise=0.08, per_class=20, n=6):
        mu = g.GrassmannPoint(np.eye(n)[:, [0]])
        v_sep = np.zeros((n, 1))
        v_sep[1, 0] = 1.0
        pts, labels = [], []
        for i in range(2 * per_class):
            label = i % 2
            sign = 1.0 if label == 1 else -1.0
            mat = sign * sep * v_sep
            mat[2:, 0] += noise * rng.standard_normal(n - 2)
            pts.append(g.exp_map(mu, g.TangentVector(mu, mat.copy())))
            labels.append(label)
            mat[2:, 0] = 0.0
        return pts, np.asarray(labels), v_sep

    def test_separating_direction_recovered(self):
        rng = np.random.default_rng(5)
        pts, labels, v_sep = self._planted(rng)
        model = g.spga_fit(pts, labels, 2)
        assert trace_cosine(model.components[0], v_sep) > 0.99

    def test_label_shuffle_destroys_alignment(self):
        rng = np.random.default_rng(6)
        pts, labels, v_sep = self._planted(rng)
        scores = []
        for _ in range(20):
            shuffled = rng.permutation(labels)
            if np.unique(shuffled).size < 2:
                continue
            model = g.spga_fit(pts, shuffled, 1)
            scores.append(trace_cosine(model.components[0], v_sep))
        assert np.mean(scores) < 0.9

    def test_single_class_degenerate(self):
        rng = np.random.default_rng(7)
        pts = [g.sample_stiefel_uniform(5, 1, rng=rng) for _ in range(6)]
        with pytest.raises(SupervisionDegenerateError):
            g.spga_fit(pts, np.zeros(6, dtype=int), 1)

    def test_variances_nonincreasing(self):
        rng = np.random.default_rng(8)
        pts, labels, _ = self._planted(rng)
        model = g.spga_fit(pts, labels, 3)
        assert np.all(np.diff(model.component_variances) <= 1e-10)


    def test_components_past_rank_complete_from_tangent_covariance(self):
        # Two classes: the supervised operator has rank 1, so components 2
        # and 3 are the leading tangent-covariance directions orthogonal to
        # the first, not null-space vectors picked by rounding.
        rng = np.random.default_rng(9)
        pts, labels, _ = self._planted(rng)
        model = g.spga_fit(pts, labels, 3)
        assert model.component_variances[0] > 0.0
        assert np.all(model.component_variances[1:] == 0.0)
        flat = _flatten_tangents(model.components)
        assert np.allclose(flat @ flat.T, np.eye(3), atol=1e-12)
        coords = _tangent_coordinates(stack_points(pts), model.mean)
        rest = coords - np.outer(coords @ flat[0], flat[0])
        top = np.linalg.eigvalsh(rest.T @ rest / len(pts))[::-1][:2]
        captured = ((coords @ flat[1:].T) ** 2).mean(axis=0)
        assert np.allclose(captured, top, rtol=1e-9, atol=1e-14)


class TestGknn:
    def test_duplicated_points_perfect(self):
        rng = np.random.default_rng(9)
        base = [g.sample_stiefel_uniform(5, 1, rng=rng) for _ in range(4)]
        pts = []
        labels = []
        for i, b in enumerate(base):
            pts += [b, g.GrassmannPoint(b.basis.copy())]
            labels += [i, i]
        acc, _ = g.gknn_loo(pts, labels, k=1)
        assert acc == 1.0

    def test_three_point_hand_case(self):
        e = np.eye(4)
        pts = [
            g.GrassmannPoint(e[:, [0]]),
            g.orthonormalize(e[:, [0]] + 0.05 * e[:, [1]]),
            g.GrassmannPoint(e[:, [2]]),
        ]
        labels = np.array([0, 0, 1])
        acc, preds = g.gknn_loo(pts, labels, k=1)
        assert acc == pytest.approx(2.0 / 3.0)
        assert list(preds) == [0, 0, 0]

    def test_full_k_matches_bruteforce(self):
        rng = np.random.default_rng(10)
        pts = [g.sample_stiefel_uniform(5, 1, rng=rng) for _ in range(10)]
        labels = np.asarray([0, 1] * 5)
        acc, preds = g.gknn_loo(pts, labels, k=len(pts) - 1)
        d = g.pairwise_distances(pts)
        for i in range(len(pts)):
            others = [j for j in range(len(pts)) if j != i]
            counts = {}
            for j in others:
                counts[labels[j]] = counts.get(labels[j], 0) + 1
            best = max(counts.values())
            tied = {lab for lab, c in counts.items() if c == best}
            if len(tied) == 1:
                expected = tied.pop()
            else:  # nearest neighbor among tied classes
                expected = next(labels[j] for j in sorted(others, key=lambda j: d[i, j]) if labels[j] in tied)
            assert preds[i] == expected

    def test_invariance_under_relabeling_and_permutation(self):
        rng = np.random.default_rng(11)
        pts = [g.sample_stiefel_uniform(5, 1, rng=rng) for _ in range(12)]
        labels = np.asarray([0, 0, 1, 1, 2, 2] * 2)
        acc1, _ = g.gknn_loo(pts, labels, k=3)
        acc2, _ = g.gknn_loo(pts, (labels + 7) % 11, k=3)
        perm = rng.permutation(12)
        acc3, _ = g.gknn_loo([pts[i] for i in perm], labels[perm], k=3)
        assert acc1 == acc2 == acc3

    def test_metric_choice(self):
        rng = np.random.default_rng(12)
        pts = [g.sample_stiefel_uniform(5, 2, rng=rng) for _ in range(8)]
        labels = np.asarray([0, 1] * 4)
        for metric in ("geodesic", "projection"):
            acc, preds = knn_loo_from_distances(g.pairwise_distances(pts, metric), labels, 3)
            assert 0.0 <= acc <= 1.0
            assert preds.shape == (8,)

    def test_bad_k(self):
        rng = np.random.default_rng(13)
        pts = [g.sample_stiefel_uniform(5, 1, rng=rng) for _ in range(4)]
        with pytest.raises(ShapeError):
            g.gknn_loo(pts, [0, 1, 0, 1], k=4)

    @pytest.mark.parametrize("k,labels", ((0, [0, 1, 0, 1]), (4, [0, 1, 0, 1]), (1, [0, 1, 0])))
    def test_arguments_checked_before_any_distance(self, monkeypatch, k, labels):
        def fail(*args, **kwargs):
            raise AssertionError("distances were computed")

        monkeypatch.setattr(baselines, "pairwise_distances", fail)
        rng = np.random.default_rng(13)
        pts = [g.sample_stiefel_uniform(5, 1, rng=rng) for _ in range(4)]
        with pytest.raises(ShapeError, match="k must be in|labels length"):
            g.gknn_loo(pts, labels, k=k)

    def test_one_call_at_1000_points_peaks_below_two_distance_matrices(self):
        points, labels = shapes_large_points()
        assert traced_peak(lambda: g.gknn_loo(points, labels, 5)) <= 2.0 * 1000 * 1000 * 8


class TestPgaCoordinates:
    def test_shape_and_reconstruction_of_variance(self):
        rng = np.random.default_rng(14)
        pts = [g.sample_stiefel_uniform(6, 1, rng=rng) for _ in range(10)]
        model = g.pga_fit(pts, 3)
        coords = pga_coordinates(model, pts)
        assert coords.shape == (10, 3)
        # per-component mean square equals the stored variances for PGA
        assert np.allclose((coords**2).mean(axis=0), model.component_variances, atol=1e-10)

    def test_knn_from_coordinates(self):
        rng = np.random.default_rng(15)
        pts = [g.sample_stiefel_uniform(6, 1, rng=rng) for _ in range(8)]
        labels = np.asarray([0, 1] * 4)
        model = g.pga_fit(pts, 2)
        coords = pga_coordinates(model, pts)
        d = np.linalg.norm(coords[:, None, :] - coords[None, :, :], axis=-1)
        acc, preds = knn_loo_from_distances(d, labels, 3)
        assert 0.0 <= acc <= 1.0 and preds.shape == (8,)


def pga_distances_reference(model, points):
    """The one-expression form ``pga_distances`` replaced, every N x N step a temporary."""
    coeffs = pga_coordinates(model, points)
    sq = (coeffs**2).sum(axis=1)
    return np.sqrt(np.maximum(sq[:, None] + sq[None, :] - 2.0 * (coeffs @ coeffs.T), 0.0))


class TestPgaDistances:
    @pytest.mark.parametrize("count", (2, 127, 128, 129, 300))
    def test_row_blocks_match_the_one_expression_reference_bit_for_bit(self, count):
        rng = np.random.default_rng(33)
        points = g.Dataset(g.orthonormal_columns(rng.standard_normal((count, 6, 2))))
        model = g.pga_fit(points, 3)
        assert np.array_equal(pga_distances(model, points), pga_distances_reference(model, points))

    def test_euclidean_distances_of_the_coordinates(self):
        rng = np.random.default_rng(34)
        pts = [g.sample_stiefel_uniform(6, 1, rng=rng) for _ in range(8)]
        model = g.pga_fit(pts, 2)
        coords = pga_coordinates(model, pts)
        expected = np.linalg.norm(coords[:, None, :] - coords[None, :, :], axis=-1)
        assert np.allclose(pga_distances(model, pts), expected, atol=1e-7)

    def test_one_call_at_1000_points_peaks_below_two_distance_matrices(self):
        points, _ = shapes_large_points()
        model = g.pga_fit(points, 10)
        assert traced_peak(lambda: pga_distances(model, points)) <= 2.0 * 1000 * 1000 * 8


def knn_loo_reference(distances, labels, k):
    """Per-row LOO kNN: the loop the vectorized ``knn_loo_from_distances`` replaced."""
    labels = np.asarray(labels)
    predictions = np.empty(labels.shape[0], dtype=labels.dtype)
    for i in range(labels.shape[0]):
        order = np.argsort(distances[i], kind="stable")
        neighbors = order[order != i][:k]
        classes, counts = np.unique(labels[neighbors], return_counts=True)
        tied = classes[counts == counts.max()]
        # the nearest neighbor whose class is among the tied ones wins
        predictions[i] = next(labels[j] for j in neighbors if labels[j] in tied)
    return float((predictions == labels).mean()), predictions


@st.composite
def tie_heavy_knn_cases(draw):
    """Small symmetric integer distances (many ties), up to 4 int or str classes, any valid k."""
    n = draw(st.integers(2, 10))
    entries = draw(st.lists(st.integers(0, 3), min_size=n * n, max_size=n * n))
    d = np.asarray(entries, dtype=float).reshape(n, n)
    codes = np.asarray(draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)))
    labels = np.array(["b", "a", "dd", "c"])[codes] if draw(st.booleans()) else codes * 5 - 7
    return d + d.T, labels, draw(st.integers(1, n - 1))


class TestKnnFromDistances:
    @settings(max_examples=300, deadline=None)
    @given(tie_heavy_knn_cases())
    def test_matches_reference_loop(self, case):
        distances, labels, k = case
        acc, preds = knn_loo_from_distances(distances, labels, k)
        ref_acc, ref_preds = knn_loo_reference(distances, labels, k)
        assert acc == ref_acc
        assert preds.dtype == ref_preds.dtype and np.array_equal(preds, ref_preds)

    @pytest.mark.parametrize("k", (1, 5, 20))
    def test_matches_reference_loop_at_300_points(self, k):
        # Distances quantized to 0.05 tie often at the k-th neighbour, where a partition must
        # still keep the lower index, as the stable sort does.
        rng = np.random.default_rng(30)
        d = np.round(rng.random((300, 300)) * 20) * 0.05
        d = d + d.T
        np.fill_diagonal(d, 0.0)
        labels = rng.integers(0, 3, 300)
        acc, preds = knn_loo_from_distances(d, labels, k)
        ref_acc, ref_preds = knn_loo_reference(d, labels, k)
        assert acc == ref_acc and np.array_equal(preds, ref_preds)

    @pytest.mark.parametrize("bad", (np.nan, np.inf, -np.inf))
    def test_non_finite_distance_rejected(self, bad):
        d = np.ones((4, 4))
        d[2, 1] = bad
        with pytest.raises(DegenerateInputError, match="distances must be finite"):
            knn_loo_from_distances(d, [0, 1, 0, 1], 1)

    def test_one_call_at_1000_points_peaks_below_three_quarters_of_a_distance_matrix(self):
        # Measured 0.39x: the N x N boolean masks and one row block of float temporaries.
        rng = np.random.default_rng(31)
        d = rng.random((1000, 1000))
        d = d + d.T
        np.fill_diagonal(d, 0.0)
        labels = rng.integers(0, 2, 1000)
        assert traced_peak(lambda: knn_loo_from_distances(d, labels, 5)) <= 0.75 * d.nbytes

    @pytest.mark.parametrize("k", (0, -1, 4, 10))
    def test_k_outside_range_rejected(self, k):
        with pytest.raises(ShapeError, match="k must be in"):
            knn_loo_from_distances(np.ones((4, 4)), [0, 1, 0, 1], k)

    @pytest.mark.parametrize("shape", ((4, 3), (3, 3), (4,), (4, 4, 1)))
    def test_distance_shape_rejected(self, shape):
        with pytest.raises(ShapeError, match="distances must be 4 x 4"):
            knn_loo_from_distances(np.ones(shape), [0, 1, 0, 1], 1)
