import numpy as np
import pytest

from helpers import (
    assert_fd_close,
    brute_force_direction,
    fd_jacobian,
    gram,
    kernel_eval,
    mixture_weights,
    pairwise_mahalanobis_sq,
    pairwise_sq_dists,
    per_anchor_mixture_direction,
    random_anchor_set,
    random_spd,
    strategies_for,
    weight_gradients,
)
from msvgd import kernels
from msvgd.dynamics import PrecondPolicy, refresh_anchors
from msvgd.errors import ConfigError, InvalidInputError
from msvgd.kernels import (
    ConstPrecond,
    MixturePrecond,
    ScalarRBF,
    median_bandwidth,
)
from msvgd.psdlin import identity_bundle, make_bundle
from msvgd.targets import LogisticDataset, LogisticPosterior, StarMixture


# -------------------------------------------------------------- bandwidth

def test_median_bandwidth_two_points():
    pts = np.array([[0.0, 0.0], [2.0, 0.0]])
    assert median_bandwidth(pts) == pytest.approx(4.0 / np.log(3.0), abs=1e-15)


def test_median_bandwidth_identical_points_falls_back_to_one():
    assert median_bandwidth(np.zeros((4, 2))) == 1.0
    # away from the origin the expanded form x'Qx + x'Qx - 2x'Qx leaves a
    # round-off median in about one of these cases in ten unless coincident
    # points are caught first
    rng = np.random.default_rng(12)
    for d in (2, 4, 6, 10, 20):
        for _ in range(20):
            points = np.repeat(3.0 * rng.standard_normal((1, d)), 6, axis=0)
            assert median_bandwidth(points) == 1.0
            assert median_bandwidth(points, metric=make_bundle(random_spd(rng, d))) == 1.0
            stacked = make_bundle(np.stack([random_spd(rng, d) for _ in range(3)]))
            assert np.array_equal(median_bandwidth(points, metric=stacked), np.ones(3))


def test_median_bandwidth_requires_two_points():
    with pytest.raises(InvalidInputError):
        median_bandwidth(np.zeros((1, 2)))


def test_median_bandwidth_identity_metric_matches_euclidean_exactly():
    rng = np.random.default_rng(0)
    pts = rng.standard_normal((9, 3))
    assert median_bandwidth(pts, metric=identity_bundle(3)) == median_bandwidth(pts)


def test_median_bandwidth_under_metric_matches_manual_median():
    rng = np.random.default_rng(1)
    pts = rng.standard_normal((7, 3))
    bundle = make_bundle(random_spd(rng, 3))
    m2 = pairwise_mahalanobis_sq(pts, None, bundle)
    manual = np.median(m2[np.triu_indices(7, k=1)]) / np.log(8.0)
    assert median_bandwidth(pts, metric=bundle) == pytest.approx(manual, rel=1e-12)


def test_row_medians_equal_numpy_median():
    rng = np.random.default_rng(2)
    for width in (1, 2, 7, 50, 51):
        rows = rng.standard_normal((4, width))
        rows[1, :width // 2] = rows[1, -1]  # ties across the middle
        rows[2, width // 3] = np.nan
        assert np.array_equal(kernels._row_medians(rows.copy()), np.median(rows, axis=1),
                              equal_nan=True)


@pytest.mark.parametrize("per_chunk", [None, 3])
@pytest.mark.parametrize("n, d", [(200, 2), (150, 3), (120, 4), (100, 20)])
def test_stacked_median_bandwidth_matches_per_metric_calls(monkeypatch, per_chunk, n, d):
    if per_chunk is not None:  # 40 metrics in chunks of 3 (or 6 pair rows), the last one partial
        monkeypatch.setattr(kernels, "CHUNK_BYTES", per_chunk * 8 * n * n)
    rng = np.random.default_rng(3)
    pts = rng.standard_normal((n, d))
    m = 40
    assert len(kernels._chunks(m, n * n)) > 1
    bundle = make_bundle(np.stack([random_spd(rng, d) for _ in range(m)]))
    # a stack with d <= 3 takes the pair table, the others the expanded form
    routes = []
    pair_table_medians = kernels._pair_table_medians
    monkeypatch.setattr(kernels, "_pair_table_medians",
                        lambda *args: routes.append("pair") or pair_table_medians(*args))
    stacked = median_bandwidth(pts, metric=bundle)
    assert routes == (["pair"] if d <= 3 else [])
    assert stacked.shape == (m,)
    upper = np.triu_indices(n, k=1)
    for l in range(m):
        single = make_bundle(bundle.q[l])
        assert stacked[l] == pytest.approx(median_bandwidth(pts, metric=single), rel=1e-13)
        manual = np.median(pairwise_mahalanobis_sq(pts, None, single)[upper]) / np.log(n + 1.0)
        assert stacked[l] == pytest.approx(manual, rel=1e-12)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_stacked_median_bandwidth_edge_cases(d):
    rng = np.random.default_rng(5)
    bundle = make_bundle(np.stack([random_spd(rng, d) for _ in range(5)]))
    # all points coincident: every median is zero, so every bandwidth falls back
    assert np.array_equal(median_bandwidth(np.zeros((6, d)), metric=bundle), np.ones(5))
    if d <= 3:  # the pair differences are exact zeros wherever the points sit
        coincident = np.tile(3.0 * rng.standard_normal(d), (6, 1))
        assert np.array_equal(median_bandwidth(coincident, metric=bundle), np.ones(5))
    # two points: one pair, whose distance is each metric's median
    pts = rng.standard_normal((2, d))
    u = pts[0] - pts[1]
    expected = np.einsum("a,lab,b->l", u, bundle.q, u) / np.log(3.0)
    assert median_bandwidth(pts, metric=bundle) == pytest.approx(expected, rel=1e-13)


def test_metric_sq_dists_match_the_q_sqrt_route():
    rng = np.random.default_rng(4)
    pts = rng.standard_normal((12, 4))
    bundle = make_bundle(np.stack([random_spd(rng, 4) for _ in range(3)]))
    d2 = kernels._metric_sq_dists(pts, bundle.q)
    assert d2.shape == (3, 12, 12)
    for l in range(3):
        single = make_bundle(bundle.q[l])
        assert np.allclose(d2[l], pairwise_mahalanobis_sq(pts, None, single), rtol=1e-12, atol=1e-12)
    # cross distances under the identity, the route the MMD scoring takes:
    # the same bytes as the plain Euclidean expansion of two distinct sets,
    # and as the self distances when the second set is the first (the plain
    # expansion of a set against itself is not compared: numpy forms
    # xs @ xs.T by a symmetric product, which can round differently)
    eye = np.eye(4)[None]
    others = rng.standard_normal((7, 4))
    cross = kernels._metric_sq_dists(pts, eye, others)
    assert cross.shape == (1, 12, 7)
    assert np.array_equal(cross[0], pairwise_sq_dists(pts, others))
    assert np.array_equal(kernels._metric_sq_dists(pts, eye, pts), kernels._metric_sq_dists(pts, eye))


# ------------------------------------------------------------- evaluation

def test_scalar_rbf_at_coincident_points_is_identity():
    k = ScalarRBF(bandwidth=1.7)
    x = np.array([0.3, -0.4])
    assert np.array_equal(kernel_eval(k, x, x), np.eye(2))


def test_const_precond_at_coincident_points_is_inverse_metric():
    rng = np.random.default_rng(2)
    b = make_bundle(random_spd(rng, 3))
    k = ConstPrecond(b, bandwidth=0.9)
    x = rng.standard_normal(3)
    assert np.array_equal(kernel_eval(k, x, x), b.q_inv)


def test_const_precond_hand_evaluated_example():
    b = make_bundle(np.diag([4.0, 1.0]))
    k = ConstPrecond(b, bandwidth=2.0)
    # Mahalanobis^2 of (1, 0) under diag(4, 1) is 4; exponent -4 / (2 * 2) = -1
    out = kernel_eval(k, np.array([1.0, 0.0]), np.zeros(2))
    assert np.allclose(out, np.exp(-1.0) * np.diag([0.25, 1.0]), atol=1e-12)


def test_eval_kernel_symmetry_across_kinds():
    rng = np.random.default_rng(3)
    for strat in strategies_for(rng, 3):
        x, y = rng.standard_normal(3), rng.standard_normal(3)
        assert np.allclose(kernel_eval(strat, x, y), kernel_eval(strat, y, x).T, atol=1e-14)


def test_dimension_mismatch_rejected():
    rng = np.random.default_rng(4)
    b = make_bundle(random_spd(rng, 3))
    k = ConstPrecond(b, bandwidth=1.0)
    with pytest.raises(InvalidInputError):
        kernel_eval(k, np.zeros(2), np.zeros(2))
    with pytest.raises(InvalidInputError):
        k.direction(np.zeros((4, 2)), np.zeros((4, 2)))
    with pytest.raises(InvalidInputError, match="grads shape"):
        k.direction(np.zeros((4, 3)), np.zeros((4, 2)))
    with pytest.raises(InvalidInputError, match="dimension 2"):
        mixture_weights(np.zeros(3), random_anchor_set(rng, 2, 2))
    for metric in (make_bundle(np.eye(3)), make_bundle(np.stack([np.eye(3)] * 2))):
        with pytest.raises(InvalidInputError, match="shape"):
            median_bandwidth(rng.standard_normal((4, 2)), metric)


def test_bandwidth_validation():
    for bad in (0.0, -1.0, np.nan, np.inf, None):
        with pytest.raises(ConfigError):
            ScalarRBF(bandwidth=bad)
    rng = np.random.default_rng(5)
    with pytest.raises(ConfigError):
        ConstPrecond(make_bundle(random_spd(rng, 2)), bandwidth=-2.0)


def test_anchor_set_validation():
    rng = np.random.default_rng(6)
    pts = rng.standard_normal((3, 2))
    bundle = make_bundle(np.stack([random_spd(rng, 2) for _ in range(3)]))
    with pytest.raises(InvalidInputError):
        MixturePrecond(points=pts, bundle=make_bundle(bundle.q[:2]), bandwidths=np.ones(3))
    with pytest.raises(InvalidInputError):
        MixturePrecond(points=pts, bundle=bundle, bandwidths=np.array([1.0, -1.0, 1.0]))
    with pytest.raises(InvalidInputError):
        MixturePrecond(points=pts, bundle=make_bundle(np.stack([random_spd(rng, 3) for _ in range(3)])),
                       bandwidths=np.ones(3))


# ---------------------------------------------------------------- weights

def test_mixture_weights_single_anchor_is_one():
    rng = np.random.default_rng(7)
    anchors = random_anchor_set(rng, 1, 2)
    assert np.array_equal(mixture_weights(rng.standard_normal(2), anchors), [1.0])


def test_mixture_weights_identical_anchors_split_evenly():
    rng = np.random.default_rng(8)
    m = random_spd(rng, 2)
    z = rng.standard_normal(2)
    anchors = MixturePrecond(points=np.stack([z, z]), bundle=make_bundle(np.stack([m, m])),
                             bandwidths=np.ones(2))
    assert np.allclose(mixture_weights(rng.standard_normal(2), anchors), [0.5, 0.5], atol=1e-15)


def test_mixture_weights_equidistant_anchors_split_evenly():
    anchors = MixturePrecond(points=np.array([[1.0, 0.0], [-1.0, 0.0]]),
                             bundle=make_bundle(np.stack([np.eye(2), np.eye(2)])), bandwidths=np.ones(2))
    assert np.allclose(mixture_weights(np.zeros(2), anchors), [0.5, 0.5], atol=1e-15)


def test_mixture_weights_form_a_simplex_even_far_from_anchors():
    rng = np.random.default_rng(9)
    anchors = random_anchor_set(rng, 4, 3)
    for scale in (1.0, 1e3):
        for x in scale * rng.standard_normal((20, 3)):
            w = mixture_weights(x, anchors)
            assert np.all(w >= 0.0)
            assert abs(w.sum() - 1.0) <= 1e-12


def test_mixture_weight_gradients_match_finite_differences():
    rng = np.random.default_rng(10)
    kernel = random_anchor_set(rng, 3, 2)
    pts = rng.standard_normal((50, 2))
    analytic = weight_gradients(kernel, pts)
    for i, x in enumerate(pts):
        fd = fd_jacobian(lambda v: mixture_weights(v, kernel), x)
        assert_fd_close(analytic[i], fd, rel=1e-5, abs_=1e-8, label="weight gradients")


# ------------------------------------------------------------- directions

def test_single_particle_scalar_direction_is_the_gradient():
    k = ScalarRBF(bandwidth=2.0)
    grads = np.array([[0.7, -1.1]])
    assert np.allclose(k.direction(np.array([[0.2, 0.3]]), grads), grads, atol=1e-14)


def test_single_particle_const_direction_is_preconditioned_gradient():
    rng = np.random.default_rng(11)
    b = make_bundle(random_spd(rng, 2))
    k = ConstPrecond(b, bandwidth=1.0)
    g = rng.standard_normal(2)
    out = k.direction(np.array([[0.4, -0.2]]), g[None, :])
    assert np.allclose(out[0], b.q_inv @ g, atol=1e-14)


def test_symmetric_pair_directions_mirror_each_other():
    # two particles straddling the mode of an isotropic Gaussian
    x = np.array([0.9, 0.4])
    pts = np.stack([x, -x])
    grads = -pts  # score of N(0, I)
    for k in (ScalarRBF(bandwidth=1.0),
              ConstPrecond(identity_bundle(2), bandwidth=1.0)):
        phi = k.direction(pts, grads)
        assert np.allclose(phi[0], -phi[1], atol=1e-14)


# case -> index into strategies_for: the scalar RBF, the constant
# preconditioner, and the mixture kernel on two seeds
CLOSED_FORM_CASES = (0, 1, 2, 2)


@pytest.mark.parametrize("case", range(len(CLOSED_FORM_CASES)))
def test_closed_form_directions_match_brute_force(case):
    # the oracle differentiates kernel_eval() numerically, checking each
    # kernel's closed-form divergence on 5 configurations x 10 points
    rng = np.random.default_rng(100 + case)
    for _ in range(5):
        d = int(rng.integers(2, 4))
        strat = strategies_for(rng, d)[CLOSED_FORM_CASES[case]]
        pts = rng.standard_normal((10, d))
        grads = rng.standard_normal((10, d))
        closed = strat.direction(pts, grads)
        brute = brute_force_direction(strat, pts, grads)
        assert_fd_close(closed, brute, rel=1e-5, abs_=1e-8,
                        label=f"{strat.kind} direction")


def test_scalar_equals_const_with_identity_metric_exactly():
    rng = np.random.default_rng(12)
    pts = rng.standard_normal((8, 3))
    grads = rng.standard_normal((8, 3))
    scalar = ScalarRBF(bandwidth=1.4)
    const = ConstPrecond(identity_bundle(3), bandwidth=1.4)
    assert np.array_equal(scalar.direction(pts, grads), const.direction(pts, grads))
    assert np.array_equal(gram(scalar, pts), gram(const, pts))


def test_single_anchor_mixture_equals_const_precond():
    rng = np.random.default_rng(13)
    m = random_spd(rng, 2)
    b = make_bundle(m)
    mix = MixturePrecond(points=rng.standard_normal((1, 2)), bundle=make_bundle(m[None]),
                         bandwidths=np.array([0.8]))
    const = ConstPrecond(b, bandwidth=0.8)
    pts = rng.standard_normal((6, 2))
    grads = rng.standard_normal((6, 2))
    x, y = rng.standard_normal(2), rng.standard_normal(2)
    assert np.allclose(kernel_eval(mix, x, y), kernel_eval(const, x, y), atol=1e-14)
    assert np.allclose(mix.direction(pts, grads), const.direction(pts, grads), atol=1e-13)


def test_multi_anchor_mixture_differs_from_const_even_with_shared_metric():
    rng = np.random.default_rng(14)
    m = random_spd(rng, 2)
    b = make_bundle(m)
    mix = MixturePrecond(points=rng.standard_normal((3, 2)), bundle=make_bundle(np.stack([m, m, m])),
                         bandwidths=np.full(3, 0.9))
    const = ConstPrecond(b, bandwidth=0.9)
    pts = rng.standard_normal((6, 2))
    grads = rng.standard_normal((6, 2))
    assert not np.allclose(mix.direction(pts, grads), const.direction(pts, grads), atol=1e-6)


def _fisher_logistic_anchors(rng, n):
    """Anchors ``refresh_anchors`` builds for n particles on a d=20 logistic
    posterior with Fisher curvature: each is active on about one particle."""
    feats = np.column_stack([np.ones(300), rng.standard_normal((300, 19))])
    labels = (rng.random(300) < 1.0 / (1.0 + np.exp(-feats @ np.linspace(-1.0, 1.0, 20)))).astype(float)
    model = LogisticPosterior(LogisticDataset(features=feats, labels=labels))
    pts = rng.standard_normal((n, 20))
    anchors = refresh_anchors(pts, model, PrecondPolicy(source="fisher"))
    return anchors, pts, model.grad_log_density_batch(pts)


def _active_counts(anchors, pts):
    w = anchors._weights_and_gradients(pts)[0]
    return np.count_nonzero(~(w <= kernels.WEIGHT_FLOOR), axis=0)


@pytest.mark.parametrize("per_chunk", [None, 7])
def test_mixture_direction_matches_the_per_anchor_loop(monkeypatch, per_chunk):
    if per_chunk is not None:
        monkeypatch.setattr(kernels, "CHUNK_BYTES", per_chunk * 8 * 200 * 200)

    def check(anchors, pts, grads):
        oracle = per_anchor_mixture_direction(anchors, pts, grads)
        phi = anchors.direction(pts, grads)
        assert np.max(np.abs(phi - oracle)) <= 1e-12 * np.max(np.abs(oracle))

    # one anchor per particle, as the sampler builds them: 200 anchors span
    # many chunks, and the active counts of a chunk differ, so it pads
    model = StarMixture()
    rng = np.random.default_rng(16)
    pts = rng.uniform(-3.0, 3.0, size=(200, 2))
    anchors = refresh_anchors(pts, model, PrecondPolicy(floor_ratio=0.05))
    counts = _active_counts(anchors, pts)
    assert len(kernels._chunks(len(anchors.points), 200 * 200)) > 1
    chunks = kernels._active_chunks(counts)
    assert len(chunks) > 1
    assert any(len(np.unique(counts[chunk])) > 1 for chunk, _ in chunks)
    check(anchors, pts, model.grad_log_density_batch(pts))
    # particles away from the anchors, at d = 5
    anchors = random_anchor_set(rng, 60, 5)
    pts, grads = rng.standard_normal((30, 5)), rng.standard_normal((30, 5))
    check(anchors, pts, grads)
    # d = 20 Fisher logistic anchors: each is active on about one particle
    anchors, pts, grads = _fisher_logistic_anchors(rng, 40)
    assert np.mean(_active_counts(anchors, pts)) < 1.5
    check(anchors, pts, grads)
    # one anchor far from every particle has an empty active set
    anchors = random_anchor_set(rng, 8, 3)
    far = anchors.points.copy()
    far[5] = 50.0
    anchors = MixturePrecond(points=far, bundle=anchors.bundle, bandwidths=anchors.bandwidths)
    pts, grads = rng.standard_normal((12, 3)), rng.standard_normal((12, 3))
    counts = _active_counts(anchors, pts)
    assert counts[5] == 0 and np.all(np.delete(counts, 5) > 0)
    check(anchors, pts, grads)
    # identical anchors: every weight is 1/m and every pair is active
    m = random_spd(rng, 3)
    anchors = MixturePrecond(points=np.tile(rng.standard_normal(3), (6, 1)),
                             bundle=make_bundle(np.stack([m] * 6)), bandwidths=np.full(6, 0.8))
    assert np.all(_active_counts(anchors, pts) == 12)
    check(anchors, pts, grads)


def test_sparse_weight_mixture_direction_matches_brute_force_above_d3():
    # anchors far apart in tight metrics at d = 4 and 6: most (anchor,
    # particle) weights fall below WEIGHT_FLOOR, so the direction runs the
    # active-pair path, checked here against finite differences of eval()
    rng = np.random.default_rng(110)
    for d in (4, 6):
        centers = 3.0 * rng.standard_normal((4, d))
        anchors = MixturePrecond(points=centers,
                                 bundle=make_bundle(np.stack([4.0 * random_spd(rng, d) for _ in range(4)])),
                                 bandwidths=0.5 + rng.random(4))
        pts = centers[np.arange(10) % 4] + 0.3 * rng.standard_normal((10, d))
        grads = rng.standard_normal((10, d))
        counts = _active_counts(anchors, pts)
        assert np.all(counts > 0) and counts.sum() < 0.5 * counts.size * len(pts)
        assert_fd_close(anchors.direction(pts, grads), brute_force_direction(anchors, pts, grads),
                        rel=1e-5, abs_=1e-8, label=f"sparse mixture direction at d={d}")


def test_mixture_direction_stays_non_finite_for_a_non_finite_weight():
    # a particle so far out that every anchor weight is NaN there: the
    # direction must stay non-finite, for the sampler to abort on
    rng = np.random.default_rng(17)
    anchors = random_anchor_set(rng, 6, 2)
    pts = rng.standard_normal((5, 2))
    pts[3] = [1e200, -1e200]
    with np.errstate(over="ignore", invalid="ignore"):
        phi = anchors.direction(pts, rng.standard_normal((5, 2)))
    assert not np.all(np.isfinite(phi))


def test_direction_is_equivariant_under_particle_permutation():
    rng = np.random.default_rng(15)
    pts = rng.standard_normal((9, 3))
    grads = rng.standard_normal((9, 3))
    perm = rng.permutation(9)
    for strat in strategies_for(rng, 3):
        phi = strat.direction(pts, grads)
        phi_perm = strat.direction(pts[perm], grads[perm])
        assert np.allclose(phi_perm, phi[perm], atol=1e-12)


# ------------------------------------------------------------------- gram

def test_gram_single_point_const_is_the_inverse_metric():
    rng = np.random.default_rng(16)
    b = make_bundle(random_spd(rng, 3))
    k = ConstPrecond(b, bandwidth=1.0)
    g = gram(k, rng.standard_normal((1, 3)))
    assert np.array_equal(g, b.q_inv)


def test_gram_matrices_are_symmetric_and_positive_semidefinite():
    rng = np.random.default_rng(17)
    for kind_index in range(3):
        for _ in range(20):
            d = int(rng.integers(2, 6))
            n = int(rng.integers(2, 16))
            strat = strategies_for(rng, d)[kind_index]
            g = gram(strat, rng.standard_normal((n, d)))
            assert np.array_equal(g, g.T)
            eig = np.linalg.eigvalsh(g)
            tol = 1e-8 * max(1.0, eig[-1])
            assert eig[0] >= -tol, f"{strat.kind}: min eig {eig[0]:.3e}"
            # quadratic form of the span function f = sum_i K(., x_i) c_i
            c = rng.standard_normal(n * d)
            assert c @ g @ c >= -tol * float(c @ c)
