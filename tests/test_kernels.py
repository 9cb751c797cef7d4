import numpy as np
import pytest

from helpers import (
    assert_fd_close,
    brute_force_direction,
    fd_jacobian,
    random_anchor_set,
    random_spd,
    strategies_for,
)
from msvgd.errors import ConfigError, InvalidInputError
from msvgd.kernels import (
    AnchorSet,
    ConstPrecond,
    DiagonalRBF,
    MixturePrecond,
    ScalarRBF,
    median_bandwidth,
    mixture_weights,
    per_coordinate_median_bandwidths,
)
from msvgd.psdlin import identity_bundle, make_bundle, pairwise_mahalanobis_sq


# -------------------------------------------------------------- bandwidth

def test_median_bandwidth_two_points():
    pts = np.array([[0.0, 0.0], [2.0, 0.0]])
    assert median_bandwidth(pts) == pytest.approx(4.0 / np.log(3.0), abs=1e-15)


def test_median_bandwidth_identical_points_falls_back_to_one():
    assert median_bandwidth(np.zeros((4, 2))) == 1.0


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


def test_per_coordinate_median_bandwidths():
    pts = np.array([[0.0, 0.0], [2.0, 1.0]])
    expected = np.array([4.0, 1.0]) / np.log(3.0)
    assert np.allclose(per_coordinate_median_bandwidths(pts), expected, atol=1e-14)


# ------------------------------------------------------------- evaluation

def test_scalar_rbf_at_coincident_points_is_identity():
    k = ScalarRBF(bandwidth=1.7)
    x = np.array([0.3, -0.4])
    assert np.array_equal(k.eval(x, x), np.eye(2))


def test_const_precond_at_coincident_points_is_inverse_metric():
    rng = np.random.default_rng(2)
    b = make_bundle(random_spd(rng, 3))
    k = ConstPrecond(b, bandwidth=0.9)
    x = rng.standard_normal(3)
    assert np.array_equal(k.eval(x, x), b.q_inv)


def test_const_precond_hand_evaluated_example():
    b = make_bundle(np.diag([4.0, 1.0]))
    k = ConstPrecond(b, bandwidth=2.0)
    # Mahalanobis^2 of (1, 0) under diag(4, 1) is 4; exponent -4 / (2 * 2) = -1
    out = k.eval(np.array([1.0, 0.0]), np.zeros(2))
    assert np.allclose(out, np.exp(-1.0) * np.diag([0.25, 1.0]), atol=1e-12)


def test_eval_kernel_symmetry_across_kinds():
    rng = np.random.default_rng(3)
    for strat in strategies_for(rng, 3):
        x, y = rng.standard_normal(3), rng.standard_normal(3)
        assert np.allclose(strat.eval(x, y), strat.eval(y, x).T, atol=1e-14)


def test_dimension_mismatch_rejected():
    rng = np.random.default_rng(4)
    b = make_bundle(random_spd(rng, 3))
    k = ConstPrecond(b, bandwidth=1.0)
    with pytest.raises(InvalidInputError):
        k.eval(np.zeros(2), np.zeros(2))
    with pytest.raises(InvalidInputError):
        k.direction(np.zeros((4, 2)), np.zeros((4, 2)))
    with pytest.raises(InvalidInputError):
        DiagonalRBF([1.0, 1.0]).eval(np.zeros(3), np.zeros(3))


def test_bandwidth_validation():
    for bad in (0.0, -1.0, np.nan, np.inf, None):
        with pytest.raises(ConfigError):
            ScalarRBF(bandwidth=bad)
    with pytest.raises(ConfigError):
        DiagonalRBF(bandwidths=[1.0, 0.0])
    rng = np.random.default_rng(5)
    with pytest.raises(ConfigError):
        ConstPrecond(make_bundle(random_spd(rng, 2)), bandwidth=-2.0)


def test_anchor_set_validation():
    rng = np.random.default_rng(6)
    pts = rng.standard_normal((3, 2))
    bundles = tuple(make_bundle(random_spd(rng, 2)) for _ in range(3))
    with pytest.raises(InvalidInputError):
        AnchorSet(points=pts, bundles=bundles[:2], bandwidths=np.ones(3))
    with pytest.raises(InvalidInputError):
        AnchorSet(points=pts, bundles=bundles, bandwidths=np.array([1.0, -1.0, 1.0]))
    with pytest.raises(InvalidInputError):
        AnchorSet(points=pts, bundles=tuple(make_bundle(random_spd(rng, 3)) for _ in range(3)),
                  bandwidths=np.ones(3))


# ---------------------------------------------------------------- weights

def test_mixture_weights_single_anchor_is_one():
    rng = np.random.default_rng(7)
    anchors = random_anchor_set(rng, 1, 2)
    assert np.array_equal(mixture_weights(rng.standard_normal(2), anchors), [1.0])


def test_mixture_weights_identical_anchors_split_evenly():
    rng = np.random.default_rng(8)
    b = make_bundle(random_spd(rng, 2))
    z = rng.standard_normal(2)
    anchors = AnchorSet(points=np.stack([z, z]), bundles=(b, b), bandwidths=np.ones(2))
    assert np.allclose(mixture_weights(rng.standard_normal(2), anchors), [0.5, 0.5], atol=1e-15)


def test_mixture_weights_equidistant_anchors_split_evenly():
    eye = identity_bundle(2)
    anchors = AnchorSet(points=np.array([[1.0, 0.0], [-1.0, 0.0]]),
                        bundles=(eye, eye), bandwidths=np.ones(2))
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
    anchors = random_anchor_set(rng, 3, 2)
    kernel = MixturePrecond(anchors)
    pts = rng.standard_normal((50, 2))
    analytic = kernel.weight_gradients(pts)
    for i, x in enumerate(pts):
        fd = fd_jacobian(lambda v: mixture_weights(v, anchors), x)
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


@pytest.mark.parametrize("kind_index", range(4))
def test_closed_form_directions_match_brute_force(kind_index):
    # the oracle differentiates eval() numerically, checking each kernel's
    # closed-form divergence on 5 configurations x 10 points
    rng = np.random.default_rng(100 + kind_index)
    for _ in range(5):
        d = int(rng.integers(2, 4))
        strat = strategies_for(rng, d)[kind_index]
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
    assert np.array_equal(scalar.gram(pts), const.gram(pts))


def test_single_anchor_mixture_equals_const_precond():
    rng = np.random.default_rng(13)
    b = make_bundle(random_spd(rng, 2))
    anchors = AnchorSet(points=rng.standard_normal((1, 2)), bundles=(b,),
                        bandwidths=np.array([0.8]))
    mix = MixturePrecond(anchors)
    const = ConstPrecond(b, bandwidth=0.8)
    pts = rng.standard_normal((6, 2))
    grads = rng.standard_normal((6, 2))
    x, y = rng.standard_normal(2), rng.standard_normal(2)
    assert np.allclose(mix.eval(x, y), const.eval(x, y), atol=1e-14)
    assert np.allclose(mix.direction(pts, grads), const.direction(pts, grads), atol=1e-13)


def test_multi_anchor_mixture_differs_from_const_even_with_shared_metric():
    rng = np.random.default_rng(14)
    b = make_bundle(random_spd(rng, 2))
    anchors = AnchorSet(points=rng.standard_normal((3, 2)), bundles=(b, b, b),
                        bandwidths=np.full(3, 0.9))
    mix = MixturePrecond(anchors)
    const = ConstPrecond(b, bandwidth=0.9)
    pts = rng.standard_normal((6, 2))
    grads = rng.standard_normal((6, 2))
    assert not np.allclose(mix.direction(pts, grads), const.direction(pts, grads), atol=1e-6)


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
    g = k.gram(rng.standard_normal((1, 3)))
    assert np.array_equal(g, b.q_inv)


def test_gram_matrices_are_symmetric_and_positive_semidefinite():
    rng = np.random.default_rng(17)
    for kind_index in range(4):
        for _ in range(20):
            d = int(rng.integers(2, 6))
            n = int(rng.integers(2, 16))
            strat = strategies_for(rng, d)[kind_index]
            g = strat.gram(rng.standard_normal((n, d)))
            assert np.array_equal(g, g.T)
            eig = np.linalg.eigvalsh(g)
            tol = 1e-8 * max(1.0, eig[-1])
            assert eig[0] >= -tol, f"{strat.kind}: min eig {eig[0]:.3e}"
            # quadratic form of the span function f = sum_i K(., x_i) c_i
            c = rng.standard_normal(n * d)
            assert c @ g @ c >= -tol * float(c @ c)
