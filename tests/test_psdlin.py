import numpy as np
import pytest
from scipy.spatial.distance import cdist

from helpers import random_spd
from msvgd.errors import InvalidInputError
from msvgd.psdlin import (
    identity_bundle,
    mahalanobis_sq,
    make_bundle,
    pairwise_mahalanobis_sq,
    pairwise_sq_dists,
    psd_repair,
    symmetrize,
)


def test_symmetrize_averages_with_transpose():
    out = symmetrize(np.array([[1.0, 2.0], [0.0, 3.0]]))
    assert np.array_equal(out, out.T)
    assert np.allclose(out, [[1.0, 1.0], [1.0, 3.0]])


def test_symmetrize_rejects_nonsquare_and_nonfinite():
    with pytest.raises(InvalidInputError):
        symmetrize(np.zeros((2, 3)))
    with pytest.raises(InvalidInputError):
        symmetrize(np.array([[np.nan, 0.0], [0.0, 1.0]]))


def test_psd_repair_keeps_well_conditioned_input():
    assert np.allclose(psd_repair(np.eye(2), 1e-6), np.eye(2), rtol=0, atol=1e-14)


def test_psd_repair_clips_negative_eigenvalue_to_relative_floor():
    # floor = 1e-6 * max(1, lam_max) = 2e-6 for diag(2, -1)
    out = psd_repair(np.diag([2.0, -1.0]), 1e-6)
    assert np.allclose(out, np.diag([2.0, 2e-6]), rtol=0, atol=1e-12)


def test_psd_repair_floors_zero_matrix_at_absolute_scale():
    out = psd_repair(np.zeros((2, 2)), 1e-6)
    assert np.allclose(out, np.diag([1e-6, 1e-6]), rtol=0, atol=1e-18)


def test_psd_repair_rejects_bad_floor_and_nonfinite_input():
    with pytest.raises(InvalidInputError):
        psd_repair(np.eye(2), 0.0)
    with pytest.raises(InvalidInputError):
        psd_repair(np.eye(2), 1.0)
    with pytest.raises(InvalidInputError):
        psd_repair(np.array([[np.inf, 0.0], [0.0, 1.0]]))


def test_psd_repair_preserves_unclipped_eigenpairs():
    rng = np.random.default_rng(7)
    for _ in range(20):
        d = int(rng.integers(2, 7))
        m = symmetrize(rng.standard_normal((d, d)))
        lam, vec = np.linalg.eigh(m)
        repaired = psd_repair(m, 1e-6)
        floor = 1e-6 * max(1.0, lam[-1])
        clipped = int(np.sum(lam < floor))
        # the difference acts only on the clipped eigenspace
        assert np.linalg.matrix_rank(repaired - m, tol=1e-10) <= clipped
        for lam_i, v in zip(lam.T, vec.T):
            if lam_i >= floor:
                assert np.linalg.norm(repaired @ v - lam_i * v) <= 1e-10 * max(1.0, abs(lam_i))


def test_psd_repair_of_a_stack_equals_per_matrix_repair():
    rng = np.random.default_rng(8)
    for d in (2, 5, 20):
        stack = symmetrize(rng.standard_normal((30, d, d)))
        repaired = psd_repair(stack, 1e-3)
        assert repaired.shape == (30, d, d)
        assert np.array_equal(repaired, np.stack([psd_repair(m, 1e-3) for m in stack]))
    with pytest.raises(InvalidInputError):
        psd_repair(np.zeros((3, 2, 3)))
    with pytest.raises(InvalidInputError):
        make_bundle(np.stack([np.eye(2), np.eye(2)]))


def test_make_bundle_identity():
    b = make_bundle(np.eye(3))
    for factor in (b.q, b.q_sqrt, b.q_inv_sqrt, b.q_inv):
        assert np.allclose(factor, np.eye(3), rtol=0, atol=1e-14)
    assert abs(b.log_det) <= 1e-14
    assert b.dim == 3


def test_make_bundle_diagonal_closed_form():
    b = make_bundle(np.diag([4.0, 1.0]))
    assert np.allclose(b.q_sqrt, np.diag([2.0, 1.0]), atol=1e-12)
    assert np.allclose(b.q_inv, np.diag([0.25, 1.0]), atol=1e-12)
    assert abs(b.log_det - np.log(4.0)) <= 1e-12


def test_bundle_factor_round_trips():
    rng = np.random.default_rng(11)
    for _ in range(100):
        d = int(rng.integers(2, 11))
        m = random_spd(rng, d)
        b = make_bundle(m)
        scale = np.linalg.norm(b.q)
        assert np.linalg.norm(b.q_sqrt @ b.q_sqrt - b.q) <= 1e-8 * scale
        assert np.linalg.norm(b.q_inv_sqrt @ b.q_inv_sqrt - b.q_inv) <= 1e-8 * np.linalg.norm(b.q_inv)
        assert np.linalg.norm(b.q @ b.q_inv - np.eye(d)) <= 1e-8 * np.sqrt(d)
        assert np.linalg.norm(b.q_inv_sqrt @ b.q @ b.q_inv_sqrt - np.eye(d)) <= 1e-8 * np.sqrt(d)
        assert abs(b.log_det - np.linalg.slogdet(b.q)[1]) <= 1e-8 * max(1.0, abs(b.log_det))


def test_identity_bundle_is_exact():
    b = identity_bundle(4)
    assert np.array_equal(b.q, np.eye(4))
    assert np.array_equal(b.q_inv, np.eye(4))
    assert b.log_det == 0.0


def test_mahalanobis_sq_examples():
    b = make_bundle(np.diag([4.0, 1.0]))
    x = np.array([1.3, -0.2])
    assert mahalanobis_sq(x, x, b) == 0.0
    assert abs(mahalanobis_sq(np.array([1.0, 0.0]), np.zeros(2), b) - 4.0) <= 1e-12
    eye = identity_bundle(2)
    assert mahalanobis_sq(np.array([1.0, 1.0]), np.zeros(2), eye) == 2.0


def test_mahalanobis_sq_identity_equals_euclidean_exactly():
    rng = np.random.default_rng(5)
    b = identity_bundle(4)
    for _ in range(50):
        x, y = rng.standard_normal(4), rng.standard_normal(4)
        d = x - y
        assert mahalanobis_sq(x, y, b) == float(np.dot(d, d))


def test_mahalanobis_sq_rejects_dim_mismatch():
    b = identity_bundle(2)
    with pytest.raises(InvalidInputError):
        mahalanobis_sq(np.zeros(3), np.zeros(3), b)
    with pytest.raises(InvalidInputError):
        mahalanobis_sq(np.zeros(2), np.zeros(3), b)


def test_pairwise_sq_dists_matches_direct_computation():
    rng = np.random.default_rng(2)
    xs, ys = rng.standard_normal((7, 3)), rng.standard_normal((5, 3))
    assert np.allclose(pairwise_sq_dists(xs, ys), cdist(xs, ys) ** 2, atol=1e-10)
    d2 = pairwise_sq_dists(xs)
    assert np.all(d2 >= 0.0)
    assert np.allclose(np.diag(d2), 0.0, atol=1e-12)


def test_pairwise_mahalanobis_identity_matches_euclidean_exactly():
    rng = np.random.default_rng(8)
    xs = rng.standard_normal((6, 3))
    out = pairwise_mahalanobis_sq(xs, None, identity_bundle(3))
    assert np.array_equal(out, pairwise_sq_dists(xs))


def test_pairwise_mahalanobis_matches_per_pair_form():
    rng = np.random.default_rng(9)
    b = make_bundle(random_spd(rng, 3))
    xs, ys = rng.standard_normal((4, 3)), rng.standard_normal((5, 3))
    out = pairwise_mahalanobis_sq(xs, ys, b)
    for i in range(4):
        for j in range(5):
            assert abs(out[i, j] - mahalanobis_sq(xs[i], ys[j], b)) <= 1e-10
