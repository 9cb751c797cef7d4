import numpy as np
import pytest
from scipy.spatial.distance import cdist

from helpers import mahalanobis_sq, matrix_root, pairwise_mahalanobis_sq, pairwise_sq_dists, random_spd
from msvgd.errors import InvalidInputError
from msvgd.psdlin import (
    _certified,
    identity_bundle,
    make_bundle,
    psd_repair,
    symmetrize,
)
from msvgd.targets import Gaussian


def test_symmetrize_averages_with_transpose():
    out = symmetrize(np.array([[1.0, 2.0], [0.0, 3.0]]))
    assert np.array_equal(out, out.T)
    assert np.allclose(out, [[1.0, 1.0], [1.0, 3.0]])


def test_symmetrize_rejects_nonsquare_and_nonfinite():
    with pytest.raises(InvalidInputError):
        symmetrize(np.zeros((2, 3)))
    with pytest.raises(InvalidInputError):
        symmetrize(np.array([[np.nan, 0.0], [0.0, 1.0]]))
    with pytest.raises(InvalidInputError, match="square matrix"):
        symmetrize(np.zeros((0, 0)))


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
    with pytest.raises(InvalidInputError, match="square matrix"):
        psd_repair(np.zeros((0, 0)))


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


def near_floor_spd(rng, d, floor_ratio, ratio):
    """A random-basis SPD matrix with lam_max = 1 + 3 * rand and
    lam_min = ratio * floor, floor = floor_ratio * max(1, lam_max)."""
    basis, _ = np.linalg.qr(rng.standard_normal((d, d)))
    top = 1.0 + 3.0 * rng.random()
    lam = np.concatenate([[ratio * floor_ratio * top], rng.uniform(0.1, top, d - 2), [top]])[:d]
    return symmetrize((basis * lam) @ basis.T)


def mixed_stack(rng, d, floor_ratio):
    """Random SPD (two of them scaled up a thousandfold), indefinite, and
    just-unclipped matrices (lam_min between the repair floor and twice it,
    under the certificate's shift), shuffled."""
    stack = np.concatenate([
        np.stack([random_spd(rng, d) * (1e3 if i < 2 else 1.0) for i in range(10)]),
        symmetrize(rng.standard_normal((10, d, d))),
        np.stack([near_floor_spd(rng, d, floor_ratio, rng.uniform(1.1, 1.9)) for _ in range(10)]),
    ])
    return stack[rng.permutation(len(stack))]


def stacks_at(rng, d):
    return symmetrize(rng.standard_normal((30, d, d))), mixed_stack(rng, d, 1e-3)


def test_psd_repair_of_a_stack_equals_per_matrix_repair():
    rng = np.random.default_rng(8)
    for d in (2, 5, 20):
        for stack in stacks_at(rng, d):
            repaired = psd_repair(stack, 1e-3)
            assert repaired.shape == (30, d, d)
            assert np.array_equal(repaired, np.stack([psd_repair(m, 1e-3) for m in stack]))
            assert np.array_equal(repaired, make_bundle(stack, 1e-3).q)
    with pytest.raises(InvalidInputError):
        psd_repair(np.zeros((3, 2, 3)))


def test_make_bundle_of_a_stack_equals_per_matrix_bundles():
    rng = np.random.default_rng(9)
    for d in (2, 5, 20):
        for stack in stacks_at(rng, d):
            bundle = make_bundle(stack, 1e-3)
            singles = [make_bundle(m, 1e-3) for m in stack]
            assert bundle.dim == d and bundle.log_det.shape == (30,)
            for field in ("q", "q_inv", "log_det"):
                assert np.array_equal(getattr(bundle, field),
                                      np.stack([getattr(b, field) for b in singles])), field
    with pytest.raises(InvalidInputError):
        make_bundle(np.zeros((3, 2, 3)))
    with pytest.raises(InvalidInputError):
        make_bundle(np.zeros(3))


def test_certified_matrices_clear_the_floor_and_skip_the_eigensolve():
    rng = np.random.default_rng(10)
    floor_ratio = 1e-3
    for d in (2, 5, 20):
        stack = np.concatenate([
            mixed_stack(rng, d, floor_ratio),
            # lam_min from a tenth of the floor to 80 times it, past the certificate's shift
            np.stack([near_floor_spd(rng, d, floor_ratio, r) for r in np.geomspace(0.1, 80.0, 40)]),
        ])
        certified = _certified(stack, floor_ratio)
        assert 10 <= certified.sum() < len(stack)
        repaired, bundle = psd_repair(stack, floor_ratio), make_bundle(stack, floor_ratio)
        for m, ok, q, q_inv, log_det in zip(stack, certified, repaired, bundle.q_inv, bundle.log_det):
            if not ok:
                continue
            lam, vec = np.linalg.eigh(m)
            floor = floor_ratio * max(1.0, lam[-1])
            assert lam[0] >= floor
            assert np.array_equal(q, symmetrize(m))
            lam = np.maximum(lam, floor)
            eig_inv = (vec / lam) @ vec.T
            assert np.linalg.norm(q_inv - eig_inv) <= 1e-12 * np.linalg.norm(eig_inv)
            assert abs(log_det - np.sum(np.log(lam))) <= 1e-12 * max(1.0, abs(log_det))


def test_make_bundle_identity():
    b = make_bundle(np.eye(3))
    roots = [Gaussian(np.zeros(3), cov)._chol for cov in (b.q, b.q_inv)]
    for factor in (b.q, b.q_inv, *roots):
        assert np.allclose(factor, np.eye(3), rtol=0, atol=1e-14)
    assert abs(b.log_det) <= 1e-14
    assert b.dim == 3


def test_make_bundle_diagonal_closed_form():
    b = make_bundle(np.diag([4.0, 1.0]))
    assert np.allclose(Gaussian(np.zeros(2), cov=b.q)._chol, np.diag([2.0, 1.0]), atol=1e-12)
    assert np.allclose(Gaussian(np.zeros(2), cov=b.q_inv)._chol, np.diag([0.5, 1.0]), atol=1e-12)
    assert np.allclose(b.q_inv, np.diag([0.25, 1.0]), atol=1e-12)
    assert abs(b.log_det - np.log(4.0)) <= 1e-12


def test_bundle_factor_round_trips():
    rng = np.random.default_rng(11)
    for _ in range(100):
        d = int(rng.integers(2, 11))
        m = random_spd(rng, d)
        b = make_bundle(m)
        scale = np.linalg.norm(b.q)
        root, inv_root = matrix_root(b.q), matrix_root(b.q, -0.5)
        assert np.linalg.norm(root @ root - b.q) <= 1e-8 * scale
        assert np.linalg.norm(inv_root @ inv_root - b.q_inv) <= 1e-8 * np.linalg.norm(b.q_inv)
        assert np.linalg.norm(b.q @ b.q_inv - np.eye(d)) <= 1e-8 * np.sqrt(d)
        assert np.linalg.norm(inv_root @ b.q @ inv_root - np.eye(d)) <= 1e-8 * np.sqrt(d)
        assert abs(b.log_det - np.linalg.slogdet(b.q)[1]) <= 1e-8 * max(1.0, abs(b.log_det))
        # the Gaussian target's sampling factor L (cov = L L^T), with m or its inverse as cov
        for gauss in (Gaussian(np.zeros(d), cov=m), Gaussian(np.zeros(d), cov=np.linalg.inv(m))):
            chol = gauss._chol
            assert np.linalg.norm(chol @ chol.T - gauss.cov) <= 1e-8 * np.linalg.norm(gauss.cov)
            assert np.linalg.norm(chol.T @ gauss.precision @ chol - np.eye(d)) <= 1e-8 * np.sqrt(d)


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
