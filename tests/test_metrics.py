import dataclasses
import warnings

import numpy as np
import pytest

import msvgd.metrics as metrics_module
from msvgd import kernels
from helpers import double_loop_mmd_sq, pooled_median_bandwidth
from msvgd.errors import InvalidInputError
from msvgd.kernels import median_bandwidth
from msvgd.metrics import MmdReference, mmd_sq, predictive_metrics, prepare_reference
from msvgd.targets import LogisticDataset, StarMixture


def test_mmd_identical_multisets_is_exactly_zero():
    rng = np.random.default_rng(0)
    xs = rng.standard_normal((40, 2))
    report = mmd_sq(xs, xs.copy())
    assert report.value == 0.0
    assert report.n_x == report.n_y == 40


def test_mmd_singletons_hand_evaluation():
    x = np.array([[0.5, 0.0]])
    y = np.array([[-0.5, 1.0]])
    h = 2.0
    expected = 2.0 - 2.0 * np.exp(-float(np.sum((x - y) ** 2)) / (2.0 * h))
    assert mmd_sq(x, y, bandwidth=h).value == pytest.approx(expected, abs=1e-12)


def test_mmd_zero_bandwidth_uses_pooled_median_trick():
    rng = np.random.default_rng(1)
    xs, ys = rng.standard_normal((15, 2)), rng.standard_normal((10, 2))
    report = mmd_sq(xs, ys)
    assert report.bandwidth == median_bandwidth(np.vstack([xs, ys]))


def test_mmd_is_symmetric():
    rng = np.random.default_rng(2)
    xs, ys = rng.standard_normal((20, 3)), rng.standard_normal((30, 3))
    a, b = mmd_sq(xs, ys), mmd_sq(ys, xs)
    assert abs(a.value - b.value) <= 1e-12
    assert a.bandwidth == b.bandwidth


def test_mmd_is_invariant_under_sample_permutations():
    rng = np.random.default_rng(3)
    xs, ys = rng.standard_normal((25, 2)), rng.standard_normal((25, 2))
    base = mmd_sq(xs, ys, bandwidth=1.0).value
    assert abs(mmd_sq(xs[rng.permutation(25)], ys, bandwidth=1.0).value - base) <= 1e-12
    assert abs(mmd_sq(xs, ys[rng.permutation(25)], bandwidth=1.0).value - base) <= 1e-12


def test_mmd_is_nonnegative_on_near_identical_samples():
    rng = np.random.default_rng(4)
    xs = rng.standard_normal((30, 2))
    ys = xs + 1e-9 * rng.standard_normal((30, 2))
    assert mmd_sq(xs, ys).value >= 0.0


def test_mmd_separates_star_from_unit_gaussian():
    star = StarMixture()
    for seed in range(5):
        a = star.reference_sample(1000, seed=seed)
        b = star.reference_sample(1000, seed=seed + 100)
        gauss = np.random.default_rng(seed).standard_normal((1000, 2))
        within = mmd_sq(a, b).value
        across = mmd_sq(a, gauss).value
        assert across > within, f"seed {seed}: {across:.4g} !> {within:.4g}"


def test_mmd_validation():
    xs = np.zeros((3, 2))
    with pytest.raises(InvalidInputError):
        mmd_sq(xs, np.zeros((3, 3)))
    with pytest.raises(InvalidInputError):
        mmd_sq(xs, np.zeros((0, 2)))
    with pytest.raises(InvalidInputError):
        mmd_sq(xs, xs, bandwidth=-1.0)
    with pytest.raises(InvalidInputError):
        mmd_sq(xs, xs, bandwidth=np.nan)
    for bad in ("1", None):
        with pytest.raises(InvalidInputError):
            mmd_sq(xs, xs, bandwidth=bad)


def test_mmd_median_route_rejects_non_finite_particles():
    xs, ys = np.zeros((3, 2)), np.ones((4, 2))
    for bad in (np.nan, np.inf):
        with pytest.raises(InvalidInputError, match="non-finite"):
            mmd_sq(np.vstack([xs, [[bad, 0.0]]]), ys)
        with pytest.raises(InvalidInputError, match="non-finite"):
            mmd_sq(xs, np.vstack([ys, [[0.0, bad]]]))
        with pytest.raises(InvalidInputError, match="non-finite"):
            mmd_sq(np.vstack([xs, [[bad, 0.0]]]), prepare_reference(ys))
        with pytest.raises(InvalidInputError, match="non-finite"):
            prepare_reference(np.vstack([ys, [[0.0, bad]]]))


@pytest.mark.parametrize("d", [2, 5])
def test_mmd_median_route_matches_pooled_and_double_loop_oracles(d):
    for seed in range(6):
        rng = np.random.default_rng([d, seed])
        xs = rng.standard_normal((int(rng.integers(2, 40)), d))
        ys = 1.3 * rng.standard_normal((int(rng.integers(2, 160)), d)) + 0.2
        reference = prepare_reference(ys)
        for report in (mmd_sq(xs, ys), mmd_sq(xs, reference)):
            assert report.bandwidth == pooled_median_bandwidth(xs, ys)
            assert abs(report.value - double_loop_mmd_sq(xs, ys, report.bandwidth)) <= 1e-12
        # an explicit bandwidth scores a prepared reference like the plain draws
        explicit = mmd_sq(xs, ys, bandwidth=0.8).value
        assert abs(mmd_sq(xs, reference, bandwidth=0.8).value - explicit) <= 1e-12
    # single points on either side: an empty reference triangle, one pooled pair
    for xs, ys in ((xs, ys[:1]), (xs[:1], ys[:1]), (xs[:1], ys)):
        report = mmd_sq(xs, ys)
        assert report.bandwidth == pooled_median_bandwidth(xs, ys)
        assert abs(report.value - double_loop_mmd_sq(xs, ys, report.bandwidth)) <= 1e-12


def _pair_sq(a, b=None):
    b = a if b is None else b
    return np.sum((a[:, None, :] - b[None, :, :]) ** 2, axis=2)


def test_merged_median_bandwidth_edge_cases():
    rng = np.random.default_rng(8)
    grid = np.array([[i, j] for i in range(-2, 3) for j in range(-2, 3)], dtype=float)
    far = np.array([[-10.0, 0.0], [10.0, 0.0]])
    tight = 1e-3 * rng.standard_normal((5, 2))
    cases = {
        "odd pooled count": (rng.standard_normal((3, 2)), rng.standard_normal((4, 2))),
        "even pooled count": (rng.standard_normal((3, 2)), rng.standard_normal((5, 2))),
        "xs drawn from ys": (grid[[0, 7, 7, 12]], grid[:13]),
        "integer grid": (grid[::3], grid[1::2]),
        "fresh below the reference": (0.1 * rng.standard_normal((6, 2)), far),
        "fresh above the reference": (100.0 * rng.standard_normal((6, 2)), tight),
        "one particle": (rng.standard_normal((1, 2)), rng.standard_normal((9, 2))),
        "one reference draw": (rng.standard_normal((7, 2)), rng.standard_normal((1, 2))),
        "one of each": (rng.standard_normal((1, 2)), rng.standard_normal((1, 2))),
        "two reference draws": (rng.standard_normal((4, 2)), rng.standard_normal((2, 2))),
        "all coincident": (np.tile([[1.0, 2.0]], (3, 1)), np.tile([[1.0, 2.0]], (4, 1))),
    }
    parities = set()
    for name, (xs, ys) in cases.items():
        reference = prepare_reference(ys)
        report = mmd_sq(xs, reference)
        assert report.bandwidth == pooled_median_bandwidth(xs, ys), name
        p = len(xs) + len(ys)
        parities.add(p * (p - 1) // 2 % 2)
    assert parities == {0, 1}
    # the cases hold what their names say
    fresh = lambda xs, ys: np.concatenate([_pair_sq(xs)[np.triu_indices(len(xs), 1)],
                                           _pair_sq(xs, ys).ravel()])
    assert fresh(*cases["fresh below the reference"]).max() < _pair_sq(far)[0, 1]
    assert fresh(*cases["fresh above the reference"]).min() > _pair_sq(tight).max()
    assert prepare_reference(cases["one reference draw"][1]).sorted_pair_sq_dists.size == 0
    assert mmd_sq(*cases["all coincident"]).bandwidth == 1.0


def test_mmd_overflowed_distance_gives_nan_bandwidth_and_value():
    # |x|^2 overflows, so the expanded distance of the coincident pair is inf - inf
    xs = np.array([[1e200, 0.0], [1e200, 0.0], [0.0, 1.0]])
    ys = np.random.default_rng(9).standard_normal((5, 2))
    with np.errstate(over="ignore", invalid="ignore"):
        for report in (mmd_sq(xs, ys), mmd_sq(xs, prepare_reference(ys))):
            assert np.isnan(report.bandwidth)
            assert np.isnan(report.value)


def test_prepared_reference_holds_the_sorted_pair_triangle():
    ys = np.random.default_rng(10).integers(-3, 4, (40, 2)).astype(float)  # many ties
    reference = prepare_reference(ys)
    brute = np.sort(_pair_sq(ys)[np.triu_indices(40, 1)])
    assert np.array_equal(reference.sorted_pair_sq_dists, brute)
    assert np.all(np.diff(reference.sorted_pair_sq_dists) >= 0.0)
    assert not reference.sorted_pair_sq_dists.flags.writeable
    assert [f.name for f in dataclasses.fields(MmdReference)] == ["points", "sorted_pair_sq_dists"]


@pytest.mark.parametrize("rows", [1, 5, 37])
def test_prepared_reference_holds_the_pair_triangle_and_is_read_only(monkeypatch, rows):
    rng = np.random.default_rng(7)
    ys = rng.standard_normal((37, 3))
    monkeypatch.setattr(kernels, "CHUNK_BYTES", 8 * 37 * rows)
    reference = prepare_reference(ys)
    full = np.sum((ys[:, None, :] - ys[None, :, :]) ** 2, axis=2)
    assert np.allclose(reference.sorted_pair_sq_dists, np.sort(full[np.triu_indices(37, 1)]),
                       rtol=1e-12, atol=1e-12)
    assert np.all(np.diff(reference.sorted_pair_sq_dists) >= 0.0)
    for a in (reference.points, reference.sorted_pair_sq_dists):
        assert not a.flags.writeable
    assert ys.flags.writeable


def test_mmd_value_independent_of_chunk_size(monkeypatch):
    rng = np.random.default_rng(5)
    xs, ys = rng.standard_normal((17, 2)), rng.standard_normal((23, 2))
    scores = {
        "array": lambda: mmd_sq(xs, ys, bandwidth=0.7),
        "prepared": lambda: mmd_sq(xs, prepare_reference(ys), bandwidth=0.7),
        "median": lambda: mmd_sq(xs, prepare_reference(ys)),
    }
    base = {name: score().value for name, score in scores.items()}
    monkeypatch.setattr(kernels, "CHUNK_BYTES", 8 * 3 * 23)
    # every route sums its 253-pair triangle in 4 chunks
    assert len(kernels._chunks(23 * 22 // 2, 1)) == 4
    for name, score in scores.items():
        assert abs(score().value - base[name]) <= 1e-12, name


def test_kernels_chunk_bytes_alone_sizes_the_metrics_blocks(monkeypatch):
    # metrics holds no memory budget of its own: kernels.CHUNK_BYTES sets how
    # many row blocks prepare_reference forms and how many chunks of the
    # reference triangle _score sums
    rng = np.random.default_rng(9)
    xs, ys = rng.standard_normal((5, 2)), rng.standard_normal((40, 2))
    calls = []
    for name in ("_metric_sq_dists", "_kernel_sum"):
        original = getattr(metrics_module, name)
        monkeypatch.setattr(metrics_module, name,
                            lambda *args, name=name, original=original: calls.append(name) or original(*args))

    def blocks():
        calls.clear()
        reference = prepare_reference(ys)
        rows = calls.count("_metric_sq_dists")
        calls.clear()
        metrics_module._score(xs, reference, 0.0)
        return rows, calls.count("_kernel_sum") - 2  # one sum each for the own and cross pairs

    assert blocks() == (1, 1)
    monkeypatch.setattr(kernels, "CHUNK_BYTES", 8 * 3 * 40)
    # 40 rows of 40 distances, 3 rows a block; 780 pairs, 120 a chunk
    assert blocks() == (14, 7)


def separable_dataset():
    feats = np.array([[-2.0, -1.5], [-1.5, -2.0], [2.0, 1.5], [1.5, 2.0]])
    labels = np.array([0.0, 0.0, 1.0, 1.0])
    return LogisticDataset(features=feats, labels=labels)


def test_predictive_zero_particle_gives_coin_flip_likelihood():
    data = separable_dataset()
    accuracy, log_lik = predictive_metrics(np.zeros((1, 2)), data)
    assert log_lik == pytest.approx(np.log(0.5), abs=1e-15)
    # p = 0.5 is not > 0.5, so every row is predicted class 0
    assert accuracy == 0.5


def test_predictive_saturates_on_separable_data():
    data = separable_dataset()
    accuracy, log_lik = predictive_metrics(np.array([[10.0, 10.0]]), data)
    assert accuracy == 1.0
    assert log_lik > -1e-6


def test_predictive_clips_probabilities_before_log():
    # a huge particle drives p to 1 on rows labeled 0; the clip keeps the
    # log likelihood finite
    feats = np.array([[5.0, 5.0]])
    labels = np.array([0.0])
    data = LogisticDataset(features=feats, labels=labels)
    _, log_lik = predictive_metrics(np.array([[100.0, 100.0]]), data)
    assert np.isfinite(log_lik)
    assert log_lik >= -28.0  # the clip at 1e-12 caps the penalty near log(1e-12)


def test_predictive_far_out_particles_raise_no_floating_point_warning():
    # logits of +-875 overflow exp(-z) in the sigmoid; outside ``run`` no
    # errstate is in force, so the sigmoid must keep its own
    data = separable_dataset()
    particles = np.array([[250.0, 250.0], [-250.0, -250.0], [300.0, -300.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        accuracy, log_lik = predictive_metrics(particles, data)
    assert accuracy == 0.5 and np.isfinite(log_lik)


def test_predictive_invariant_under_particle_reordering():
    rng = np.random.default_rng(6)
    data = separable_dataset()
    particles = rng.standard_normal((9, 2))
    base = predictive_metrics(particles, data)
    shuffled = predictive_metrics(particles[rng.permutation(9)], data)
    assert shuffled[0] == base[0]
    assert abs(shuffled[1] - base[1]) <= 1e-12


def test_predictive_rejects_dimension_mismatch():
    with pytest.raises(InvalidInputError):
        predictive_metrics(np.zeros((2, 3)), separable_dataset())
