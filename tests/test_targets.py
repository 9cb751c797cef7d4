import re

import numpy as np
import pytest
from scipy.special import logsumexp
from scipy.stats import multivariate_normal

from helpers import (
    assert_fd_close,
    fd_gradient,
    fd_jacobian,
    grad_log_density,
    grid_moments,
    log_density,
    map_estimate,
)
from msvgd.errors import ConfigError, InvalidInputError
from msvgd.targets import (
    DoubleBanana,
    Gaussian,
    LogisticDataset,
    LogisticPosterior,
    Sine,
    StarMixture,
    make_target,
)


def synthetic_dataset(rng, n_per_class=20, minibatch_size=0):
    feats = np.vstack([
        rng.standard_normal((n_per_class, 2)) - 1.0,
        rng.standard_normal((n_per_class, 2)) + 1.0,
    ])
    labels = np.repeat([0.0, 1.0], n_per_class)
    return LogisticDataset(features=feats, labels=labels, minibatch_size=minibatch_size)


# ---------------------------------------------------------------- gaussian

def test_gaussian_log_density_matches_reference_implementation():
    mean = np.array([0.3, -0.7])
    cov = np.array([[1.2, 0.4], [0.4, 0.9]])
    g = Gaussian(mean=mean, cov=cov)
    rv = multivariate_normal(mean, cov)
    rng = np.random.default_rng(0)
    pts = rng.standard_normal((20, 2))
    assert np.allclose(g.log_density_batch(pts), rv.logpdf(pts), atol=1e-10)


def test_gaussian_gradient_and_curvature():
    q = np.array([[2.0, 0.3], [0.3, 1.0]])
    g = Gaussian(mean=np.zeros(2), precision=q)
    x = np.array([0.8, -1.1])
    assert np.allclose(grad_log_density(g, x), -q @ x, atol=1e-12)
    # constant curvature equal to the precision, at any point
    assert np.allclose(g.curvature(x), q, atol=1e-12)
    assert np.allclose(g.curvature(np.array([5.0, 5.0])), q, atol=1e-12)


def test_gaussian_requires_exactly_one_parameterization():
    with pytest.raises(InvalidInputError):
        Gaussian(mean=[0.0, 0.0])
    with pytest.raises(InvalidInputError):
        Gaussian(mean=[0.0, 0.0], cov=np.eye(2), precision=np.eye(2))
    with pytest.raises(InvalidInputError):
        Gaussian(mean=[0.0, 0.0, 0.0], cov=np.eye(2))
    with pytest.raises(InvalidInputError, match="^mean"):
        Gaussian(mean=[0.0, np.nan], cov=np.eye(2))


def test_gaussian_sampler_moments_and_determinism():
    g = Gaussian(mean=np.zeros(2), cov=np.eye(2))
    xs = g.reference_sample(10_000, seed=4)
    assert np.all(np.abs(xs.mean(axis=0)) <= 4.0 / np.sqrt(10_000))
    assert np.array_equal(xs, g.reference_sample(10_000, seed=4))
    assert not np.array_equal(xs[:10], g.reference_sample(10, seed=5))
    with pytest.raises(InvalidInputError):
        g.reference_sample(0, seed=1)
    with pytest.raises(InvalidInputError, match="sample size: must be an integer"):
        g.reference_sample(2.5, seed=1)


# ------------------------------------------------------------------- star

def star_log_density_oracle(star, x):
    comps = [multivariate_normal(star.means[k], star.covs[k]).logpdf(x)
             for k in range(star.n_components)]
    return logsumexp(comps) - np.log(star.n_components)


def test_star_density_matches_direct_mixture_summation():
    star = StarMixture()
    rng = np.random.default_rng(1)
    for x in rng.uniform(-2.0, 2.0, size=(20, 2)):
        assert abs(log_density(star, x) - star_log_density_oracle(star, x)) <= 1e-10


def test_star_density_invariant_under_component_rotation():
    star = StarMixture()
    theta = 2.0 * np.pi / star.n_components
    u = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    rng = np.random.default_rng(2)
    pts = rng.uniform(-3.0, 3.0, size=(100, 2))
    assert np.allclose(star.log_density_batch(pts),
                       star.log_density_batch(pts @ u.T), atol=1e-10)


def test_star_gradient_and_hessian_match_finite_differences():
    star = StarMixture()
    rng = np.random.default_rng(3)
    for x in rng.uniform(-2.0, 2.0, size=(25, 2)):
        assert_fd_close(grad_log_density(star, x),
                        fd_gradient(lambda v: log_density(star, v), x), label="star gradient")
        hess = -star.curvature(x)
        assert_fd_close(hess, fd_jacobian(lambda v: grad_log_density(star, v), x), label="star hessian")


def test_star_single_component_mode_has_zero_gradient():
    star = StarMixture(components=1)
    assert np.allclose(grad_log_density(star, star.means[0]), 0.0, atol=1e-12)


def test_star_rejects_nonpositive_component_count():
    with pytest.raises(InvalidInputError):
        StarMixture(components=0)
    # a non-integral count is rejected, not truncated
    for bad in (2.7, True, "5", None):
        with pytest.raises(InvalidInputError, match="components: must be an integer"):
            StarMixture(components=bad)
    assert StarMixture(components=3.0).n_components == 3


def test_star_sampler_mean_near_zero_by_symmetry():
    star = StarMixture()
    xs = star.reference_sample(10_000, seed=0)
    assert np.all(np.abs(xs.mean(axis=0)) <= 0.05)
    assert np.array_equal(star.reference_sample(100, seed=0),
                          star.reference_sample(100, seed=0))


# ------------------------------------------------------------ sine, banana

def test_sine_value_at_origin_is_zero():
    assert log_density(Sine(), np.zeros(2)) == 0.0


def test_sine_gradient_and_hessian_match_finite_differences():
    s = Sine()
    rng = np.random.default_rng(4)
    for x in rng.uniform(-2.5, 2.5, size=(25, 2)):
        assert_fd_close(grad_log_density(s, x), fd_gradient(lambda v: log_density(s, v), x),
                        label="sine gradient")
        assert_fd_close(-s.curvature(x), fd_jacobian(lambda v: grad_log_density(s, v), x),
                        label="sine hessian")


def test_sine_sampler_concentrates_on_the_sine_curve():
    s = Sine()
    xs = s.reference_sample(10_000, seed=7)
    # the ridge is x2 = -sin(x1); its residual has tiny variance 0.003
    resid = xs[:, 1] + np.sin(xs[:, 0])
    assert abs(resid.mean()) <= 0.05
    assert np.array_equal(s.reference_sample(50, seed=7), s.reference_sample(50, seed=7))


def test_sine_grid_first_moment_vanishes_at_two_resolutions():
    s = Sine()
    for res in (256, 512):
        mean, _ = grid_moments(s, bounds=(-3.0, 3.0), resolution=res)
        assert abs(mean[0]) <= 1e-3


def test_banana_value_at_origin_matches_hand_evaluation():
    b = DoubleBanana()
    expected = -0.0 / 2.0 - np.log(30.0) ** 2 / (2.0 * 0.09)
    assert abs(log_density(b, np.zeros(2)) - expected) <= 1e-12


def test_banana_density_vanishes_where_the_residual_curve_pinches():
    b = DoubleBanana()
    assert log_density(b, np.array([1.0, 1.0])) == -np.inf
    # score and curvature are undefined there: non-finite, for the sampler to abort on
    pts = np.array([[0.5, -0.3], [1.0, 1.0], [-1.2, 0.8]])
    with np.errstate(all="raise"):  # no floating-point warning escapes
        grads = b.grad_log_density_batch(pts)
        curv = b.curvature_batch(pts)
    assert not np.any(np.isfinite(grads[1])) and not np.any(np.isfinite(curv[1]))
    assert np.all(np.isfinite(grads[[0, 2]])) and np.all(np.isfinite(curv[[0, 2]]))
    assert not np.all(np.isfinite(grad_log_density(b, np.array([1.0, 1.0]))))


def test_banana_gradient_and_hessian_match_finite_differences():
    b = DoubleBanana()
    rng = np.random.default_rng(5)
    for x in rng.uniform(-2.0, 2.0, size=(25, 2)):
        assert_fd_close(grad_log_density(b, x), fd_gradient(lambda v: log_density(b, v), x),
                        rel=2e-4, label="banana gradient")
        assert_fd_close(-b.curvature(x), fd_jacobian(lambda v: grad_log_density(b, v), x),
                        rel=2e-4, label="banana hessian")


def test_banana_sampler_is_deterministic():
    b = DoubleBanana()
    xs = b.reference_sample(200, seed=3)
    assert np.array_equal(xs, b.reference_sample(200, seed=3))
    assert np.all(np.abs(xs) <= 3.0)


# ------------------------------------------------------------- validation

@pytest.mark.parametrize("kind", ["gaussian", "star_mixture", "sine"])
def test_reference_samplers_reject_a_bad_seed_as_a_config_error(kind):
    model = make_target(kind)
    for seed, message in ((-1, "seed: must be >= 0, got -1"),
                          (1.5, "seed: must be an integer, got 1.5"),
                          (True, "seed: must be an integer, got True")):
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            model.reference_sample(3, seed)
    assert np.array_equal(model.reference_sample(3, 2.0), model.reference_sample(3, 2))


@pytest.mark.parametrize("model", [Gaussian(mean=np.zeros(2), cov=np.eye(2)),
                                   StarMixture(), Sine(), DoubleBanana()])
def test_models_reject_nonfinite_points_and_fisher_mode(model):
    with pytest.raises(InvalidInputError):
        log_density(model, np.array([np.nan, 0.0]))
    with pytest.raises(InvalidInputError):
        grad_log_density(model, np.array([np.inf, 0.0]))
    with pytest.raises(ConfigError):
        model.curvature(np.zeros(2), mode="fisher")
    with pytest.raises(ConfigError):
        model.curvature_batch(np.zeros((3, 2)), mode="fisher")
    for bad in (np.zeros(2), np.zeros((3, 3)), np.array([[0.0, np.nan]])):
        with pytest.raises(InvalidInputError):
            model.curvature_batch(bad)


over_curvature_models = pytest.mark.parametrize("model", [
    Gaussian(mean=np.zeros(3), cov=np.array([[2.0, 0.3, 0.0], [0.3, 1.0, 0.1], [0.0, 0.1, 0.5]])),
    StarMixture(), Sine(), DoubleBanana(),
    LogisticPosterior(synthetic_dataset(np.random.default_rng(12))),
    LogisticPosterior(synthetic_dataset(np.random.default_rng(13), minibatch_size=7)),
], ids=["gaussian", "star_mixture", "sine", "double_banana", "logistic", "logistic_minibatch"])


@over_curvature_models
def test_curvature_batch_stacks_single_point_curvatures(model):
    rng = np.random.default_rng(14)
    if hasattr(model, "resample_minibatch"):
        model.resample_minibatch(rng)
    mode = model.supported_curvature[0]
    for scale in (0.3, 1.0, 3.0):
        pts = scale * rng.standard_normal((9, model.dim))
        batch = model.curvature_batch(pts, mode=mode)
        assert batch.shape == (9, model.dim, model.dim)
        assert np.array_equal(batch, np.stack([model.curvature(x, mode=mode) for x in pts]))


@over_curvature_models
def test_mean_curvature_is_the_particle_mean_of_curvature_batch(model):
    rng = np.random.default_rng(15)
    if hasattr(model, "resample_minibatch"):
        model.resample_minibatch(rng)
    mode = model.supported_curvature[0]
    for scale in (0.3, 1.0, 3.0):
        pts = scale * rng.standard_normal((9, model.dim))
        mean = model.mean_curvature(pts, mode=mode)
        expected = model.curvature_batch(pts, mode=mode).mean(axis=0)
        assert mean.shape == (model.dim, model.dim)
        if isinstance(model, LogisticPosterior):
            # the weights are averaged before the one matrix product: round-off
            assert np.max(np.abs(mean - expected)) <= 1e-12 * np.max(np.abs(expected))
        else:
            assert np.array_equal(mean, expected)
    with pytest.raises(ConfigError):
        model.mean_curvature(pts, mode="unsupported")
    for bad in (np.zeros(model.dim), np.zeros((3, model.dim + 1)),
                np.full((2, model.dim), np.nan)):
        with pytest.raises(InvalidInputError):
            model.mean_curvature(bad, mode=mode)


# --------------------------------------------------------------- logistic

def test_logistic_dataset_validation():
    with pytest.raises(InvalidInputError):
        LogisticDataset(features=np.zeros((3, 2)), labels=np.array([0.0, 1.0, 2.0]))
    with pytest.raises(InvalidInputError):
        LogisticDataset(features=np.full((2, 2), np.nan), labels=np.array([0.0, 1.0]))
    with pytest.raises(InvalidInputError, match="shape"):
        LogisticDataset(features=np.zeros(2), labels=np.array([0.0, 1.0]))
    with pytest.raises(InvalidInputError, match="one per data row"):
        LogisticDataset(features=np.zeros((3, 2)), labels=np.array([0.0, 1.0]))
    for bad in (3, -1, 1.5, "1"):
        with pytest.raises(InvalidInputError, match="minibatch_size"):
            LogisticDataset(features=np.zeros((2, 2)), labels=np.array([0.0, 1.0]),
                            minibatch_size=bad)
    assert LogisticDataset(features=np.zeros((2, 2)), labels=np.array([0.0, 1.0]),
                           minibatch_size=2.0).minibatch_size == 2


def test_logistic_dataset_file_round_trip(tmp_path):
    rng = np.random.default_rng(6)
    data = synthetic_dataset(rng, n_per_class=5)
    path = tmp_path / "data.csv"
    rows = np.column_stack([data.features, data.labels])
    np.savetxt(path, rows, delimiter=",")
    loaded = LogisticDataset.from_file(path, minibatch_size=4)
    assert np.allclose(loaded.features, data.features)
    assert np.array_equal(loaded.labels, data.labels)
    assert loaded.minibatch_size == 4
    unparsable = tmp_path / "words.csv"
    unparsable.write_text("a,b,c\n")
    with pytest.raises(InvalidInputError, match="could not parse"):
        LogisticDataset.from_file(unparsable)
    one_column = tmp_path / "labels.csv"
    one_column.write_text("0\n1\n")
    with pytest.raises(InvalidInputError, match="label column"):
        LogisticDataset.from_file(one_column)
    # the delimiters np.loadtxt takes load; the others name the key
    spaced = tmp_path / "data.txt"
    np.savetxt(spaced, rows)
    for delimiter, source in ((None, spaced), (b",", path), (np.str_(","), path)):
        assert np.array_equal(LogisticDataset.from_file(source, delimiter).labels, data.labels)
    for bad in (5, ",,", "", "\n", "#", b";;", [","]):
        with pytest.raises(InvalidInputError, match="^delimiter: "):
            LogisticDataset.from_file(path, bad)


def test_logistic_gradient_at_zero_matches_closed_form():
    rng = np.random.default_rng(7)
    data = synthetic_dataset(rng)
    model = LogisticPosterior(data)
    theta = np.zeros(2)
    expected = (data.labels - 0.5) @ data.features  # prior gradient vanishes at 0
    assert np.allclose(grad_log_density(model, theta), expected, atol=1e-12)


def test_logistic_gradient_matches_finite_differences():
    rng = np.random.default_rng(8)
    model = LogisticPosterior(synthetic_dataset(rng))
    for theta in rng.standard_normal((25, 2)):
        assert_fd_close(grad_log_density(model, theta),
                        fd_gradient(lambda v: log_density(model, v), theta), label="logistic gradient")


def test_logistic_fisher_single_datapoint_closed_form():
    data = LogisticDataset(features=np.array([[1.0, 0.0]]), labels=np.array([1.0]))
    model = LogisticPosterior(data)
    expected = 0.25 * np.diag([1.0, 0.0]) + np.eye(2)
    assert np.allclose(model.curvature(np.zeros(2), mode="fisher"), expected, atol=1e-12)


def test_logistic_fisher_equals_full_batch_observed_information():
    # Bernoulli-logit observed information does not involve the labels, so the
    # full-batch Fisher equals the exact negative Hessian of the log posterior.
    rng = np.random.default_rng(9)
    model = LogisticPosterior(synthetic_dataset(rng))
    for theta in rng.standard_normal((10, 2)):
        fisher = model.curvature(theta, mode="fisher")
        hess = fd_jacobian(lambda v: grad_log_density(model, v), theta)
        assert_fd_close(fisher, -hess, label="logistic fisher")


def test_logistic_rejects_exact_hessian_mode():
    rng = np.random.default_rng(10)
    model = LogisticPosterior(synthetic_dataset(rng))
    with pytest.raises(ConfigError):
        model.curvature(np.zeros(2), mode="exact_hessian")
    with pytest.raises(ConfigError):
        model.curvature_batch(np.zeros((4, 2)), mode="exact_hessian")
    with pytest.raises(InvalidInputError):
        model.curvature_batch(np.zeros((4, 3)), mode="fisher")


def test_logistic_full_size_minibatch_equals_full_batch():
    rng = np.random.default_rng(11)
    data = synthetic_dataset(rng, n_per_class=5)
    full = LogisticPosterior(data)
    mini = LogisticPosterior(LogisticDataset(features=data.features, labels=data.labels,
                                             minibatch_size=data.n_rows))
    mini.resample_minibatch(np.random.default_rng(0))
    theta = np.array([0.4, -0.3])
    assert np.allclose(grad_log_density(mini, theta), grad_log_density(full, theta), atol=1e-12)


def test_logistic_minibatch_rescales_to_full_data_scale():
    # identical rows make every minibatch estimate exact: (N/|B|) * |B| = N copies
    feats = np.tile([[0.5, -1.0]], (8, 1))
    labels = np.ones(8)
    full = LogisticPosterior(LogisticDataset(features=feats, labels=labels))
    mini = LogisticPosterior(LogisticDataset(features=feats, labels=labels, minibatch_size=2))
    mini.resample_minibatch(np.random.default_rng(3))
    theta = np.array([0.2, 0.1])
    assert np.allclose(grad_log_density(mini, theta), grad_log_density(full, theta), atol=1e-12)
    assert np.allclose(mini.curvature(theta, mode="fisher"),
                       full.curvature(theta, mode="fisher"), atol=1e-12)


def test_logistic_minibatch_resampling_is_seed_deterministic():
    rng = np.random.default_rng(12)
    data = synthetic_dataset(rng, minibatch_size=6)
    theta = np.array([0.3, 0.7])
    grads = []
    for _ in range(2):
        model = LogisticPosterior(data)
        model.resample_minibatch(np.random.default_rng(99))
        grads.append(grad_log_density(model, theta))
    assert np.array_equal(grads[0], grads[1])


# ------------------------------------------------- quadrature and factory

def test_grid_moments_recover_gaussian_moments():
    mean = np.array([0.3, -0.2])
    cov = np.array([[0.5, 0.1], [0.1, 0.3]])
    g = Gaussian(mean=mean, cov=cov)
    m, c = grid_moments(g, bounds=(-3.0, 3.0), resolution=512)
    assert np.all(np.abs(m - mean) <= 1e-3)
    assert np.all(np.abs(c - cov) <= 1e-3)


def test_grid_moments_star_mean_vanishes():
    # the bounding box preserves the density's left-right mirror symmetry, so
    # the first coordinate integrates to zero; the second keeps a small bias
    # from arm mass truncated at the box edge (a few 1e-3)
    m, _ = grid_moments(StarMixture(), bounds=(-3.0, 3.0), resolution=512)
    assert abs(m[0]) <= 1e-3
    assert abs(m[1]) <= 1e-2


def test_grid_moments_validation():
    g = Gaussian(mean=np.zeros(2), cov=np.eye(2))
    with pytest.raises(InvalidInputError):
        grid_moments(g, bounds=(-3.0, 3.0), resolution=8)
    g3 = Gaussian(mean=np.zeros(3), cov=np.eye(3))
    with pytest.raises(InvalidInputError):
        grid_moments(g3, bounds=(-3.0, 3.0), resolution=64)
    with pytest.raises(InvalidInputError, match="lo < hi"):
        grid_moments(g, bounds=(3.0, -3.0), resolution=64)


def test_map_estimate_finds_gaussian_mean_in_one_newton_step():
    mean = np.array([0.8, -1.2])
    g = Gaussian(mean=mean, cov=np.array([[1.5, 0.4], [0.4, 0.8]]))
    assert np.allclose(map_estimate(g, np.array([3.0, -4.0])), mean, atol=1e-10)


def test_make_target_factory():
    g = make_target("gaussian", mean=[1.0, 2.0], cov=[[1.0, 0.0], [0.0, 1.0]])
    assert isinstance(g, Gaussian)
    assert isinstance(make_target("star_mixture"), StarMixture)
    with pytest.raises(ConfigError):
        make_target("banana")
    with pytest.raises(ConfigError):
        make_target("sine", wavelength=2.0)
    for kind, params in (("gaussian", {"mean": "x"}), ("star_mixture", {"components": "five"}),
                         ("star_mixture", {"components": 2.7}), ("sine", {"alpha": "fast"}),
                         ("sine", {"sigma1": "x"}), ("sine", {"sigma2": 0.0}),
                         ("double_banana", {"y_obs": "high"})):
        with pytest.raises(ConfigError, match=rf"^target\.{next(iter(params))}: "):
            make_target(kind, **params)
    with pytest.raises(ConfigError, match="^target: "):
        make_target("star_mixture", mu1=[0.0, 1.0, 2.0])
    with pytest.raises(ConfigError, match=r"^target\.mean: "):
        make_target("gaussian", cov=[[1.0, 0.0], [0.0, 1.0]])

