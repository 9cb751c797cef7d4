import json
import re
import warnings

import numpy as np
import pytest
from scipy.special import expit, logsumexp
from scipy.stats import multivariate_normal

from helpers import (
    assert_fd_close,
    fd_gradient,
    fd_jacobian,
    fisher_stack,
    grad_log_density,
    grid_moments,
    log_density,
    map_estimate,
)
from msvgd import kernels
from msvgd import targets as targets_module
from msvgd.cli import main
from msvgd.dynamics import PrecondPolicy, run
from msvgd.errors import ConfigError, InvalidInputError
from msvgd.psdlin import symmetrize
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
    g = Gaussian(mean=np.zeros(2), cov=np.linalg.inv(q))
    x = np.array([0.8, -1.1])
    assert np.allclose(grad_log_density(g, x), -q @ x, atol=1e-12)
    # constant curvature equal to the precision, at any point
    assert np.allclose(g.curvature(x), q, atol=1e-12)
    assert np.allclose(g.curvature(np.array([5.0, 5.0])), q, atol=1e-12)


def test_gaussian_requires_exactly_one_parameterization():
    # the covariance is the one parameterization: required, and no precision
    with pytest.raises(TypeError):
        Gaussian(mean=[0.0, 0.0])
    with pytest.raises(TypeError):
        Gaussian(mean=[0.0, 0.0], cov=np.eye(2), precision=np.eye(2))
    with pytest.raises(InvalidInputError):
        Gaussian(mean=[0.0, 0.0, 0.0], cov=np.eye(2))
    with pytest.raises(InvalidInputError, match="^mean"):
        Gaussian(mean=[0.0, np.nan], cov=np.eye(2))
    with pytest.raises(InvalidInputError, match="^mean: must be a non-empty finite vector"):
        Gaussian(mean=[], cov=np.eye(1))


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
    # a diagonal covariance's Cholesky factor is its per-coordinate square
    # roots: the draws are mean + z * sqrt(diag(cov)) to the bit
    for cov in (np.eye(3), np.diag([100.0, 1.0]), np.diag(np.logspace(0, 2, 20)), 1e-14 * np.eye(2)):
        mean = np.linspace(-1.0, 1.0, len(cov))
        z = np.random.default_rng(4).standard_normal((50, len(cov)))
        assert np.array_equal(Gaussian(mean, cov).reference_sample(50, seed=4),
                              mean + z * np.sqrt(np.diag(cov)))


def test_gaussian_keeps_a_tiny_covariance_exactly():
    # no eigenvalue floor: the target is the matrix it was given; a covariance
    # near the largest float symmetrizes without overflow
    for cov in (1e-14 * np.eye(2), 1e14 * np.eye(2), 1e308 * np.eye(2)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            g = make_target("gaussian", mean=[0, 0], cov=cov)
        assert np.array_equal(g.cov, cov)
        assert np.allclose(g.precision @ g.cov, np.eye(2), rtol=0, atol=1e-12)
        assert np.allclose(g._chol @ g._chol.T, g.cov, rtol=1e-12, atol=0)


# ------------------------------------------------------------------- star

def test_star_keeps_a_thin_arm_exactly():
    star = StarMixture(sigma1=np.diag([1.0, 1e-13]))
    assert np.array_equal(star.covs[0], np.diag([1.0, 1e-13]))
    assert np.allclose(star.precisions[0], np.diag([1.0, 1e13]), rtol=1e-12, atol=0)
    # an inverse is good to about cond * eps = 1e13 * 2.2e-16 = 2e-3 in each entry
    for prec, cov, chol in zip(star.precisions, star.covs, star._chols):
        assert np.allclose(prec @ cov, np.eye(2), rtol=0, atol=1e-2)
        assert np.allclose(chol @ chol.T, cov, rtol=0, atol=1e-15)


def star_log_density_oracle(star, x):
    comps = [multivariate_normal(star.means[k], star.covs[k]).logpdf(x)
             for k in range(star.n_components)]
    return logsumexp(comps) - np.log(star.n_components)


def test_star_density_matches_direct_mixture_summation():
    star = StarMixture()
    rng = np.random.default_rng(1)
    for x in rng.uniform(-2.0, 2.0, size=(20, 2)):
        assert abs(log_density(star, x) - star_log_density_oracle(star, x)) <= 1e-10
    # far out every component's quadratic form overflows to inf, and the
    # density is -inf as in the oracle; where a form's cross terms overflow
    # to inf - inf it is NaN.  Neither raises a numpy warning.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        far = star.log_density_batch([[1e200, 0.0], [1e155, 1e155]])
    with np.errstate(over="ignore"):
        assert far[0] == star_log_density_oracle(star, [1e200, 0.0]) == -np.inf
    assert np.isnan(far[1])


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


def test_star_far_point_is_nan_in_score_and_curvature_without_warnings():
    # every component's quadratic form overflows at (1e200, 0): the log density
    # is -inf, and the score and curvature rows are NaN for a run to abort on,
    # with no numpy warning outside the run's errstate
    star = StarMixture()
    pts = np.array([[1e200, 0.0], [0.3, 0.1]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        logp = star.log_density_batch(pts)
        grads = star.grad_log_density_batch(pts)
        curv = star.curvature_batch(pts)
    assert logp[0] == -np.inf and np.all(np.isnan(grads[0])) and np.all(np.isnan(curv[0]))
    assert np.array_equal(grads[1], star.grad_log_density_batch(pts[1:])[0])
    assert np.array_equal(curv[1], star.curvature_batch(pts[1:])[0])


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


def test_gaussian_accepts_a_matrix_that_cholesky_factors():
    # eigenvalues (1, 1, 1e-16): Cholesky passes some rotations where eigh
    # rounds the least eigenvalue to <= 0; the target samples by that factor
    rng = np.random.default_rng(0)
    eigh_nonpositive = 0
    for _ in range(200):
        basis, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        matrix = (basis * [1.0, 1.0, 1e-16]) @ basis.T
        try:
            np.linalg.cholesky(symmetrize(matrix))
        except np.linalg.LinAlgError:
            with pytest.raises(InvalidInputError, match="^cov: must be positive definite"):
                Gaussian(np.zeros(3), matrix)
            continue
        g = Gaussian(np.zeros(3), matrix)
        eigh_nonpositive += np.linalg.eigvalsh(g.cov)[0] <= 0.0
        for value in (g._chol, g.precision, g.log_density_batch(np.zeros((1, 3))), g.reference_sample(5, 0)):
            assert np.all(np.isfinite(value))
    assert eigh_nonpositive > 0


def test_targets_reject_a_covariance_that_is_not_positive_definite():
    # the eigenvalue floor would repair these into another target in silence
    builds = ((lambda m: Gaussian(mean=[0.0, 0.0], cov=m), "cov"),
              (lambda m: StarMixture(sigma1=m), "sigma1"))
    for build, name in builds:
        for bad in ([[1.0, 2.0], [2.0, 1.0]], np.diag([1.0, -0.01]), np.diag([1.0, 0.0])):
            with pytest.raises(InvalidInputError, match=f"^{name}: must be positive definite"):
                build(bad)
    for kind, params, message in (
            ("gaussian", {"mean": [0, 0], "cov": [[1, 2], [2, 1]]},
             "target.cov: must be positive definite, got [[1.0, 2.0], [2.0, 1.0]]"),
            ("star_mixture", {"sigma1": [[1.0, 0.0], [0.0, -0.01]]},
             "target.sigma1: must be positive definite, got [[1.0, 0.0], [0.0, -0.01]]")):
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            make_target(kind, **params)
    # positive definite, but the inverse overflows: the matrix is named, and
    # no numpy warning is printed on the way
    tiny = [[1e-320, 0.0], [0.0, 1.0]]
    reason = re.escape(": its inverse or log determinant is not finite, got [[1e-320, 0.0], [0.0, 1.0]]")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for build, name in builds:
            with pytest.raises(InvalidInputError, match=f"^{name}{reason}$"):
                build(tiny)
        for kind, key in (("gaussian", "cov"), ("star_mixture", "sigma1")):
            params = {"mean": [0, 0], "cov": tiny} if key == "cov" else {"sigma1": tiny}
            with pytest.raises(ConfigError, match=f"^target.{key}{reason}$"):
                make_target(kind, **params)


def test_star_names_rotated_copies_that_round_out_of_positive_definiteness():
    # diag(1, 1e-17) is PD, but its rotations by 2 pi / 5 round to matrices
    # whose Cholesky factor fails; a sigma1 that is not PD is named as itself
    with pytest.raises(InvalidInputError, match=re.escape(
            "sigma1: positive definite, but its rotated copies round to matrices that are not, "
            "got [[1.0, 0.0], [0.0, 1e-17]]")):
        StarMixture(sigma1=np.diag([1.0, 1e-17]))
    with pytest.raises(InvalidInputError, match=re.escape(
            "sigma1: must be positive definite, got [[1.0, 0.0], [0.0, -1e-17]]")):
        StarMixture(sigma1=np.diag([1.0, -1e-17]))
    assert StarMixture(sigma1=np.diag([1.0, 1e-16])).covs.shape == (5, 2, 2)


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


@pytest.mark.parametrize("cls", [Sine, DoubleBanana])
def test_grid_sampler_draws_do_not_depend_on_the_chunk_budget(monkeypatch, cls):
    # the grid CDF is tabulated a block of kernels.CHUNK_BYTES at a time
    draws = cls().reference_sample(300, seed=2)
    monkeypatch.setattr(kernels, "CHUNK_BYTES", 8 * 4 * 1000 + 8)
    assert np.array_equal(cls().reference_sample(300, seed=2), draws)


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
    # the Fisher source is the logistic posterior's alone, and run checks it
    assert model.curvature_source == "exact_hessian"
    with pytest.raises(ConfigError, match=r"^source: must be one of \['exact_hessian'\], got 'fisher'$"):
        run(model, "svn", n_particles=3, iterations=1, policy=PrecondPolicy(source="fisher"))
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
    for scale in (0.3, 1.0, 3.0):
        pts = scale * rng.standard_normal((9, model.dim))
        batch = model.curvature_batch(pts)
        assert batch.shape == (9, model.dim, model.dim)
        singles = np.stack([model.curvature(x) for x in pts])
        if isinstance(model, LogisticPosterior):
            # one row of a multi-row GEMM is not bitwise the one-row GEMM
            expected = fisher_stack(model, pts)
            for stack in (batch, singles):
                assert np.max(np.abs(stack - expected)) <= 1e-12 * np.max(np.abs(expected))
        else:
            assert np.array_equal(batch, singles)
    for bad in (np.zeros(model.dim), np.zeros((3, model.dim + 1)),
                np.full((2, model.dim), np.nan)):
        with pytest.raises(InvalidInputError):
            model.curvature_batch(bad)


@over_curvature_models
def test_mean_curvature_is_the_particle_mean_of_curvature_batch(model):
    rng = np.random.default_rng(15)
    if hasattr(model, "resample_minibatch"):
        model.resample_minibatch(rng)
    for scale in (0.3, 1.0, 3.0):
        pts = scale * rng.standard_normal((9, model.dim))
        mean = model.mean_curvature(pts)
        expected = model.curvature_batch(pts).mean(axis=0)
        assert mean.shape == (model.dim, model.dim)
        if isinstance(model, LogisticPosterior):
            # the weights are averaged before the one matrix product: round-off
            assert np.max(np.abs(mean - expected)) <= 1e-12 * np.max(np.abs(expected))
        else:
            assert np.array_equal(mean, expected)
    for bad in (np.zeros(model.dim), np.zeros((3, model.dim + 1)),
                np.full((2, model.dim), np.nan)):
        with pytest.raises(InvalidInputError):
            model.mean_curvature(bad)


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
    with pytest.raises(InvalidInputError, match="^labels: could not convert"):
        LogisticDataset(features=np.zeros((2, 2)), labels=["a", "b"])
    for bad in (3, -1, 1.5, "1"):
        with pytest.raises(InvalidInputError, match="minibatch_size"):
            LogisticDataset(features=np.zeros((2, 2)), labels=np.array([0.0, 1.0]),
                            minibatch_size=bad)
    assert LogisticDataset(features=np.zeros((2, 2)), labels=np.array([0.0, 1.0]),
                           minibatch_size=2.0).minibatch_size == 2


def test_logistic_dataset_file_round_trip(tmp_path, capsys):
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
    # a fault in the file's contents names the file, a bad row its 1-based
    # place among the parsed rows, and numpy's warning on an empty file is not shown
    for name, text, reason in (("labels.csv", "0\n1\n", "dataset needs at least one feature column"),
                               ("empty.csv", "", "no data rows"),
                               ("nan.csv", "0.5,1\nnan,1\n", "row 2: features must be finite, got [nan, 1.0]"),
                               ("label2.csv", "0.5,0\n0.5,2\n", "row 2: label must be 0 or 1, got [0.5, 2.0]")):
        bad = tmp_path / name
        bad.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidInputError, match=f"^data_path: {re.escape(str(bad))}: {re.escape(reason)}"):
                LogisticDataset.from_file(bad)
        if reason.startswith("row"):
            config = tmp_path / f"{name}.json"
            config.write_text(json.dumps({"target": {"kind": "logistic_posterior", "data_path": str(bad)},
                                          "method": "svn", "n": 5, "iters": 1}))
            assert main(["run", str(config), "--quiet"]) == 2
            assert capsys.readouterr().err == f"config: target.data_path: {bad}: {reason}\n"
    # the delimiters np.loadtxt takes load; the others name the key
    spaced = tmp_path / "data.txt"
    np.savetxt(spaced, rows)
    for delimiter, source in ((None, spaced), (b",", path), (np.str_(","), path)):
        assert np.array_equal(LogisticDataset.from_file(source, delimiter).labels, data.labels)
    for bad in (5, ",,", "", "\n", "#", b";;", [","]):
        with pytest.raises(InvalidInputError, match="^delimiter: "):
            LogisticDataset.from_file(path, bad)


def test_logistic_dataset_file_is_parsed_once_until_its_bytes_change(tmp_path, monkeypatch):
    parses = []
    loadtxt = np.loadtxt
    monkeypatch.setattr(np, "loadtxt", lambda *a, **k: parses.append(a[0]) or loadtxt(*a, **k))
    path = tmp_path / "data.csv"
    path.write_text("0.25,1\n0.5,0\n")
    first = LogisticDataset.from_file(path)
    again = LogisticDataset.from_file(tmp_path / "." / "data.csv")
    assert len(parses) == 1
    assert np.array_equal(again.features, first.features) and np.array_equal(again.labels, first.labels)
    assert not targets_module._PARSED[next(iter(targets_module._PARSED))].flags.writeable
    # a rewrite of the same size, whatever its mtime, is parsed anew
    path.write_text("0.75,0\n0.5,1\n")
    rewritten = LogisticDataset.from_file(path)
    assert len(parses) == 2
    assert np.array_equal(rewritten.features, [[0.75], [0.5]])
    assert np.array_equal(rewritten.labels, [0.0, 1.0])
    assert np.array_equal(LogisticDataset.from_file(path).labels, [0.0, 1.0])
    assert len(parses) == 2
    # a file that fails its checks raises on every read, and is not kept
    path.write_text("0.5,0\n0.5,2\n")
    for _ in range(2):
        with pytest.raises(InvalidInputError,
                           match=f"^data_path: {re.escape(str(path))}: row 2: label must be 0 or 1"):
            LogisticDataset.from_file(path)
    assert len(parses) == 4
    # the parse reads the bytes that were hashed, though the file changes meanwhile
    path.write_text("0.25,1\n0.5,0\n")

    def racing_loadtxt(*args, **kwargs):
        path.write_text("0.75,0\n0.5,1\n")
        return loadtxt(*args, **kwargs)

    monkeypatch.setattr(np, "loadtxt", racing_loadtxt)
    assert np.array_equal(LogisticDataset.from_file(path).labels, [1.0, 0.0])


def test_logistic_dataset_keeps_read_only_copies_of_its_arrays():
    features, labels = np.eye(2), np.array([0.0, 1.0])
    data = LogisticDataset(features=features, labels=labels)
    labels[0] = 7.0
    features[0, 0] = np.nan
    assert np.array_equal(data.labels, [0.0, 1.0]) and np.array_equal(data.features, np.eye(2))
    assert np.array_equal(LogisticPosterior(data).grad_log_density_batch(np.zeros((1, 2))), [[-0.5, 0.5]])
    for value in (data.features, data.labels):
        with pytest.raises(ValueError, match="read-only"):
            value[0] = 0.0


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
    assert np.allclose(model.curvature(np.zeros(2)), expected, atol=1e-12)


def test_logistic_fisher_equals_full_batch_observed_information():
    # Bernoulli-logit observed information does not involve the labels, so the
    # full-batch Fisher equals the exact negative Hessian of the log posterior.
    rng = np.random.default_rng(9)
    model = LogisticPosterior(synthetic_dataset(rng))
    for theta in rng.standard_normal((10, 2)):
        fisher = model.curvature(theta)
        hess = fd_jacobian(lambda v: grad_log_density(model, v), theta)
        assert_fd_close(fisher, -hess, label="logistic fisher")


@pytest.mark.parametrize("minibatch_size", [0, 300], ids=["full_batch", "minibatch"])
def test_logistic_fisher_stack_matches_the_per_particle_oracle(monkeypatch, minibatch_size):
    rng = np.random.default_rng(16)
    d, n_rows = 20, 1000
    feats = rng.standard_normal((n_rows, d))
    labels = (rng.random(n_rows) < expit(feats @ rng.standard_normal(d))).astype(float)
    model = LogisticPosterior(LogisticDataset(features=feats, labels=labels,
                                              minibatch_size=minibatch_size))
    model.resample_minibatch(rng)
    pts = [scale * rng.standard_normal((40, d)) for scale in (0.03, 0.3, 3.0)]
    blocks = []

    def counted_chunks(count, floats):
        chunks = kernels._chunks(count, floats)
        blocks.append(len(chunks))
        return chunks

    monkeypatch.setattr(targets_module, "_chunks", counted_chunks)
    for chunk_bytes in (kernels.CHUNK_BYTES, 8 * d * (d + 1) * 16):
        # the small budget holds 16 rows of a block's temporaries: >= 8 blocks
        monkeypatch.setattr(kernels, "CHUNK_BYTES", chunk_bytes)
        for x in pts:
            stack = model.curvature_batch(x)
            expected = fisher_stack(model, x)
            assert np.array_equal(stack, stack.transpose(0, 2, 1))
            assert np.max(np.abs(stack - expected)) <= 1e-12 * np.max(np.abs(expected))
    assert min(blocks[len(pts):]) >= 8


def test_sigmoid_matches_expit_without_warnings():
    z = np.concatenate([np.linspace(-800.0, 800.0, 160_001), [np.inf, -np.inf, np.nan]])
    expected = expit(z)
    buffer = z.copy()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = targets_module._sigmoid(buffer)
    assert got is buffer  # formed in place
    resolved = expected >= 1e-300
    assert np.all(np.abs(got[resolved] - expected[resolved]) <= 1e-15 * expected[resolved])
    assert got[0] == 0.0 and got[-4] == 1.0  # z = -800 and 800
    assert got[-3] == 1.0 and got[-2] == 0.0 and np.isnan(got[-1])
    assert np.all((got >= 0.0) & (got <= 1.0) | np.isnan(got))


@pytest.mark.parametrize("minibatch_size", [0, 300], ids=["full_batch", "minibatch"])
def test_logistic_score_equals_the_residual_form(minibatch_size):
    rng = np.random.default_rng(17)
    d, n_rows = 20, 1000
    feats = rng.standard_normal((n_rows, d))
    labels = (rng.random(n_rows) < expit(feats @ rng.standard_normal(d))).astype(float)
    model = LogisticPosterior(LogisticDataset(features=feats, labels=labels,
                                              minibatch_size=minibatch_size))
    model.resample_minibatch(rng)
    rows = np.arange(n_rows) if model._batch_idx is None else model._batch_idx
    assert len(rows) == (minibatch_size or n_rows)
    scale = n_rows / len(rows)
    for spread in (0.03, 0.3, 3.0):
        x = spread * rng.standard_normal((40, d))
        residual = labels[rows] - expit(x @ feats[rows].T)
        expected = scale * residual @ feats[rows] - x
        got = model.grad_log_density_batch(x)
        assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))


def test_logistic_full_size_minibatch_equals_full_batch():
    rng = np.random.default_rng(11)
    data = synthetic_dataset(rng, n_per_class=5)
    full = LogisticPosterior(data)
    mini = LogisticPosterior(LogisticDataset(features=data.features, labels=data.labels,
                                             minibatch_size=len(data.features)))
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
    assert np.allclose(mini.curvature(theta),
                       full.curvature(theta), atol=1e-12)


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


def test_logistic_logits_are_reused_only_at_equal_points_and_batch(monkeypatch):
    rng = np.random.default_rng(13)
    data = synthetic_dataset(rng, minibatch_size=6)
    calls = []

    sigmoid = targets_module._sigmoid

    def counted_sigmoid(z):
        calls.append(z.shape)
        return sigmoid(z)

    def fresh(points, batch_idx):
        model = LogisticPosterior(data)
        model._batch_idx = batch_idx
        return model.grad_log_density_batch(points), model.curvature_batch(points)

    model = LogisticPosterior(data)
    model.resample_minibatch(rng)
    x = rng.standard_normal((5, 2))
    expected = fresh(x, model._batch_idx)
    monkeypatch.setattr(targets_module, "_sigmoid", counted_sigmoid)
    # a refresh's curvature and the score at the same particles: one logit pass
    curvature = model.curvature_batch(x)
    grads = model.grad_log_density_batch(x.copy())
    assert len(calls) == 1
    assert np.array_equal(grads, expected[0]) and np.array_equal(curvature, expected[1])
    # moved particles and a new minibatch each form the logits again
    x[0, 0] += 1e-12
    model.grad_log_density_batch(x)
    assert len(calls) == 2
    model._batch_idx = model._batch_idx.copy()
    model.grad_log_density_batch(x)
    assert len(calls) == 3
    model.resample_minibatch(rng)
    grads = model.grad_log_density_batch(x)
    curvature = model.curvature_batch(x)
    assert len(calls) == 4
    monkeypatch.setattr(targets_module, "_sigmoid", sigmoid)
    expected = fresh(x, model._batch_idx)
    assert np.array_equal(grads, expected[0]) and np.array_equal(curvature, expected[1])


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

