"""Acceptance gate: eight end-to-end criteria, one printed verdict line each.

Each test prints ``criterion N PASS/FAIL ...`` (bypassing capture) before
asserting, so a full run always shows the eight verdicts in order.
"""

import json
import time

import numpy as np
from scipy.stats import norm

from helpers import (
    assert_fd_close,
    brute_force_direction,
    change_of_variables_directions,
    fd_jacobian,
    grad_log_density,
    gram,
    grid_moments,
    log_density,
    map_estimate,
    mixture_weights,
    random_anchor_set,
    random_spd,
    strategies_for,
    weight_gradients,
)
from msvgd.dynamics import (
    METHODS,
    PrecondPolicy,
    StepperState,
    run,
    svn_direction,
    svn_metrics,
)
from msvgd.harness import parse_config, run_experiment
from msvgd.kernels import ScalarRBF, median_bandwidth
from msvgd.metrics import predictive_metrics
from msvgd.psdlin import make_bundle
from msvgd.targets import (
    DoubleBanana,
    Gaussian,
    LogisticDataset,
    LogisticPosterior,
    Sine,
    StarMixture,
)


def report(capsys, number, ok, detail, elapsed):
    verdict = "PASS" if ok else "FAIL"
    with capsys.disabled():
        print(f"criterion {number} {verdict} {detail} [{elapsed:.1f}s]")


def star_config(method, seed):
    return parse_config({
        "target": "star_mixture", "method": method, "n": 50, "iters": 30,
        "seed": seed, "checkpoints": [0, 30], "mmd_reference_n": 2000,
        "precond": {"floor_ratio": 0.05},
    })


def test_criterion_1_method_ordering_on_the_star_target(capsys):
    t0 = time.perf_counter()
    finals = {m: [] for m in ("matrix_svgd_mixture", "matrix_svgd_average", "vanilla_svgd", "svn")}
    for seed in range(10):
        for method in finals:
            record = run_experiment(star_config(method, seed), persist=False)
            finals[method].append(record.metric_rows[-1]["mmd"]["value"])
    med = {m: float(np.median(v)) for m, v in finals.items()}
    wins = sum(mx < vn for mx, vn in zip(finals["matrix_svgd_mixture"], finals["vanilla_svgd"]))
    elapsed = time.perf_counter() - t0
    ok = (med["matrix_svgd_mixture"] < med["matrix_svgd_average"] < med["vanilla_svgd"]
          and wins >= 8 and elapsed < 60.0)
    report(capsys, 1, ok,
           f"median mmd_sq mixture {med['matrix_svgd_mixture']:.4f} < "
           f"average {med['matrix_svgd_average']:.4f} < vanilla {med['vanilla_svgd']:.4f}; "
           f"mixture beats vanilla {wins}/10 seeds", elapsed)
    assert med["matrix_svgd_mixture"] < med["matrix_svgd_average"] < med["vanilla_svgd"]
    assert wins >= 8
    assert elapsed < 60.0


def test_criterion_2_preconditioned_kernel_equals_whitened_vanilla(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(20):
        d = int(rng.integers(2, 6))
        bundle = make_bundle(random_spd(rng, d))
        points = rng.standard_normal((int(rng.integers(5, 13)), d))
        bandwidth = 0.5 + 1.5 * rng.random()
        direct, mapped = change_of_variables_directions(bundle, points, bandwidth)
        worst = max(worst, float(np.max(np.abs(direct - mapped))))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and elapsed < 1.0
    report(capsys, 2, ok, f"20 random metric/particle draws, worst discrepancy {worst:.2e}",
           elapsed)
    assert worst <= 1e-10
    assert elapsed < 1.0


def test_criterion_3_block_gram_matrices_are_positive_semidefinite(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(3)
    worst_ratio = np.inf
    for kind_index in range(3):
        for _ in range(20):
            d = int(rng.integers(2, 6))
            n = int(rng.integers(2, 16))
            strat = strategies_for(rng, d)[kind_index]
            eig = np.linalg.eigvalsh(gram(strat, rng.standard_normal((n, d))))
            scale = max(1.0, eig[-1])
            worst_ratio = min(worst_ratio, eig[0] / scale)
    elapsed = time.perf_counter() - t0
    ok = worst_ratio >= -1e-8 and elapsed < 5.0
    report(capsys, 3, ok,
           f"60 gram matrices (20 per kernel kind), worst min-eig ratio {worst_ratio:.2e}",
           elapsed)
    assert worst_ratio >= -1e-8
    assert elapsed < 5.0


def test_criterion_4_divergences_and_derivatives_match_finite_differences(capsys):
    t0 = time.perf_counter()

    # closed-form kernel divergences, via the direction assembled against a
    # finite-difference divergence oracle (50 points per kernel kind)
    rng = np.random.default_rng(4)
    for kind_index in range(3):
        for _ in range(5):
            d = int(rng.integers(2, 4))
            strat = strategies_for(rng, d)[kind_index]
            pts = rng.standard_normal((10, d))
            grads = rng.standard_normal((10, d))
            assert_fd_close(strat.direction(pts, grads),
                            brute_force_direction(strat, pts, grads),
                            label=f"{strat.kind} divergence")

    # anchor weight gradients
    kernel = random_anchor_set(rng, 3, 2)
    pts = rng.standard_normal((50, 2))
    analytic = weight_gradients(kernel, pts)
    for i, x in enumerate(pts):
        fd = fd_jacobian(lambda v: mixture_weights(v, kernel), x)
        assert_fd_close(analytic[i], fd, label="weight gradients")

    # every target's gradient and curvature
    rng_data = np.random.default_rng(40)
    feats = np.vstack([rng_data.standard_normal((20, 2)) - 1.0,
                       rng_data.standard_normal((20, 2)) + 1.0])
    logistic = LogisticPosterior(LogisticDataset(features=feats,
                                                 labels=np.repeat([0.0, 1.0], 20)))
    models = [Gaussian(mean=np.zeros(2), cov=np.array([[1.3, 0.4], [0.4, 0.9]])),
              StarMixture(), Sine(), DoubleBanana(), logistic]
    for model in models:
        pts = rng.uniform(-2.0, 2.0, size=(50, 2))
        mode = model.supported_curvature[0]
        for x in pts:
            assert_fd_close(grad_log_density(model, x),
                            np.array([
                                (log_density(model, x + e) - log_density(model, x - e)) / 2e-5
                                for e in np.eye(2) * 1e-5]),
                            rel=2e-4, label=f"{model.kind} gradient")
            curv = model.curvature(x, mode=mode)
            fd_hess = fd_jacobian(lambda v: grad_log_density(model, v), x)
            assert_fd_close(curv, -fd_hess, rel=2e-4, label=f"{model.kind} curvature")

    elapsed = time.perf_counter() - t0
    ok = elapsed < 10.0
    report(capsys, 4, ok,
           "kernel divergences, anchor weight gradients, and five targets' "
           "gradients/curvatures agree with finite differences at 50+ points each",
           elapsed)
    assert elapsed < 10.0


def test_criterion_5_gaussian_moment_recovery_at_condition_number_100(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    basis, _ = np.linalg.qr(rng.standard_normal((2, 2)))
    cov = (basis * [1.0, 0.01]) @ basis.T
    model = Gaussian(mean=np.zeros(2), cov=cov)
    result = run(model, "matrix_svgd_average", n_particles=50, iterations=500,
                 checkpoints=[500], seed=0, stepper=StepperState(base_rate=0.5))
    final = result.snapshots[500]
    mean_err = float(np.max(np.abs(final.mean(axis=0))))
    emp_cov = np.cov(final, rowvar=False, bias=True)
    cov_err = float(np.linalg.norm(emp_cov - cov) / np.linalg.norm(cov))
    elapsed = time.perf_counter() - t0
    ok = mean_err <= 0.05 and cov_err <= 0.15 and elapsed < 30.0
    report(capsys, 5, ok,
           f"mean error {mean_err:.4f} (<= 0.05), covariance error {cov_err:.3f} "
           f"relative Frobenius (<= 0.15)", elapsed)
    assert mean_err <= 0.05
    assert cov_err <= 0.15
    assert elapsed < 30.0


def test_criterion_6_logistic_posterior_against_quadrature_oracle(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260815)
    feats = np.vstack([rng.standard_normal((100, 2)) - 1.0,
                       rng.standard_normal((100, 2)) + 1.0])
    labels = np.repeat([0.0, 1.0], 100)
    dataset = LogisticDataset(features=feats, labels=labels)
    model = LogisticPosterior(dataset)

    # quadrature oracle: integrate the posterior on a window of +-6 posterior
    # standard deviations (Laplace scale) around the MAP
    mode = map_estimate(model, np.zeros(2))
    laplace_cov = np.linalg.inv(model.curvature(mode, mode="fisher"))
    sigma = np.sqrt(np.diag(laplace_cov))
    bounds = [(mode[i] - 6.0 * sigma[i], mode[i] + 6.0 * sigma[i]) for i in range(2)]
    oracle_mean, _ = grid_moments(model, bounds=bounds, resolution=512)

    result = run(model, "matrix_svgd_average", n_particles=20, iterations=500,
                 checkpoints=[500], seed=0, policy=PrecondPolicy(source="fisher"),
                 stepper=StepperState(base_rate=0.2))
    final = result.snapshots[500]
    mean_err = float(np.max(np.abs(final.mean(axis=0) - oracle_mean)))

    accuracy, _ = predictive_metrics(final, dataset)
    # generator: unit Gaussians at -(1,1) and +(1,1); optimal rule errs at
    # rate Phi(-||mu1 - mu0|| / 2), so the Bayes accuracy is Phi(sqrt(2))
    bayes = float(norm.cdf(np.sqrt(2.0)))
    acc_err = abs(accuracy - bayes)
    elapsed = time.perf_counter() - t0
    ok = mean_err <= 0.1 and acc_err <= 0.02 and elapsed < 60.0
    report(capsys, 6, ok,
           f"posterior mean error {mean_err:.4f} (<= 0.1), accuracy {accuracy:.4f} vs "
           f"Bayes rate {bayes:.4f} (diff {acc_err:.4f} <= 0.02)", elapsed)
    assert mean_err <= 0.1
    assert acc_err <= 0.02
    assert elapsed < 60.0


def test_criterion_7_svn_shares_fixed_points_with_vanilla(capsys):
    t0 = time.perf_counter()
    model = Gaussian(mean=np.zeros(2), cov=np.array([[1.5, 0.4], [0.4, 0.8]]))
    # freeze the bandwidth at its initial value so converged particles are a
    # true fixed point of one fixed update map
    result = run(model, "vanilla_svgd", n_particles=5, iterations=8000,
                 checkpoints=[0, 8000], seed=0,
                 stepper=StepperState(method="fixed", base_rate=0.5),
                 policy=PrecondPolicy(refresh_period=10**9))
    assert result.converged_at is not None
    h = median_bandwidth(result.snapshots[0])
    final = result.snapshots[8000]
    grads = model.grad_log_density_batch(final)
    vanilla_norm = float(np.max(np.linalg.norm(ScalarRBF(h).direction(final, grads), axis=1)))
    mets = svn_metrics(final, model, h)
    svn_norm = float(np.max(np.linalg.norm(svn_direction(final, grads, mets, h), axis=1)))

    # single particle: SVN is an exact Newton step
    x = np.array([[1.1, -0.8]])
    newton = svn_direction(x, model.grad_log_density_batch(x),
                           svn_metrics(x, model, bandwidth=1.0), bandwidth=1.0)
    newton_err = float(np.max(np.abs(newton[0] + x[0])))

    elapsed = time.perf_counter() - t0
    ok = vanilla_norm < 1e-8 and svn_norm < 1e-6 and newton_err <= 1e-10
    report(capsys, 7, ok,
           f"converged vanilla direction {vanilla_norm:.2e} (< 1e-8) gives svn direction "
           f"{svn_norm:.2e} (< 1e-6); single-particle Newton error {newton_err:.2e}",
           elapsed)
    assert vanilla_norm < 1e-8
    assert svn_norm < 1e-6
    assert newton_err <= 1e-10


def test_criterion_8_runs_are_byte_deterministic(capsys, tmp_path):
    t0 = time.perf_counter()
    failures = []
    for target in ("gaussian", "star_mixture", "sine", "double_banana"):
        for method in METHODS:
            cfg = parse_config({
                "target": target, "method": method, "n": 20, "iters": 10,
                "seed": 3, "checkpoints": [0, 5, 10], "mmd_reference_n": 300,
                "precond": {"floor_ratio": 0.05},
                "out_dir": str(tmp_path / target / method),
            })
            run_experiment(cfg)
            out = tmp_path / target / method
            before = {p.name: p.read_bytes() for p in out.iterdir() if p.name != "timing.json"}
            run_experiment(cfg)
            for name, payload in before.items():
                if (out / name).read_bytes() != payload:
                    failures.append(f"{target}/{method}/{name}")
    elapsed = time.perf_counter() - t0
    ok = not failures
    report(capsys, 8, ok,
           "identical bytes for metrics.json and every particle snapshot across "
           "4 methods x 4 targets" if ok else f"mismatches: {failures}", elapsed)
    assert not failures
