import numpy as np
import pytest

from helpers import change_of_variables_directions, fd_jacobian, grad_log_density, random_spd
from msvgd.dynamics import (
    METHODS,
    PrecondPolicy,
    StepperState,
    adagrad_step,
    averaged_preconditioner,
    refresh_anchors,
    run,
    svn_direction,
    svn_metrics,
)
from msvgd.errors import ConfigError, InvalidInputError, NumericalAbort
from msvgd.harness import METHOD_DEFAULT_RATES
from msvgd.kernels import ScalarRBF, median_bandwidth
from msvgd.metrics import mmd_sq
from msvgd.psdlin import identity_bundle, make_bundle, psd_repair
from msvgd.targets import DoubleBanana, Gaussian, Sine, StarMixture, TargetModel


def gaussian_target(cov=((1.0, 0.0), (0.0, 1.0))):
    return Gaussian(mean=np.zeros(2), cov=np.asarray(cov))


# ----------------------------------------------------------------- stepper

def test_adagrad_first_step_hand_evaluation():
    state = StepperState(method="adagrad", base_rate=0.1, damping=1e-6)
    pos = np.zeros((1, 2))
    new, state2 = adagrad_step(state, pos, np.array([[2.0, 0.0]]))
    assert new[0, 0] == pytest.approx(0.1 * 2.0 / (2.0 + 1e-6), abs=1e-15)
    assert new[0, 1] == 0.0
    assert np.array_equal(state2.accumulators, [[4.0, 0.0]])


def test_adagrad_zero_direction_changes_nothing():
    state = StepperState(base_rate=0.3)
    pos = np.array([[1.0, -2.0]])
    new, state2 = adagrad_step(state, pos, np.zeros((1, 2)))
    assert np.array_equal(new, pos)
    assert np.array_equal(state2.accumulators, np.zeros((1, 2)))


def test_fixed_step_is_rate_times_direction():
    state = StepperState(method="fixed", base_rate=0.5)
    new, state2 = adagrad_step(state, np.zeros((1, 2)), np.array([[1.0, 0.0]]))
    assert np.array_equal(new, [[0.5, 0.0]])
    assert state2 is state


def test_adagrad_accumulators_grow_monotonically():
    state = StepperState(base_rate=0.2)
    pos = np.zeros((3, 2))
    rng = np.random.default_rng(0)
    pos, state = adagrad_step(state, pos, rng.standard_normal((3, 2)))
    first = state.accumulators.copy()
    pos, state = adagrad_step(state, pos, rng.standard_normal((3, 2)))
    assert np.all(state.accumulators >= first)


def test_step_rejects_bad_directions():
    state = StepperState()
    with pytest.raises(NumericalAbort) as exc:
        adagrad_step(state, np.zeros((3, 2)), np.array([[0.0, 0.0], [np.nan, 0.0], [0.0, np.inf]]))
    assert (exc.value.phase, exc.value.particle) == ("direction", 1)
    with pytest.raises(InvalidInputError):
        adagrad_step(state, np.zeros((1, 2)), np.zeros((2, 2)))
    # a finite direction whose square overflows would freeze its coordinate
    with pytest.raises(NumericalAbort) as exc, np.errstate(over="ignore"):
        adagrad_step(StepperState(base_rate=0.1), np.zeros((1, 2)), np.array([[1e200, 1.0]]))
    assert (exc.value.phase, exc.value.particle) == ("step", 0)


def test_stepper_and_policy_validation():
    with pytest.raises(ConfigError):
        StepperState(method="momentum")
    with pytest.raises(ConfigError):
        StepperState(base_rate=0.0)
    with pytest.raises(ConfigError):
        StepperState(damping=0.0)
    with pytest.raises(ConfigError):
        PrecondPolicy(source="kfac")
    with pytest.raises(ConfigError):
        PrecondPolicy(refresh_period=0)
    # a non-integral period is rejected, not truncated
    for refresh_period in (2.5, True, "2"):
        with pytest.raises(ConfigError, match="^refresh_period: must be an integer"):
            PrecondPolicy(refresh_period=refresh_period)
    for floor_ratio in (0.0, 1.5):
        with pytest.raises(ConfigError, match="^floor_ratio"):
            PrecondPolicy(floor_ratio=floor_ratio)


# ---------------------------------------------------------- preconditioners

def test_averaged_preconditioner_recovers_constant_curvature():
    q = np.array([[2.0, 0.4], [0.4, 1.1]])
    model = Gaussian(mean=np.zeros(2), precision=q)
    rng = np.random.default_rng(1)
    bundle = averaged_preconditioner(rng.standard_normal((12, 2)), model)
    assert np.allclose(bundle.q, q, atol=1e-12)


def test_averaged_preconditioner_matches_finite_difference_hessians():
    model = Sine()
    rng = np.random.default_rng(2)
    pts = rng.uniform(-1.5, 1.5, size=(10, 2))
    bundle = averaged_preconditioner(pts, model)
    fd_mean = -np.mean([fd_jacobian(lambda v: grad_log_density(model, v), x) for x in pts], axis=0)
    repaired = psd_repair(0.5 * (fd_mean + fd_mean.T))
    assert np.allclose(bundle.q, repaired, rtol=1e-4, atol=1e-4)


def test_refresh_anchors_places_anchors_at_particles():
    q = np.array([[1.5, 0.2], [0.2, 0.7]])
    model = Gaussian(mean=np.zeros(2), precision=q)
    rng = np.random.default_rng(3)
    pts = rng.standard_normal((5, 2))
    anchors = refresh_anchors(pts, model)
    assert np.array_equal(anchors.points, pts)
    for q_l in anchors.bundle.q:
        assert np.allclose(q_l, q, atol=1e-12)
    assert np.all(anchors.bandwidths > 0.0)


def test_refresh_anchors_is_deterministic_for_duplicated_particles():
    model = StarMixture()
    x = np.array([0.3, 1.2])
    anchors = refresh_anchors(np.stack([x, x, x]), model)
    for q_l in anchors.bundle.q[1:]:
        assert np.array_equal(q_l, anchors.bundle.q[0])


def test_refresh_anchors_repairs_indefinite_star_curvature():
    model = StarMixture()
    rng = np.random.default_rng(4)
    anchors = refresh_anchors(rng.uniform(-2.0, 2.0, size=(5, 2)), model,
                              PrecondPolicy(floor_ratio=1e-6))
    for q_l in anchors.bundle.q:
        eig = np.linalg.eigvalsh(q_l)
        assert eig[0] >= 1e-6 * max(1.0, eig[-1]) * (1.0 - 1e-9)


# --------------------------------------------------------------------- svn

def test_svn_metric_single_particle_is_local_curvature():
    q = np.array([[2.0, 0.3], [0.3, 1.4]])
    model = Gaussian(mean=np.zeros(2), precision=q)
    mets = svn_metrics(np.array([[0.7, -0.5]]), model, bandwidth=1.0)
    assert np.allclose(mets[0], q, atol=1e-12)


def test_svn_metric_coincident_particles_reduce_to_local_curvature():
    q = np.array([[1.8, 0.0], [0.0, 0.6]])
    model = Gaussian(mean=np.zeros(2), precision=q)
    x = np.array([0.4, 0.9])
    mets = svn_metrics(np.stack([x, x]), model, bandwidth=0.7)
    for m in mets:
        assert np.allclose(m, q, atol=1e-12)


@pytest.mark.parametrize("model", [gaussian_target(((1.3, 0.4), (0.4, 0.9))), StarMixture()])
def test_svn_metrics_match_brute_force_double_loop(model):
    rng = np.random.default_rng(5)
    pts = rng.standard_normal((3, 2))
    h = 0.9
    n = 3
    expected = []
    for i in range(n):
        acc = np.zeros((2, 2))
        for j in range(n):
            diff = pts[j] - pts[i]
            k = np.exp(-float(diff @ diff) / (2.0 * h))
            g = k * diff / h
            acc += model.curvature(pts[j]) * k * k + np.outer(g, g)
        expected.append(psd_repair(acc / n))
    assert np.allclose(svn_metrics(pts, model, bandwidth=h), np.stack(expected), atol=1e-10)


def test_single_particle_svn_is_exact_newton():
    q0 = np.array([[3.0, 0.5], [0.5, 1.2]])
    model = Gaussian(mean=np.zeros(2), precision=q0)
    x = np.array([[1.1, -0.8]])
    grads = model.grad_log_density_batch(x)
    mets = svn_metrics(x, model, bandwidth=1.0)
    direction = svn_direction(x, grads, mets, bandwidth=1.0)
    assert np.allclose(direction[0], -x[0], atol=1e-10)
    stepped, _ = adagrad_step(StepperState(method="fixed", base_rate=1.0), x, direction)
    assert np.allclose(stepped, 0.0, atol=1e-10)


def test_svn_particle_at_mode_is_a_fixed_point():
    model = gaussian_target()
    x = np.zeros((1, 2))
    direction = svn_direction(x, model.grad_log_density_batch(x), svn_metrics(x, model, 1.0), 1.0)
    stepped, _ = adagrad_step(StepperState(method="fixed", base_rate=0.5), x, direction)
    assert np.array_equal(stepped, x)


def test_svn_direction_is_equivariant_under_permutation():
    model = StarMixture()
    rng = np.random.default_rng(6)
    pts = rng.standard_normal((7, 2))
    grads = model.grad_log_density_batch(pts)
    h = median_bandwidth(pts)
    mets = svn_metrics(pts, model, h)
    phi = svn_direction(pts, grads, mets, h)
    perm = rng.permutation(7)
    mets_p = svn_metrics(pts[perm], model, h)
    phi_p = svn_direction(pts[perm], grads[perm], mets_p, h)
    assert np.allclose(phi_p, phi[perm], atol=1e-12)


# --------------------------------------------------------------------- run

def test_run_validates_configuration_before_iterating():
    model = gaussian_target()
    with pytest.raises(ConfigError):
        run(model, "pSGLD", n_particles=4, iterations=1)
    with pytest.raises(ConfigError):
        run(model, "vanilla_svgd", n_particles=0, iterations=1)
    with pytest.raises(ConfigError):
        run(model, "vanilla_svgd", n_particles=4, iterations=-1)
    # a checkpoint is named by its index
    with pytest.raises(ConfigError, match=r"^checkpoints\[1\]: must be <= 5 \(the iteration count\), got 6$"):
        run(model, "vanilla_svgd", n_particles=4, iterations=5, checkpoints=[0, 6])
    with pytest.raises(ConfigError, match=r"^checkpoints\[0\]: must be >= 0, got -1$"):
        run(model, "vanilla_svgd", n_particles=4, iterations=5, checkpoints=[-1])
    with pytest.raises(ConfigError):
        # gaussian curvature cannot come from a fisher matrix
        run(model, "matrix_svgd_average", n_particles=4, iterations=1,
            policy=PrecondPolicy(source="fisher"))
    # non-integral counts are rejected, not truncated
    for kwargs, name in ((dict(n_particles=3.9, iterations=5), "n_particles"),
                         (dict(n_particles=4, iterations=2.5), "iterations"),
                         (dict(n_particles=4, iterations=5, checkpoints=[2.7]), r"checkpoints\[0\]")):
        with pytest.raises(ConfigError, match=f"^{name}: must be an integer"):
            run(model, "vanilla_svgd", **kwargs)
    with pytest.raises(ConfigError, match=r"^init_mean: .* 2 numbers .* length 3$"):
        run(model, "vanilla_svgd", n_particles=4, iterations=1, init_mean=[0.0, 0.0, 0.0])
    # the init and seed rules of harness.parse_config
    for kwargs, name in ((dict(init_scale=np.nan), "init_scale"), (dict(init_scale=-1.0), "init_scale"),
                         (dict(init_scale=np.inf), "init_scale"), (dict(init_mean=np.inf), "init_mean"),
                         (dict(init_mean=[0.0, np.nan]), "init_mean"), (dict(seed=-1), "seed"),
                         (dict(seed=1.5), "seed")):
        with pytest.raises(ConfigError, match=f"^{name}: "):
            run(model, "vanilla_svgd", n_particles=4, iterations=1, **kwargs)


def test_run_zero_iterations_returns_the_seeded_initial_draw():
    model = gaussian_target()
    res = run(model, "vanilla_svgd", n_particles=7, iterations=0, checkpoints=[0],
              seed=5, init_mean=0.0, init_scale=1.0)
    expected = 0.0 + 1.0 * np.random.default_rng([5, 0]).standard_normal((7, 2))
    assert np.array_equal(res.snapshots[0], expected)
    assert res.iterations_run == 0


def test_run_records_each_requested_checkpoint():
    model = gaussian_target()
    res = run(model, "matrix_svgd_average", n_particles=6, iterations=5,
              checkpoints=[0, 2, 5], seed=1)
    assert sorted(res.snapshots) == [0, 2, 5]
    assert all(s.shape == (6, 2) for s in res.snapshots.values())
    assert res.iterations_run == 5
    assert len(res.step_seconds) == 5


@pytest.mark.parametrize("method", METHODS)
def test_run_is_deterministic_per_seed(method):
    model = StarMixture()
    kwargs = dict(n_particles=10, iterations=5, checkpoints=[0, 5], seed=3,
                  policy=PrecondPolicy(floor_ratio=0.05))
    a = run(model, method, **kwargs)
    b = run(model, method, **kwargs)
    for c in a.snapshots:
        assert np.array_equal(a.snapshots[c], b.snapshots[c])


def test_run_converged_fills_remaining_checkpoints():
    # one particle on an isotropic Gaussian contracts geometrically, so the
    # direction norm crosses the 1e-8 threshold long before the budget
    model = gaussian_target()
    res = run(model, "vanilla_svgd", n_particles=1, iterations=200,
              checkpoints=[0, 100, 200], seed=2,
              stepper=StepperState(method="fixed", base_rate=0.5))
    assert res.converged_at is not None
    assert res.converged_at < 100
    assert res.iterations_run == res.converged_at
    assert np.array_equal(res.snapshots[100], res.snapshots[200])
    assert np.linalg.norm(res.snapshots[200]) <= 1e-7


def test_run_aborts_with_iteration_index_on_blowup():
    model = DoubleBanana()
    with pytest.raises(NumericalAbort) as exc:
        run(model, "vanilla_svgd", n_particles=8, iterations=300, seed=1,
            init_mean=30.0, init_scale=0.1,
            stepper=StepperState(method="fixed", base_rate=500.0))
    assert exc.value.iteration is not None
    assert str(exc.value).startswith("iteration")
    assert (exc.value.phase, exc.value.particle) == ("score", 0)
    # non-finite curvature during the preconditioner refresh names the particle
    with pytest.raises(NumericalAbort) as exc, np.errstate(over="ignore"):
        run(StarMixture(), "matrix_svgd_average", n_particles=10, iterations=3, init_mean=1e160)
    assert exc.value.iteration == 0
    assert "refresh: curvature of particle 0" in str(exc.value)
    assert (exc.value.phase, exc.value.particle) == ("refresh", 0)
    # a finite direction times a huge fixed rate overflows in the step
    with pytest.raises(NumericalAbort) as exc, np.errstate(over="ignore"):
        run(Gaussian(np.zeros(2), precision=1e10 * np.eye(2)), "vanilla_svgd", n_particles=3,
            iterations=5, stepper=StepperState(method="fixed", base_rate=1e300))
    assert str(exc.value) == "iteration 0: particles left the finite domain"
    assert (exc.value.iteration, exc.value.phase, exc.value.particle) == (0, "step", 0)
    # a score near 1e160 overflows the Adagrad accumulator in the first step
    with pytest.raises(NumericalAbort) as exc, np.errstate(over="ignore"):
        run(Gaussian([1e160, 0.0], cov=np.eye(2)), "vanilla_svgd", n_particles=4, iterations=5)
    assert str(exc.value) == "iteration 0: Adagrad accumulator has non-finite entries"
    assert (exc.value.iteration, exc.value.phase, exc.value.particle) == (0, "step", 0)


def test_run_aborts_in_the_direction_phase_with_the_iteration():
    # every score is finite, but three of them summed in the Stein direction overflow
    class HugeScore(TargetModel):
        kind = "huge_score"
        dim = 2

        def grad_log_density_batch(self, points):
            return np.full(np.shape(points), 1e308)

    with pytest.raises(NumericalAbort) as exc, np.errstate(over="ignore", invalid="ignore"):
        run(HugeScore(), "vanilla_svgd", n_particles=3, iterations=2, init_scale=1e-3)
    assert str(exc.value) == "iteration 0: update direction has non-finite entries"
    assert (exc.value.iteration, exc.value.phase, exc.value.particle) == (0, "direction", 0)


def test_refresh_overflow_from_finite_curvature_aborts_with_the_iteration():
    # the curvature 1e307 I is finite, but averaging 50 copies of it overflows
    model = Gaussian(np.zeros(2), precision=1e307 * np.eye(2))
    with pytest.raises(NumericalAbort) as exc, np.errstate(over="ignore"):
        run(model, "matrix_svgd_average", n_particles=50, iterations=2)
    assert exc.value.iteration == 0
    assert "refresh: averaged curvature has non-finite entries" in str(exc.value)
    assert (exc.value.phase, exc.value.particle) == ("refresh", None)
    # each anchor's metric is finite, but its median-trick distances overflow
    model = Gaussian(np.zeros(2), precision=1e306 * np.eye(2))
    with pytest.raises(NumericalAbort) as exc, np.errstate(over="ignore", invalid="ignore"):
        run(model, "matrix_svgd_mixture", n_particles=5, iterations=2, init_scale=10.0)
    assert exc.value.iteration == 0
    assert "refresh: bandwidth of anchor 0 has non-finite entries" in str(exc.value)
    assert (exc.value.phase, exc.value.particle) == ("refresh", 0)
    # the scalar median-trick bandwidth of a far-flung start overflows
    with pytest.raises(NumericalAbort) as exc, np.errstate(over="ignore", invalid="ignore"):
        run(StarMixture(), "vanilla_svgd", n_particles=5, iterations=2, init_scale=1e200)
    assert str(exc.value) == "iteration 0: refresh: bandwidth has non-finite entries"
    assert (exc.value.iteration, exc.value.phase, exc.value.particle) == (0, "refresh", None)


@pytest.mark.parametrize("method", METHODS)
def test_mean_log_density_rises_from_a_displaced_start(method):
    # with a small fixed step the flow behaves like noiseless gradient ascent
    # on the energy until the cluster reaches the mode
    model = gaussian_target()
    res = run(model, method, n_particles=30, iterations=20,
              checkpoints=list(range(21)), seed=0, init_mean=2.0, init_scale=0.3,
              stepper=StepperState(method="fixed", base_rate=1e-3))
    energies = [model.log_density_batch(res.snapshots[c]).mean() for c in range(21)]
    assert np.all(np.diff(energies) >= 0.0)


def test_mmd_to_reference_decreases_for_every_method():
    model = gaussian_target(((1.5, 0.4), (0.4, 0.8)))
    reference = model.reference_sample(10_000, seed=123)
    h = median_bandwidth(reference[:2000])
    for method in METHODS:
        res = run(model, method, n_particles=50, iterations=200, checkpoints=[0, 200],
                  seed=7, stepper=StepperState(base_rate=METHOD_DEFAULT_RATES[method]))
        before = mmd_sq(res.snapshots[0], reference, bandwidth=h).value
        after = mmd_sq(res.snapshots[200], reference, bandwidth=h).value
        assert after < before, f"{method}: {after:.4g} !< {before:.4g}"


# ------------------------------------------------- change of variables twin

def test_twin_directions_with_identity_metric_equal_vanilla():
    rng = np.random.default_rng(8)
    pts = rng.standard_normal((6, 3))
    h = median_bandwidth(pts)
    direct, mapped = change_of_variables_directions(identity_bundle(3), pts, h)
    vanilla = ScalarRBF(h).direction(pts, -pts)
    assert np.array_equal(direct, vanilla)
    assert np.allclose(mapped, vanilla, atol=1e-14)


def test_twin_directions_agree_for_random_metrics():
    rng = np.random.default_rng(9)
    for _ in range(5):
        d = int(rng.integers(2, 6))
        bundle = make_bundle(random_spd(rng, d))
        pts = rng.standard_normal((10, d))
        direct, mapped = change_of_variables_directions(bundle, pts, 1.1)
        assert np.max(np.abs(direct - mapped)) <= 1e-10


def test_twin_single_particle_reduces_to_preconditioned_gradient():
    rng = np.random.default_rng(10)
    bundle = make_bundle(random_spd(rng, 2))
    x = rng.standard_normal((1, 2))
    direct, mapped = change_of_variables_directions(bundle, x, 0.8)
    expected = -(bundle.q @ x[0]) @ bundle.q_inv
    assert np.allclose(direct[0], expected, atol=1e-12)
    assert np.allclose(mapped[0], expected, atol=1e-12)
