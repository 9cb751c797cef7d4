"""Particle evolution: steppers, preconditioner refresh, SVN, run driver.

Updates are synchronous: every iteration computes directions for all
particles from the same frozen particle set, then moves them together, so
results do not depend on particle order.  Every method goes through one
protocol: a refresh builds a ``direction(positions, grads)`` callable from
the current particles (kernel bandwidths, averaged preconditioners, mixture
anchors or SVN metrics), on the ``refresh_period`` schedule (default: every
iteration).  The refresh helpers ``averaged_preconditioner``,
``refresh_anchors`` (which returns the mixture kernel) and ``svn_metrics``
read the target's curvature and take the eigenvalue floor ratio; ``run``
passes its ``PrecondPolicy``'s, after checking the policy's source once
against the target's ``curvature_source``, which a run given no policy takes.
A non-finite value in any phase of an iteration (a refresh quantity, the
scores, the directions, the Adagrad accumulators or the new positions)
raises ``NumericalAbort`` naming the phase and, where the value is indexed
by one, the first bad particle or anchor.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConfigError, InvalidInputError, NumericalAbort, as_choice, as_count, as_floats, as_real
from .kernels import (
    ConstPrecond,
    MixturePrecond,
    ScalarRBF,
    median_bandwidth,
)
from .psdlin import DEFAULT_FLOOR_RATIO, PreconditionerBundle, check_floor_ratio, make_bundle, psd_repair
from .targets import TargetModel

CONVERGENCE_TOL = 1e-8

@dataclass(frozen=True)
class PrecondPolicy:
    """How curvature information is sourced and how often it is refreshed.

    The defaults and range rules of these fields and of ``StepperState`` live
    only in these two classes and ``psdlin.check_floor_ratio``; each error
    message starts with the field name.
    """

    source: str = "exact_hessian"
    refresh_period: int = 1
    floor_ratio: float = DEFAULT_FLOOR_RATIO

    def __post_init__(self):
        as_choice(self.source, "source", ("exact_hessian", "fisher"), ConfigError)
        as_count(self.refresh_period, "refresh_period", 1, ConfigError)
        check_floor_ratio(self.floor_ratio, ConfigError)


@dataclass
class StepperState:
    """Step-size state: fixed step or Adagrad with per-coordinate accumulators."""

    method: str = "adagrad"
    base_rate: float = 0.1
    damping: float = 1e-6
    accumulators: np.ndarray | None = None

    def __post_init__(self):
        as_choice(self.method, "method", ("adagrad", "fixed"), ConfigError)
        for name in ("base_rate", "damping"):
            as_real(getattr(self, name), name, ConfigError, positive=True, finite=True)


def adagrad_step(state: StepperState, positions: np.ndarray, directions: np.ndarray):
    """Advance particles one step; returns (new_positions, new_state).

    Adagrad: accumulate squared directions, then scale each coordinate by
    base_rate / (sqrt(accumulator) + damping); an accumulator that overflows
    would freeze its coordinate, so it aborts the run.  Fixed mode just adds
    base_rate * direction.  Inputs are not mutated.
    """
    positions = np.asarray(positions, dtype=float)
    directions = np.asarray(directions, dtype=float)
    if directions.shape != positions.shape:
        raise InvalidInputError(f"directions shape {directions.shape} must match positions {positions.shape}")
    bad = _first_bad_row(directions)
    if bad is not None:
        raise NumericalAbort("update direction has non-finite entries", phase="direction", particle=bad)
    if state.method == "fixed":
        return positions + state.base_rate * directions, state
    acc = np.zeros_like(positions) if state.accumulators is None else state.accumulators
    acc = acc + directions * directions
    bad = _first_bad_row(acc)
    if bad is not None:
        raise NumericalAbort("Adagrad accumulator has non-finite entries", phase="step", particle=bad)
    new_positions = positions + state.base_rate * directions / (np.sqrt(acc) + state.damping)
    return new_positions, replace(state, accumulators=acc)


def _first_bad_row(values) -> int | None:
    """Index of the first row of ``values`` with a non-finite entry, or None."""
    finite = np.isfinite(values)
    if np.all(finite):
        return None
    return int(np.argmax(~np.all(finite.reshape(finite.shape[0], -1), axis=1)))


def _finite_or_abort(values, what: str, item: str | None = None):
    """Return ``values``, or raise NumericalAbort for a refresh quantity with
    non-finite entries; ``item`` names what the leading axis indexes, a
    particle or the anchor placed at one, and None names no row (a scalar
    bandwidth, the averaged curvature)."""
    bad = _first_bad_row(np.atleast_1d(values))
    if bad is not None:
        where = "" if item is None else f" of {item} {bad}"
        raise NumericalAbort(f"refresh: {what}{where} has non-finite entries",
                             phase="refresh", particle=None if item is None else bad)
    return values


def _curvature_stack(positions, model: TargetModel) -> np.ndarray:
    return _finite_or_abort(model.curvature_batch(positions), "curvature", "particle")


def averaged_preconditioner(positions, model: TargetModel,
                            floor_ratio: float = DEFAULT_FLOOR_RATIO) -> PreconditionerBundle:
    """``model.mean_curvature`` repaired into a PD bundle; a non-finite mean
    forms the stack, so the abort names a particle whose curvature is."""
    positions = np.asarray(positions, dtype=float)
    avg = model.mean_curvature(positions)
    if not np.all(np.isfinite(avg)):
        _curvature_stack(positions, model)
    return make_bundle(_finite_or_abort(avg, "averaged curvature"), floor_ratio=floor_ratio)


def refresh_anchors(positions, model: TargetModel,
                    floor_ratio: float = DEFAULT_FLOOR_RATIO) -> MixturePrecond:
    """The mixture kernel with one anchor per particle: local repaired
    curvature, all anchors at once, and median-trick bandwidths, each in
    its anchor's own metric, formed where a direction reads them (see
    ``MixturePrecond``)."""
    positions = np.asarray(positions, dtype=float)
    bundle = make_bundle(_curvature_stack(positions, model), floor_ratio=floor_ratio)
    _finite_or_abort(bundle.q, "metric", "anchor")
    return MixturePrecond(positions, bundle)


def _resolve_bandwidth(positions, metric: PreconditionerBundle | None = None):
    return _finite_or_abort(median_bandwidth(positions, metric=metric), "bandwidth")


def svn_metrics(positions, model: TargetModel, bandwidth: float,
                floor_ratio: float = DEFAULT_FLOOR_RATIO) -> np.ndarray:
    """Kernel-weighted local metrics H~_i, one PD (d, d) matrix per particle.

    H~_i = (1/n) sum_j [ H(x_j) k_ji^2 + g_ji g_ji^T ] where
    k_ji = k(x_j, x_i) and g_ji = grad_{x_i} k_ji = k_ji (x_j - x_i) / h.

    H~ is translation invariant, so the points are first centred at their
    mean, which keeps the cancellation below small.  With y = x / h for the
    centred points, K2 = k^2, a = K2 @ y and s_i = sum_j K2_ij, the outer
    products expand into

        n H~_i = [K2 @ (H + y y^T)]_i + s_i y_i y_i^T - a_i y_i^T - y_i a_i^T,

    so one (n, n) @ (n, d^2 + d + 1) GEMM gives the sums, a and s together,
    and no (n, n, d) stack is formed.  A metric that overflows aborts the
    refresh, naming its particle.
    """
    positions = np.asarray(positions, dtype=float)
    n, d = positions.shape
    hs = _curvature_stack(positions, model)
    with np.errstate(over="ignore", invalid="ignore"):
        x = positions - positions.mean(axis=0)
        sq = np.einsum("ij,ij->i", x, x)
        neg_r2 = np.minimum(2.0 * (x @ x.T) - sq[:, None] - sq[None, :], 0.0)
        np.fill_diagonal(neg_r2, 0.0)  # exact self-weights k_ii = 1
        k2 = np.exp(neg_r2 / bandwidth)
        y = x / bandwidth
        outer = y[:, :, None] * y[:, None, :]
        sums = k2 @ np.concatenate([(hs + outer).reshape(n, d * d), y, np.ones((n, 1))], axis=1)
        cross = y[:, :, None] * sums[:, None, d * d:-1]
        cross = cross + cross.transpose(0, 2, 1)
        metrics = (sums[:, :d * d].reshape(n, d, d) + sums[:, -1, None, None] * outer - cross) / n
    return psd_repair(_finite_or_abort(metrics, "SVN metric", "particle"), floor_ratio=floor_ratio)


def svn_direction(positions, grads, metrics: np.ndarray, bandwidth: float) -> np.ndarray:
    """Newton-like direction: each particle's H~_i solved against its
    scalar-RBF Stein direction."""
    f = ScalarRBF(bandwidth).direction(positions, grads)
    if np.shape(metrics) != f.shape + f.shape[-1:]:
        raise InvalidInputError(f"metrics: expected shape {f.shape + f.shape[-1:]}, got {np.shape(metrics)}")
    return np.linalg.solve(metrics, f[:, :, None])[:, :, 0]


def _refresh_average(positions, model: TargetModel, floor_ratio: float):
    bundle = averaged_preconditioner(positions, model, floor_ratio)
    return ConstPrecond(bundle, _resolve_bandwidth(positions, metric=bundle)).direction


def _refresh_svn(positions, model: TargetModel, floor_ratio: float):
    h = _resolve_bandwidth(positions)
    metrics = svn_metrics(positions, model, h, floor_ratio)
    return lambda points, grads: svn_direction(points, grads, metrics, h)


# method -> refresh(positions, model, floor_ratio) returning direction(positions, grads);
# the helpers are looked up at call time, so wrapping them in this module
# (as the profiler does) reaches every run
_REFRESH = {
    "vanilla_svgd": lambda positions, model, floor_ratio: ScalarRBF(_resolve_bandwidth(positions)).direction,
    "matrix_svgd_average": _refresh_average,
    "matrix_svgd_mixture": lambda positions, model, floor_ratio: refresh_anchors(
        positions, model, floor_ratio).direction,
    "svn": _refresh_svn,
}
METHODS = tuple(_REFRESH)


@dataclass
class RunResult:
    """Evolution output: checkpoint snapshots plus convergence/timing info."""

    snapshots: dict[int, np.ndarray]
    converged_at: int | None
    iterations_run: int
    step_seconds: list[float] = field(default_factory=list)


def run_arguments(n_particles, iterations, checkpoints=(), seed=0, init_mean=0.0,
                  init_scale=1.0, dim: int | None = None) -> tuple:
    """Check ``run``'s arguments (``harness.parse_config`` calls this too) and
    return them, the checkpoints sorted and unique and init_mean a float
    array; ``dim`` is the target dimension, when it is known."""
    n_particles = as_count(n_particles, "n_particles", 1, ConfigError)
    iterations = as_count(iterations, "iterations", 0, ConfigError)
    checkpoints = [as_count(c, f"checkpoints[{i}]", 0, ConfigError) for i, c in enumerate(checkpoints)]
    for i, c in enumerate(checkpoints):
        if c > iterations:
            raise ConfigError(f"checkpoints[{i}]: must be <= {iterations} (the iteration count), got {c}")
    seed = as_count(seed, "seed", 0, ConfigError)
    init_scale = as_real(init_scale, "init_scale", ConfigError, positive=True, finite=True)
    init_mean = as_floats(init_mean, "init_mean", ConfigError)
    if init_mean.ndim > 1 or (dim is not None and init_mean.size not in (1, dim)):
        raise ConfigError(f"init_mean: must be one number or {dim or 'd'} numbers (the target "
                          f"dimension), got length {init_mean.size}")
    if not np.all(np.isfinite(init_mean)):
        raise ConfigError(f"init_mean: must be finite, got {init_mean.tolist()}")
    return n_particles, iterations, tuple(sorted(set(checkpoints))), seed, init_mean, init_scale


def run(model: TargetModel, method: str, *, n_particles: int, iterations: int,
        checkpoints=(), stepper: StepperState | None = None,
        policy: PrecondPolicy | None = None, seed: int = 0,
        init_mean=0.0, init_scale: float = 1.0) -> RunResult:
    """Evolve a particle set and snapshot it at the requested iterations.

    Particles start from init_mean + init_scale * N(0, I) draws.  A snapshot
    at checkpoint c is the particle set after exactly c updates (c = 0 is the
    initial draw).  If the maximum per-particle direction norm drops below
    ``CONVERGENCE_TOL`` the run stops early and later checkpoints repeat the
    converged set; ``converged_at`` records the stopping iteration.

    All configuration problems, an initial draw that overflows among them,
    are raised before iteration 0; non-finite curvature, scores, directions,
    Adagrad accumulators or positions abort the run with the iteration index.
    """
    as_choice(method, "method", METHODS, ConfigError)
    n_particles, iterations, checkpoints, seed, init_mean, init_scale = run_arguments(
        n_particles, iterations, checkpoints, seed, init_mean, init_scale, dim=model.dim)
    stepper = StepperState() if stepper is None else stepper
    policy = PrecondPolicy(source=model.curvature_source) if policy is None else policy
    if method != "vanilla_svgd":
        as_choice(policy.source, "source", (model.curvature_source,), ConfigError)

    init_rng = np.random.default_rng([seed, 0])
    batch_rng = np.random.default_rng([seed, 1])
    with np.errstate(over="ignore"):
        spread = init_scale * init_rng.standard_normal((n_particles, model.dim))
        positions = init_mean + spread
    if not np.all(np.isfinite(positions)):
        name = "init_mean" if np.all(np.isfinite(spread)) else "init_scale"
        raise ConfigError(f"{name}: too large, the initial draw overflows")

    checkpoint_set = set(checkpoints)
    snapshots: dict[int, np.ndarray] = {}
    if 0 in checkpoint_set:
        snapshots[0] = positions.copy()
    refresh = _REFRESH[method]
    converged_at = None
    step_seconds: list[float] = []
    resample = getattr(model, "resample_minibatch", None)

    for it in range(iterations):
        t0 = time.perf_counter()
        if resample is not None:
            resample(batch_rng)
        # a blow-up is reported by the NumericalAbort that names its phase,
        # not by numpy's warnings from the lines on the way there
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            try:
                if it % policy.refresh_period == 0:
                    direction = refresh(positions, model, policy.floor_ratio)
                grads = model.grad_log_density_batch(positions)
                bad = _first_bad_row(grads)
                if bad is not None:
                    raise NumericalAbort("score has non-finite entries", phase="score", particle=bad)
                directions = direction(positions, grads)
                if float(np.max(np.linalg.norm(directions, axis=1))) < CONVERGENCE_TOL:
                    converged_at = it
                    step_seconds.append(time.perf_counter() - t0)
                    break
                positions, stepper = adagrad_step(stepper, positions, directions)
                bad = _first_bad_row(positions)
                if bad is not None:
                    raise NumericalAbort("particles left the finite domain", phase="step", particle=bad)
            except NumericalAbort as exc:
                raise NumericalAbort(str(exc), it, exc.phase, exc.particle) from exc
        step_seconds.append(time.perf_counter() - t0)
        if (it + 1) in checkpoint_set:
            snapshots[it + 1] = positions.copy()

    for c in checkpoints:
        if c not in snapshots:
            snapshots[c] = positions.copy()
    return RunResult(snapshots={c: snapshots[c] for c in checkpoints},
                     converged_at=converged_at,
                     iterations_run=iterations if converged_at is None else converged_at,
                     step_seconds=step_seconds)

