"""Particle evolution: steppers, preconditioner refresh, SVN, run driver.

Updates are synchronous: every iteration computes directions for all
particles from the same frozen particle set, then moves them together, so
results do not depend on particle order.  Every method goes through one
protocol: a refresh builds a ``direction(positions, grads)`` callable from
the current particles (kernel bandwidths, averaged preconditioners, mixture
anchors or SVN metrics), on the ``refresh_period`` schedule (default: every
iteration).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConfigError, InvalidInputError, NumericalAbort
from .kernels import (
    AnchorSet,
    ConstPrecond,
    MixturePrecond,
    ScalarRBF,
    median_bandwidth,
)
from .psdlin import PreconditionerBundle, make_bundle, psd_repair
from .targets import Gaussian, TargetModel

CONVERGENCE_TOL = 1e-8

@dataclass(frozen=True)
class PrecondPolicy:
    """How curvature information is sourced and how often it is refreshed."""

    source: str = "exact_hessian"
    refresh_period: int = 1
    floor_ratio: float = 1e-6

    def __post_init__(self):
        if self.source not in ("exact_hessian", "fisher"):
            raise ConfigError(f"unknown curvature source '{self.source}'")
        if int(self.refresh_period) < 1:
            raise ConfigError(f"refresh_period must be >= 1, got {self.refresh_period}")


@dataclass
class StepperState:
    """Step-size state: fixed step or Adagrad with per-coordinate accumulators."""

    method: str = "adagrad"
    base_rate: float = 0.1
    damping: float = 1e-6
    accumulators: np.ndarray | None = None

    def __post_init__(self):
        if self.method not in ("adagrad", "fixed"):
            raise ConfigError(f"unknown stepper method '{self.method}'")
        if not self.base_rate > 0.0:
            raise ConfigError(f"base_rate must be positive, got {self.base_rate}")
        if not self.damping > 0.0:
            raise ConfigError(f"damping must be positive, got {self.damping}")


def adagrad_step(state: StepperState, positions: np.ndarray, directions: np.ndarray):
    """Advance particles one step; returns (new_positions, new_state).

    Adagrad: accumulate squared directions, then scale each coordinate by
    base_rate / (sqrt(accumulator) + damping).  Fixed mode just adds
    base_rate * direction.  Inputs are not mutated.
    """
    positions = np.asarray(positions, dtype=float)
    directions = np.asarray(directions, dtype=float)
    if directions.shape != positions.shape:
        raise InvalidInputError(f"directions shape {directions.shape} must match positions {positions.shape}")
    if not np.all(np.isfinite(directions)):
        raise NumericalAbort("update direction has non-finite entries")
    if state.method == "fixed":
        return positions + state.base_rate * directions, state
    acc = np.zeros_like(positions) if state.accumulators is None else state.accumulators
    acc = acc + directions * directions
    new_positions = positions + state.base_rate * directions / (np.sqrt(acc) + state.damping)
    return new_positions, replace(state, accumulators=acc)


def _curvature_stack(positions, model: TargetModel, source: str) -> np.ndarray:
    hs = model.curvature_batch(positions, mode=source)
    bad = ~np.all(np.isfinite(hs), axis=(1, 2))
    if np.any(bad):
        raise NumericalAbort(f"refresh: curvature of particle {int(np.argmax(bad))} "
                             "has non-finite entries")
    return hs


def averaged_preconditioner(positions, model: TargetModel, source: str = "exact_hessian",
                            floor_ratio: float = 1e-6) -> PreconditionerBundle:
    """Particle-averaged curvature, repaired into a PD bundle."""
    positions = np.asarray(positions, dtype=float)
    avg = _curvature_stack(positions, model, source).mean(axis=0)
    return make_bundle(avg, floor_ratio=floor_ratio)


def refresh_anchors(positions, model: TargetModel, source: str = "exact_hessian",
                    floor_ratio: float = 1e-6) -> AnchorSet:
    """One anchor per particle: local repaired curvature plus a median-trick
    bandwidth measured in that anchor's own metric."""
    positions = np.asarray(positions, dtype=float)
    bundles = tuple(make_bundle(h, floor_ratio=floor_ratio)
                    for h in _curvature_stack(positions, model, source))
    bandwidths = np.array([_resolve_bandwidth(positions, metric=b) for b in bundles])
    return AnchorSet(points=positions.copy(), bundles=bundles, bandwidths=bandwidths)


def _resolve_bandwidth(positions, metric=None) -> float:
    # median trick where defined; a single particle sees no pairwise
    # distances, and any bandwidth acts the same there
    if positions.shape[0] < 2:
        return 1.0
    return median_bandwidth(positions, metric=metric)


def svn_metrics(positions, model: TargetModel, bandwidth: float, source: str = "exact_hessian",
                floor_ratio: float = 1e-6) -> np.ndarray:
    """Kernel-weighted local metrics H~_i, one PD (d, d) matrix per particle.

    H~_i = (1/n) sum_j [ H(x_j) k(x_j, x_i)^2 + g_ji g_ji^T ] where
    g_ji = grad_{x_i} k(x_j, x_i) = k(x_j, x_i) (x_j - x_i) / h.
    """
    positions = np.asarray(positions, dtype=float)
    n = positions.shape[0]
    diff = positions[:, None, :] - positions[None, :, :]  # (j, i, d) as x_j - x_i
    k = np.exp(-np.sum(diff * diff, axis=2) / (2.0 * bandwidth))
    hs = _curvature_stack(positions, model, source)
    term1 = np.einsum("ji,jab->iab", k * k, hs) / n
    g = k[:, :, None] * diff / bandwidth
    term2 = np.einsum("jia,jib->iab", g, g) / n
    return psd_repair(term1 + term2, floor_ratio=floor_ratio)


def svn_direction(positions, grads, metrics: np.ndarray, bandwidth: float) -> np.ndarray:
    """Newton-like direction: each particle's H~_i solved against its
    scalar-RBF Stein direction."""
    f = ScalarRBF(bandwidth).direction(positions, grads)
    return np.linalg.solve(metrics, f[:, :, None])[:, :, 0]


def _refresh_average(positions, model: TargetModel, policy: PrecondPolicy):
    bundle = averaged_preconditioner(positions, model, policy.source, policy.floor_ratio)
    return ConstPrecond(bundle, _resolve_bandwidth(positions, metric=bundle)).direction


def _refresh_svn(positions, model: TargetModel, policy: PrecondPolicy):
    h = _resolve_bandwidth(positions)
    metrics = svn_metrics(positions, model, h, policy.source, policy.floor_ratio)
    return lambda points, grads: svn_direction(points, grads, metrics, h)


# method -> refresh(positions, model, policy) returning direction(positions, grads);
# the helpers are looked up at call time, so wrapping them in this module
# (as the profiler does) reaches every run
_REFRESH = {
    "vanilla_svgd": lambda positions, model, policy: ScalarRBF(_resolve_bandwidth(positions)).direction,
    "matrix_svgd_average": _refresh_average,
    "matrix_svgd_mixture": lambda positions, model, policy: MixturePrecond(
        refresh_anchors(positions, model, policy.source, policy.floor_ratio)).direction,
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


def run(model: TargetModel, method: str, *, n_particles: int, iterations: int,
        checkpoints=(), stepper: StepperState | None = None,
        policy: PrecondPolicy | None = None, seed: int = 0,
        init_mean=0.0, init_scale: float = 1.0,
        convergence_tol: float = CONVERGENCE_TOL) -> RunResult:
    """Evolve a particle set and snapshot it at the requested iterations.

    Particles start from init_mean + init_scale * N(0, I) draws.  A snapshot
    at checkpoint c is the particle set after exactly c updates (c = 0 is the
    initial draw).  If the maximum per-particle direction norm drops below
    ``convergence_tol`` the run stops early and later checkpoints repeat the
    converged set; ``converged_at`` records the stopping iteration.

    All configuration problems are raised before iteration 0; non-finite
    curvature, scores or directions abort the run with the iteration index.
    """
    if method not in METHODS:
        raise ConfigError(f"unknown method '{method}' (expected one of {METHODS})")
    n_particles = int(n_particles)
    if n_particles < 1:
        raise ConfigError(f"n_particles must be >= 1, got {n_particles}")
    iterations = int(iterations)
    if iterations < 0:
        raise ConfigError(f"iterations must be >= 0, got {iterations}")
    checkpoints = sorted({int(c) for c in checkpoints})
    if checkpoints and (checkpoints[0] < 0 or checkpoints[-1] > iterations):
        raise ConfigError(f"checkpoints must lie within [0, {iterations}], got {checkpoints}")
    stepper = StepperState() if stepper is None else stepper
    policy = PrecondPolicy() if policy is None else policy
    if method != "vanilla_svgd" and policy.source not in model.supported_curvature:
        raise ConfigError(
            f"method '{method}' needs curvature source '{policy.source}', "
            f"but target '{model.kind}' supports {model.supported_curvature}")

    init_mean = np.broadcast_to(np.asarray(init_mean, dtype=float), (model.dim,))
    init_rng = np.random.default_rng([seed, 0])
    batch_rng = np.random.default_rng([seed, 1])
    positions = init_mean + init_scale * init_rng.standard_normal((n_particles, model.dim))

    checkpoint_set = set(checkpoints)
    snapshots: dict[int, np.ndarray] = {}
    if 0 in checkpoint_set:
        snapshots[0] = positions.copy()
    refresh = _REFRESH[method]
    converged_at = None
    step_seconds: list[float] = []
    resample = getattr(model, "resample_minibatch", None)

    it = 0
    for it in range(iterations):
        t0 = time.perf_counter()
        if resample is not None:
            resample(batch_rng)
        if it % policy.refresh_period == 0:
            try:
                direction = refresh(positions, model, policy)
            except NumericalAbort as exc:
                raise NumericalAbort(str(exc), iteration=it) from exc
        grads = model.grad_log_density_batch(positions)
        if not np.all(np.isfinite(grads)):
            raise NumericalAbort("score has non-finite entries", iteration=it)
        directions = direction(positions, grads)
        if float(np.max(np.linalg.norm(directions, axis=1))) < convergence_tol:
            converged_at = it
            step_seconds.append(time.perf_counter() - t0)
            break
        try:
            positions, stepper = adagrad_step(stepper, positions, directions)
        except NumericalAbort as exc:
            raise NumericalAbort(str(exc), iteration=it) from exc
        if not np.all(np.isfinite(positions)):
            raise NumericalAbort("particles left the finite domain", iteration=it)
        step_seconds.append(time.perf_counter() - t0)
        if (it + 1) in checkpoint_set:
            snapshots[it + 1] = positions.copy()

    for c in checkpoints:
        if c not in snapshots:
            snapshots[c] = positions.copy()
    iterations_run = it + 1 if iterations > 0 else 0
    if converged_at is not None:
        iterations_run = converged_at
    return RunResult(snapshots={c: snapshots[c] for c in checkpoints},
                     converged_at=converged_at,
                     iterations_run=iterations_run,
                     step_seconds=step_seconds)


def change_of_variables_directions(bundle: PreconditionerBundle, positions, bandwidth: float):
    """The same update computed two ways on a zero-mean Gaussian target.

    Direct route: constant-preconditioner kernel (metric ``bundle.q``) on the
    original space against p = N(0, q^{-1}).  Mapped route: plain scalar-RBF
    update in the whitened coordinates y = q^{1/2} x against N(0, I), pulled
    back through q^{-1/2}.  The two coincide exactly (same bandwidth on both
    sides); returns (direct, mapped) for comparison.
    """
    positions = np.asarray(positions, dtype=float)
    if positions.ndim != 2 or positions.shape[1] != bundle.dim:
        raise InvalidInputError(f"expected particles of shape (n, {bundle.dim}), got {positions.shape}")
    target = Gaussian(np.zeros(bundle.dim), precision=bundle.q)
    grads = target.grad_log_density_batch(positions)
    direct = ConstPrecond(bundle, bandwidth).direction(positions, grads)
    mapped_points = positions @ bundle.q_sqrt
    phi0 = ScalarRBF(bandwidth).direction(mapped_points, -mapped_points)
    return direct, phi0 @ bundle.q_inv_sqrt
