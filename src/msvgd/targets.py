"""Target distributions: log densities, scores, curvature, reference samplers.

Every model exposes the same batch surface over points X of shape (n, d):

- ``log_density_batch(X)``: possibly-unnormalized log p.
- ``grad_log_density_batch(X)``: the score.
- ``curvature_batch(X, mode)``: (n, d, d) local curvature matrices,
  ``-hessian(log p)`` for ``mode="exact_hessian"`` or the Fisher information
  for ``mode="fisher"`` (logistic posterior only).  Raw output;
  positive-definiteness is the caller's problem (see ``psdlin.psd_repair``,
  which repairs a whole stack at once).
- ``mean_curvature(X, mode)``: the (d, d) particle mean of
  ``curvature_batch``, with the same checks.  The logistic posterior
  overrides it: its Fisher matrix is linear in the per-row weights, so it
  averages those and forms one matrix instead of n.
- ``reference_sample(n, seed)``: ground-truth-ish draws where available:
  exact ancestral sampling for Gaussian / mixture targets, a deterministic
  inverse-CDF grid sampler on [-3, 3]^2 for the two irregular 2-D targets.

``curvature(x, mode)`` is ``curvature_batch`` at one point.  ``make_target``
builds a target from its kind name and config parameters; it is where a bad
parameter becomes a ``ConfigError``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import expit, logsumexp

from .errors import ConfigError, InvalidInputError, as_count, as_floats, as_points, as_real
from .psdlin import make_bundle, symmetrize

GRID_BOUND = 3.0
GRID_RESOLUTION = 512
_GRID_CHUNK = 16384


def _sampler_setup(n, seed) -> tuple[int, np.random.Generator]:
    """A reference sampler's draw count, and its generator seeded by the run's seed rule."""
    n = as_count(n, "sample size", 1)
    return n, np.random.default_rng(as_count(seed, "seed", 0, ConfigError))


class TargetModel:
    """Base class: the batch surface, its input checks and the curvature
    mode check shared by every target."""

    kind: str = "abstract"
    dim: int = 0
    supported_curvature: tuple[str, ...] = ("exact_hessian",)

    # --- mandatory batch surface -------------------------------------------------
    def log_density_batch(self, points: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def grad_log_density_batch(self, points: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _curvature_batch(self, points: np.ndarray, mode: str) -> np.ndarray:
        raise NotImplementedError

    # --- shared plumbing ---------------------------------------------------------
    def _check_curvature_input(self, points, mode: str) -> np.ndarray:
        if mode not in self.supported_curvature:
            raise ConfigError(f"curvature mode '{mode}' is not supported by target '{self.kind}'")
        return as_points(points, self.dim)

    def curvature_batch(self, points, mode: str = "exact_hessian") -> np.ndarray:
        return self._curvature_batch(self._check_curvature_input(points, mode), mode)

    def mean_curvature(self, points, mode: str = "exact_hessian") -> np.ndarray:
        """The particle mean of ``curvature_batch``, shape (d, d)."""
        return self._mean_curvature(self._check_curvature_input(points, mode), mode)

    def _mean_curvature(self, points: np.ndarray, mode: str) -> np.ndarray:
        return self._curvature_batch(points, mode).mean(axis=0)

    def curvature(self, x, mode: str = "exact_hessian") -> np.ndarray:
        """``curvature_batch`` at the one point ``x``, shape (d, d)."""
        return self.curvature_batch(np.asarray(x, dtype=float)[None], mode)[0]

    def reference_sample(self, n: int, seed: int) -> np.ndarray:
        raise ConfigError(f"target '{self.kind}' has no reference sampler")


class Gaussian(TargetModel):
    """Multivariate normal, parameterized by covariance or by precision."""

    kind = "gaussian"

    def __init__(self, mean, cov=None, precision=None):
        mean = np.atleast_1d(as_floats(mean, "mean"))
        if mean.ndim != 1 or not np.all(np.isfinite(mean)):
            raise InvalidInputError("mean: must be a finite vector")
        if (cov is None) == (precision is None):
            raise InvalidInputError("pass exactly one of cov or precision")
        base = symmetrize(as_floats(cov, "cov") if cov is not None
                          else as_floats(precision, "precision"))
        if base.shape[0] != mean.shape[0]:
            raise InvalidInputError("mean and matrix dimensions disagree")
        bundle = make_bundle(base, floor_ratio=1e-12)
        if cov is not None:
            self.cov, self.precision, self._cov_sqrt = bundle.q, bundle.q_inv, bundle.q_sqrt
            self._log_det_cov = bundle.log_det
        else:
            self.cov, self.precision, self._cov_sqrt = bundle.q_inv, bundle.q, bundle.q_inv_sqrt
            self._log_det_cov = -bundle.log_det
        self.mean = mean
        self.dim = mean.shape[0]
        self._log_norm = -0.5 * (self.dim * np.log(2.0 * np.pi) + self._log_det_cov)

    def log_density_batch(self, points):
        points = as_points(points, self.dim)
        dc = points - self.mean
        return self._log_norm - 0.5 * np.sum((dc @ self.precision) * dc, axis=1)

    def grad_log_density_batch(self, points):
        points = as_points(points, self.dim)
        return -(points - self.mean) @ self.precision

    def _curvature_batch(self, points, mode):
        return np.repeat(self.precision[None, :, :], points.shape[0], axis=0)

    def reference_sample(self, n, seed):
        n, rng = _sampler_setup(n, seed)
        return self.mean + rng.standard_normal((n, self.dim)) @ self._cov_sqrt


class StarMixture(TargetModel):
    """Equal-weight 2-D Gaussian mixture with rotationally copied components.

    Component 1 has mean ``mu1`` and covariance ``sigma1``; component i+1 is
    component i pushed through the fixed rotation by 2*pi/K.  With the default
    five components and sigma1 = diag(1, 0.01) the density looks like a
    five-pointed star: long thin arms meeting at the origin.
    """

    kind = "star_mixture"

    def __init__(self, components: int = 5, mu1=(0.0, 1.5), sigma1=((1.0, 0.0), (0.0, 0.01))):
        components = as_count(components, "components", 1)
        mu1 = as_floats(mu1, "mu1")
        sigma1 = symmetrize(as_floats(sigma1, "sigma1"))
        if mu1.shape != (2,) or sigma1.shape != (2, 2):
            raise InvalidInputError("star mixture is 2-D: mu1 has shape (2,), sigma1 shape (2, 2)")
        theta = 2.0 * np.pi / components
        rot = np.array([[np.cos(theta), np.sin(theta)], [-np.sin(theta), np.cos(theta)]])
        means, covs = [mu1], [sigma1]
        for _ in range(components - 1):
            means.append(rot @ means[-1])
            covs.append(symmetrize(rot @ covs[-1] @ rot.T))
        self.dim = 2
        self.n_components = components
        self.means = np.stack(means)
        self.covs = np.stack(covs)
        bundles = [make_bundle(c, floor_ratio=1e-12) for c in covs]
        self.precisions = np.stack([b.q_inv for b in bundles])
        self._chols = np.stack([np.linalg.cholesky(b.q) for b in bundles])
        # exact per-component normalizers; mixture weights are uniform 1/K
        self._log_norms = np.array(
            [-np.log(2.0 * np.pi) - 0.5 * b.log_det for b in bundles]
        )

    def _component_log_pdfs(self, points):
        dc = points[:, None, :] - self.means[None, :, :]  # (n, K, 2)
        quad = np.einsum("nki,kij,nkj->nk", dc, self.precisions, dc)
        return self._log_norms[None, :] - 0.5 * quad

    def log_density_batch(self, points):
        points = as_points(points, self.dim)
        lp = self._component_log_pdfs(points)
        return logsumexp(lp, axis=1) - np.log(self.n_components)

    def _responsibilities_and_scores(self, points):
        """Component responsibilities (n, K) and component scores (n, K, 2),
        shared by the score and the curvature."""
        lp = self._component_log_pdfs(points)
        lp = lp - lp.max(axis=1, keepdims=True)
        w = np.exp(lp)
        dc = points[:, None, :] - self.means[None, :, :]
        return w / w.sum(axis=1, keepdims=True), -np.einsum("kij,nkj->nki", self.precisions, dc)

    def grad_log_density_batch(self, points):
        points = as_points(points, self.dim)
        resp, comp_grads = self._responsibilities_and_scores(points)
        return np.einsum("nk,nki->ni", resp, comp_grads)

    def _curvature_batch(self, points, mode):
        resp, grads = self._responsibilities_and_scores(points)
        gbar = (resp[:, None, :] @ grads)[:, 0]
        hess = -gbar[:, :, None] * gbar[:, None, :]
        for k, prec in enumerate(self.precisions):
            g = grads[:, k, :]
            hess += resp[:, k, None, None] * (g[:, :, None] * g[:, None, :] - prec)
        return -hess

    def reference_sample(self, n, seed):
        n, rng = _sampler_setup(n, seed)
        comp = rng.integers(self.n_components, size=n)
        z = rng.standard_normal((n, 2))
        out = np.empty((n, 2))
        for k in range(self.n_components):
            idx = comp == k
            out[idx] = self.means[k] + z[idx] @ self._chols[k].T
        return out


def _symmetric_2x2(a, b, c) -> np.ndarray:
    """Stack of [[a, b], [b, c]] from three length-n arrays; shape (n, 2, 2)."""
    return np.stack([np.column_stack([a, b]), np.column_stack([b, c])], axis=1)


class _GridSampledTarget(TargetModel):
    """Inverse-CDF sampling for the irregular 2-D targets: the midpoint grid
    of GRID_RESOLUTION^2 cells on [-GRID_BOUND, GRID_BOUND]^2, with its CDF
    tabulated from the log density on first use."""

    _grid = None  # (centers, cdf), set per instance on first use

    def reference_sample(self, n, seed):
        n, rng = _sampler_setup(n, seed)
        if self._grid is None:
            edges = np.linspace(-GRID_BOUND, GRID_BOUND, GRID_RESOLUTION + 1)
            mids = 0.5 * (edges[:-1] + edges[1:])
            gx, gy = np.meshgrid(mids, mids, indexing="ij")
            centers = np.column_stack([gx.ravel(), gy.ravel()])
            logp = np.empty(centers.shape[0])
            for start in range(0, centers.shape[0], _GRID_CHUNK):
                block = centers[start:start + _GRID_CHUNK]
                logp[start:start + _GRID_CHUNK] = self.log_density_batch(block)
            weights = np.exp(logp - logp.max())
            cdf = np.cumsum(weights) / weights.sum()
            cdf[-1] = 1.0
            self._grid = (centers, cdf)
        centers, cdf = self._grid
        u = (np.arange(n) + rng.random(n)) / n  # stratified uniforms
        idx = np.minimum(np.searchsorted(cdf, u, side="left"), len(cdf) - 1)
        jitter = rng.random((n, 2)) - 0.5
        return centers[idx] + jitter * (2.0 * GRID_BOUND / GRID_RESOLUTION)


class Sine(_GridSampledTarget):
    """Unnormalized density concentrated along the curve x2 = -sin(alpha * x1).

    log p(x) = -(x2 + sin(alpha x1))^2 / (2 sigma1) - (x1^2 + x2^2) / (2 sigma2).
    The default sigma1 = 0.003 makes the ridge very narrow.
    """

    kind = "sine"

    def __init__(self, alpha: float = 1.0, sigma1: float = 0.003, sigma2: float = 1.0):
        self.alpha = as_real(alpha, "alpha")
        self.sigma1 = as_real(sigma1, "sigma1", positive=True)
        self.sigma2 = as_real(sigma2, "sigma2", positive=True)
        self.dim = 2

    def _ridge_parts(self, points):
        """x1, x2, the ridge residual u = x2 + sin(alpha x1) and du/dx1."""
        x1, x2 = points[:, 0], points[:, 1]
        u = x2 + np.sin(self.alpha * x1)
        return x1, x2, u, self.alpha * np.cos(self.alpha * x1)

    def log_density_batch(self, points):
        x1, x2, u, _ = self._ridge_parts(as_points(points, self.dim))
        return -u * u / (2.0 * self.sigma1) - (x1 * x1 + x2 * x2) / (2.0 * self.sigma2)

    def grad_log_density_batch(self, points):
        x1, x2, u, du1 = self._ridge_parts(as_points(points, self.dim))
        g1 = -u * du1 / self.sigma1 - x1 / self.sigma2
        g2 = -u / self.sigma1 - x2 / self.sigma2
        return np.column_stack([g1, g2])

    def _curvature_batch(self, points, mode):
        x1, x2, u, du1 = self._ridge_parts(points)
        d2u1 = -self.alpha**2 * np.sin(self.alpha * x1)
        h11 = -(du1 * du1 + u * d2u1) / self.sigma1 - 1.0 / self.sigma2
        h12 = -du1 / self.sigma1
        h22 = np.full_like(h11, -1.0 / self.sigma1 - 1.0 / self.sigma2)
        return -_symmetric_2x2(h11, h12, h22)


class DoubleBanana(_GridSampledTarget):
    """Two banana-shaped ridges from a log-Rosenbrock observation model.

    log p(x) = -||x||^2 / (2 sigma1) - (y - F(x))^2 / (2 sigma2) with
    F(x) = log((1 - x1)^2 + 100 (x2 - x1^2)^2).  Where the Rosenbrock term
    vanishes F is -inf and the density is zero (log density -inf), which is a
    legal value, not an error; the score and curvature are undefined there and
    come out non-finite, for the sampler to abort on.
    """

    kind = "double_banana"

    def __init__(self, y_obs: float | None = None, sigma1: float = 1.0, sigma2: float = 0.09):
        self.y_obs = float(np.log(30.0)) if y_obs is None else as_real(y_obs, "y_obs")
        self.sigma1 = as_real(sigma1, "sigma1", positive=True)
        self.sigma2 = as_real(sigma2, "sigma2", positive=True)
        self.dim = 2

    @staticmethod
    def _rosenbrock(x1, x2):
        # far-field points may overflow to inf; callers treat non-finite
        # scores as out-of-domain, so the overflow itself is expected
        with np.errstate(over="ignore"):
            return (1.0 - x1) ** 2 + 100.0 * (x2 - x1 * x1) ** 2

    def log_density_batch(self, points):
        points = as_points(points, self.dim)
        x1, x2 = points[:, 0], points[:, 1]
        with np.errstate(divide="ignore"):
            f = np.log(self._rosenbrock(x1, x2))
        resid = self.y_obs - f
        # f = -inf gives resid = +inf; the squared term then forces logp to -inf
        quad = np.where(np.isneginf(f), np.inf, resid * resid)
        return -(x1 * x1 + x2 * x2) / (2.0 * self.sigma1) - quad / (2.0 * self.sigma2)

    def _rosenbrock_parts(self, x1, x2):
        g = self._rosenbrock(x1, x2)
        dg1 = -2.0 * (1.0 - x1) - 400.0 * x1 * (x2 - x1 * x1)
        dg2 = 200.0 * (x2 - x1 * x1)
        return g, dg1, dg2

    def grad_log_density_batch(self, points):
        points = as_points(points, self.dim)
        x1, x2 = points[:, 0], points[:, 1]
        g, dg1, dg2 = self._rosenbrock_parts(x1, x2)
        # g = 0 (zero density) or overflow gives non-finite rows
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            resid = self.y_obs - np.log(g)
            coef = resid / (self.sigma2 * g)
            return np.column_stack([-x1 / self.sigma1 + coef * dg1,
                                    -x2 / self.sigma1 + coef * dg2])

    def _curvature_batch(self, points, mode):
        x1, x2 = points[:, 0], points[:, 1]
        g, dg1, dg2 = self._rosenbrock_parts(x1, x2)
        d11 = 2.0 - 400.0 * (x2 - x1 * x1) + 800.0 * x1 * x1
        d12 = -400.0 * x1
        grad_g = np.column_stack([dg1, dg2])
        hess_g = _symmetric_2x2(d11, d12, np.full_like(d11, 200.0))
        g = g[:, None, None]
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            grad_f = grad_g / g[:, 0]
            hess_f = hess_g / g - (grad_g[:, :, None] * grad_g[:, None, :]) / (g * g)
            resid = self.y_obs - np.log(g)
            outer_f = grad_f[:, :, None] * grad_f[:, None, :]
            hess = -np.eye(2) / self.sigma1 + (-outer_f + resid * hess_f) / self.sigma2
        return -hess


@dataclass(frozen=True)
class LogisticDataset:
    """Binary classification data: real features plus a trailing 0/1 label."""

    features: np.ndarray
    labels: np.ndarray
    minibatch_size: int = 0  # 0 means full batch

    def __post_init__(self):
        features = as_points(self.features)
        labels = np.asarray(self.labels)
        if labels.shape != (features.shape[0],):
            raise InvalidInputError("labels must be one per data row")
        lab = labels.astype(float)
        if not np.all(np.isin(lab, (0.0, 1.0))):
            raise InvalidInputError("labels must be 0 or 1")
        mb = as_count(self.minibatch_size, "minibatch_size", 0)
        if mb > features.shape[0]:
            raise InvalidInputError(f"minibatch_size: must lie in [0, {features.shape[0]}], got {mb}")
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "labels", lab.astype(int))
        object.__setattr__(self, "minibatch_size", mb)

    @property
    def n_rows(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    @classmethod
    def from_file(cls, data_path, delimiter: str | bytes | None = ",",
                  minibatch_size: int = 0) -> "LogisticDataset":
        """Load headerless delimited text: d feature columns then a label column.

        ``delimiter`` is what ``np.loadtxt`` takes: one character (str, or
        latin-1 bytes) other than a newline or the comment mark '#', or None
        for runs of whitespace.
        """
        text = delimiter.decode("latin1") if isinstance(delimiter, bytes) else delimiter
        if text is not None and (not isinstance(text, str) or len(text) != 1 or text in "\r\n#"):
            raise InvalidInputError("delimiter: must be one character other than a newline "
                                    f"or '#', or null for whitespace, got {delimiter!r}")
        try:
            raw = np.loadtxt(data_path, delimiter=delimiter, ndmin=2)
        except ValueError as exc:
            raise InvalidInputError(f"could not parse dataset file {data_path}: {exc}") from exc
        if raw.shape[1] < 2:
            raise InvalidInputError("dataset needs at least one feature column and a label column")
        return cls(features=raw[:, :-1], labels=raw[:, -1], minibatch_size=minibatch_size)


class LogisticPosterior(TargetModel):
    """Bayesian logistic regression posterior with a standard normal prior.

    The log likelihood (optionally estimated from a minibatch, rescaled by
    N / |B|) plus the prior log density.  Curvature is the Fisher information
    of the rescaled likelihood plus the prior's identity.
    """

    kind = "logistic_posterior"
    supported_curvature = ("fisher",)

    def __init__(self, dataset: LogisticDataset):
        self.dataset = dataset
        self.dim = dataset.n_features
        self._batch_idx = None  # None means full batch

    # --- minibatch control -------------------------------------------------------
    @property
    def uses_minibatches(self) -> bool:
        return 0 < self.dataset.minibatch_size < self.dataset.n_rows

    def resample_minibatch(self, rng: np.random.Generator) -> None:
        if self.uses_minibatches:
            idx = rng.choice(self.dataset.n_rows, size=self.dataset.minibatch_size, replace=False)
            self._batch_idx = np.sort(idx)

    def _active(self):
        if self._batch_idx is None:
            return self.dataset.features, self.dataset.labels.astype(float), 1.0
        feats = self.dataset.features[self._batch_idx]
        labs = self.dataset.labels[self._batch_idx].astype(float)
        return feats, labs, self.dataset.n_rows / len(self._batch_idx)

    # --- density surface ---------------------------------------------------------
    def log_density_batch(self, points):
        points = as_points(points, self.dim)
        feats, labs, scale = self._active()
        z = points @ feats.T  # (n, |B|)
        sign = 2.0 * labs - 1.0
        loglik = -np.logaddexp(0.0, -sign[None, :] * z).sum(axis=1)
        prior = -0.5 * np.sum(points * points, axis=1) - 0.5 * self.dim * np.log(2.0 * np.pi)
        return scale * loglik + prior

    def grad_log_density_batch(self, points):
        points = as_points(points, self.dim)
        feats, labs, scale = self._active()
        probs = expit(points @ feats.T)
        return scale * (labs[None, :] - probs) @ feats - points

    def _fisher_weights(self, points):
        feats, _, scale = self._active()
        probs = expit(feats @ points[:, :, None])[..., 0]
        return feats, scale, probs * (1.0 - probs)

    def _curvature_batch(self, points, mode):
        feats, scale, w = self._fisher_weights(points)
        eye = np.eye(self.dim)
        # one (N, d) weighted copy of the features at a time: vectorising over
        # particles would hold an (n, N, d) array and raise the peak memory
        return np.stack([scale * (feats.T * wi) @ feats + eye for wi in w])

    def _mean_curvature(self, points, mode):
        feats, scale, w = self._fisher_weights(points)
        return scale * (feats.T * w.mean(axis=0)) @ feats + np.eye(self.dim)


_TARGET_KINDS = {
    "gaussian": Gaussian,
    "star_mixture": StarMixture,
    "sine": Sine,
    "double_banana": DoubleBanana,
    "logistic_posterior": LogisticPosterior,
}


def make_target(kind: str, **params) -> TargetModel:
    """Construct a target from its kind name and config parameters.

    The one place targets are built: unknown kinds and bad parameters raise
    ConfigError, ``target.<key>: ...`` when one parameter is at fault and
    ``target: ...`` otherwise, while a data file that cannot be opened
    raises OSError.  A bare ``gaussian`` is the 2-D standard normal; a mean
    alone gets identity covariance, and a cov needs a mean.
    ``logistic_posterior`` loads its dataset from ``data_path`` (see
    ``LogisticDataset.from_file``).
    """
    if kind not in _TARGET_KINDS:
        raise ConfigError(f"unknown target kind '{kind}' (expected one of {sorted(_TARGET_KINDS)})")
    if kind == "gaussian" and set(params) <= {"mean"}:
        mean = params.get("mean", [0.0, 0.0])
        params = {"mean": mean, "cov": np.eye(np.size(mean))}
    if kind == "gaussian" and "cov" in params and "mean" not in params:
        raise ConfigError("target.mean: required when cov is given")
    if kind == "logistic_posterior" and "data_path" not in params:
        raise ConfigError("target.data_path: required for logistic_posterior")
    try:
        if kind == "logistic_posterior":
            params = {"dataset": LogisticDataset.from_file(**params)}
        return _TARGET_KINDS[kind](**params)
    except (TypeError, ValueError) as exc:
        # a parameter's own error starts with its key, as in "alpha: ..."
        key = str(exc).partition(":")[0]
        raise ConfigError(f"target.{exc}" if key in params else f"target: {exc}") from exc
