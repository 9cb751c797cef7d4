"""Target distributions: log densities, scores, curvature, reference samplers.

Every model exposes the same batch surface over points X of shape (n, d):

- ``log_density_batch(X)``: possibly-unnormalized log p.
- ``grad_log_density_batch(X)``: the score.
- ``curvature_batch(X)``: (n, d, d) local curvature matrices from the
  class's one ``curvature_source``: ``-hessian(log p)`` (``"exact_hessian"``)
  or, for the logistic posterior, the Fisher information (``"fisher"``), which
  there equals the full-batch observed information.  Raw output;
  positive-definiteness is the caller's problem (see ``psdlin.psd_repair``,
  which repairs a whole stack at once).
- ``mean_curvature(X)``: the (d, d) particle mean of ``curvature_batch``,
  with the same checks.
- ``reference_sample(n, seed)``: ground-truth-ish draws where available:
  exact ancestral sampling for Gaussian / mixture targets, a deterministic
  inverse-CDF grid sampler on [-3, 3]^2 for the two irregular 2-D targets.

The Gaussian and star matrices are kept as given, each factored once by Cholesky
(``_gaussian_factors``), and the reference samplers draw through that factor L
as mean + z L^T; no eigenvalue floor applies, that repair is the sampler's,
and a matrix whose inverse overflows is rejected.  The star mixture's log
density is the log-sum-exp of the max-shifted component pdfs whose softmax
gives its responsibilities (``StarMixture._shifted_pdfs``), one pass in numpy.

The logistic posterior's Fisher matrix is linear in the per-row weights.
Its ``curvature_batch`` is one blocked GEMM: the (n, |B|) weights times the
products f_ra f_rb (a <= b) of the active rows, formed a block of rows at a
time within ``kernels.CHUNK_BYTES``, give the packed upper triangles, which
a (d, d) index map unpacks.  Its ``mean_curvature`` averages the weights
and forms one matrix instead of n.  Its score is
``scale * (y @ F - p @ F) - x``, two GEMMs and no (n, |B|) residual; the
probabilities p come from one logit GEMM whose sigmoid ``_sigmoid`` forms
in place with numpy's vector ``exp``, and the score and the Fisher weights
share that pass while the points and the batch are unchanged.

``curvature(x)`` is ``curvature_batch`` at one point.  Each class states
its ``kind``, ``config_keys`` and ``curvature_source``, which a run's
``precond.source`` must name; ``target_class`` finds a class by its kind, and
``make_target`` builds a target from its kind name and config parameters;
it is where a bad parameter becomes a ``ConfigError``.
"""

from __future__ import annotations

import io
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (ConfigError, InvalidInputError, as_choice, as_count, as_floats, as_points, as_real,
                     at_key_path)
from .kernels import _chunks
from .psdlin import _cholesky_factors, symmetrize

GRID_BOUND = 3.0
GRID_RESOLUTION = 512


def _sampler_setup(n, seed) -> tuple[int, np.random.Generator]:
    """A reference sampler's draw count, and its generator seeded by the run's seed rule."""
    n = as_count(n, "sample size", 1)
    return n, np.random.default_rng(as_count(seed, "seed", 0, ConfigError))


def _sigmoid(z: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-z)), the formula of ``scipy.special.expit``, formed in
    place in the float array ``z`` and returned: exactly 0 where exp(-z)
    overflows (z < -709.78) and at -inf, 1 at +inf, NaN for NaN, and no
    floating-point warning."""
    np.negative(z, out=z)
    with np.errstate(over="ignore"):
        np.exp(z, out=z)
    z += 1.0
    return np.reciprocal(z, out=z)


def _gaussian_factors(matrix, name: str):
    """``matrix`` (or a stack) symmetrized, its Cholesky factor and
    ``_cholesky_factors``; rejected unless positive definite with a finite
    inverse and log determinant."""
    matrix = symmetrize(as_floats(matrix, name))
    try:
        chol = np.linalg.cholesky(matrix)
    except np.linalg.LinAlgError:
        raise InvalidInputError(f"{name}: must be positive definite, got {matrix.tolist()}") from None
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is reported below
        inverse, log_det = _cholesky_factors(chol)
    if not (np.all(np.isfinite(inverse)) and np.all(np.isfinite(log_det))):
        raise InvalidInputError(f"{name}: its inverse or log determinant is not finite, "
                                f"got {matrix.tolist()}")
    return matrix, chol, inverse, log_det


class TargetModel:
    """Base class: the batch surface and the input checks shared by every target."""

    kind: str = "abstract"
    config_keys: tuple[str, ...] = ()
    dim: int = 0
    curvature_source: str = "exact_hessian"

    # --- mandatory batch surface -------------------------------------------------
    def log_density_batch(self, points: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def grad_log_density_batch(self, points: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _curvature_batch(self, points: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    # --- shared plumbing ---------------------------------------------------------
    def curvature_batch(self, points) -> np.ndarray:
        return self._curvature_batch(as_points(points, self.dim))

    def mean_curvature(self, points) -> np.ndarray:
        """The particle mean of ``curvature_batch``, shape (d, d)."""
        return self._mean_curvature(as_points(points, self.dim))

    def _mean_curvature(self, points: np.ndarray) -> np.ndarray:
        return self._curvature_batch(points).mean(axis=0)

    def curvature(self, x) -> np.ndarray:
        """``curvature_batch`` at the one point ``x``, shape (d, d)."""
        return self.curvature_batch(np.asarray(x, dtype=float)[None])[0]

    def reference_sample(self, n: int, seed: int) -> np.ndarray:
        raise ConfigError(f"target '{self.kind}' has no reference sampler")


class Gaussian(TargetModel):
    """Multivariate normal with mean ``mean`` and covariance ``cov``."""

    kind = "gaussian"
    config_keys = ("mean", "cov")

    def __init__(self, mean, cov):
        mean = np.atleast_1d(as_floats(mean, "mean"))
        if mean.ndim != 1 or mean.size == 0 or not np.all(np.isfinite(mean)):
            raise InvalidInputError(f"mean: must be a non-empty finite vector, got {mean.tolist()}")
        cov, self._chol, precision, log_det_cov = _gaussian_factors(cov, "cov")
        if cov.shape[0] != mean.shape[0]:
            raise InvalidInputError("mean and matrix dimensions disagree")
        self.cov, self.precision = cov, precision
        self.mean = mean
        self.dim = mean.shape[0]
        self._log_norm = -0.5 * (self.dim * np.log(2.0 * np.pi) + log_det_cov)

    def log_density_batch(self, points):
        points = as_points(points, self.dim)
        dc = points - self.mean
        return self._log_norm - 0.5 * np.sum((dc @ self.precision) * dc, axis=1)

    def grad_log_density_batch(self, points):
        points = as_points(points, self.dim)
        return -(points - self.mean) @ self.precision

    def _curvature_batch(self, points):
        return np.repeat(self.precision[None, :, :], points.shape[0], axis=0)

    def reference_sample(self, n, seed):
        n, rng = _sampler_setup(n, seed)
        return self.mean + rng.standard_normal((n, self.dim)) @ self._chol.T


class StarMixture(TargetModel):
    """Equal-weight 2-D Gaussian mixture with rotationally copied components.

    Component 1 has mean ``mu1`` and covariance ``sigma1``; component i+1 is
    component i pushed through the fixed rotation by 2*pi/K.  With the default
    five components and sigma1 = diag(1, 0.01) the density looks like a
    five-pointed star: long thin arms meeting at the origin.
    """

    kind = "star_mixture"
    config_keys = ("components", "mu1", "sigma1")

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
        try:
            self.covs, self._chols, self.precisions, log_dets = _gaussian_factors(covs, "sigma1")
        except InvalidInputError:
            _gaussian_factors(sigma1, "sigma1")  # a sigma1 that is not PD is named as itself
            raise InvalidInputError(f"sigma1: positive definite, but its rotated copies round to "
                                    f"matrices that are not, got {sigma1.tolist()}") from None
        # exact per-component normalizers; mixture weights are uniform 1/K
        self._log_norms = -np.log(2.0 * np.pi) - 0.5 * log_dets

    def _shifted_pdfs(self, points):
        """The component log pdfs lp (n, K) shifted by their row maxima top
        (n, 1): (exp(lp - top), top, the offsets of the points from the means).
        The softmax of lp (the responsibilities) and its log-sum-exp (the log
        density) both come from this one pass.  A row whose log pdfs are all
        -inf (a point so far out that every quadratic form overflows) is
        shifted by the least float instead, so its pdfs are 0, not NaN; a NaN
        log pdf makes its row NaN."""
        dc = points[:, None, :] - self.means[None, :, :]  # (n, K, 2)
        lp = self._log_norms[None, :] - 0.5 * np.einsum("nki,kij,nkj->nk", dc, self.precisions, dc)
        top = np.maximum(lp.max(axis=1, keepdims=True), -np.finfo(float).max)
        return np.exp(lp - top), top, dc

    def log_density_batch(self, points):
        w, top, _ = self._shifted_pdfs(as_points(points, self.dim))
        with np.errstate(divide="ignore"):  # log 0 = -inf where every pdf is 0
            return top[:, 0] + np.log(w.sum(axis=1)) - np.log(self.n_components)

    def _responsibilities_and_scores(self, points):
        """Component responsibilities (n, K) and component scores (n, K, 2),
        shared by the score and the curvature."""
        w, _, dc = self._shifted_pdfs(points)
        with np.errstate(invalid="ignore"):  # 0/0 where every pdf is 0: a NaN row
            resp = w / w.sum(axis=1, keepdims=True)
        return resp, -np.einsum("kij,nkj->nki", self.precisions, dc)

    def grad_log_density_batch(self, points):
        points = as_points(points, self.dim)
        resp, comp_grads = self._responsibilities_and_scores(points)
        return np.einsum("nk,nki->ni", resp, comp_grads)

    def _curvature_batch(self, points):
        resp, grads = self._responsibilities_and_scores(points)
        # the outer products of a far point's scores may overflow: its row is NaN
        with np.errstate(over="ignore", invalid="ignore"):
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
            for rows in _chunks(len(centers), 4):  # a few temporaries per cell
                logp[rows] = self.log_density_batch(centers[rows])
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
    config_keys = ("alpha", "sigma1", "sigma2")

    def __init__(self, alpha: float = 1.0, sigma1: float = 0.003, sigma2: float = 1.0):
        self.alpha = as_real(alpha, "alpha")
        self.sigma1 = as_real(sigma1, "sigma1", positive=True)
        self.sigma2 = as_real(sigma2, "sigma2", positive=True)
        self.dim = 2

    def _ridge(self, points):
        """x1, x2 and the ridge residual u = x2 + sin(alpha x1)."""
        x1, x2 = points[:, 0], points[:, 1]
        return x1, x2, x2 + np.sin(self.alpha * x1)

    def _ridge_parts(self, points):
        """``_ridge`` and du/dx1, for the score and the curvature."""
        x1, x2, u = self._ridge(points)
        return x1, x2, u, self.alpha * np.cos(self.alpha * x1)

    def log_density_batch(self, points):
        x1, x2, u = self._ridge(as_points(points, self.dim))
        return -u * u / (2.0 * self.sigma1) - (x1 * x1 + x2 * x2) / (2.0 * self.sigma2)

    def grad_log_density_batch(self, points):
        x1, x2, u, du1 = self._ridge_parts(as_points(points, self.dim))
        g1 = -u * du1 / self.sigma1 - x1 / self.sigma2
        g2 = -u / self.sigma1 - x2 / self.sigma2
        return np.column_stack([g1, g2])

    def _curvature_batch(self, points):
        x1, x2, u, du1 = self._ridge_parts(points)
        d2u1 = -(self.alpha * self.alpha) * np.sin(self.alpha * x1)
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
    config_keys = ("y_obs", "sigma1", "sigma2")

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

    def _curvature_batch(self, points):
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


# the last dataset file ``LogisticDataset.from_file`` parsed: its key
# (resolved path, delimiter, the file's bytes) -> the checked, read-only array
_PARSED: dict = {}


@dataclass(frozen=True)
class LogisticDataset:
    """Binary classification data: real features plus a trailing 0/1 label,
    kept as a float array of 0.0 and 1.0.  Both are read-only copies, so
    the caller's arrays can change without changing the checked data."""

    features: np.ndarray
    labels: np.ndarray
    minibatch_size: int = 0  # 0 means full batch

    def __post_init__(self):
        features = as_points(self.features)
        lab = as_floats(self.labels, "labels")
        if lab.shape != (features.shape[0],):
            raise InvalidInputError("labels must be one per data row")
        if not np.all(np.isin(lab, (0.0, 1.0))):
            raise InvalidInputError("labels must be 0 or 1")
        mb = as_count(self.minibatch_size, "minibatch_size", 0)
        if mb > features.shape[0]:
            raise InvalidInputError(f"minibatch_size: must lie in [0, {features.shape[0]}], got {mb}")
        for name, value in (("features", features), ("labels", lab)):
            value = value.copy()
            value.flags.writeable = False
            object.__setattr__(self, name, value)
        object.__setattr__(self, "minibatch_size", mb)

    @classmethod
    def from_file(cls, data_path, delimiter: str | bytes | None = ",",
                  minibatch_size: int = 0) -> "LogisticDataset":
        """Load headerless delimited text: d feature columns then a label column.

        ``delimiter`` is what ``np.loadtxt`` takes: one character (str, or
        latin-1 bytes) other than a newline or the comment mark '#', or None
        for runs of whitespace.  A fault in the file's contents (no data
        rows, too few columns) is a ``data_path: <file>: ...`` error, and a
        non-finite feature or a label other than 0 or 1 is
        ``data_path: <file>: row <r>: ...``, r counting parsed rows from 1.

        The last file parsed is kept, keyed by its resolved path, the
        delimiter and the file's bytes, and the bytes read for the key are
        the ones parsed.  So a process that reads one file for several runs
        parses it once, and a rewritten file is parsed anew.
        """
        text = delimiter.decode("latin1") if isinstance(delimiter, bytes) else delimiter
        if text is not None and (not isinstance(text, str) or len(text) != 1 or text in "\r\n#"):
            raise InvalidInputError("delimiter: must be one character other than a newline "
                                    f"or '#', or null for whitespace, got {delimiter!r}")
        try:
            path = Path(data_path)
            data = path.read_bytes()
        except (TypeError, ValueError):
            key, source = None, data_path  # not a path: np.loadtxt reports the fault
        else:
            key = (path.resolve(), delimiter, data)
            source = io.TextIOWrapper(io.BytesIO(data))  # the key's bytes, decoded as open() would
        raw = _PARSED.get(key)
        if raw is None:
            raw = cls._parse(source, data_path, delimiter)
            if key is not None:
                _PARSED.clear()
                _PARSED[key] = raw
        return cls(features=raw[:, :-1], labels=raw[:, -1], minibatch_size=minibatch_size)

    @staticmethod
    def _parse(source, data_path, delimiter) -> np.ndarray:
        """``from_file``'s parse of ``source`` and its row checks, faults named
        by ``data_path``: the (rows, d + 1) array, read-only."""
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # an empty file is reported below
                raw = np.loadtxt(source, delimiter=delimiter, ndmin=2)
        except ValueError as exc:
            reason = " ".join(str(exc).split())  # numpy's text may span lines
            raise InvalidInputError(f"data_path: could not parse dataset file {data_path}: {reason}") from exc
        try:
            if raw.size == 0:
                raise InvalidInputError("no data rows")
            if raw.shape[1] < 2:
                raise InvalidInputError("dataset needs at least one feature column and a label column")
            finite = np.all(np.isfinite(raw[:, :-1]), axis=1)
            bad = np.flatnonzero(~(finite & np.isin(raw[:, -1], (0.0, 1.0))))
            if bad.size:
                rule = "features must be finite" if not finite[bad[0]] else "label must be 0 or 1"
                raise InvalidInputError(f"row {bad[0] + 1}: {rule}, got {raw[bad[0]].tolist()}")
        except InvalidInputError as exc:
            raise InvalidInputError(f"data_path: {data_path}: {exc}") from None
        raw.flags.writeable = False
        return raw


class LogisticPosterior(TargetModel):
    """Bayesian logistic regression posterior with a standard normal prior.

    The log likelihood (optionally estimated from a minibatch, rescaled by
    N / |B|) plus the prior log density.  Curvature is the Fisher information
    of the rescaled likelihood plus the prior's identity.
    """

    kind = "logistic_posterior"
    config_keys = ("data_path", "delimiter", "minibatch_size")
    curvature_source = "fisher"

    def __init__(self, dataset: LogisticDataset):
        self.dataset = dataset
        self.dim = dataset.features.shape[1]
        self._batch_idx = None  # None means full batch
        self._last_probabilities = None  # (points, batch index, probabilities)

    # --- minibatch control -------------------------------------------------------
    def resample_minibatch(self, rng: np.random.Generator) -> None:
        self._last_probabilities = None
        rows, size = len(self.dataset.features), self.dataset.minibatch_size
        if 0 < size < rows:
            self._batch_idx = np.sort(rng.choice(rows, size=size, replace=False))

    def _active(self):
        rows = slice(None) if self._batch_idx is None else self._batch_idx
        feats = self.dataset.features[rows]
        return feats, self.dataset.labels[rows], len(self.dataset.features) / len(feats)

    # --- density surface ---------------------------------------------------------
    def log_density_batch(self, points):
        points = as_points(points, self.dim)
        feats, labs, scale = self._active()
        z = points @ feats.T  # (n, |B|)
        sign = 2.0 * labs - 1.0
        loglik = -np.logaddexp(0.0, -sign[None, :] * z).sum(axis=1)
        prior = -0.5 * np.sum(points * points, axis=1) - 0.5 * self.dim * np.log(2.0 * np.pi)
        return scale * loglik + prior

    def _probabilities(self, points, feats):
        """sigma(x_i . f_r) for each point and active row, shape (n, |B|): one
        GEMM, whose output ``_sigmoid`` overwrites with the probabilities, so
        the pass allocates one (n, |B|) array.  The last result is kept
        read-only and returned again while the points and the active batch
        are the same, as when a refresh's curvature and the score read one
        iteration's particles."""
        last = self._last_probabilities
        if last is not None and last[1] is self._batch_idx and np.array_equal(last[0], points):
            return last[2]
        probs = _sigmoid(points @ feats.T)
        probs.flags.writeable = False
        self._last_probabilities = (points.copy(), self._batch_idx, probs)
        return probs

    def grad_log_density_batch(self, points):
        points = as_points(points, self.dim)
        feats, labs, scale = self._active()
        return scale * (labs @ feats - self._probabilities(points, feats) @ feats) - points

    def _fisher_weights(self, points):
        feats, _, scale = self._active()
        probs = self._probabilities(points, feats)
        return feats, scale, probs * (1.0 - probs)

    def _curvature_batch(self, points):
        # row i of ``packed`` is particle i's upper triangle, w_i @ (f_ra f_rb);
        # a block's temporaries are its products and the gathered f_rb
        feats, scale, w = self._fisher_weights(points)
        a, b = np.triu_indices(self.dim)
        packed = np.zeros((len(points), len(a)))
        for rows in _chunks(len(feats), 2 * len(a)):
            block = feats[rows]
            products = block[:, a]
            products *= block[:, b]
            packed += w[:, rows] @ products
        index = np.empty((self.dim, self.dim), dtype=int)
        index[a, b] = index[b, a] = np.arange(len(a))
        stack = packed[:, index]
        stack *= scale
        stack += np.eye(self.dim)
        return stack

    def _mean_curvature(self, points):
        feats, scale, w = self._fisher_weights(points)
        return scale * (feats.T * w.mean(axis=0)) @ feats + np.eye(self.dim)


def target_class(kind) -> type[TargetModel]:
    """The target class named ``kind``; an unknown kind is a ConfigError."""
    classes = {cls.kind: cls for cls in (Gaussian, StarMixture, Sine, DoubleBanana, LogisticPosterior)}
    return classes[as_choice(kind, "target.kind", classes, ConfigError)]


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
    cls = target_class(kind)
    if kind == "gaussian" and set(params) <= {"mean"}:
        mean = params.get("mean", [0.0, 0.0])
        params = {"mean": mean, "cov": np.eye(np.size(mean))}
    # a parameter's own error starts with its key, as in "alpha: ..."
    with at_key_path("target", cls.config_keys, (TypeError, ValueError)):
        if kind == "gaussian" and "cov" in params and "mean" not in params:
            raise ConfigError("mean: required when cov is given")
        if kind == "logistic_posterior" and "data_path" not in params:
            raise ConfigError("data_path: required for logistic_posterior")
        if kind == "logistic_posterior":
            params = {"dataset": LogisticDataset.from_file(**params)}
        return cls(**params)
