"""Matrix-valued RBF kernels and their Stein update directions.

For a matrix kernel K the update direction driven by a particle set
x_1..x_n with scores g_j = grad log p(x_j) is

    phi(x_i) = (1/n) sum_j [ K(x_i, x_j) g_j + div_j K(x_i, x_j) ],

where the divergence is taken row-wise over the second argument:
(div_j K)_l = sum_m d/dx_j^m K_{lm}(x_i, x_j).  Four kernel kinds are
implemented, each with its closed-form divergence:

- ``scalar_rbf``: k(x,x') I with k the Gaussian RBF, divergence
  k * (x - x') / h.
- ``const_precond``: Q^{-1} k_Q(x,x') with k_Q the RBF under the Q-metric
  squared distance, divergence k_Q * (x - x') / h (the Q^{-1} and the metric's
  Q cancel).
- ``mixture_precond``: sum_l w_l(x) w_l(x') K_{Q_l}(x,x') with Gaussian
  mixture weights anchored at points z_l; the divergence picks up a
  K_{Q_l}(x,x') grad w_l(x') term from the product rule.
- ``diagonal``: independent per-coordinate RBF factors with per-coordinate
  bandwidths.

Bandwidths are plain (unsquared) denominators: k = exp(-dist^2 / (2h)).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import logsumexp

from .errors import ConfigError, InvalidInputError
from .psdlin import (
    PreconditionerBundle,
    pairwise_mahalanobis_sq,
    pairwise_sq_dists,
)


def _check_points(points) -> np.ndarray:
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[0] < 1:
        raise InvalidInputError(f"expected a (n, d) particle array, got shape {points.shape}")
    if not np.all(np.isfinite(points)):
        raise InvalidInputError("particles have non-finite coordinates")
    return points


def median_bandwidth(points, metric: PreconditionerBundle | None = None) -> float:
    """Median-trick bandwidth: median pairwise squared distance over log(n+1).

    Distances are Euclidean, or Mahalanobis under ``metric`` when a bundle is
    given.  Needs at least two points; if all points coincide the median is
    zero and the fallback bandwidth 1.0 is returned.
    """
    points = _check_points(points)
    n = points.shape[0]
    if n < 2:
        raise InvalidInputError("median bandwidth needs at least two points")
    if metric is None:
        d2 = pairwise_sq_dists(points)
    else:
        d2 = pairwise_mahalanobis_sq(points, None, metric)
    iu = np.triu_indices(n, k=1)
    h = float(np.median(d2[iu])) / np.log(n + 1.0)
    return h if h > 0.0 else 1.0


def per_coordinate_median_bandwidths(points) -> np.ndarray:
    """Median-trick bandwidth per coordinate (for the diagonal kernel)."""
    points = _check_points(points)
    n, d = points.shape
    if n < 2:
        raise InvalidInputError("median bandwidth needs at least two points")
    iu = np.triu_indices(n, k=1)
    out = np.empty(d)
    for m in range(d):
        diff = points[:, m, None] - points[None, :, m]
        h = float(np.median((diff * diff)[iu])) / np.log(n + 1.0)
        out[m] = h if h > 0.0 else 1.0
    return out


def _check_bandwidth(h) -> float:
    if h is None:
        raise ConfigError("kernel bandwidth is unresolved; resolve it (median trick) before use")
    h = float(h)
    if not np.isfinite(h) or h <= 0.0:
        raise ConfigError(f"kernel bandwidth must be positive and finite, got {h}")
    return h


class KernelStrategy:
    """Common surface: pointwise evaluation, Stein direction, block Gram."""

    kind: str = "abstract"
    dim: int = 0

    def eval(self, x, y) -> np.ndarray:
        raise NotImplementedError

    def direction(self, points: np.ndarray, grads: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def gram(self, points: np.ndarray) -> np.ndarray:
        points = self._check_pair_inputs(points)
        n, d = points.shape
        out = np.empty((n * d, n * d))
        for i in range(n):
            for j in range(i, n):
                block = self.eval(points[i], points[j])
                out[i * d:(i + 1) * d, j * d:(j + 1) * d] = block
                if j > i:
                    out[j * d:(j + 1) * d, i * d:(i + 1) * d] = block.T
        return out

    def _check_point(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.ndim != 1 or (self.dim and x.shape[0] != self.dim):
            raise InvalidInputError(f"expected a point of dimension {self.dim}, got shape {x.shape}")
        return x

    def _check_pair_inputs(self, points, grads=None):
        points = _check_points(points)
        if self.dim and points.shape[1] != self.dim:
            raise InvalidInputError(f"particles have dimension {points.shape[1]}, kernel expects {self.dim}")
        if grads is None:
            return points
        grads = np.asarray(grads, dtype=float)
        if grads.shape != points.shape:
            raise InvalidInputError(f"grads shape {grads.shape} must match particles shape {points.shape}")
        return points, grads


class ScalarRBF(KernelStrategy):
    """Gaussian RBF times the identity matrix."""

    kind = "scalar_rbf"

    def __init__(self, bandwidth: float):
        self.bandwidth = _check_bandwidth(bandwidth)

    def eval(self, x, y):
        x, y = self._check_point(x), self._check_point(y)
        d = x - y
        return np.exp(-float(d @ d) / (2.0 * self.bandwidth)) * np.eye(x.shape[0])

    def direction(self, points, grads):
        points, grads = self._check_pair_inputs(points, grads)
        n = points.shape[0]
        s = np.exp(-pairwise_sq_dists(points) / (2.0 * self.bandwidth))
        drive = s @ grads
        repulse = (s.sum(axis=1)[:, None] * points - s @ points) / self.bandwidth
        return (drive + repulse) / n


class ConstPrecond(KernelStrategy):
    """Q^{-1}-valued RBF measured in the Q metric.

    K(x, x') = Q^{-1} exp(-(x-x')^T Q (x-x') / (2h)).  Preconditions the
    driving term by Q^{-1} while the divergence term stays (x - x')/h times
    the scalar factor.
    """

    kind = "const_precond"

    def __init__(self, bundle: PreconditionerBundle, bandwidth: float):
        self.bundle = bundle
        self.bandwidth = _check_bandwidth(bandwidth)
        self.dim = bundle.dim

    def _scalar(self, points):
        return np.exp(-pairwise_mahalanobis_sq(points, None, self.bundle) / (2.0 * self.bandwidth))

    def eval(self, x, y):
        x, y = self._check_point(x), self._check_point(y)
        d = x - y
        s = np.exp(-max(float(d @ self.bundle.q @ d), 0.0) / (2.0 * self.bandwidth))
        return s * self.bundle.q_inv

    def direction(self, points, grads):
        points, grads = self._check_pair_inputs(points, grads)
        n = points.shape[0]
        s = self._scalar(points)
        drive = (s @ grads) @ self.bundle.q_inv
        repulse = (s.sum(axis=1)[:, None] * points - s @ points) / self.bandwidth
        return (drive + repulse) / n


class DiagonalRBF(KernelStrategy):
    """Coordinatewise RBF factors with their own bandwidths on the diagonal."""

    kind = "diagonal"

    def __init__(self, bandwidths):
        bandwidths = np.asarray(bandwidths, dtype=float)
        if bandwidths.ndim != 1 or bandwidths.size < 1:
            raise ConfigError("diagonal kernel needs a vector of per-coordinate bandwidths")
        if not np.all(np.isfinite(bandwidths)) or np.any(bandwidths <= 0.0):
            raise ConfigError("per-coordinate bandwidths must be positive and finite")
        self.bandwidths = bandwidths
        self.dim = bandwidths.size

    def eval(self, x, y):
        x, y = self._check_point(x), self._check_point(y)
        d = x - y
        return np.diag(np.exp(-d * d / (2.0 * self.bandwidths)))

    def direction(self, points, grads):
        points, grads = self._check_pair_inputs(points, grads)
        n = points.shape[0]
        out = np.empty_like(points)
        for m, h in enumerate(self.bandwidths):
            diff = points[:, m, None] - points[None, :, m]
            s = np.exp(-diff * diff / (2.0 * h))
            drive = s @ grads[:, m]
            repulse = (s.sum(axis=1) * points[:, m] - s @ points[:, m]) / h
            out[:, m] = (drive + repulse) / n
        return out


@dataclass(frozen=True)
class AnchorSet:
    """Anchors for the mixture kernel: points, local metrics, bandwidths."""

    points: np.ndarray
    bundles: tuple[PreconditionerBundle, ...]
    bandwidths: np.ndarray

    def __post_init__(self):
        points = _check_points(self.points)
        bandwidths = np.asarray(self.bandwidths, dtype=float)
        if len(self.bundles) != points.shape[0] or bandwidths.shape != (points.shape[0],):
            raise InvalidInputError("anchors need one bundle and one bandwidth per point")
        if any(b.dim != points.shape[1] for b in self.bundles):
            raise InvalidInputError("anchor bundle dimensions must match anchor points")
        if not np.all(np.isfinite(bandwidths)) or np.any(bandwidths <= 0.0):
            raise InvalidInputError("anchor bandwidths must be positive and finite")
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "bundles", tuple(self.bundles))
        object.__setattr__(self, "bandwidths", bandwidths)

    @property
    def size(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]


def _anchor_log_scores(points, anchors: AnchorSet) -> np.ndarray:
    """log of N(x; z_l, Q_l^{-1}) for each point/anchor pair, up to the
    shared (2 pi)^{-d/2} factor that cancels in the weights."""
    out = np.empty((points.shape[0], anchors.size))
    for l, bundle in enumerate(anchors.bundles):
        m2 = pairwise_mahalanobis_sq(points, anchors.points[l:l + 1], bundle)[:, 0]
        out[:, l] = 0.5 * bundle.log_det - 0.5 * m2
    return out


def mixture_weights(x, anchors: AnchorSet) -> np.ndarray:
    """Normalized anchor responsibilities w_l(x); a point on the simplex."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.shape[0] != anchors.dim:
        raise InvalidInputError(f"expected a point of dimension {anchors.dim}, got shape {x.shape}")
    scores = _anchor_log_scores(x[None, :], anchors)
    return np.exp(scores[0] - logsumexp(scores[0]))


class MixturePrecond(KernelStrategy):
    """Mixture of constant-preconditioner kernels glued by anchor weights.

    K(x, x') = sum_l w_l(x) w_l(x') K_{Q_l}(x, x') where w_l are the
    responsibilities of Gaussians N(z_l, Q_l^{-1}).  The Stein direction
    distributes over anchors; each anchor contributes its driving term, its
    repulsion term, and a weight-gradient term from differentiating
    w_l(x') under the divergence.
    """

    kind = "mixture_precond"

    def __init__(self, anchors: AnchorSet):
        self.anchors = anchors
        self.dim = anchors.dim

    def weights(self, points) -> np.ndarray:
        points = self._check_pair_inputs(points)
        scores = _anchor_log_scores(points, self.anchors)
        return np.exp(scores - logsumexp(scores, axis=1, keepdims=True))

    def weight_gradients(self, points) -> np.ndarray:
        """grad of w_l at each point, shape (n, m, d).

        grad w_l(x) = w_l(x) (t_l(x) - sum_l' w_l'(x) t_l'(x)) with
        t_l(x) = -Q_l (x - z_l) the score of the anchor Gaussian.
        """
        points = self._check_pair_inputs(points)
        w = self.weights(points)
        t = np.stack([-(points - self.anchors.points[l]) @ b.q
                      for l, b in enumerate(self.anchors.bundles)])  # (m, n, d)
        avg = np.einsum("nl,lnd->nd", w, t)
        return w[:, :, None] * (t.transpose(1, 0, 2) - avg[:, None, :])

    def eval(self, x, y):
        x, y = self._check_point(x), self._check_point(y)
        wx = mixture_weights(x, self.anchors)
        wy = mixture_weights(y, self.anchors)
        d = x - y
        out = np.zeros((self.dim, self.dim))
        for l, (bundle, h) in enumerate(zip(self.anchors.bundles, self.anchors.bandwidths)):
            s = np.exp(-max(float(d @ bundle.q @ d), 0.0) / (2.0 * h))
            out += wx[l] * wy[l] * s * bundle.q_inv
        return out

    def direction(self, points, grads):
        points, grads = self._check_pair_inputs(points, grads)
        n = points.shape[0]
        w = self.weights(points)
        wg = self.weight_gradients(points)
        phi = np.zeros_like(points)
        for l, (bundle, h) in enumerate(zip(self.anchors.bundles, self.anchors.bandwidths)):
            s = np.exp(-pairwise_mahalanobis_sq(points, None, bundle) / (2.0 * h))
            # w_l(x_j) K_l g_j and K_l grad w_l(x_j) share the Q_l^{-1} factor
            drive = (s @ (w[:, l, None] * grads + wg[:, l, :])) @ bundle.q_inv
            sw = s * w[None, :, l]
            repulse = (sw.sum(axis=1)[:, None] * points - sw @ points) / h
            phi += w[:, l, None] * (drive + repulse)
        return phi / n

