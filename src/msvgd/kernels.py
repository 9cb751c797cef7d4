"""Matrix-valued RBF kernels and their Stein update directions.

For a matrix kernel K the update direction driven by a particle set
x_1..x_n with scores g_j = grad log p(x_j) is

    phi(x_i) = (1/n) sum_j [ K(x_i, x_j) g_j + div_j K(x_i, x_j) ],

where the divergence is taken row-wise over the second argument:
(div_j K)_l = sum_m d/dx_j^m K_{lm}(x_i, x_j).  Three kernel kinds are
implemented, each with its closed-form divergence:

- ``scalar_rbf``: k(x,x') I with k the Gaussian RBF, divergence
  k * (x - x') / h.
- ``const_precond``: Q^{-1} k_Q(x,x') with k_Q the RBF under the Q-metric
  squared distance, divergence k_Q * (x - x') / h (the Q^{-1} and the metric's
  Q cancel).
- ``mixture_precond``: sum_l w_l(x) w_l(x') K_{Q_l}(x,x') with Gaussian
  mixture weights anchored at points z_l; the divergence picks up a
  K_{Q_l}(x,x') grad w_l(x') term from the product rule.

They are one family: the scalar RBF is the mixture with one anchor, unit
weight and the identity metric, and ``const_precond`` is the same with its
own metric.  Their directions all go through ``_stein_sum``, and every pair
distance here comes from ``_metric_sq_dists``, computed a chunk of metrics at
a time (``CHUNK_BYTES``); the MMD scoring in ``metrics`` uses it too, with
the identity metric.

Bandwidths are plain (unsquared) denominators: k = exp(-dist^2 / (2h)).
``median_bandwidth`` picks them by the median trick; given a stacked bundle
(one metric per mixture anchor) it returns one bandwidth per metric.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import logsumexp

from .errors import ConfigError, InvalidInputError
from .psdlin import PreconditionerBundle, identity_bundle


def _check_points(points) -> np.ndarray:
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[0] < 1:
        raise InvalidInputError(f"expected a (n, d) particle array, got shape {points.shape}")
    if not np.all(np.isfinite(points)):
        raise InvalidInputError("particles have non-finite coordinates")
    return points


# byte budget for the (chunk, n, n) float temporaries of the stacked-metric
# computations: anchors are processed this many bytes' worth at a time
CHUNK_BYTES = 1 << 19


def _chunks(count: int, n: int):
    """Slices covering ``count`` metrics, each holding about CHUNK_BYTES of (n, n) floats."""
    step = max(1, CHUNK_BYTES // (8 * n * n))
    return [slice(lo, lo + step) for lo in range(0, count, step)]


def _metric_sq_dists(points, q, others=None) -> np.ndarray:
    """Squared distances from ``points`` to ``others`` (default: ``points``
    themselves) under each metric of the (c, d, d) stack ``q``, shape
    (c, n, n_others).

    Expanded form x_i'Q x_i + y_j'Q y_j - 2 x_i'Q y_j: the cross terms of the
    whole chunk come from one (c*n, d) @ (d, n_others) GEMM.
    """
    xq = points @ q  # (c, n, d)
    c, n, d = xq.shape
    sq = np.sum(xq * points, axis=2)
    if others is None:
        others, sq_others = points, sq
    else:
        sq_others = np.sum((others @ q) * others, axis=2)
    d2 = sq[:, :, None] + sq_others[:, None, :]
    d2 += ((-2.0 * xq).reshape(c * n, d) @ others.T).reshape(c, n, -1)
    return np.maximum(d2, 0.0, out=d2)


def _row_medians(a: np.ndarray) -> np.ndarray:
    """``np.median(a, axis=-1)`` computed in place in ``a``.

    One partition at the upper middle rank plus a max over the lower part
    gives the two middle values; numpy's multi-rank partition (which
    ``np.median`` uses for an even count) is several times slower.  NaNs sort
    last, so a row holding one yields NaN, as ``np.median`` does.
    """
    k = a.shape[-1] // 2
    a.partition(k, axis=-1)
    upper = a[..., k]
    middle = upper if a.shape[-1] % 2 else (np.max(a[..., :k], axis=-1) + upper) / 2.0
    return np.where(np.isnan(np.max(a[..., k:], axis=-1)), np.nan, middle)


def median_bandwidth(points, metric: PreconditionerBundle | None = None):
    """Median-trick bandwidth: median pairwise squared distance over log(n+1).

    Distances are Mahalanobis under ``metric``, the identity (Euclidean) by
    default.  A stacked bundle (metric q of shape (m, d, d)) gives one
    bandwidth per metric, shape (m,); its distances are formed a chunk of
    metrics at a time.  Needs at least two points; if all points coincide
    the median is zero and the fallback bandwidth 1.0 is returned.
    """
    points = _check_points(points)
    n = points.shape[0]
    if n < 2:
        raise InvalidInputError("median bandwidth needs at least two points")
    q = (metric or identity_bundle(points.shape[1])).q
    stack = q.reshape(-1, *q.shape[-2:])
    upper = np.flatnonzero(np.triu(np.ones((n, n), dtype=bool), k=1))
    medians = np.empty(stack.shape[0])
    for chunk in _chunks(stack.shape[0], n):
        d2 = _metric_sq_dists(points, stack[chunk])
        medians[chunk] = _row_medians(np.take(d2.reshape(len(d2), -1), upper, axis=1))
    h = _median_trick(medians.reshape(q.shape[:-2]), n)
    return float(h) if h.ndim == 0 else h


def _median_trick(medians, n: int) -> np.ndarray:
    """Bandwidths from the median pairwise squared distances of ``n``
    points: median / log(n + 1), and 1.0 where the median is zero."""
    h = medians / np.log(n + 1.0)
    # a NaN median (overflowed distances) is passed on for the caller to flag
    return np.where(h == 0.0, 1.0, h)


def _stein_sum(points, grads, q, q_inv, h, w, wg) -> np.ndarray:
    """Stein direction of the kernel sum_l w_l(x) w_l(x') Q_l^{-1} k_l(x, x').

    ``q``/``q_inv`` are (m, d, d) metric stacks, ``h`` the (m,) bandwidths,
    ``w`` the weights w_l(x_j), shape (n, m), and ``wg`` their gradients,
    shape (m, n, d).  With k_l = k_{Q_l}(x_i, x_j),

        phi(x_i) = (1/n) sum_l w_l(x_i) sum_j k_l [Q_l^{-1} (w_l(x_j) g_j
                   + grad w_l(x_j)) + w_l(x_j) (x_i - x_j) / h_l],

    with anchors processed a chunk at a time (see ``CHUNK_BYTES``).
    """
    n, d = points.shape
    wt = w.T[:, :, None]  # (m, n, 1)
    h = h[:, None, None]
    phi = np.zeros_like(points)
    for chunk in _chunks(len(h), n):
        s = _metric_sq_dists(points, q[chunk])
        np.divide(s, -2.0 * h[chunk], out=s)
        np.exp(s, out=s)
        # one product gives sum_j s_ij of [w_l(x_j) g_j + grad w_l(x_j), w_l(x_j) x_j, w_l(x_j)]
        rhs = np.concatenate([wt[chunk] * grads + wg[chunk],
                              wt[chunk] * points, wt[chunk]], axis=2)
        sums = s @ rhs
        # w_l(x_j) K_l g_j and K_l grad w_l(x_j) share the Q_l^{-1} factor
        drive = sums[:, :, :d] @ q_inv[chunk]
        repulse = (sums[:, :, 2 * d:] * points - sums[:, :, d:2 * d]) / h[chunk]
        phi += np.einsum("ln,lnd->nd", w.T[chunk], drive + repulse)
    return phi / n


def _one_metric_direction(points, grads, bundle: PreconditionerBundle, h: float) -> np.ndarray:
    """``_stein_sum`` for one anchor of unit weight: the kernel Q^{-1} k_Q."""
    n, d = points.shape
    return _stein_sum(points, grads, bundle.q[None], bundle.q_inv[None], np.array([h]),
                      np.ones((n, 1)), np.zeros((1, n, d)))


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
        return _one_metric_direction(points, grads, identity_bundle(points.shape[1]), self.bandwidth)


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

    def eval(self, x, y):
        x, y = self._check_point(x), self._check_point(y)
        d = x - y
        s = np.exp(-max(float(d @ self.bundle.q @ d), 0.0) / (2.0 * self.bandwidth))
        return s * self.bundle.q_inv

    def direction(self, points, grads):
        points, grads = self._check_pair_inputs(points, grads)
        return _one_metric_direction(points, grads, self.bundle, self.bandwidth)


@dataclass(frozen=True)
class AnchorSet:
    """Anchors for the mixture kernel: points, one stacked bundle of local
    metrics (q of shape (m, d, d)) and one bandwidth per anchor."""

    points: np.ndarray
    bundle: PreconditionerBundle
    bandwidths: np.ndarray

    def __post_init__(self):
        points = _check_points(self.points)
        bandwidths = np.asarray(self.bandwidths, dtype=float)
        if self.bundle.q.shape[:-2] != points.shape[:1] or bandwidths.shape != points.shape[:1]:
            raise InvalidInputError("anchors need one metric and one bandwidth per point")
        if self.bundle.dim != points.shape[1]:
            raise InvalidInputError("anchor metric dimensions must match anchor points")
        if not np.all(np.isfinite(bandwidths)) or np.any(bandwidths <= 0.0):
            raise InvalidInputError("anchor bandwidths must be positive and finite")
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "bandwidths", bandwidths)

    @property
    def size(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]


def _anchor_log_scores(points, anchors: AnchorSet):
    """log of N(x; z_l, Q_l^{-1}) for each point/anchor pair, shape (n, m), up
    to the shared (2 pi)^{-d/2} factor that cancels in the weights; and the
    anchor Gaussians' scores t_l(x) = -Q_l (x - z_l), shape (m, n, d)."""
    diff = points[None, :, :] - anchors.points[:, None, :]
    t = -(diff @ anchors.bundle.q)
    log_p = 0.5 * anchors.bundle.log_det[:, None] + 0.5 * np.sum(diff * t, axis=2)
    return log_p.T, t


def mixture_weights(x, anchors: AnchorSet) -> np.ndarray:
    """Normalized anchor responsibilities w_l(x); a point on the simplex."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.shape[0] != anchors.dim:
        raise InvalidInputError(f"expected a point of dimension {anchors.dim}, got shape {x.shape}")
    scores = _anchor_log_scores(x[None, :], anchors)[0][0]
    return np.exp(scores - logsumexp(scores))


class MixturePrecond(KernelStrategy):
    """Mixture of constant-preconditioner kernels glued by anchor weights.

    K(x, x') = sum_l w_l(x) w_l(x') K_{Q_l}(x, x') where w_l are the
    responsibilities of Gaussians N(z_l, Q_l^{-1}).  The Stein direction
    distributes over anchors; each anchor contributes its driving term, its
    repulsion term, and a weight-gradient term from differentiating
    w_l(x') under the divergence.  Anchors are processed a chunk at a time
    (see ``CHUNK_BYTES``).
    """

    kind = "mixture_precond"

    def __init__(self, anchors: AnchorSet):
        self.anchors = anchors
        self.dim = anchors.dim

    def _weights_and_gradients(self, points):
        """w_l(x_i), shape (n, m), and grad w_l(x_i), shape (m, n, d).

        grad w_l(x) = w_l(x) (t_l(x) - sum_l' w_l'(x) t_l'(x)) with
        t_l(x) = -Q_l (x - z_l) the score of the anchor Gaussian.
        """
        scores, t = _anchor_log_scores(points, self.anchors)
        w = np.exp(scores - logsumexp(scores, axis=1, keepdims=True))
        avg = np.einsum("nl,lnd->nd", w, t)
        t -= avg[None, :, :]
        t *= w.T[:, :, None]
        return w, t

    def weight_gradients(self, points) -> np.ndarray:
        """grad of w_l at each point, shape (n, m, d)."""
        points = self._check_pair_inputs(points)
        return self._weights_and_gradients(points)[1].transpose(1, 0, 2)

    def eval(self, x, y):
        x, y = self._check_point(x), self._check_point(y)
        wx = mixture_weights(x, self.anchors)
        wy = mixture_weights(y, self.anchors)
        d = x - y
        bundle = self.anchors.bundle
        quad = np.maximum(np.einsum("i,lij,j->l", d, bundle.q, d), 0.0)
        s = np.exp(-quad / (2.0 * self.anchors.bandwidths))
        return np.tensordot(wx * wy * s, bundle.q_inv, axes=1)

    def direction(self, points, grads):
        points, grads = self._check_pair_inputs(points, grads)
        w, wg = self._weights_and_gradients(points)
        bundle = self.anchors.bundle
        return _stein_sum(points, grads, bundle.q, bundle.q_inv, self.anchors.bandwidths, w, wg)
