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
own metric.  Their directions all go through ``_stein_sum``, and the pairwise
squared distances of the directions and bandwidths come from
``_metric_sq_dists``, computed a chunk of metrics at a time (``CHUNK_BYTES``);
the MMD scoring in ``metrics`` uses it too, with the identity metric.  The
mixture weights form the (m, n, d) offsets of the points from the anchors
instead, because the anchor Gaussians' scores need the offsets themselves.
The mixture's anchor weights are mostly round-off: ``_stein_sum`` forms each
anchor's kernel only over the particles whose weight is above
``WEIGHT_FLOOR``.

Bandwidths are plain (unsquared) denominators: k = exp(-dist^2 / (2h)).
``median_bandwidth`` picks them by the median trick; given a stacked bundle
(one metric per mixture anchor) it returns one bandwidth per metric.  The
one exception to ``_metric_sq_dists`` is a stack with d <= 3: its metrics
share one table of pair-difference products (``_pair_table_medians``), which
costs no more per pair there and needs no (n, n) matrix.
"""

from __future__ import annotations

import numpy as np
from scipy.special import logsumexp

from .errors import ConfigError, InvalidInputError, as_points, as_real
from .psdlin import PreconditionerBundle, identity_bundle


# byte budget for the temporaries of every chunked loop here and in
# ``metrics`` (see ``_chunks``): each chunk holds about this many bytes
CHUNK_BYTES = 1 << 19

# a mixture weight at or below this is round-off: the Stein sum skips the
# (anchor, particle) pairs that carry one (see ``_stein_sum``)
WEIGHT_FLOOR = 1e-16


def _chunks(count: int, floats: int) -> list[slice]:
    """Slices covering ``count`` items of ``floats`` floats, about CHUNK_BYTES each."""
    step = max(1, CHUNK_BYTES // (8 * floats))
    return [slice(lo, lo + step) for lo in range(0, count, step)]


def _metric_sq_dists(points, q, others=None) -> np.ndarray:
    """Squared distances from ``points`` to ``others`` (default: ``points``
    themselves) under each metric of the (c, d, d) stack ``q``, shape
    (c, n, n_others).  ``points`` may also be a (c, n, d) stack, one point set
    per metric, each measured against itself.

    Expanded form x_i'Q x_i + y_j'Q y_j - 2 x_i'Q y_j: for shared points the
    cross terms of the whole chunk come from one (c*n, d) @ (d, n_others) GEMM.
    """
    xq = points @ q  # (c, n, d)
    c, n, d = xq.shape
    sq = np.sum(xq * points, axis=2)
    if others is None:
        others, sq_others = points, sq
    else:
        sq_others = np.sum((others @ q) * others, axis=2)
    d2 = sq[:, :, None] + sq_others[:, None, :]
    if points.ndim == 3:
        d2 += (-2.0 * xq) @ points.transpose(0, 2, 1)
    else:
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
    bandwidth per metric, shape (m,).  Needs at least two points; if all
    points coincide the median is zero and the fallback bandwidth 1.0 is
    returned.

    A stack with d <= 3 shares one table of pair-difference products across
    its metrics (``_pair_table_medians``): there d(d+1)/2 <= 2d, so a pair
    costs no more multiply-adds than in the expanded form, and no (n, n)
    matrix or triangle gather is needed.  A single metric, which has no
    metrics to share the table with (and whose route MMD's pooled bandwidth
    must match bit for bit), and a stack with d > 3 take the expanded form of
    ``_metric_sq_dists``, a chunk of metrics at a time.
    """
    points = as_points(points, None if metric is None else metric.dim)
    n, d = points.shape
    if n < 2:
        raise InvalidInputError("median bandwidth needs at least two points")
    q = (metric or identity_bundle(d)).q
    stack = q.reshape(-1, d, d)
    if np.all(points == points[0]):
        # exact zeros: the expanded form leaves round-off where points coincide
        medians = np.zeros(len(stack))
    elif q.ndim > 2 and d <= 3:
        medians = _pair_table_medians(points, stack)
    else:
        upper = np.flatnonzero(np.triu(np.ones((n, n), dtype=bool), k=1))
        medians = np.empty(stack.shape[0])
        for chunk in _chunks(stack.shape[0], n * n):
            d2 = _metric_sq_dists(points, stack[chunk])
            medians[chunk] = _row_medians(np.take(d2.reshape(len(d2), -1), upper, axis=1))
    h = _median_trick(medians.reshape(q.shape[:-2]), n)
    return float(h) if h.ndim == 0 else h


def _pair_table_medians(points, q) -> np.ndarray:
    """Median squared pair distance of ``points`` under each metric of the
    (m, d, d) stack ``q``, shape (m,).

    With u = x_i - x_j over the pairs i < j, u'Q u = sum_{a <= b} c_ab t_ab
    where t_ab = u_a u_b (doubled for a < b) and c_ab = Q_ab.  The
    (d(d+1)/2, n(n-1)/2) table t is built once; each metric's distances are
    one row of ``coef @ t``, formed a chunk of metrics of about
    ``CHUNK_BYTES`` at a time.
    """
    n, d = points.shape
    i, j = np.triu_indices(n, k=1)
    u = (points[i] - points[j]).T  # (d, pairs)
    a, b = np.triu_indices(d)
    table = u[a] * u[b]
    table[a != b] *= 2.0
    coef = q[:, a, b]
    medians = np.empty(len(q))
    for chunk in _chunks(len(q), len(i)):
        d2 = coef[chunk] @ table
        medians[chunk] = _row_medians(np.maximum(d2, 0.0, out=d2))
    return medians


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
                   + grad w_l(x_j)) + w_l(x_j) (x_i - x_j) / h_l].

    Anchor l's term is scaled by w_l(x_i) on the left, and on the right by
    w_l(x_j) and grad w_l(x_j), which is proportional to w_l(x_j).  So it is
    formed only over l's active particles, those whose weight is above
    ``WEIGHT_FLOOR`` or not finite (a NaN weight must reach the direction),
    as both rows and columns: what is skipped is round-off.  Anchors are
    sorted by active count and processed a chunk at a time (see
    ``_active_chunks``), each one's active set padded to the chunk's largest
    with weight 0 and weight gradient 0, which add exact zeros.  When every
    pair is active (one anchor of unit weight, or dense weights), the anchors
    share the whole particle set, a chunk of about ``CHUNK_BYTES`` at a time,
    and nothing is gathered or scattered.
    """
    n, d = points.shape
    active = ~(w.T <= WEIGHT_FLOOR)  # (m, n)
    h = h[:, None, None]
    phi = np.zeros_like(points)
    if np.all(active):
        for chunk in _chunks(len(h), n * n):
            wc = w.T[chunk]
            phi += np.einsum("ln,lnd->nd", wc, _anchor_terms(
                points, grads, wc, wg[chunk], q[chunk], q_inv[chunk], h[chunk]))
        return phi / n
    counts = np.count_nonzero(active, axis=1)
    for anchors, size in _active_chunks(counts):
        # each row lists its anchor's active particles first; the rest pads
        idx = np.argsort(~active[anchors], axis=1, kind="stable")[:, :size]
        pad = np.arange(size) >= counts[anchors][:, None]
        wc = np.where(pad, 0.0, w[idx, anchors[:, None]])
        wgc = np.where(pad[:, :, None], 0.0, wg[anchors[:, None], idx])
        terms = _anchor_terms(points[idx], grads[idx], wc, wgc, q[anchors], q_inv[anchors], h[anchors])
        np.add.at(phi, idx, wc[:, :, None] * terms)
    return phi / n


def _active_chunks(counts: np.ndarray) -> list[tuple[np.ndarray, int]]:
    """Anchors with at least one active particle, in ascending order of their
    active ``counts``, cut into chunks of c anchors with c s^2 floats about
    ``CHUNK_BYTES``, s being the chunk's largest count; a list of (anchor
    indices, s)."""
    order = np.argsort(counts, kind="stable")
    order = order[counts[order] > 0]
    sizes = counts[order]
    budget = CHUNK_BYTES // 8
    out = []
    lo = 0
    while lo < len(order):
        # sizes ascend, so the anchors that fit after lo are a prefix
        fits = np.arange(1, len(order) - lo + 1) * sizes[lo:] ** 2 <= budget
        hi = lo + max(1, int(np.count_nonzero(fits)))
        out.append((order[lo:hi], int(sizes[hi - 1])))
        lo = hi
    return out


def _anchor_terms(points, grads, w, wg, q, q_inv, h) -> np.ndarray:
    """For a chunk of c anchors, each anchor l's sum over j in ``_stein_sum``
    at each of its rows x_i (before the left weight w_l(x_i)), shape (c, s, d).

    ``points``/``grads`` are (s, d), shared by the chunk, or (c, s, d), one
    set per anchor; ``w`` is (c, s), ``wg`` (c, s, d) and ``h`` (c, 1, 1).
    """
    d = points.shape[-1]
    s = _metric_sq_dists(points, q)
    np.divide(s, -2.0 * h, out=s)
    np.exp(s, out=s)
    wt = w[:, :, None]
    # one product gives sum_j s_ij of [w_l(x_j) g_j + grad w_l(x_j), w_l(x_j) x_j, w_l(x_j)]
    sums = s @ np.concatenate([wt * grads + wg, wt * points, wt], axis=2)
    # w_l(x_j) K_l g_j and K_l grad w_l(x_j) share the Q_l^{-1} factor
    drive = sums[:, :, :d] @ q_inv
    repulse = (sums[:, :, 2 * d:] * points - sums[:, :, d:2 * d]) / h
    return drive + repulse


def _one_metric_direction(points, grads, bundle: PreconditionerBundle, h: float) -> np.ndarray:
    """``_stein_sum`` for one anchor of unit weight: the kernel Q^{-1} k_Q."""
    n, d = points.shape
    return _stein_sum(points, grads, bundle.q[None], bundle.q_inv[None], np.array([h]),
                      np.ones((n, 1)), np.zeros((1, n, d)))


class KernelStrategy:
    """Common surface: the Stein direction of a particle set."""

    kind: str = "abstract"
    dim: int = 0

    def direction(self, points: np.ndarray, grads: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _check_pair_inputs(self, points, grads):
        points = as_points(points, self.dim or None)
        grads = np.asarray(grads, dtype=float)
        if grads.shape != points.shape:
            raise InvalidInputError(f"grads shape {grads.shape} must match particles shape {points.shape}")
        return points, grads


class ScalarRBF(KernelStrategy):
    """Gaussian RBF times the identity matrix."""

    kind = "scalar_rbf"

    def __init__(self, bandwidth: float):
        self.bandwidth = as_real(bandwidth, "bandwidth", ConfigError, positive=True, finite=True)

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
        self.bandwidth = as_real(bandwidth, "bandwidth", ConfigError, positive=True, finite=True)
        self.dim = bundle.dim

    def direction(self, points, grads):
        points, grads = self._check_pair_inputs(points, grads)
        return _one_metric_direction(points, grads, self.bundle, self.bandwidth)


def _anchor_log_scores(points, kernel: MixturePrecond):
    """log of N(x; z_l, Q_l^{-1}) for each point/anchor pair, shape (n, m), up
    to the shared (2 pi)^{-d/2} factor that cancels in the weights; and the
    anchor Gaussians' scores t_l(x) = -Q_l (x - z_l), shape (m, n, d)."""
    diff = points[None, :, :] - kernel.points[:, None, :]
    t = -(diff @ kernel.bundle.q)
    log_p = 0.5 * kernel.bundle.log_det[:, None] + 0.5 * np.sum(diff * t, axis=2)
    return log_p.T, t


class MixturePrecond(KernelStrategy):
    """Mixture of constant-preconditioner kernels glued by anchor weights.

    K(x, x') = sum_l w_l(x) w_l(x') K_{Q_l}(x, x') where w_l are the
    responsibilities of Gaussians N(z_l, Q_l^{-1}).  The anchor set is the
    kernel's whole state: ``points`` z_l, one stacked ``bundle`` of local
    metrics Q_l (q of shape (m, d, d)) and one bandwidth h_l per anchor in
    ``bandwidths``.  The Stein direction distributes over anchors; each
    anchor contributes its driving term, its repulsion term, and a
    weight-gradient term from differentiating w_l(x') under the divergence.
    Each anchor's term is formed only over the particles where its weight is
    above ``WEIGHT_FLOOR``, anchors of similar active counts a chunk at a
    time (see ``_stein_sum``).
    """

    kind = "mixture_precond"

    def __init__(self, points, bundle: PreconditionerBundle, bandwidths):
        points = as_points(points)
        bandwidths = np.asarray(bandwidths, dtype=float)
        if bundle.q.shape[:-2] != points.shape[:1] or bandwidths.shape != points.shape[:1]:
            raise InvalidInputError("anchors need one metric and one bandwidth per point")
        if bundle.dim != points.shape[1]:
            raise InvalidInputError("anchor metric dimensions must match anchor points")
        if not np.all(np.isfinite(bandwidths)) or np.any(bandwidths <= 0.0):
            raise InvalidInputError("anchor bandwidths must be positive and finite")
        self.points = points
        self.bundle = bundle
        self.bandwidths = bandwidths
        self.dim = points.shape[1]

    def _weights_and_gradients(self, points):
        """w_l(x_i), shape (n, m), and grad w_l(x_i), shape (m, n, d).

        grad w_l(x) = w_l(x) (t_l(x) - sum_l' w_l'(x) t_l'(x)) with
        t_l(x) = -Q_l (x - z_l) the score of the anchor Gaussian.
        """
        scores, t = _anchor_log_scores(points, self)
        w = np.exp(scores - logsumexp(scores, axis=1, keepdims=True))
        avg = np.einsum("nl,lnd->nd", w, t)
        t -= avg[None, :, :]
        t *= w.T[:, :, None]
        return w, t

    def direction(self, points, grads):
        points, grads = self._check_pair_inputs(points, grads)
        w, wg = self._weights_and_gradients(points)
        return _stein_sum(points, grads, self.bundle.q, self.bundle.q_inv, self.bandwidths, w, wg)
