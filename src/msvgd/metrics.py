"""Sample-quality metrics: kernel MMD and posterior-predictive scores."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from .errors import InvalidInputError, as_points
from .kernels import CHUNK_BYTES, _median_trick, _metric_sq_dists
from .targets import LogisticDataset


@dataclass(frozen=True)
class MmdReport:
    """Squared MMD value plus the inputs that produced it."""

    value: float
    bandwidth: float
    n_x: int
    n_y: int


@dataclass(frozen=True)
class MmdReference:
    """Reference draws prepared for median-trick MMD scoring.

    ``sorted_pair_sq_dists`` holds the squared distances of the pairs i < j
    of ``points`` in ascending order, n(n-1)/2 floats (16 MB at n = 2000):
    the pooled median merges against it, and the kernel sum, whose value
    does not depend on the order of its terms, reads it too.  Both arrays
    are read-only.
    """

    points: np.ndarray
    sorted_pair_sq_dists: np.ndarray


def prepare_reference(ys) -> MmdReference:
    """The draws ``ys`` with their pair distances, formed a block of rows
    (about ``CHUNK_BYTES``) at a time, so no (n, n) matrix is held, and
    sorted in place once (O(n^2 log n)) for the pooled median of every
    later score."""
    ys = as_points(ys).copy()
    n = ys.shape[0]
    eye = np.eye(ys.shape[1])[None]
    pairs = np.empty(n * (n - 1) // 2)
    rows = max(1, CHUNK_BYTES // (8 * n))
    pos = 0
    for lo in range(0, n, rows):
        for i, row in enumerate(_metric_sq_dists(ys[lo:lo + rows], eye, ys)[0], start=lo):
            pairs[pos:pos + n - 1 - i] = row[i + 1:]
            pos += n - 1 - i
    pairs.sort()
    ys.flags.writeable = pairs.flags.writeable = False
    return MmdReference(points=ys, sorted_pair_sq_dists=pairs)


def _kernel_sum(d2: np.ndarray, bandwidth: float, out: np.ndarray | None = None) -> float:
    """Sum of exp(-d2 / (2 h)), computed in ``out`` (by default in place in ``d2``)."""
    out = d2 if out is None else out
    return float(np.exp(np.divide(d2, -2.0 * bandwidth, out=out), out=out).sum())


def _mean_kernel(xs: np.ndarray, ys: np.ndarray | None, bandwidth: float) -> float:
    """Mean RBF kernel value over all pairs of ``xs`` with ``ys``, computed a
    block of rows (about ``CHUNK_BYTES``) at a time.  ``ys`` None pairs
    ``xs`` with itself: a row block meets only the columns after each of its
    rows, so every unordered pair is formed once, and each self term is
    exp(0) = 1."""
    eye = np.eye(xs.shape[1])[None]
    own = ys is None
    ys = xs if own else ys
    rows = max(1, CHUNK_BYTES // (8 * len(ys)))
    total = float(len(xs)) if own else 0.0
    for lo in range(0, len(xs), rows):
        block = xs[lo:lo + rows]
        if own:
            d2 = _metric_sq_dists(block, eye, xs[lo:])[0]
            d2[:, :len(block)][np.tril_indices(len(block))] = np.inf  # kernel value 0
            total += 2.0 * _kernel_sum(d2, bandwidth)
        else:
            total += _kernel_sum(_metric_sq_dists(block, eye, ys)[0], bandwidth)
    return total / (len(xs) * len(ys))


def _rank_value(arrays, r: int):
    """The value of 0-based rank ``r`` in the union of ascending, NaN-free
    arrays.  Per array, a binary search finds the first value that more than
    ``r`` values of the union do not exceed; the least such value is the
    answer.  Each probe counts with one ``searchsorted`` per array, so the
    union is never formed."""
    def count_le(v):
        return sum(int(a.searchsorted(v, side="right")) for a in arrays)
    best = np.inf
    for a in arrays:
        lo, hi = 0, len(a)
        while lo < hi:
            mid = (lo + hi) // 2
            if count_le(a[mid]) > r:
                hi = mid
            else:
                lo = mid + 1
        if lo < len(a):
            best = min(best, a[lo])
    return best


def _union_median(arrays):
    """Median of the union of ascending arrays, with the float operations of
    ``kernels._row_medians``: the upper middle value for an odd count, the
    mean of the two middle values for an even one, and NaN when any array
    holds a NaN (NaNs sort last)."""
    if any(len(a) and np.isnan(a[-1]) for a in arrays):
        return np.nan
    total = sum(len(a) for a in arrays)
    upper = _rank_value(arrays, total // 2)
    if total % 2:
        return upper
    return (_rank_value(arrays, total // 2 - 1) + upper) / 2.0


def _score(xs: np.ndarray, ref: MmdReference, bandwidth: float) -> tuple[float, float]:
    """(MMD^2, bandwidth) of ``xs`` against a prepared reference; bandwidth 0
    takes the median trick over the pairs of the pooled sample: the sorted
    reference pairs and the fresh self and cross pairs, sorted here."""
    n, m = xs.shape[0], ref.points.shape[0]
    eye = np.eye(xs.shape[1])[None]
    own = _metric_sq_dists(xs, eye)[0]
    cross = _metric_sq_dists(xs, eye, ref.points)[0]
    if bandwidth == 0.0:
        # own and cross pairs are sorted apart, one n x m copy and no
        # concatenation, and the copies are freed before the kernel sums
        median = _union_median((ref.sorted_pair_sq_dists, np.sort(own[np.triu_indices(n, 1)]),
                                np.sort(cross, axis=None)))
        bandwidth = float(_median_trick(median, n + m))
    # the reference triangle is summed through one CHUNK_BYTES buffer; each
    # draw's self term is exp(0) = 1
    pairs = ref.sorted_pair_sq_dists
    buf = np.empty(max(1, min(len(pairs), CHUNK_BYTES // 8)))
    pair_sum = 0.0
    for lo in range(0, len(pairs), len(buf)):
        part = pairs[lo:lo + len(buf)]
        pair_sum += _kernel_sum(part, bandwidth, buf[:len(part)])
    ref_sum = m + 2.0 * pair_sum
    value = (_kernel_sum(own, bandwidth) / (n * n) + ref_sum / (m * m)
             - 2.0 * _kernel_sum(cross, bandwidth) / (n * m))
    return value, bandwidth


def mmd_sq(xs, ys, bandwidth: float = 0.0) -> MmdReport:
    """Biased (V-statistic) squared maximum mean discrepancy under an RBF kernel.

    mean k(x, x') + mean k(y, y') - 2 mean k(x, y), with all diagonal terms
    included.  ``ys`` is an (n_y, d) sample or an ``MmdReference`` prepared
    from one.  ``bandwidth`` 0 requests the median trick over the pooled
    sample: it goes through ``prepare_reference`` (which a caller scoring
    many samples against the same draws does once, as the harness does per
    target, seed and reference size), which holds one sorted n_y(n_y-1)/2
    float triangle, 16 MB at n_y = 2000.  Each score then sorts only its own
    n_x(n_x-1)/2 + n_x n_y fresh distances and merges them against that
    triangle, copying nothing of size n_y^2, and sums the kernel over it.  An
    explicit bandwidth needs no pair distances, so an array ``ys`` is scored
    in row chunks of bounded memory.
    """
    xs = as_points(xs)
    ref = ys if isinstance(ys, MmdReference) else None
    ys = ref.points if ref is not None else as_points(ys)
    if xs.shape[1] != ys.shape[1]:
        raise InvalidInputError(f"samples must have equal dimension, got {xs.shape} and {ys.shape}")
    if bandwidth < 0.0 or not np.isfinite(bandwidth):
        raise InvalidInputError(f"bandwidth must be >= 0 and finite, got {bandwidth}")
    if ref is None and bandwidth > 0.0:
        value = (_mean_kernel(xs, None, bandwidth) + _mean_kernel(ys, None, bandwidth)
                 - 2.0 * _mean_kernel(xs, ys, bandwidth))
    else:
        value, bandwidth = _score(xs, ref or prepare_reference(ys), bandwidth)
    return MmdReport(value=max(value, 0.0), bandwidth=float(bandwidth),
                     n_x=xs.shape[0], n_y=ys.shape[0])


def predictive_metrics(particles, dataset: LogisticDataset) -> tuple[float, float]:
    """Posterior-predictive accuracy and mean log likelihood on a dataset.

    The predictive probability per row is the particle average of the
    logistic likelihood; a row is scored correct when 1[p > 1/2] matches its
    label.  Probabilities are clipped away from {0, 1} before the log.
    """
    particles = as_points(particles, dataset.n_features)
    probs = expit(particles @ dataset.features.T).mean(axis=0)
    labels = dataset.labels.astype(float)
    predicted = (probs > 0.5).astype(float)
    accuracy = float(np.mean(predicted == labels))
    clipped = np.clip(probs, 1e-12, 1.0 - 1e-12)
    log_lik = float(np.mean(labels * np.log(clipped) + (1.0 - labels) * np.log1p(-clipped)))
    return accuracy, log_lik
