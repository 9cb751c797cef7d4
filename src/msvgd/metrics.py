"""Sample-quality metrics: kernel MMD and posterior-predictive scores."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, as_points
from .kernels import _chunks, _median_trick, _metric_sq_dists
from .targets import LogisticDataset, _sigmoid


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
    (``kernels._chunks``) at a time, so no (n, n) matrix is held, and
    sorted in place once (O(n^2 log n)) for the pooled median of every
    later score.  Pair distances that overflow raise InvalidInputError."""
    ys = as_points(ys).copy()
    n = ys.shape[0]
    eye = np.eye(ys.shape[1])[None]
    pairs = np.empty(n * (n - 1) // 2)
    pos = 0
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is reported below
        for rows in _chunks(n, n):
            for i, row in enumerate(_metric_sq_dists(ys[rows], eye, ys)[0], start=rows.start):
                pairs[pos:pos + n - 1 - i] = row[i + 1:]
                pos += n - 1 - i
    if not np.isfinite(np.max(pairs, initial=0.0)):  # NaN propagates; no mask of the triangle
        raise InvalidInputError("MMD reference: squared distances overflow")
    pairs.sort()
    ys.flags.writeable = pairs.flags.writeable = False
    return MmdReference(points=ys, sorted_pair_sq_dists=pairs)


def _kernel_sum(d2: np.ndarray, bandwidth: float, out: np.ndarray | None = None) -> float:
    """Sum of exp(-d2 / (2 h)), computed in the head of ``out`` (default: in place in ``d2``)."""
    out = d2 if out is None else out[:len(d2)]
    return float(np.exp(np.divide(d2, -2.0 * bandwidth, out=out), out=out).sum())


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


def _score(xs: np.ndarray, ref: MmdReference) -> tuple[float, float]:
    """(MMD^2, bandwidth) of ``xs`` against a prepared reference, the
    bandwidth by the median trick over the pairs of the pooled sample: the
    sorted reference pairs and the fresh self and cross pairs, sorted here."""
    n, m = xs.shape[0], ref.points.shape[0]
    eye = np.eye(xs.shape[1])[None]
    own = _metric_sq_dists(xs, eye)[0]
    cross = _metric_sq_dists(xs, eye, ref.points)[0]
    # own and cross pairs are sorted apart, one n x m copy and no
    # concatenation, and the copies are freed before the kernel sums
    median = _union_median((ref.sorted_pair_sq_dists, np.sort(own[np.triu_indices(n, 1)]),
                            np.sort(cross, axis=None)))
    bandwidth = float(_median_trick(median, n + m))
    # the reference triangle is summed through one buffer of a chunk's size;
    # each draw's self term is exp(0) = 1
    pairs = ref.sorted_pair_sq_dists
    parts = _chunks(len(pairs), 1)
    buf = np.empty(len(pairs[parts[0]]) if parts else 0)
    pair_sum = 0.0
    for part in parts:
        pair_sum += _kernel_sum(pairs[part], bandwidth, buf)
    ref_sum = m + 2.0 * pair_sum
    value = (_kernel_sum(own, bandwidth) / (n * n) + ref_sum / (m * m)
             - 2.0 * _kernel_sum(cross, bandwidth) / (n * m))
    return value, bandwidth


def mmd_sq(xs, ys) -> MmdReport:
    """Biased (V-statistic) squared maximum mean discrepancy under an RBF kernel.

    mean k(x, x') + mean k(y, y') - 2 mean k(x, y), with all diagonal terms
    included (Gretton et al., JMLR 2012), at the median-trick bandwidth of
    the pooled sample.  ``ys`` is an (n_y, d) sample or an ``MmdReference``
    prepared from one; an array goes through ``prepare_reference`` first, so
    it holds one sorted n_y(n_y-1)/2 float triangle, 16 MB at n_y = 2000.  A
    caller scoring many samples against the same draws prepares them once,
    as the harness does per run and per comparison.  Each score
    sorts only its own n_x(n_x-1)/2 + n_x n_y fresh distances and merges
    them against the triangle for the pooled median, copying nothing of size
    n_y^2, then sums the kernel over its own pairs, its cross pairs and the
    triangle.  Squared distances that overflow (no finite value or
    bandwidth) raise InvalidInputError.
    """
    xs = as_points(xs)
    ref = ys if isinstance(ys, MmdReference) else prepare_reference(ys)
    ys = ref.points
    if xs.shape[1] != ys.shape[1]:
        raise InvalidInputError(f"samples must have equal dimension, got {xs.shape} and {ys.shape}")
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is reported below
        value, bandwidth = _score(xs, ref)
    if not (np.isfinite(value) and np.isfinite(bandwidth)):
        raise InvalidInputError(f"MMD: squared distances overflow (value {value}, bandwidth {bandwidth})")
    return MmdReport(value=max(value, 0.0), bandwidth=bandwidth,
                     n_x=xs.shape[0], n_y=ys.shape[0])


def predictive_metrics(particles, dataset: LogisticDataset) -> tuple[float, float]:
    """Posterior-predictive accuracy and mean log likelihood on a dataset.

    The predictive probability per row is the particle average of the
    logistic likelihood; a row is scored correct when 1[p > 1/2] matches its
    label.  Probabilities are clipped away from {0, 1} before the log.
    """
    particles = as_points(particles, dataset.features.shape[1])
    probs = _sigmoid(particles @ dataset.features.T).mean(axis=0)
    labels = dataset.labels
    accuracy = float(np.mean((probs > 0.5) == labels))
    clipped = np.clip(probs, 1e-12, 1.0 - 1e-12)
    log_lik = float(np.mean(labels * np.log(clipped) + (1.0 - labels) * np.log1p(-clipped)))
    return accuracy, log_lik
