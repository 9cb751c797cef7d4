"""Sample-quality metrics: kernel MMD and posterior-predictive scores."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from .errors import InvalidInputError
from .kernels import CHUNK_BYTES, _check_points, _median_trick, _metric_sq_dists, _row_medians
from .targets import LogisticDataset

_CHUNK = 2048


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

    ``pair_sq_dists`` holds the squared distances of the pairs i < j of
    ``points`` in row-major order, n(n-1)/2 floats, and ``self_sq_dists``
    each point's distance to itself (the expanded distance form can leave
    round-off there).  All three arrays are read-only.
    """

    points: np.ndarray
    pair_sq_dists: np.ndarray
    self_sq_dists: np.ndarray


def prepare_reference(ys) -> MmdReference:
    """The draws ``ys`` with their pair distances, formed a block of rows
    (about ``CHUNK_BYTES``) at a time, so no (n, n) matrix is held."""
    ys = _check_points(ys).copy()
    n = ys.shape[0]
    eye = np.eye(ys.shape[1])[None]
    pairs, diag = np.empty(n * (n - 1) // 2), np.empty(n)
    rows = max(1, CHUNK_BYTES // (8 * n))
    pos = 0
    for lo in range(0, n, rows):
        for i, row in enumerate(_metric_sq_dists(ys[lo:lo + rows], eye, ys)[0], start=lo):
            diag[i] = row[i]
            pairs[pos:pos + n - 1 - i] = row[i + 1:]
            pos += n - 1 - i
    for a in (ys, pairs, diag):
        a.flags.writeable = False
    return MmdReference(points=ys, pair_sq_dists=pairs, self_sq_dists=diag)


def _kernel_sum(d2: np.ndarray, bandwidth: float, out: np.ndarray | None = None) -> float:
    """Sum of exp(-d2 / (2 h)), computed in ``out`` (by default in place in ``d2``)."""
    out = d2 if out is None else out
    return float(np.exp(np.divide(d2, -2.0 * bandwidth, out=out), out=out).sum())


def _mean_kernel(xs: np.ndarray, ys: np.ndarray, bandwidth: float) -> float:
    """Mean RBF kernel value over all cross pairs, computed in row chunks."""
    eye = np.eye(xs.shape[1])[None]
    total = 0.0
    for start in range(0, xs.shape[0], _CHUNK):
        total += _kernel_sum(_metric_sq_dists(xs[start:start + _CHUNK], eye, ys)[0], bandwidth)
    return total / (xs.shape[0] * ys.shape[0])


def _score(xs: np.ndarray, ref: MmdReference, bandwidth: float) -> tuple[float, float]:
    """(MMD^2, bandwidth) of ``xs`` against a prepared reference; bandwidth 0
    takes the median trick over the pairs of the pooled sample, which are the
    cached reference pairs plus the fresh self and cross pairs."""
    n, m = xs.shape[0], ref.points.shape[0]
    eye = np.eye(xs.shape[1])[None]
    own = _metric_sq_dists(xs, eye)[0]
    cross = _metric_sq_dists(xs, eye, ref.points)[0]
    if bandwidth == 0.0:
        pooled = np.concatenate([ref.pair_sq_dists, own[np.triu_indices(n, 1)], cross.ravel()])
        bandwidth = float(_median_trick(_row_medians(pooled), n + m))
    # the reference triangle is summed through one CHUNK_BYTES buffer
    pairs = ref.pair_sq_dists
    buf = np.empty(max(1, min(len(pairs), CHUNK_BYTES // 8)))
    pair_sum = 0.0
    for lo in range(0, len(pairs), len(buf)):
        part = pairs[lo:lo + len(buf)]
        pair_sum += _kernel_sum(part, bandwidth, buf[:len(part)])
    ref_sum = _kernel_sum(ref.self_sq_dists.copy(), bandwidth) + 2.0 * pair_sum
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
    target, seed and reference size) and holds one n_y(n_y-1)/2 float
    triangle, 16 MB at n_y = 2000.  An explicit bandwidth needs no pair
    distances, so an array ``ys`` is scored in row chunks of bounded memory.
    """
    xs = _check_points(xs)
    ref = ys if isinstance(ys, MmdReference) else None
    ys = ref.points if ref is not None else _check_points(ys)
    if xs.shape[1] != ys.shape[1]:
        raise InvalidInputError(f"samples must have equal dimension, got {xs.shape} and {ys.shape}")
    if bandwidth < 0.0 or not np.isfinite(bandwidth):
        raise InvalidInputError(f"bandwidth must be >= 0 and finite, got {bandwidth}")
    if ref is None and bandwidth > 0.0:
        value = (_mean_kernel(xs, xs, bandwidth) + _mean_kernel(ys, ys, bandwidth)
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
    particles = np.asarray(particles, dtype=float)
    if particles.ndim != 2 or particles.shape[1] != dataset.n_features:
        raise InvalidInputError(
            f"particles must have shape (n, {dataset.n_features}), got {particles.shape}")
    probs = expit(particles @ dataset.features.T).mean(axis=0)
    labels = dataset.labels.astype(float)
    predicted = (probs > 0.5).astype(float)
    accuracy = float(np.mean(predicted == labels))
    clipped = np.clip(probs, 1e-12, 1.0 - 1e-12)
    log_lik = float(np.mean(labels * np.log(clipped) + (1.0 - labels) * np.log1p(-clipped)))
    return accuracy, log_lik
