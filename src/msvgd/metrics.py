"""Sample-quality metrics: kernel MMD and posterior-predictive scores."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from .errors import InvalidInputError
from .kernels import _metric_sq_dists, median_bandwidth
from .targets import LogisticDataset

_CHUNK = 2048


@dataclass(frozen=True)
class MmdReport:
    """Squared MMD value plus the inputs that produced it."""

    value: float
    bandwidth: float
    n_x: int
    n_y: int


def _mean_kernel(xs: np.ndarray, ys: np.ndarray, bandwidth: float) -> float:
    """Mean RBF kernel value over all cross pairs, computed in row chunks."""
    eye = np.eye(xs.shape[1])[None]
    total = 0.0
    for start in range(0, xs.shape[0], _CHUNK):
        d2 = _metric_sq_dists(xs[start:start + _CHUNK], eye, ys)[0]
        total += float(np.exp(np.divide(d2, -2.0 * bandwidth, out=d2), out=d2).sum())
    return total / (xs.shape[0] * ys.shape[0])


def mmd_sq(xs, ys, bandwidth: float = 0.0) -> MmdReport:
    """Biased (V-statistic) squared maximum mean discrepancy under an RBF kernel.

    mean k(x, x') + mean k(y, y') - 2 mean k(x, y), with all diagonal terms
    included.  ``bandwidth`` 0 requests the median trick over the pooled
    sample (note this materializes the pooled pairwise distance matrix; pass
    an explicit bandwidth for very large inputs).
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.ndim != 2 or ys.ndim != 2 or xs.shape[1] != ys.shape[1]:
        raise InvalidInputError(f"samples must be 2-D with equal dimension, got {xs.shape} and {ys.shape}")
    if xs.shape[0] < 1 or ys.shape[0] < 1:
        raise InvalidInputError("samples must be non-empty")
    if bandwidth < 0.0 or not np.isfinite(bandwidth):
        raise InvalidInputError(f"bandwidth must be >= 0 and finite, got {bandwidth}")
    if bandwidth == 0.0:
        bandwidth = median_bandwidth(np.vstack([xs, ys]))
    value = (_mean_kernel(xs, xs, bandwidth) + _mean_kernel(ys, ys, bandwidth)
             - 2.0 * _mean_kernel(xs, ys, bandwidth))
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
