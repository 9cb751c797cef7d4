"""Dense symmetric linear algebra: PSD repair, matrix roots, Mahalanobis forms.

Everything here operates on small d x d symmetric matrices through a single
eigendecomposition backend (``numpy.linalg.eigh``).  ``symmetrize`` and
``psd_repair`` also accept stacks of shape (..., d, d) and work matrix by
matrix.  Inputs are symmetrized on entry (averaged with their transpose) so
downstream code never has to worry about asymmetry accumulated during Hessian
assembly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError

DEFAULT_FLOOR_RATIO = 1e-6


def symmetrize(m) -> np.ndarray:
    """Validate a square matrix (or a stack of them) with finite entries and
    return 0.5*(m + m^T) per matrix."""
    m = np.asarray(m, dtype=float)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise InvalidInputError(f"expected a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise InvalidInputError("matrix has non-finite entries")
    return 0.5 * (m + np.swapaxes(m, -1, -2))


@dataclass(frozen=True)
class PreconditionerBundle:
    """A positive definite matrix together with its cached factors.

    Attributes
    ----------
    q : ndarray, shape (d, d)
        The matrix itself.
    q_sqrt, q_inv_sqrt, q_inv : ndarray, shape (d, d)
        Symmetric square root, inverse square root, and inverse.
    log_det : float
        Log determinant of ``q``.
    """

    q: np.ndarray
    q_sqrt: np.ndarray
    q_inv_sqrt: np.ndarray
    q_inv: np.ndarray
    log_det: float

    @property
    def dim(self) -> int:
        return self.q.shape[0]


def _check_floor_ratio(floor_ratio: float) -> float:
    floor_ratio = float(floor_ratio)
    if not 0.0 < floor_ratio < 1.0:
        raise InvalidInputError(f"floor_ratio must lie in (0, 1), got {floor_ratio}")
    return floor_ratio


def _clipped_eigh(m, floor_ratio):
    """Eigendecompose symmetric matrices and clip eigenvalues from below.

    The floor is relative to each matrix's largest eigenvalue but never
    collapses below an absolute scale of ``floor_ratio``:
    floor = floor_ratio * max(1, lam_max).
    """
    lam, vec = np.linalg.eigh(symmetrize(m))
    floor = floor_ratio * np.maximum(1.0, lam[..., -1:])
    return np.maximum(lam, floor), vec


def psd_repair(m, floor_ratio: float = DEFAULT_FLOOR_RATIO) -> np.ndarray:
    """Return the eigenvalue-clipped positive definite version of ``m``.

    Eigenvalues below ``floor_ratio * max(1, lam_max)`` are raised to that
    floor; eigenvectors are untouched, so an already well-conditioned PD
    matrix passes through up to round-off.  A stack (..., d, d) is repaired
    matrix by matrix.
    """
    floor_ratio = _check_floor_ratio(floor_ratio)
    lam, vec = _clipped_eigh(m, floor_ratio)
    out = (vec * lam[..., None, :]) @ np.swapaxes(vec, -1, -2)
    return 0.5 * (out + np.swapaxes(out, -1, -2))


def make_bundle(m, floor_ratio: float = DEFAULT_FLOOR_RATIO) -> PreconditionerBundle:
    """Repair ``m`` and package it with its symmetric factor matrices.

    A single eigendecomposition produces q, q^{1/2}, q^{-1/2}, q^{-1} and
    log det q, guaranteeing they are mutually consistent.
    """
    floor_ratio = _check_floor_ratio(floor_ratio)
    if np.ndim(m) != 2:
        raise InvalidInputError(f"expected a square matrix, got shape {np.shape(m)}")
    lam, vec = _clipped_eigh(m, floor_ratio)

    def form(power):
        out = (vec * lam**power) @ vec.T
        return 0.5 * (out + out.T)

    return PreconditionerBundle(
        q=form(1.0),
        q_sqrt=form(0.5),
        q_inv_sqrt=form(-0.5),
        q_inv=form(-1.0),
        log_det=float(np.sum(np.log(lam))),
    )


def identity_bundle(dim: int) -> PreconditionerBundle:
    """Bundle for the identity metric (all factors are the identity)."""
    eye = np.eye(int(dim))
    return PreconditionerBundle(q=eye, q_sqrt=eye.copy(), q_inv_sqrt=eye.copy(),
                                q_inv=eye.copy(), log_det=0.0)


def mahalanobis_sq(x, y, bundle: PreconditionerBundle) -> float:
    """Squared Mahalanobis distance (x - y)^T q (x - y) under the bundle metric."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 1 or y.ndim != 1 or x.shape != y.shape:
        raise InvalidInputError(f"expected two vectors of equal length, got shapes {x.shape} and {y.shape}")
    if x.shape[0] != bundle.dim:
        raise InvalidInputError(f"vector length {x.shape[0]} does not match metric dimension {bundle.dim}")
    d = x - y
    return max(float(d @ bundle.q @ d), 0.0)


def pairwise_sq_dists(xs, ys=None) -> np.ndarray:
    """All pairwise squared Euclidean distances between rows of xs and ys."""
    xs = np.asarray(xs, dtype=float)
    ys = xs if ys is None else np.asarray(ys, dtype=float)
    xx = np.sum(xs * xs, axis=1)
    yy = np.sum(ys * ys, axis=1)
    d2 = xx[:, None] + yy[None, :] - 2.0 * (xs @ ys.T)
    return np.maximum(d2, 0.0)


def pairwise_mahalanobis_sq(xs, ys, bundle: PreconditionerBundle) -> np.ndarray:
    """Pairwise squared Mahalanobis distances, computed in q^{1/2} coordinates."""
    xs = np.asarray(xs, dtype=float) @ bundle.q_sqrt
    ys = None if ys is None else np.asarray(ys, dtype=float) @ bundle.q_sqrt
    return pairwise_sq_dists(xs, ys)
