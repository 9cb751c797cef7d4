"""Dense symmetric linear algebra: PSD repair and matrix roots.

Everything here operates on small d x d symmetric matrices through a single
eigendecomposition backend (``numpy.linalg.eigh``), and one former,
vec diag(lam^p) vec^T over the clipped eigenpairs, builds every output
matrix: the repaired matrix (p = 1) and each bundle factor.  ``symmetrize``,
``psd_repair`` and ``make_bundle`` also accept stacks of shape (..., d, d)
and work matrix by matrix; a stacked ``make_bundle`` returns one bundle whose
fields are stacks.  Inputs are symmetrized on entry (averaged with their
transpose) so downstream code never has to worry about asymmetry accumulated
during Hessian assembly.  Pair distances, Euclidean or under a metric, are
formed where they are used (``kernels._metric_sq_dists``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, as_real

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
    """A positive definite matrix (or a stack of them) with its cached factors.

    Attributes
    ----------
    q : ndarray, shape (..., d, d)
        The matrix itself.
    q_sqrt, q_inv_sqrt, q_inv : ndarray, shape (..., d, d)
        Symmetric square root, inverse square root, and inverse.
    log_det : float or ndarray, shape (...)
        Log determinant of ``q``.
    """

    q: np.ndarray
    q_sqrt: np.ndarray
    q_inv_sqrt: np.ndarray
    q_inv: np.ndarray
    log_det: float | np.ndarray

    @property
    def dim(self) -> int:
        return self.q.shape[-1]


def check_floor_ratio(floor_ratio: float, error=InvalidInputError) -> float:
    floor_ratio = as_real(floor_ratio, "floor_ratio", error)
    if not 0.0 < floor_ratio < 1.0:
        raise error(f"floor_ratio: must lie in (0, 1), got {floor_ratio}")
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


def _eig_form(lam, vec, power: float) -> np.ndarray:
    """vec diag(lam^power) vec^T per matrix, symmetrized (averaged with its
    transpose) so round-off leaves no asymmetry."""
    out = (vec * lam[..., None, :]**power) @ np.swapaxes(vec, -1, -2)
    return 0.5 * (out + np.swapaxes(out, -1, -2))


def psd_repair(m, floor_ratio: float = DEFAULT_FLOOR_RATIO) -> np.ndarray:
    """Return the eigenvalue-clipped positive definite version of ``m``.

    Eigenvalues below ``floor_ratio * max(1, lam_max)`` are raised to that
    floor; eigenvectors are untouched, so an already well-conditioned PD
    matrix passes through up to round-off.  A stack (..., d, d) is repaired
    matrix by matrix.
    """
    floor_ratio = check_floor_ratio(floor_ratio)
    lam, vec = _clipped_eigh(m, floor_ratio)
    return _eig_form(lam, vec, 1.0)


def make_bundle(m, floor_ratio: float = DEFAULT_FLOOR_RATIO) -> PreconditionerBundle:
    """Repair ``m`` and package it with its symmetric factor matrices.

    A single eigendecomposition produces q, q^{1/2}, q^{-1/2}, q^{-1} and
    log det q, guaranteeing they are mutually consistent.  A stack
    (..., d, d) gives one bundle of stacks, equal matrix by matrix to the
    bundles of its members.
    """
    floor_ratio = check_floor_ratio(floor_ratio)
    lam, vec = _clipped_eigh(m, floor_ratio)
    return PreconditionerBundle(
        q=_eig_form(lam, vec, 1.0),
        q_sqrt=_eig_form(lam, vec, 0.5),
        q_inv_sqrt=_eig_form(lam, vec, -0.5),
        q_inv=_eig_form(lam, vec, -1.0),
        log_det=np.sum(np.log(lam), axis=-1),
    )


def identity_bundle(dim: int) -> PreconditionerBundle:
    """Bundle for the identity metric (all factors are the identity)."""
    eye = np.eye(int(dim))
    return PreconditionerBundle(q=eye, q_sqrt=eye.copy(), q_inv_sqrt=eye.copy(),
                                q_inv=eye.copy(), log_det=0.0)

