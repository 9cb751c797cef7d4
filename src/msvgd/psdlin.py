"""Dense symmetric linear algebra: PSD repair and matrix powers.

Everything here operates on small d x d symmetric matrices.  ``symmetrize``,
``psd_repair`` and ``make_bundle`` also accept stacks of shape (..., d, d)
and work matrix by matrix; a stacked ``make_bundle`` returns one bundle whose
fields are stacks.  Inputs are symmetrized on entry (averaged with their
transpose) so downstream code never has to worry about asymmetry accumulated
during Hessian assembly.  Pair distances, Euclidean or under a metric, are
formed where they are used (``kernels._metric_sq_dists``).

Repair raises eigenvalues below floor = floor_ratio * max(1, lam_max).  A
matrix that ``_certified`` proves to be clear of the floor is kept as it is,
with its inverse and log determinant from one Cholesky factor; the eigensolve
is skipped because clipping would change nothing beyond round-off.  Every
other matrix is eigendecomposed (``numpy.linalg.eigh``), and one former,
vec diag(lam^p) vec^T over the clipped eigenpairs, builds its outputs.  The
floor is the sampler's; targets factor their exact matrices themselves.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, as_real

DEFAULT_FLOOR_RATIO = 1e-6


def _symmetric_part(m: np.ndarray) -> np.ndarray:
    # halved before the sum, so finite entries cannot overflow
    return 0.5 * m + 0.5 * np.swapaxes(m, -1, -2)


def symmetrize(m) -> np.ndarray:
    """Validate a square matrix (or a stack of them) of size d >= 1 with
    finite entries and return 0.5*(m + m^T) per matrix."""
    m = np.asarray(m, dtype=float)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2] or m.shape[-1] < 1:
        raise InvalidInputError(f"expected a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise InvalidInputError("matrix has non-finite entries")
    return _symmetric_part(m)


@dataclass(frozen=True)
class PreconditionerBundle:
    """A positive definite matrix (or a stack of them) with its cached factors.

    Attributes
    ----------
    q : ndarray, shape (..., d, d)
        The matrix itself.
    q_inv : ndarray, shape (..., d, d)
        Its inverse.
    log_det : float or ndarray, shape (...)
        Log determinant of ``q``.
    """

    q: np.ndarray
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
    lam, vec = np.linalg.eigh(m)
    floor = floor_ratio * np.maximum(1.0, lam[..., -1:])
    return np.maximum(lam, floor), vec


def _eig_form(lam, vec, power: float) -> np.ndarray:
    """vec diag(lam^power) vec^T per matrix, symmetrized (averaged with its
    transpose) so round-off leaves no asymmetry."""
    return _symmetric_part((vec * lam[..., None, :]**power) @ np.swapaxes(vec, -1, -2))


def _certified(stack: np.ndarray, floor_ratio: float) -> np.ndarray:
    """Per matrix of a symmetric (k, d, d) stack: whether M - s I, with
    s = 2 floor_ratio max(1, b) and b >= lam_max the largest absolute row sum
    (Gershgorin), has only positive Cholesky pivots.  Then lam_min(M) >= s
    less the sweep's round-off O(d eps b), so lam_min >= floor.

    The d - 1 elimination steps run on the whole stack at once, yet each
    verdict reads only its own matrix.  Step j leaves pivot j final on the
    diagonal, and a failed matrix's later steps do not matter.
    """
    k, d, _ = stack.shape
    bound = np.abs(stack).sum(axis=-1).max(axis=-1, initial=0.0)
    a = stack.copy()
    pivots = a.reshape(k, d * d)[:, ::d + 1]  # a view of each diagonal
    pivots -= 2.0 * floor_ratio * np.maximum(1.0, bound)[:, None]
    with np.errstate(all="ignore"):
        for j in range(d - 1):
            col = a[:, j + 1:, j] / a[:, j, j, None]
            a[:, j + 1:, j + 1:] -= col[:, :, None] * a[:, None, j, j + 1:]
    return np.all(pivots > 0.0, axis=-1)


def _cholesky_factors(chol):
    """(L^-T L^-1 symmetrized, 2 sum log diag L): inverses and log determinants from factors L = ``chol``."""
    chol_inv = np.linalg.inv(chol)
    return (_symmetric_part(np.swapaxes(chol_inv, -1, -2) @ chol_inv),
            2.0 * np.sum(np.log(np.diagonal(chol, axis1=-2, axis2=-1)), axis=-1))


def _symmetrized_stack(m, floor_ratio: float):
    """``m`` symmetrized, as a (k, d, d) stack, with its input shape and each
    matrix's certificate."""
    m = symmetrize(m)
    stack = m.reshape(-1, *m.shape[-2:])
    return m.shape, stack, _certified(stack, floor_ratio)


def psd_repair(m, floor_ratio: float = DEFAULT_FLOOR_RATIO) -> np.ndarray:
    """Return the eigenvalue-clipped positive definite version of ``m``.

    Eigenvalues below ``floor_ratio * max(1, lam_max)`` are raised to that
    floor; eigenvectors are untouched, so an already well-conditioned PD
    matrix passes through up to round-off, and a certified one (see the
    module docstring) is returned symmetrized, bit for bit.  A stack
    (..., d, d) is repaired matrix by matrix.
    """
    floor_ratio = check_floor_ratio(floor_ratio)
    shape, q, ok = _symmetrized_stack(m, floor_ratio)
    if not ok.all():
        q[~ok] = _eig_form(*_clipped_eigh(q[~ok], floor_ratio), 1.0)
    return q.reshape(shape)


def make_bundle(m, floor_ratio: float = DEFAULT_FLOOR_RATIO) -> PreconditionerBundle:
    """Repair ``m`` as ``psd_repair`` does and package it with its inverse
    and log determinant.

    A certified matrix takes both from one Cholesky factor of itself, any
    other matrix from its clipped eigendecomposition, so q, q^{-1} and
    log det q are mutually consistent.  A stack (..., d, d) gives one bundle
    of stacks, equal matrix by matrix to the bundles of its members.
    """
    floor_ratio = check_floor_ratio(floor_ratio)
    shape, q, ok = _symmetrized_stack(m, floor_ratio)
    q_inv = np.empty_like(q)
    log_det = np.empty(len(q))
    if ok.any():
        q_inv[ok], log_det[ok] = _cholesky_factors(np.linalg.cholesky(q[ok]))
    if not ok.all():
        lam, vec = _clipped_eigh(q[~ok], floor_ratio)
        q[~ok] = _eig_form(lam, vec, 1.0)
        q_inv[~ok] = _eig_form(lam, vec, -1.0)
        log_det[~ok] = np.sum(np.log(lam), axis=-1)
    return PreconditionerBundle(q=q.reshape(shape), q_inv=q_inv.reshape(shape),
                                log_det=log_det.reshape(shape[:-2])[()])


def identity_bundle(dim: int) -> PreconditionerBundle:
    """Bundle for the identity metric (all factors are the identity)."""
    eye = np.eye(int(dim))
    return PreconditionerBundle(q=eye, q_inv=eye.copy(), log_det=0.0)
