"""Shared finite-difference and brute-force oracles for the test suite.

These helpers trust as little of the library as possible: ``kernel_eval`` is
each kernel kind's closed-form matrix K(x, y), formed apart from the
library's Stein sum; the brute-force Stein direction only calls it and
differentiates it numerically, so it checks the closed-form divergence code
paths against an independent construction, and the block Gram matrix is
``kernel_eval`` evaluated pair by pair.  The sampler only ever reads whole
particle sets, so the single-point target views and mixture weights, the
grid quadrature, the mixture weight gradients and the particle CSV reader
live here, read from the library's batch surfaces.  The logistic Fisher
stack oracle forms one particle's matrix at a time, against the library's
one blocked GEMM, and the SVN metric oracle forms its pair sums from (n, n, d)
stacks, against the library's one GEMM over centred points.
"""

from pathlib import Path

import numpy as np
from scipy.special import expit

GRID_CHUNK = 16384  # grid cells per log_density_batch call in grid_moments


def log_density(model, x) -> float:
    """log p at the one point ``x``, from ``log_density_batch``."""
    return float(model.log_density_batch(np.asarray(x, dtype=float)[None])[0])


def grad_log_density(model, x) -> np.ndarray:
    """The score at the one point ``x``, from ``grad_log_density_batch``."""
    return model.grad_log_density_batch(np.asarray(x, dtype=float)[None])[0]


def grid_moments(model, bounds, resolution: int):
    """Mean and covariance of a 2-D target by midpoint quadrature on a box.

    ``bounds`` is either a single (lo, hi) pair applied to both axes or a pair
    of per-axis (lo, hi) pairs.  Normalization happens implicitly, so the
    model may be unnormalized.
    """
    from msvgd.errors import InvalidInputError

    if model.dim != 2:
        raise InvalidInputError("grid moments require a 2-D target")
    resolution = int(resolution)
    if resolution < 16:
        raise InvalidInputError(f"resolution must be >= 16, got {resolution}")
    bounds = np.asarray(bounds, dtype=float)
    if bounds.shape == (2,):
        bounds = np.stack([bounds, bounds])
    if bounds.shape != (2, 2) or np.any(bounds[:, 0] >= bounds[:, 1]):
        raise InvalidInputError("bounds must be (lo, hi) or ((lo0, hi0), (lo1, hi1)) with lo < hi")
    mids = []
    for lo, hi in bounds:
        edges = np.linspace(lo, hi, resolution + 1)
        mids.append(0.5 * (edges[:-1] + edges[1:]))
    gx, gy = np.meshgrid(*mids, indexing="ij")
    centers = np.column_stack([gx.ravel(), gy.ravel()])
    logp = np.concatenate([model.log_density_batch(centers[start:start + GRID_CHUNK])
                           for start in range(0, len(centers), GRID_CHUNK)])
    w = np.exp(logp - logp.max())
    w /= w.sum()
    mean = w @ centers
    dc = centers - mean
    cov = (dc * w[:, None]).T @ dc
    return mean, 0.5 * (cov + cov.T)


def _check_point(strategy, x) -> np.ndarray:
    """``x`` as one point of the kernel's dimension (any, for ``scalar_rbf``)."""
    from msvgd.errors import InvalidInputError

    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or (strategy.dim and x.shape[0] != strategy.dim):
        raise InvalidInputError(f"expected a point of dimension {strategy.dim}, got shape {x.shape}")
    return x


def mixture_weights(x, kernel) -> np.ndarray:
    """The anchor responsibilities w_l(x) of the mixture ``kernel`` at the one
    point ``x``, from ``_weights_and_gradients``; a point on the simplex."""
    return kernel._weights_and_gradients(_check_point(kernel, x)[None])[0][0]


def kernel_eval(strategy, x, y) -> np.ndarray:
    """The (d, d) kernel matrix K(x, y) of each kind in closed form:
    k(x, y) I for ``scalar_rbf``, Q^{-1} k_Q(x, y) for ``const_precond`` and
    sum_l w_l(x) w_l(y) Q_l^{-1} k_{Q_l}(x, y) for ``mixture_precond``, with
    k_Q(x, y) = exp(-(x - y)' Q (x - y) / (2 h))."""
    x, y = _check_point(strategy, x), _check_point(strategy, y)
    d = x - y
    if strategy.kind == "scalar_rbf":
        return np.exp(-float(d @ d) / (2.0 * strategy.bandwidth)) * np.eye(x.shape[0])
    if strategy.kind == "const_precond":
        s = np.exp(-max(float(d @ strategy.bundle.q @ d), 0.0) / (2.0 * strategy.bandwidth))
        return s * strategy.bundle.q_inv
    wx, wy = mixture_weights(x, strategy), mixture_weights(y, strategy)
    quad = np.maximum(np.einsum("i,lij,j->l", d, strategy.bundle.q, d), 0.0)
    s = np.exp(-quad / (2.0 * strategy.bandwidths))
    return np.tensordot(wx * wy * s, strategy.bundle.q_inv, axes=1)


def weight_gradients(kernel, points) -> np.ndarray:
    """grad w_l at each point, shape (n, m, d): the weight gradients that
    ``MixturePrecond.direction`` forms, with the points axis first."""
    return kernel._weights_and_gradients(np.asarray(points, dtype=float))[1].transpose(1, 0, 2)


def fisher_stack(model, points) -> np.ndarray:
    """The logistic posterior's Fisher stack, one particle at a time over the
    active rows F_B: scale * (F_B' w_i) @ F_B + I, with w_ir = s (1 - s) at
    s = sigma(f_r . x_i)."""
    feats, _, scale = model._active()
    stack = []
    for x in np.asarray(points, dtype=float):
        probs = expit(feats @ x)
        stack.append(scale * (feats.T * (probs * (1.0 - probs))) @ feats + np.eye(len(x)))
    return np.stack(stack)


def svn_metrics_oracle(model, points, bandwidth: float, floor_ratio: float = 1e-6) -> np.ndarray:
    """SVN's metrics from (n, n, d) difference and kernel-gradient stacks,
    against ``dynamics.svn_metrics``' one GEMM over centred points:
    (1/n) sum_j [k_ji^2 H(x_j) + g_ji g_ji^T] with g_ji = k_ji (x_j - x_i) / h,
    repaired as the sampler repairs them."""
    from msvgd.psdlin import psd_repair

    points = np.asarray(points, dtype=float)
    n, d = points.shape
    diff = points[:, None, :] - points[None, :, :]  # (j, i, d) as x_j - x_i
    k = np.exp(-np.sum(diff * diff, axis=2) / (2.0 * bandwidth))
    hs = model.curvature_batch(points)
    term1 = ((k * k).T @ hs.reshape(n, d * d)).reshape(n, d, d) / n
    g = (k[:, :, None] * diff / bandwidth).transpose(1, 0, 2)  # (i, j, d)
    return psd_repair(term1 + (g.transpose(0, 2, 1) @ g) / n, floor_ratio=floor_ratio)


def load_particles(path) -> tuple[int, np.ndarray]:
    """Read back one particle CSV; returns (iteration, positions)."""
    lines = Path(path).read_text().strip().split("\n")
    rows = [line.split(",") for line in lines[1:]]
    return int(rows[0][0]), np.array([[float(v) for v in row[2:]] for row in rows])


def fd_gradient(f, x, step=1e-5):
    """Central-difference gradient of a scalar function."""
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = step
        out[i] = (f(x + e) - f(x - e)) / (2.0 * step)
    return out


def fd_jacobian(f, x, step=1e-5):
    """Central-difference Jacobian of a vector function; rows index outputs."""
    x = np.asarray(x, dtype=float)
    width = np.asarray(f(x), dtype=float).size
    out = np.zeros((width, x.size))
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = step
        out[:, i] = (np.asarray(f(x + e), dtype=float)
                     - np.asarray(f(x - e), dtype=float)) / (2.0 * step)
    return out


def brute_force_direction(strategy, points, grads, step=1e-6):
    """Stein direction with the kernel divergence taken by finite differences.

    phi(x_i) = (1/n) sum_j [K(x_i, x_j) grad_j + div_j K(x_i, x_j)] where the
    divergence's l-th entry is sum_m d/dx_j^m K_{lm}(x_i, x_j), built column
    by column from ``kernel_eval`` alone.
    """
    points = np.asarray(points, dtype=float)
    grads = np.asarray(grads, dtype=float)
    n, d = points.shape
    phi = np.zeros((n, d))
    for i in range(n):
        for j in range(n):
            kij = kernel_eval(strategy, points[i], points[j])
            div = np.zeros(d)
            for m in range(d):
                e = np.zeros(d)
                e[m] = step
                plus = kernel_eval(strategy, points[i], points[j] + e)
                minus = kernel_eval(strategy, points[i], points[j] - e)
                div += (plus[:, m] - minus[:, m]) / (2.0 * step)
            phi[i] += kij @ grads[j] + div
    return phi / n


def gram(strategy, points) -> np.ndarray:
    """Block Gram matrix [K(x_i, x_j)]_{ij}, (n d, n d), from ``kernel_eval``
    alone; the lower blocks are the transposes of the upper ones."""
    points = np.asarray(points, dtype=float)
    n, d = points.shape
    out = np.empty((n * d, n * d))
    for i in range(n):
        for j in range(i, n):
            block = kernel_eval(strategy, points[i], points[j])
            out[i * d:(i + 1) * d, j * d:(j + 1) * d] = block
            if j > i:
                out[j * d:(j + 1) * d, i * d:(i + 1) * d] = block.T
    return out


def mahalanobis_sq(x, y, bundle) -> float:
    """Squared Mahalanobis distance (x - y)^T q (x - y) under the bundle metric."""
    from msvgd.errors import InvalidInputError

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


def matrix_root(q, power: float = 0.5) -> np.ndarray:
    """q^power of a symmetric positive definite matrix (or a stack of them),
    from its own eigendecomposition: vec diag(lam^power) vec^T, symmetrized."""
    lam, vec = np.linalg.eigh(q)
    root = (vec * lam[..., None, :] ** power) @ np.swapaxes(vec, -1, -2)
    return 0.5 * (root + np.swapaxes(root, -1, -2))


def pairwise_mahalanobis_sq(xs, ys, bundle) -> np.ndarray:
    """Pairwise squared Mahalanobis distances, computed in q^{1/2} coordinates:
    a second route to the library's expanded-form ``_metric_sq_dists``."""
    root = matrix_root(bundle.q)
    xs = np.asarray(xs, dtype=float) @ root
    ys = None if ys is None else np.asarray(ys, dtype=float) @ root
    return pairwise_sq_dists(xs, ys)


def random_spd(rng, d, jitter=0.3):
    """Random symmetric positive definite matrix with eigenvalues O(1)."""
    a = rng.standard_normal((d, d))
    return a @ a.T / d + (jitter + rng.random()) * np.eye(d)


def random_anchor_set(rng, n_anchors, d):
    from msvgd.kernels import MixturePrecond
    from msvgd.psdlin import make_bundle

    return MixturePrecond(
        points=rng.standard_normal((n_anchors, d)),
        bundle=make_bundle(np.stack([random_spd(rng, d) for _ in range(n_anchors)])),
    )


def per_anchor_mixture_direction(anchors, points, grads):
    """The mixture kernel's Stein direction built one anchor at a time.

    Each anchor's weights, weight gradients and kernel come from that
    anchor's own single-matrix bundle and ``pairwise_mahalanobis_sq``, as a
    loop over anchors; an oracle for the chunked ``MixturePrecond.direction``.
    """
    from scipy.special import logsumexp

    from msvgd.psdlin import PreconditionerBundle

    stack = anchors.bundle
    bundles = [PreconditionerBundle(q=stack.q[l], q_inv=stack.q_inv[l], log_det=stack.log_det[l])
               for l in range(len(anchors.points))]
    n = points.shape[0]
    scores = np.empty((n, len(anchors.points)))
    t = np.empty((len(anchors.points), n, points.shape[1]))
    for l, b in enumerate(bundles):
        z = anchors.points[l]
        scores[:, l] = 0.5 * b.log_det - 0.5 * pairwise_mahalanobis_sq(points, z[None, :], b)[:, 0]
        t[l] = -(points - z) @ b.q
    w = np.exp(scores - logsumexp(scores, axis=1, keepdims=True))
    avg = np.einsum("nl,lnd->nd", w, t)
    phi = np.zeros_like(points)
    for l, (b, h) in enumerate(zip(bundles, anchors.bandwidths)):
        wg = w[:, l, None] * (t[l] - avg)
        s = np.exp(-pairwise_mahalanobis_sq(points, None, b) / (2.0 * h))
        drive = (s @ (w[:, l, None] * grads + wg)) @ b.q_inv
        sw = s * w[None, :, l]
        repulse = (sw.sum(axis=1)[:, None] * points - sw @ points) / h
        phi += w[:, l, None] * (drive + repulse)
    return phi / n


def strategies_for(rng, d):
    """One instance of each kernel kind over dimension d."""
    from msvgd.kernels import ConstPrecond, ScalarRBF
    from msvgd.psdlin import make_bundle

    const = ConstPrecond(make_bundle(random_spd(rng, d)), bandwidth=1.3)
    # a spare draw (it once gave a per-coordinate kernel its bandwidths), kept
    # so that the seeded inputs of the mixture case do not shift
    rng.random(d)
    return [ScalarRBF(bandwidth=0.8), const, random_anchor_set(rng, 3, d)]


def change_of_variables_directions(bundle, positions, bandwidth: float):
    """The same update computed two ways on a zero-mean Gaussian target.

    Direct route: constant-preconditioner kernel (metric ``bundle.q``) on the
    original space against p = N(0, q^{-1}).  Mapped route: plain scalar-RBF
    update in the whitened coordinates y = q^{1/2} x against N(0, I), pulled
    back through q^{-1/2}.  The two coincide exactly (same bandwidth on both
    sides); returns (direct, mapped) for comparison.
    """
    from msvgd.errors import InvalidInputError
    from msvgd.kernels import ConstPrecond, ScalarRBF

    positions = np.asarray(positions, dtype=float)
    if positions.ndim != 2 or positions.shape[1] != bundle.dim:
        raise InvalidInputError(f"expected particles of shape (n, {bundle.dim}), got {positions.shape}")
    grads = -positions @ bundle.q  # the score of N(0, q^{-1})
    direct = ConstPrecond(bundle, bandwidth).direction(positions, grads)
    mapped_points = positions @ matrix_root(bundle.q)
    phi0 = ScalarRBF(bandwidth).direction(mapped_points, -mapped_points)
    return direct, phi0 @ matrix_root(bundle.q, -0.5)


def map_estimate(model, x0, iterations: int = 100, tol: float = 1e-12) -> np.ndarray:
    """Newton ascent on log density using the model's curvature as the metric."""
    x = np.asarray(x0, dtype=float).copy()
    for _ in range(iterations):
        step = np.linalg.solve(model.curvature(x), grad_log_density(model, x))
        x = x + step
        if float(np.linalg.norm(step)) < tol:
            break
    return x


def assert_fd_close(analytic, numeric, rel=1e-4, abs_=1e-6, label="values"):
    """Mixed-tolerance comparison: |a - n| <= abs_ + rel * |n| entrywise."""
    analytic = np.asarray(analytic, dtype=float)
    numeric = np.asarray(numeric, dtype=float)
    err = np.abs(analytic - numeric)
    tol = abs_ + rel * np.abs(numeric)
    worst = float(np.max(err - tol))
    assert np.all(err <= tol), f"{label} exceed tolerance by {worst:.3e}"


def pooled_median_bandwidth(xs, ys) -> float:
    """Median-trick bandwidth of ``xs`` pooled with ``ys`` by brute force:
    the whole pooled squared-distance matrix in the library's expanded form
    |x|^2 + |y|^2 - 2 x.y, its upper triangle, and ``np.median``."""
    pooled = np.vstack([xs, ys])
    sq = np.sum(pooled * pooled, axis=1)
    d2 = sq[:, None] + sq[None, :]
    d2 += (-2.0 * pooled) @ pooled.T
    n = pooled.shape[0]
    h = np.median(np.maximum(d2, 0.0)[np.triu_indices(n, 1)]) / np.log(n + 1.0)
    return 1.0 if h == 0.0 else float(h)


def double_loop_mmd_sq(xs, ys, bandwidth: float) -> float:
    """Biased squared MMD under exp(-|a - b|^2 / (2 h)), one pair at a time."""
    def mean_kernel(a_set, b_set):
        return sum(np.exp(-float(np.sum((a - b) ** 2)) / (2.0 * bandwidth))
                   for a in a_set for b in b_set) / (len(a_set) * len(b_set))
    return mean_kernel(xs, xs) + mean_kernel(ys, ys) - 2.0 * mean_kernel(xs, ys)
