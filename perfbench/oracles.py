"""Reference computations the benchmark checks the program against.

Everything here is written from the model definitions with numpy alone; the
only use of the program is in ``self_test``, which cross-checks these
formulas against the program's own scores at random points.

- ``StarMixture``: the five-armed star target rebuilt from its definition
  (component 1 is N((0, 1.5), diag(1, 0.01)), the others are its rotations
  by multiples of 2*pi/5), with an exact ancestral sampler and its score.
- ``mmd_sq`` and ``median_bandwidth``: V-statistic RBF MMD with the
  median-trick bandwidth, in the program's convention k = exp(-r^2 / (2h));
  ``Reference`` computes both against one fixed sample with its pairwise
  distances kept.
- ``ksd_sq``: V-statistic kernel Stein discrepancy under the inverse
  multiquadric kernel (c^2 + r^2)^beta, c = 1, beta = -1/2 (Gorham & Mackey,
  "Measuring Sample Quality with Kernels", ICML 2017).
- ``logistic_score``, ``newton_map`` and ``predictive``: the Bayesian
  logistic posterior with a standard normal prior, its Newton MAP and
  Laplace covariance, and posterior-predictive accuracy / log likelihood.
"""

from __future__ import annotations

import numpy as np

KSD_C = 1.0
KSD_BETA = -0.5
_CHUNK = 512


class StarMixture:
    """Equal-weight mixture of K rotated copies of one 2-D Gaussian."""

    def __init__(self, components: int = 5, mu1=(0.0, 1.5), sd1=(1.0, 0.1)):
        angles = 2.0 * np.pi * np.arange(components) / components
        rots = np.stack([np.array([[np.cos(a), -np.sin(a)], [np.sin(a), np.cos(a)]])
                         for a in angles])
        self.means = rots @ np.asarray(mu1, dtype=float)
        # cov_k = R_k diag(sd1)^2 R_k^T, so R_k diag(sd1) is a square root of it
        self.roots = rots * np.asarray(sd1, dtype=float)[None, None, :]
        self.covs = self.roots @ self.roots.transpose(0, 2, 1)
        self.precisions = np.linalg.inv(self.covs)
        self.log_dets = np.log(np.linalg.det(self.covs))

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        comp = rng.integers(len(self.means), size=n)
        z = rng.standard_normal((n, 2))
        return self.means[comp] + np.einsum("nij,nj->ni", self.roots[comp], z)

    def _component_log_pdfs(self, x):
        dc = x[:, None, :] - self.means[None, :, :]
        quad = np.einsum("nki,kij,nkj->nk", dc, self.precisions, dc)
        return -np.log(2.0 * np.pi) - 0.5 * self.log_dets[None, :] - 0.5 * quad

    def log_density(self, x) -> np.ndarray:
        lp = self._component_log_pdfs(np.asarray(x, dtype=float))
        top = lp.max(axis=1, keepdims=True)
        return top[:, 0] + np.log(np.exp(lp - top).mean(axis=1))

    def score(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        lp = self._component_log_pdfs(x)
        resp = np.exp(lp - lp.max(axis=1, keepdims=True))
        resp /= resp.sum(axis=1, keepdims=True)
        comp = np.einsum("kij,nkj->nki", self.precisions, self.means[None, :, :] - x[:, None, :])
        return np.einsum("nk,nki->ni", resp, comp)


def _sq_dists(xs, ys) -> np.ndarray:
    d2 = (xs * xs).sum(axis=1)[:, None] + (ys * ys).sum(axis=1)[None, :] - 2.0 * xs @ ys.T
    return np.maximum(d2, 0.0)


def _upper_sq_dists(points) -> np.ndarray:
    """The squared distances of all pairs i < j, built in row chunks."""
    n = points.shape[0]
    return np.concatenate([
        _sq_dists(points[i:i + _CHUNK], points)[
            np.arange(i, min(i + _CHUNK, n))[:, None] < np.arange(n)[None, :]]
        for i in range(0, n, _CHUNK)])


def median_bandwidth(points) -> float:
    """Median of the pairwise squared distances (i < j) over log(n + 1)."""
    points = np.asarray(points, dtype=float)
    return float(np.median(_upper_sq_dists(points))) / np.log(points.shape[0] + 1.0)


def _mean_rbf(xs, ys, h) -> float:
    total = sum(float(np.exp(-_sq_dists(xs[i:i + _CHUNK], ys) / (2.0 * h)).sum())
                for i in range(0, xs.shape[0], _CHUNK))
    return total / (xs.shape[0] * ys.shape[0])


def mmd_sq(xs, ys, h: float) -> float:
    """Biased (V-statistic) squared MMD under exp(-r^2 / (2h))."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    return _mean_rbf(xs, xs, h) + _mean_rbf(ys, ys, h) - 2.0 * _mean_rbf(xs, ys, h)


class Reference:
    """A fixed reference sample with its pairwise distances kept, so MMD and
    pooled median bandwidths against it cost O(n_x n_ref) after the first."""

    def __init__(self, draws):
        self.draws = np.asarray(draws, dtype=float)
        self._upper = _upper_sq_dists(self.draws)

    def median_bandwidth(self, xs) -> float:
        """``median_bandwidth`` of xs pooled with the reference draws."""
        xs = np.asarray(xs, dtype=float)
        n_x = xs.shape[0]
        pooled = np.concatenate([self._upper, _sq_dists(xs, self.draws).ravel(),
                                 _sq_dists(xs, xs)[np.triu_indices(n_x, k=1)]])
        return float(np.median(pooled)) / np.log(n_x + self.draws.shape[0] + 1.0)

    def mmd_sq(self, xs, h: float) -> float:
        """``mmd_sq(xs, draws, h)`` with the draws' own term from the cache."""
        xs = np.asarray(xs, dtype=float)
        n = self.draws.shape[0]
        yy = (n + 2.0 * float(np.exp(-self._upper / (2.0 * h)).sum())) / (n * n)
        return _mean_rbf(xs, xs, h) + yy - 2.0 * _mean_rbf(xs, self.draws, h)


def ksd_sq(x, scores, c: float = KSD_C, beta: float = KSD_BETA) -> float:
    """V-statistic squared KSD: mean over all pairs of the Stein kernel
    k_p(x, y) = div_x div_y k + grad_x k . s(y) + grad_y k . s(x) + k s(x) . s(y)
    for the IMQ base kernel k = (c^2 + |x - y|^2)^beta."""
    x = np.asarray(x, dtype=float)
    s = np.asarray(scores, dtype=float)
    d = x.shape[1]
    r = x[:, None, :] - x[None, :, :]
    r2 = (r * r).sum(axis=2)
    u = c * c + r2
    s_dot_r_i = np.einsum("id,ijd->ij", s, r)
    s_dot_r_j = np.einsum("jd,ijd->ij", s, r)
    kp = (u ** beta * (s @ s.T)
          + 2.0 * beta * u ** (beta - 1.0) * (s_dot_r_j - s_dot_r_i)
          - 2.0 * beta * d * u ** (beta - 1.0)
          - 4.0 * beta * (beta - 1.0) * u ** (beta - 2.0) * r2)
    return float(kp.mean())


def sigmoid(z) -> np.ndarray:
    return 0.5 * (1.0 + np.tanh(0.5 * np.asarray(z, dtype=float)))


def logistic_log_density(w, features, labels) -> np.ndarray:
    """Unnormalized log posterior at each row of w (standard normal prior)."""
    w = np.atleast_2d(np.asarray(w, dtype=float))
    z = w @ features.T
    sign = 2.0 * labels - 1.0
    return -np.logaddexp(0.0, -sign[None, :] * z).sum(axis=1) - 0.5 * (w * w).sum(axis=1)


def logistic_score(w, features, labels) -> np.ndarray:
    """Gradient of the log posterior at each row of w: X^T (y - p) - w."""
    w = np.atleast_2d(np.asarray(w, dtype=float))
    return (labels[None, :] - sigmoid(w @ features.T)) @ features - w


def newton_map(features, labels, iterations: int = 100, tol: float = 1e-12):
    """Newton ascent to the MAP; returns (map, Laplace covariance)."""
    d = features.shape[1]
    w = np.zeros(d)
    for _ in range(iterations):
        p = sigmoid(features @ w)
        hess = (features.T * (p * (1.0 - p))) @ features + np.eye(d)
        step = np.linalg.solve(hess, logistic_score(w, features, labels)[0])
        if float(np.linalg.norm(step)) < tol:
            break
        w = w + step
    return w, np.linalg.inv(hess)


def predictive(particles, features, labels) -> tuple[float, float]:
    """Accuracy of 1[mean_particles p > 1/2] and mean log likelihood of the
    particle-averaged probabilities, clipped to [1e-12, 1 - 1e-12]."""
    probs = sigmoid(np.asarray(particles, dtype=float) @ features.T).mean(axis=0)
    accuracy = float(np.mean((probs > 0.5) == (labels > 0.5)))
    probs = np.clip(probs, 1e-12, 1.0 - 1e-12)
    log_lik = float(np.mean(labels * np.log(probs) + (1.0 - labels) * np.log1p(-probs)))
    return accuracy, log_lik


def _fd_grad(f, x, step=1e-6) -> np.ndarray:
    out = np.empty_like(x)
    for m in range(x.size):
        e = np.zeros_like(x)
        e[m] = step
        out[m] = (f(x + e) - f(x - e)) / (2.0 * step)
    return out


def self_test(msvgd) -> list[str]:
    """Quick checks of every oracle; returns the names of the failed ones.

    ``msvgd`` is the imported program package: the star and logistic scores
    are cross-checked against its ``grad_log_density_batch``.
    """
    rng = np.random.default_rng(20191028)
    failed = []

    def check(name, ok):
        if not ok:
            failed.append(name)

    star = StarMixture()
    draws = star.sample(200_000, rng)
    mean_cov = star.covs.mean(axis=0) + star.means.T @ star.means / len(star.means)
    check("star_sampler_mean", np.max(np.abs(draws.mean(axis=0))) < 0.01)
    check("star_sampler_cov", np.max(np.abs(np.cov(draws.T) - mean_cov)) < 0.02)
    pts = 2.0 * rng.standard_normal((40, 2))
    fd = np.stack([_fd_grad(lambda v: star.log_density(v[None, :])[0], p) for p in pts])
    check("star_score_fd", np.allclose(star.score(pts), fd, rtol=1e-5, atol=1e-5))
    program_star = msvgd.make_target("star_mixture")
    check("star_score_program", np.allclose(star.score(pts), program_star.grad_log_density_batch(pts),
                                            rtol=1e-10, atol=1e-10))

    n_rows, d = 300, 6
    feats = rng.standard_normal((n_rows, d))
    labels = (rng.random(n_rows) < sigmoid(feats @ np.linspace(-1.0, 1.0, d))).astype(float)
    ws = 0.5 * rng.standard_normal((10, d))
    fd = np.stack([_fd_grad(lambda v: logistic_log_density(v, feats, labels)[0], w) for w in ws])
    check("logistic_score_fd", np.allclose(logistic_score(ws, feats, labels), fd, rtol=1e-5, atol=1e-4))
    program_post = msvgd.LogisticPosterior(msvgd.LogisticDataset(features=feats, labels=labels))
    check("logistic_score_program", np.allclose(logistic_score(ws, feats, labels),
                                                program_post.grad_log_density_batch(ws),
                                                rtol=1e-10, atol=1e-9))
    w_map, cov = newton_map(feats, labels)
    check("newton_map_stationary", np.linalg.norm(logistic_score(w_map, feats, labels)) < 1e-8)
    neg_hess = -np.stack([_fd_grad(lambda v, m=m: logistic_score(v, feats, labels)[0, m], w_map)
                          for m in range(d)])
    check("laplace_cov_fd", np.allclose(np.linalg.inv(cov), neg_hess, rtol=1e-5, atol=1e-4))

    xs, ys = rng.standard_normal((30, 3)), rng.standard_normal((40, 3)) + 0.3
    h = 1.7
    brute = (np.mean([[np.exp(-np.sum((a - b) ** 2) / (2 * h)) for b in xs] for a in xs])
             + np.mean([[np.exp(-np.sum((a - b) ** 2) / (2 * h)) for b in ys] for a in ys])
             - 2.0 * np.mean([[np.exp(-np.sum((a - b) ** 2) / (2 * h)) for b in ys] for a in xs]))
    check("mmd_brute_force", abs(mmd_sq(xs, ys, h) - brute) < 1e-12)
    check("mmd_self_zero", abs(mmd_sq(xs, xs, h)) < 1e-12)
    pooled = np.vstack([xs, ys])
    brute_h = np.median([np.sum((pooled[i] - pooled[j]) ** 2) for i in range(70)
                         for j in range(i + 1, 70)]) / np.log(71.0)
    check("median_bandwidth_brute_force", abs(median_bandwidth(pooled) - brute_h) < 1e-12)
    ref = Reference(rng.standard_normal((1100, 3)))
    check("reference_mmd", abs(ref.mmd_sq(xs, h) - mmd_sq(xs, ref.draws, h)) < 1e-12)
    check("reference_bandwidth",
          abs(ref.median_bandwidth(xs) - median_bandwidth(np.vstack([xs, ref.draws]))) < 1e-12)

    # Stein kernel against a finite-difference construction from the base kernel
    x, s = rng.standard_normal((5, 3)), rng.standard_normal((5, 3))
    base = lambda a, b: (KSD_C ** 2 + np.sum((a - b) ** 2)) ** KSD_BETA  # noqa: E731
    total = 0.0
    for i in range(5):
        for j in range(5):
            gx = _fd_grad(lambda v: base(v, x[j]), x[i])
            gy = _fd_grad(lambda v: base(x[i], v), x[j])
            div = sum(_fd_grad(lambda v, m=m: _fd_grad(lambda w: base(w, v), x[i], 1e-4)[m],
                               x[j], 1e-4)[m] for m in range(3))
            total += div + gx @ s[j] + gy @ s[i] + base(x[i], x[j]) * s[i] @ s[j]
    check("ksd_fd", abs(ksd_sq(x, s) - total / 25.0) < 1e-6)
    exact = star.sample(300, rng)
    shifted = exact + np.array([0.3, 0.0])
    check("ksd_exact_below_shifted", ksd_sq(exact, star.score(exact)) < ksd_sq(shifted, star.score(shifted)))
    return failed
