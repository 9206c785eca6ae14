"""Shared fixtures and independent oracles.

The oracles here deliberately avoid the library's solution paths: the
constrained fit is checked against projected functional gradient descent, the
rank-adaptive decomposition against a full ``eigh``, the Gram assembly against
pointwise kernel evaluation, the selection criteria and the pairwise-comparison
primitive against plain-Python double/quadruple loops, and the majorant event
checks against their per-cell loops.  The holdout's pivot basis is checked
against the full cross-Gram, which :func:`holdout_sq_error` evaluates in one
product of its own.
"""

import math
from dataclasses import dataclass

import numpy as np
import pytest

from rkhsball.errors import InputError, NumericalError
from rkhsball.estimator import (
    CHOLESKY_MARGIN,
    RANK_RTOL,
    GramEigen,
    eigen_gram,
    fit_constrained,
)
from rkhsball.experiments import generate, replicate_rng
from rkhsball.kernels import GaussianKernel, chaining_constant_bound, cross_gram, gram
from rkhsball.theory import scaled_element_approx_bound


def gaussian_eval(gamma, dim, x1, x2):
    """Pointwise oracle for :func:`rkhsball.kernels.gram` and ``cross_gram``:
    ``gamma**(-dim) * exp(-||x1 - x2||_2**2 / gamma**2)`` at one pair of points
    of dimension ``dim``.  The kernel's constructor checks the width, the
    dimension and the scale's overflow."""
    kernel = GaussianKernel(gamma, dim)
    a = np.atleast_1d(np.asarray(x1, dtype=float))
    b = np.atleast_1d(np.asarray(x2, dtype=float))
    if a.shape != (kernel.dim,) or b.shape != (kernel.dim,):
        raise InputError(f"points must have dimension {kernel.dim}, got shapes {a.shape} and {b.shape}")
    sq = float(np.sum((a - b) ** 2))
    return kernel.diag_sup * math.exp(-sq / kernel.gamma**2)


def rkhs_sq_distance(fit_a, fit_b, k):
    """Squared function-space distance ``(a-b)^T K (a-b)`` between two fits."""
    if fit_a.n != fit_b.n:
        raise InputError("fits come from different training sets")
    diff = fit_a.coeffs - fit_b.coeffs
    return float(diff @ (np.asarray(k, dtype=float) @ diff))


@dataclass(frozen=True)
class HoldoutError:
    mean: float
    stderr: float


def holdout_sq_error(fit, kernel, x_train, scenario, *, rng=None):
    """Monte Carlo estimate of the squared population error of one fit.

    Draws the scenario's ``holdout_size`` fresh design points and averages
    ``(clip(fit(x), c) - g(x))**2`` with the scenario's clip bound ``c``,
    reporting the standard error alongside.  The whole holdout is one full
    cross-Gram product, with no row blocks and no pivot basis.
    """
    n_test = scenario.holdout_size
    if fit.n != len(x_train):
        raise InputError(f"fit has {fit.n} coefficients but {len(x_train)} training points given")
    if rng is None:
        rng = replicate_rng(scenario.master_seed, 0, stream=1)
    if scenario.design == "uniform-cube":
        x_new = rng.uniform(0.0, 1.0, size=(n_test, scenario.d))
    else:
        x_new = rng.standard_normal(size=(n_test, scenario.d))
    preds = np.clip(cross_gram(kernel, x_train, x_new) @ fit.coeffs, -scenario.c, scenario.c)
    sq = (preds - scenario.target.evaluate(x_new)) ** 2
    stderr = float(sq.std(ddof=1)) / math.sqrt(n_test) if n_test > 1 else 0.0
    return HoldoutError(mean=float(sq.mean()), stderr=stderr)


def random_instance(rng, n_max=40, d_max=3, gamma_range=(0.5, 2.0)):
    """Random Gaussian-kernel regression instance (kernel, K, X, Y)."""
    n = int(rng.integers(2, n_max + 1))
    d = int(rng.integers(1, d_max + 1))
    gamma = float(rng.uniform(*gamma_range))
    x = rng.uniform(0.0, 1.0, size=(n, d))
    y = rng.normal(0.0, 1.0, size=n)
    kernel = GaussianKernel(gamma=gamma, dim=d)
    return kernel, gram(kernel, x), x, y


def conditioned_instance(rng, n_max=6, cond_max=20.0):
    """Random well-conditioned PSD instance (K, Y); keeps gradient oracles honest."""
    n = int(rng.integers(2, n_max + 1))
    basis, _ = np.linalg.qr(rng.normal(size=(n, n)))
    evals = rng.uniform(1.0 / cond_max, 1.0, size=n)
    k = (basis * evals) @ basis.T
    k = 0.5 * (k + k.T)
    y = rng.normal(0.0, 1.0, size=n)
    return k, y


def stable_radius_scale(k, y, cutoff=1e-6):
    """Interpolation-norm scale restricted to numerically trustworthy directions."""
    evals, vecs = np.linalg.eigh(k)
    proj = vecs.T @ y
    keep = evals > cutoff * max(float(evals.max()), 0.0)
    if not keep.any():
        return 1.0
    return float(np.sqrt(np.sum(proj[keep] ** 2 / evals[keep])))


def pgd_constrained_loss(k, y, r, iters=60000, tol=1e-15):
    """Projected functional gradient descent oracle for the constrained loss.

    Gradient steps on the kernel coefficients with the exact ball projection
    (radial scaling in the function-space geometry); returns the final
    empirical squared loss.
    """
    k = np.asarray(k, dtype=float)
    y = np.asarray(y, dtype=float)
    n = y.shape[0]
    if r == 0:
        return float(np.mean(y**2))
    lam_max = float(np.linalg.eigvalsh(k).max())
    if lam_max <= 0:
        return float(np.mean(y**2))
    step = n / (2.0 * lam_max)
    a = np.zeros(n)
    prev = math.inf
    for _ in range(iters):
        resid = k @ a - y
        a = a - step * (2.0 / n) * resid
        sq_norm = float(a @ (k @ a))
        if sq_norm > r * r:
            a *= r / math.sqrt(sq_norm)
        loss = float(np.mean((k @ a - y) ** 2))
        if abs(prev - loss) <= tol * (1.0 + loss):
            break
        prev = loss
    return float(np.mean((k @ a - y) ** 2))


def bisect_mu(ge, r, n, max_doublings=200, max_bisections=200, width_rtol=1e-14):
    """Doubling-plus-bisection oracle for the ball multiplier ``mu``.

    Brackets the root of ``phi(mu) = r**2`` by doubling ``mu`` from 1 and then
    bisects until the bracket is ``width_rtol`` wide relative to ``mu``, with
    no early exit on the constraint value, so the result is accurate to about
    ``width_rtol`` relative.  Returns 0 when ``r`` reaches the interpolation
    radius ``ge.rho``.
    """
    if r >= ge.rho:
        return 0.0
    d, c = ge.values, ge.proj

    def phi(mu):
        return float(np.sum(d * c**2 / (d + n * mu) ** 2))

    target = r * r
    hi = 1.0
    for _ in range(max_doublings):
        if phi(hi) < target:
            break
        hi *= 2.0
    else:
        raise RuntimeError("failed to bracket the constraint multiplier")
    lo = 0.0
    for _ in range(max_bisections):
        mid = 0.5 * (lo + hi)
        if phi(mid) > target:
            lo = mid
        else:
            hi = mid
        if hi - lo <= width_rtol * mid:
            return 0.5 * (lo + hi)
    raise RuntimeError("constraint multiplier bisection did not converge")


def full_eigen_gram(k, y):
    """Full-``eigh`` oracle for :func:`rkhsball.estimator.eigen_gram`.

    Diagonalises the whole matrix, clips eigenvalues below zero and keeps the
    eigenpairs above ``max(D) * n * RANK_RTOL``.
    """
    k = np.asarray(k, dtype=float)
    y = np.asarray(y, dtype=float).ravel()
    if k.ndim != 2 or k.shape[0] != k.shape[1]:
        raise InputError(f"Gram matrix must be square, got shape {k.shape}")
    n = k.shape[0]
    if y.shape[0] != n:
        raise InputError(f"response length {y.shape[0]} does not match Gram size {n}")
    scale = float(np.abs(k).max()) if k.size else 0.0
    asym = float(np.abs(k - k.T).max())
    if asym > 1e-12 * (1.0 + scale):
        raise NumericalError(f"Gram matrix asymmetric beyond tolerance ({asym:.3e})")
    values, vectors = np.linalg.eigh(0.5 * (k + k.T))
    order = np.argsort(values)[::-1]
    values = values[order]
    vectors = vectors[:, order]
    top = float(values[0]) if n else 0.0
    if n and float(values[-1]) < -1e-10 * max(top, 0.0):
        raise NumericalError(f"Gram matrix not PSD: eigenvalue {float(values[-1]):.6e}")
    values = np.maximum(values, 0.0)
    threshold = top * n * RANK_RTOL
    rank = int(np.count_nonzero(values > threshold))
    values, vectors = values[:rank], vectors[:, :rank]
    proj = vectors.T @ y
    rho = math.sqrt(float(np.sum(proj**2 / values))) if rank else 0.0
    return GramEigen(vectors=vectors, values=values, proj=proj, rho=rho)


def pivots_needed(k):
    """Pivots a plain pivoted Cholesky of ``k`` takes to reach its stop, with no cap.

    The oracle for :func:`rkhsball.estimator._pivoted_cholesky`'s give-up
    test: the same pivot choice and stop rule (residual trace at most
    ``lb * n * RANK_RTOL * CHOLESKY_MARGIN``), row by row, until it stops.
    """
    k = np.asarray(k, dtype=float)
    n = k.shape[0]
    resid = k.diagonal().copy()
    lb = max(float(resid.max()), float(k.sum()) / n)
    stop = lb * n * RANK_RTOL * CHOLESKY_MARGIN
    rows = np.zeros((n, n))
    j = 0
    while float(resid.sum()) > stop:
        i = int(np.argmax(resid))
        rows[j] = (k[i] - rows[:j, i] @ rows[:j]) / math.sqrt(resid[i])
        resid -= rows[j] ** 2
        resid[i] = 0.0
        j += 1
    return j


def naive_fixed_criterion(preds, radii, tau, nu, n):
    """Plain-loop evaluation of the radius-selection criterion.

    Returns (rows, r_hat) with rows = [(r, bias_proxy, variance_term, total)].
    """
    sqrt_n = math.sqrt(n)
    rows = []
    for i, r in enumerate(radii):
        best = -math.inf
        for j in range(i, len(radii)):
            dist = sum((preds[i][t] - preds[j][t]) ** 2 for t in range(n)) / n
            best = max(best, dist - tau * (r + radii[j]) / sqrt_n)
        var = 2.0 * (1.0 + nu) * tau * r / sqrt_n
        rows.append((r, best, var, best + var))
    r_hat = min(rows, key=lambda row: (row[3], row[0]))[0]
    return rows, r_hat


def naive_gauss_criterion(preds, gammas, radii, tau, nu, dim, n):
    """Plain quadruple-loop evaluation of the width/radius criterion.

    ``preds[i][j]`` are the training predictions for width i, radius j.
    Returns (rows, gamma_hat, r_hat) with the tie-break: smallest total,
    then largest width, then smallest radius.
    """
    sqrt_n = math.sqrt(n)
    rows = []
    for i, gamma in enumerate(gammas):
        for j, r in enumerate(radii):
            best = -math.inf
            for p in range(0, i + 1):
                for q in range(j, len(radii)):
                    dist = sum((preds[i][j][t] - preds[p][q][t]) ** 2 for t in range(n)) / n
                    pen = tau * (gamma ** (-dim / 2.0) * r
                                 + gammas[p] ** (-dim / 2.0) * radii[q]) / sqrt_n
                    best = max(best, dist - pen)
            var = 2.0 * (1.0 + nu) * tau * gamma ** (-dim / 2.0) * r / sqrt_n
            rows.append((gamma, r, best, var, best + var))
    winner = min(rows, key=lambda row: (row[4], -row[0], row[1]))
    return rows, winner[0], winner[1]


def naive_comparison_excess(preds, scales, coef):
    """Plain quadruple-loop evaluation of the pairwise-comparison primitive.

    ``preds[i][j]`` are the fitted values of width i, radius j and
    ``scales[i][j]`` their penalty scales.  Entry ``[i][j]`` of the result is
    the largest ``||p_ij - p_kl||_n^2 - coef * (s_ij + s_kl)`` over
    ``k <= i`` and ``l >= j``.
    """
    out = []
    for i in range(len(preds)):
        row = []
        for j in range(len(preds[i])):
            n = len(preds[i][j])
            best = -math.inf
            for k in range(i + 1):
                for q in range(j, len(preds[k])):
                    dist = sum((preds[i][j][t] - preds[k][q][t]) ** 2 for t in range(n)) / n
                    best = max(best, dist - coef * (scales[i][j] + scales[k][q]))
            row.append(best)
        out.append(row)
    return out


def _loop_path_preds(data, kernel, radii):
    k = gram(kernel, data.x)
    ge = eigen_gram(k, data.y)
    return np.stack([fit_constrained(ge, [r])[0].train_pred for r in radii])


def _loop_approx_upper(target, r):
    if target.h_norm == 0.0:
        return 0.0
    return scaled_element_approx_bound(target.h_norm, target.sup_bound, r)


def loop_majorant_indicators(scenario, grid, t):
    """Per-radius loop evaluation of the fixed-kernel majorant event indicators."""
    target = scenario.target
    kernel = GaussianKernel(gamma=target.gamma0, dim=scenario.d)
    radii = np.asarray(list(grid))
    approx = np.asarray([_loop_approx_upper(target, r) for r in radii])
    indicators = []
    for i in range(scenario.replicates):
        data = generate(scenario, i)
        preds = _loop_path_preds(data, kernel, radii)
        scale = (80.0 * math.sqrt(kernel.diag_sup) * scenario.sigma * math.sqrt(t)
                 / math.sqrt(data.n))
        held = True
        for j in range(len(radii)):
            dists = np.mean((preds[j:] - preds[j][None, :]) ** 2, axis=1)
            bounds = scale * (radii[j] + radii[j:]) + 40.0 * approx[j]
            if np.any(dists > bounds):
                held = False
                break
        indicators.append(int(held))
    return tuple(indicators)


def loop_gauss_majorant_indicators(scenario, widths, grid, t, j_const=None):
    """Per-cell loop evaluation of the width-family majorant event indicators."""
    target = scenario.target
    if j_const is None:
        j_const = chaining_constant_bound(widths[0], widths[-1])
    d = scenario.d
    gammas = np.asarray(list(widths))
    radii = np.asarray(list(grid))
    scales = gammas[:, None] ** (-d / 2.0) * radii[None, :]
    approx = np.empty((len(gammas), len(radii)))
    for gi, gamma in enumerate(gammas):
        for ri, r in enumerate(radii):
            if gamma <= target.gamma0:
                approx[gi, ri] = _loop_approx_upper(target, r)
            else:
                approx[gi, ri] = target.sup_bound ** 2
    indicators = []
    for i in range(scenario.replicates):
        data = generate(scenario, i)
        preds = np.stack([_loop_path_preds(data, GaussianKernel(gamma=g, dim=d), radii)
                          for g in gammas])
        coeff = 84.0 * j_const * scenario.sigma * math.sqrt(t) / math.sqrt(data.n)
        held = True
        for gi in range(len(gammas)):
            for ri in range(len(radii)):
                block = preds[: gi + 1, ri:, :]
                dists = np.mean((block - preds[gi, ri][None, None, :]) ** 2, axis=2)
                bounds = coeff * (scales[gi, ri] + scales[: gi + 1, ri:]) + 40.0 * approx[gi, ri]
                if np.any(dists > bounds):
                    held = False
        indicators.append(int(held))
    return tuple(indicators)


@pytest.fixture
def rng():
    return np.random.default_rng(20240814)
