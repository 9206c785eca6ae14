"""Norm-constrained least-squares estimation in the span of the kernel sections.

The estimator for radius ``r`` minimises the empirical squared loss over the
ball of radius ``r`` in the function space induced by the kernel.  In the
eigenbasis of the Gram matrix ``K = A diag(D) A^T`` the solution is

    coeffs = A w,   w_i = c_i / (D_i + n * mu)   for i <= rank,

where ``c = A^T y`` and ``mu >= 0`` is the Lagrange multiplier of the ball
constraint.  The multiplier is zero when the radius exceeds the interpolation
radius ``rho`` (the norm of the minimum-norm fit on the range of K) and is
otherwise the unique root of a strictly decreasing rational equation, solved
here by bisection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError, NumericalError

__all__ = [
    "GramEigen",
    "ConstrainedFit",
    "eigen_gram",
    "mu_of_r",
    "fit_constrained",
    "clip",
    "predict",
    "empirical_sq_distance",
    "rkhs_sq_distance",
]

# Eigenvalues below max(D) * n * RANK_RTOL count as numerically zero.
RANK_RTOL = 1e-12
MU_REL_TOL = 1e-10
# Newton from the left of the root took at most 12 iterations on spectra
# spanning 12 decades; the cap only bounds a diverging solve.
MU_MAX_ITER = 50


@dataclass(frozen=True)
class GramEigen:
    """Eigendecomposition of a Gram matrix together with the response projection.

    ``vectors`` (orthogonal), ``values`` (non-negative, non-increasing),
    ``rank`` (number of eigenvalues above the rank threshold), ``proj``
    (vectors^T y) and ``rho`` (interpolation radius).
    """

    vectors: np.ndarray
    values: np.ndarray
    rank: int
    proj: np.ndarray
    rho: float

    @property
    def n(self) -> int:
        return self.values.shape[0]


def eigen_gram(k: np.ndarray, y: np.ndarray) -> GramEigen:
    """Diagonalise a symmetric PSD Gram matrix and project the responses.

    Eigenvalues are sorted non-increasing and clipped to zero below the rank
    threshold ``max(D) * n * 1e-12``.  Raises :class:`NumericalError` when the
    matrix is asymmetric or has an eigenvalue below the PSD tolerance.
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
    proj = vectors.T @ y
    if rank:
        rho = math.sqrt(float(np.sum(proj[:rank] ** 2 / values[:rank])))
    else:
        rho = 0.0
    return GramEigen(vectors=vectors, values=values, rank=rank, proj=proj, rho=rho)


def mu_of_r(ge: GramEigen, r: float, n: int) -> float:
    """Lagrange multiplier making the ball constraint active at radius ``r``.

    Returns 0 when ``r`` is at least the interpolation radius.  Otherwise
    solves ``phi(lam) = r**2`` for ``lam = n * mu``, where
    ``phi(lam) = sum_i D_i c_i^2 / (D_i + lam)^2`` is strictly decreasing.
    Following More & Sorensen (1983), Newton's method is applied to
    ``psi(lam) = 1/sqrt(phi(lam)) - 1/r``, which is concave and increasing, so
    Newton steps from the left of the root stay left of it and converge
    monotonically.  The root lies in
    ``[max(0, sqrt(S)/r - D_max), sqrt(S)/r]`` with ``S = sum_i D_i c_i^2``; a
    step leaving that bracket is replaced by bisection.  The iteration stops
    once ``|phi - r**2| <= MU_REL_TOL * r**2`` and returns one further Newton
    step from there, which leaves ``mu`` accurate well beyond the stop
    tolerance.  Raises :class:`NumericalError` on non-finite input or when
    ``MU_MAX_ITER`` iterations do not converge.
    """
    if not r > 0:
        raise InputError(f"radius must be positive, got {r}")
    if not math.isfinite(ge.rho):
        raise NumericalError(f"interpolation radius is not finite ({ge.rho})")
    if r >= ge.rho:
        return 0.0
    d = ge.values[: ge.rank]
    dc2 = d * ge.proj[: ge.rank] ** 2
    target = r * r
    hi = math.sqrt(float(dc2.sum())) / r
    lo = max(0.0, hi - float(d[0]))
    lam = lo
    for _ in range(MU_MAX_ITER):
        inv = 1.0 / (d + lam)
        terms = dc2 * inv * inv
        phi = float(terms.sum())
        if not math.isfinite(phi):
            raise NumericalError(f"constraint value is not finite ({phi}) at radius {r}")
        if phi > target:
            lo = lam
        else:
            hi = lam
        # Newton step on psi: psi / psi' = (phi - phi**1.5 / r) / sum(D c^2 / (D + lam)^3).
        # The slope underflows only for radii near 1e-150; bisect then.
        slope = float(terms @ inv)
        step = lam + phi * (math.sqrt(phi) / r - 1.0) / slope if slope > 0.0 else lam
        if abs(phi - target) <= MU_REL_TOL * target:
            return min(max(step, lo), hi) / n
        lam = step if lo < step < hi else 0.5 * (lo + hi)
    raise NumericalError(f"constraint multiplier did not converge in {MU_MAX_ITER} iterations")


@dataclass(frozen=True)
class ConstrainedFit:
    """Result of a radius-constrained least-squares fit.

    ``coeffs`` are the kernel-section coefficients, ``train_pred = K coeffs``
    the fitted values on the training points and ``h_norm`` the function-space
    norm ``sqrt(coeffs^T K coeffs)``.  ``mu > 0`` iff the ball constraint is
    active, in which case ``h_norm == r`` up to the solver tolerance.
    """

    r: float
    mu: float
    coeffs: np.ndarray
    train_pred: np.ndarray
    h_norm: float
    kernel_id: str | None = None

    @property
    def n(self) -> int:
        return self.coeffs.shape[0]

    def train_loss(self, y: np.ndarray) -> float:
        """Empirical squared loss (1/n) sum (train_pred_i - y_i)^2."""
        return empirical_sq_distance(self.train_pred, y)


def fit_constrained(
    k: np.ndarray,
    y: np.ndarray,
    r: float,
    *,
    eigen: GramEigen | None = None,
    kernel_id: str | None = None,
) -> ConstrainedFit:
    """Fit the least-squares estimator constrained to the radius-``r`` ball.

    Parameters
    ----------
    k : ndarray
        Symmetric PSD Gram matrix on the training points.
    y : ndarray
        Responses.
    r : float
        Ball radius; ``r = 0`` yields the zero fit.
    eigen : GramEigen, optional
        Reuse a decomposition from :func:`eigen_gram` (one per dataset-kernel
        pair suffices for any number of radii).
    """
    if r < 0:
        raise InputError(f"radius must be non-negative, got {r}")
    y = np.asarray(y, dtype=float).ravel()
    ge = eigen if eigen is not None else eigen_gram(k, y)
    n = ge.n
    if y.shape[0] != n:
        raise InputError(f"response length {y.shape[0]} does not match Gram size {n}")
    if r == 0.0 or ge.rank == 0:
        zero = np.zeros(n)
        return ConstrainedFit(r=float(r), mu=0.0, coeffs=zero, train_pred=np.zeros(n),
                              h_norm=0.0, kernel_id=kernel_id)
    mu = mu_of_r(ge, r, n)
    d = ge.values[: ge.rank]
    c = ge.proj[: ge.rank]
    w = c / (d + n * mu)
    coeffs = ge.vectors[:, : ge.rank] @ w
    train_pred = ge.vectors[:, : ge.rank] @ (d * w)
    h_norm = math.sqrt(float(np.sum(d * w**2)))
    return ConstrainedFit(r=float(r), mu=mu, coeffs=coeffs, train_pred=train_pred,
                          h_norm=h_norm, kernel_id=kernel_id)


def clip(value, c: float):
    """Project value(s) into [-c, c]; idempotent and 1-Lipschitz."""
    if not c > 0:
        raise InputError(f"clip bound must be positive, got {c}")
    if np.isscalar(value):
        return float(min(max(value, -c), c))
    return np.clip(np.asarray(value, dtype=float), -c, c)


def predict(fit: ConstrainedFit, kernel, x_train, x_new, c: float | None = None) -> np.ndarray:
    """Evaluate the fit at new points, optionally clipping into [-c, c]."""
    from .kernels import cross_gram

    kx = cross_gram(kernel, x_train, x_new)
    if kx.shape[1] != fit.n:
        raise InputError(f"fit has {fit.n} coefficients but {kx.shape[1]} training points given")
    out = kx @ fit.coeffs
    if c is not None:
        out = clip(out, c)
    return out


def empirical_sq_distance(p, q) -> float:
    """Squared empirical-norm distance (1/n) sum (p_i - q_i)^2."""
    p = np.asarray(p, dtype=float).ravel()
    q = np.asarray(q, dtype=float).ravel()
    if p.shape != q.shape:
        raise InputError(f"length mismatch: {p.shape[0]} vs {q.shape[0]}")
    if p.shape[0] < 1:
        raise InputError("vectors must be non-empty")
    return float(np.mean((p - q) ** 2))


def rkhs_sq_distance(fit_a: ConstrainedFit, fit_b: ConstrainedFit, k: np.ndarray) -> float:
    """Squared function-space distance (a-b)^T K (a-b) between two fits."""
    if fit_a.kernel_id is not None and fit_b.kernel_id is not None \
            and fit_a.kernel_id != fit_b.kernel_id:
        raise InputError(f"fits use different kernels: {fit_a.kernel_id} vs {fit_b.kernel_id}")
    if fit_a.n != fit_b.n:
        raise InputError("fits come from different training sets")
    diff = fit_a.coeffs - fit_b.coeffs
    return float(diff @ (np.asarray(k, dtype=float) @ diff))
