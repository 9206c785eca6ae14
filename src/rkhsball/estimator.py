"""Norm-constrained least-squares estimation in the span of the kernel sections.

The estimator for radius ``r`` minimises the empirical squared loss over the
ball of radius ``r`` in the function space induced by the kernel.  In the
eigenbasis of the Gram matrix ``K = A diag(D) A^T`` the solution is

    coeffs = A w,   w_i = c_i / (D_i + n * mu)   for i <= rank,

where ``c = A^T y`` and ``mu >= 0`` is the Lagrange multiplier of the ball
constraint.  The multiplier is zero when the radius exceeds the interpolation
radius ``rho`` (the norm of the minimum-norm fit on the range of K) and is
otherwise the unique root of a strictly decreasing rational equation, solved
here by a safeguarded Newton iteration.  Only the eigenpairs above the rank
threshold are computed, by pivoted Cholesky and a Rayleigh-Ritz step when the
Gram matrix is numerically low-rank and by a full ``eigh`` otherwise.

:func:`fit_constrained` fits a whole radius path from its only data input,
the :class:`GramEigen` of :func:`eigen_gram`: it takes a sequence of R radii,
always, and returns the list of their R fits.  It stacks their weights into an
``R x rank`` matrix ``W``, so that every
coefficient vector comes from the one product ``W A^T`` and every fitted value
from the one product ``(W diag(D)) A^T``.  Each positive radius's multiplier
comes from one :func:`mu_of_r` call, which evaluates the secular function in
Python floats when the spectrum has at most ``SCALAR_RANK`` entries, where
numpy's cost per call would outweigh the arithmetic, and in numpy arrays
otherwise.  The float path sums its terms in a fixed order, with no BLAS dot
product, so its multipliers can differ from the array path's in the last
digits.  A fit holds its values on the training points only; the harness's
holdout in :mod:`rkhsball.experiments` evaluates fits on fresh points.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .errors import InputError, NumericalError, check_real

__all__ = [
    "GramEigen",
    "ConstrainedFit",
    "eigen_gram",
    "mu_of_r",
    "fit_constrained",
    "empirical_sq_distance",
]

# Eigenvalues below max(D) * n * RANK_RTOL count as numerically zero.
RANK_RTOL = 1e-12
# An eigenvalue below -PSD_RTOL * max(D) makes the Gram matrix not PSD.
PSD_RTOL = 1e-10
# The pivoted Cholesky stops at a residual trace of lb * n * RANK_RTOL times
# this margin.  A margin of 1 already loses no eigenvalue above the rank
# threshold, but the span of the factor then misses the eigenvectors with
# eigenvalues near the threshold by angles up to sqrt(trace / eigenvalue): on
# random Gaussian Grams, fits differed from the full eigh's by up to 5e-3 of
# the radius in the function-space norm.  At 1e-3 they differ by about 3e-6,
# as much as the full eigh's own fits move when K changes by rounding.
CHOLESKY_MARGIN = 1e-3
# The pivoted Cholesky gives up, and the full eigh runs instead, once it would
# need more than this fraction of n pivots: near full rank its O(n p^2) loop
# and the Rayleigh-Ritz step cost more than the O(n^3) eigh they replace.
PIVOT_FRACTION = 0.5
# The pivoted Cholesky tests its reach every BLOCK_ROWS pivots, and the
# Schur-complement check takes K's rows 8 * BLOCK_ROWS at a time, so a Gram of
# up to 256 points is checked in one block: with two threads calling it at
# n = 200, 32-row blocks took three times as long as one block, and checking
# the whole of K at once raised the peak memory at n = 800.
BLOCK_ROWS = 32
MU_REL_TOL = 1e-10
# A spectrum of at most this many entries solves its multiplier in Python
# floats, a longer one in numpy arrays.  On short spectra numpy's cost per call,
# not the arithmetic, sets the time; the float loop's cost grows with the rank.
# Per mu_of_r call, 1 BLAS thread, 2-core host, numpy vs floats: 34.0 vs 13.7,
# 35.0 vs 10.7 and 22.1 vs 7.5 us on the n = 200, d = 1 Grams of ranks 11, 7
# and 6; on synthetic spectra over 12 decades, 28.5 vs 15.6 us at rank 16,
# 30.5 vs 26.4 at 32, 32.0 vs 33.4 at 40 and 33.6 vs 86.2 at 113.  Another
# run on a similar host broke even at rank 16 (62 vs 59 us) and lost at 24
# (53 vs 82 us), so the threshold takes the lower break-even.
SCALAR_RANK = 16
# Newton from the left of the root took at most 12 iterations on spectra
# spanning 12 decades; the cap only bounds a diverging solve.
MU_MAX_ITER = 50


@dataclass(frozen=True)
class GramEigen:
    """Leading eigenpairs of a Gram matrix together with the response projection.

    Only the eigenpairs above the rank threshold are stored: ``vectors``
    (n x rank, orthonormal columns), ``values`` (positive, non-increasing),
    ``proj`` (vectors^T y) and ``rho`` (interpolation radius).  ``n`` is the
    number of rows of ``vectors`` and ``rank`` the length of ``values``.
    """

    vectors: np.ndarray
    values: np.ndarray
    proj: np.ndarray
    rho: float

    @property
    def n(self) -> int:
        return self.vectors.shape[0]

    @property
    def rank(self) -> int:
        return self.values.shape[0]


def eigen_gram(k: np.ndarray, y: np.ndarray) -> GramEigen:
    """Leading eigenpairs of a symmetric PSD Gram matrix and the projected responses.

    The rank is the number of eigenvalues above ``max(D) * n * RANK_RTOL``;
    only those eigenpairs are kept.  Two paths compute them:

    * Pivoted Cholesky (Harbrecht, Peters & Schneider 2012) builds
      ``K ~ L L^T`` until the trace of the Schur complement ``S = K - L L^T``
      is at most ``lb * n * RANK_RTOL * CHOLESKY_MARGIN``, where
      ``lb = max(max_i K_ii, 1^T K 1 / n) <= lambda_max``; every eigenvalue
      of K outside the span of L is then below the rank threshold.  A
      Rayleigh-Ritz step, an ``eigh`` of ``Q^T K Q`` for an orthonormal basis
      Q of that span, gives the eigenpairs.  Cost O(n^2 p) for p pivots.
    * Past ``PIVOT_FRACTION * n`` pivots the Cholesky stops and a full
      O(n^3) ``eigh`` runs instead.  It gives up sooner, from ``2 *
      BLOCK_ROWS`` pivots on, once the decay of its residual trace shows it
      cannot reach the stop within that cap: the log trace is projected at
      its rate since the last power of two of the pivot count, a rate that
      keeps growing where it grew (see :func:`_out_of_reach`).  The projection
      assumes that the decay does not speed up faster than it has; where it
      does, the full ``eigh`` runs on a Gram the Cholesky would have finished.

    K must be finite and exactly symmetric, as :func:`~rkhsball.kernels.gram`
    builds it; ``0.5 * (k + k.T)`` symmetrises a matrix that is symmetric only
    up to rounding.  Raises :class:`InputError` when the responses are
    non-finite and :class:`NumericalError` when the matrix is non-finite, not
    exactly symmetric or not PSD.  The full path rejects an eigenvalue below
    ``-PSD_RTOL * max(D)``.  The Cholesky path rejects a Ritz value below that,
    or an entry of S larger in magnitude than ``max_i S_ii + PSD_RTOL * lb``;
    what it certifies is weaker: no eigenvalue of K is below ``-n`` times that
    bound, at most about ``-(n**2 * RANK_RTOL * CHOLESKY_MARGIN + n * PSD_RTOL)
    * lambda_max`` (``-8e-8 * lambda_max`` at n = 800).
    """
    k = np.asarray(k, dtype=float)
    y = np.asarray(y, dtype=float).ravel()
    if k.ndim != 2 or k.shape[0] != k.shape[1]:
        raise InputError(f"Gram matrix must be square, got shape {k.shape}")
    n = k.shape[0]
    if y.shape[0] != n:
        raise InputError(f"response length {y.shape[0]} does not match Gram size {n}")
    if not np.isfinite(y).all():
        raise InputError("responses have a non-finite entry")
    if not np.isfinite(k).all():
        raise NumericalError("Gram matrix has a non-finite entry")
    if not np.array_equal(k, k.T):
        raise NumericalError(f"Gram matrix not exactly symmetric: max |K_ij - K_ji| = "
                             f"{_max_abs(k - k.T):.3e}; pass 0.5 * (k + k.T) to symmetrise it")
    factor = _pivoted_cholesky(k) if n else None
    if factor is None:
        values, vectors = _leading_eigen(k, n)
    else:
        values, vectors = _ritz_eigen(k, *factor[:3])
    proj = vectors.T @ y
    rho = math.sqrt(float(np.sum(proj**2 / values))) if values.size else 0.0
    return GramEigen(vectors=vectors, values=values, proj=proj, rho=rho)


def _max_abs(a: np.ndarray) -> float:
    return max(float(a.max()), -float(a.min())) if a.size else 0.0


def _rank(values: np.ndarray, n: int) -> int:
    """Number of leading entries of non-increasing ``values`` above the rank threshold.

    Raises :class:`NumericalError` when the last one is below the PSD tolerance.
    """
    if not values.size:
        return 0
    top, bottom = float(values[0]), float(values[-1])
    if bottom < -PSD_RTOL * max(top, 0.0):
        raise NumericalError(f"Gram matrix not PSD: eigenvalue {bottom:.6e}")
    return int(np.count_nonzero(values > top * n * RANK_RTOL))


def _leading_eigen(a: np.ndarray, n: int):
    """Eigenpairs of the symmetric ``a`` above the rank threshold of an n x n Gram.

    The values are non-increasing; the vectors are an owned C-contiguous copy,
    so the full ``eigh`` output is freed on return.
    """
    values, vectors = np.linalg.eigh(a)
    values = values[::-1]
    rank = _rank(values, n)
    return values[:rank].copy(), vectors[:, ::-1][:, :rank].copy()


def _pivoted_cholesky(k: np.ndarray, margin: float = CHOLESKY_MARGIN):
    """``L^T`` (p x n) with ``K ~ L L^T``, the residual diagonal, ``lb`` and the p
    pivots in order, or None when hopeless.

    Pivots on the largest residual diagonal entry and stops once the residual
    trace is at most ``stop = lb * n * RANK_RTOL * margin``.  Column j of L is
    zero at the first j pivots, so ``L[pivots]`` is lower triangular up to
    rounding.  Returns None at the cap of ``PIVOT_FRACTION * n`` pivots,
    or earlier, at a multiple of ``BLOCK_ROWS`` pivots from ``2 * BLOCK_ROWS``
    on, once :func:`_out_of_reach` finds that the trace cannot reach the stop
    within the cap at the pace it has decayed so far.
    """
    n = k.shape[0]
    resid = k.diagonal().copy()
    lb = max(float(resid.max()), float(k.sum()) / n)
    rel_stop = n * RANK_RTOL * margin
    stop = lb * rel_stop
    cap = int(PIVOT_FRACTION * n)
    lt = np.empty((cap, n))
    pivots = np.empty(cap, dtype=np.intp)
    gaps = []
    for j in range(cap + 1):
        trace = float(resid.sum())
        # Past this test the largest entry is positive: lb < 0 stops at once.
        if trace <= stop:
            return lt[:j], resid, lb, pivots[:j]
        # log(trace / stop), with no underflow in stop for a tiny lb.
        gaps.append(math.log(trace / lb / rel_stop))
        if j == cap or (j >= 2 * BLOCK_ROWS and j % BLOCK_ROWS == 0
                        and _out_of_reach(gaps, cap)):
            return None
        i = pivots[j] = int(np.argmax(resid))
        row = lt[j]
        np.subtract(k[i], lt[:j, i] @ lt[:j], out=row)
        row /= math.sqrt(resid[i])
        resid -= row * row
        resid[i] = 0.0


def _out_of_reach(gaps: list, cap: int) -> bool:
    """Whether a residual trace decaying as in ``gaps`` cannot reach the stop by the cap.

    ``gaps[i]`` is ``L(i) = log(trace_i / stop)`` after i pivots, for i up to
    the current count j >= 2.  With ``j0`` the largest power of two below j
    and ``j1 = j0 / 2``, the log trace falls at ``rate`` per pivot over
    ``[j0, j]`` and at ``before`` over ``[j1, j0]``.  The projection keeps
    ``rate``, and so gives up when
    ``L(j) > (L(j0) - L(j)) * (cap - j) / (j - j0)``, unless the decay sped up
    (``rate > before``); then the rate is assumed to keep growing by the same
    factor per pivot.  That is the case at small widths in one dimension,
    where the trace falls slowly while the pivots spread over the design and
    fast after.  A wrong give-up only sends K to the full eigh.
    """
    j = len(gaps) - 1
    j0 = 1 << ((j - 1).bit_length() - 1)
    j1 = j0 // 2
    rate = (gaps[j0] - gaps[j]) / (j - j0)
    if rate <= 0.0:
        return True
    before = (gaps[j1] - gaps[j0]) / (j0 - j1)
    if rate > before > 0.0:
        # The rate grows by exp(growth) per pivot between the window midpoints.
        growth = math.log(rate / before) / ((j - j1) / 2)
        needed = math.log1p(growth * gaps[j] / rate) / growth
    else:
        needed = gaps[j] / rate
    return needed > cap - j


def _ritz_eigen(k: np.ndarray, lt: np.ndarray, resid: np.ndarray, lb: float):
    """Rank-truncated Ritz pairs of K on the span of its Cholesky factor.

    Bounds the entries of the Schur complement ``S = K - L L^T`` first: for a
    PSD K, ``|S_ij| <= max_i S_ii``, in blocks of ``8 * BLOCK_ROWS`` rows.
    """
    n = k.shape[0]
    height = 8 * BLOCK_ROWS
    bound = max(float(resid.max()), 0.0) + PSD_RTOL * max(lb, 0.0)
    for start in range(0, n, height):
        # S is symmetric: the blocks right of the diagonal cover it.
        rows, right = slice(start, start + height), slice(start, n)
        schur = lt[:, rows].T @ lt[:, right]
        np.subtract(k[rows, right], schur, out=schur)
        worst = _max_abs(schur)
        if worst > bound:
            raise NumericalError(f"Gram matrix not PSD: Schur complement entry {worst:.6e} "
                                 f"exceeds {bound:.6e}")
    q = np.linalg.qr(lt.T)[0]
    h = q.T @ (k @ q)
    theta, u = _leading_eigen(0.5 * (h + h.T), n)
    return theta, q @ u


def mu_of_r(ge: GramEigen, r: float) -> float:
    """Lagrange multiplier making the ball constraint active at radius ``r``.

    Returns 0 when ``r`` is at least the interpolation radius.  Otherwise
    solves ``phi(lam) = r**2`` for ``lam = n * mu``, with n, D and c from ``ge``,
    where ``phi(lam) = sum_i D_i c_i^2 / (D_i + lam)^2`` is strictly decreasing.
    Following More & Sorensen (1983), Newton's method is applied to
    ``psi(lam) = 1/sqrt(phi(lam)) - 1/r``, which is concave and increasing, so
    Newton steps from the left of the root stay left of it and converge
    monotonically.  The root lies in
    ``[max(0, sqrt(S)/r - D_max, max_i(sqrt(D_i c_i^2)/r - D_i)), sqrt(S)/r]``
    with ``S = sum_i D_i c_i^2``: the whole sum and each single term bound
    ``phi``.  A step leaving that bracket is replaced by bisection.  The
    iteration stops once ``|phi - r**2| <= MU_REL_TOL * r**2`` and returns one
    further Newton step from there, which leaves ``mu`` accurate well beyond
    the stop tolerance.

    A spectrum of at most ``SCALAR_RANK`` entries is solved in Python floats
    (:func:`_secular_floats`), a longer one in numpy arrays
    (:func:`_secular_arrays`); the two differ only in how they sum, so their
    multipliers agree to rounding.  The float path sums in a fixed order, with
    no BLAS dot product.  Raises :class:`InputError` unless ``r`` is a finite
    positive real number, and :class:`NumericalError` on a non-finite
    decomposition or when ``MU_MAX_ITER`` iterations do not converge.
    """
    r = check_real(r, "r")
    if not math.isfinite(ge.rho):
        raise NumericalError(f"interpolation radius is not finite ({ge.rho})")
    if r >= ge.rho:
        return 0.0
    if ge.rank <= SCALAR_RANK:
        d, c = ge.values.tolist(), ge.proj.tolist()
        dc2 = [di * (ci * ci) for di, ci in zip(d, c)]
        total = math.fsum(dc2)
        single = max(math.sqrt(t) / r - di for t, di in zip(dc2, d))
        secular = _secular_floats
    else:
        d = ge.values
        dc2 = d * ge.proj**2
        total = float(dc2.sum())
        single = float(np.max(np.sqrt(dc2) / r - d))
        secular = _secular_arrays
    target = r * r
    hi = math.sqrt(total) / r
    lo = max(0.0, hi - float(d[0]), single)
    lam = lo
    for _ in range(MU_MAX_ITER):
        phi, slope = secular(d, dc2, lam)
        if not math.isfinite(phi):
            raise NumericalError(f"constraint value is not finite ({phi}) at radius {r}")
        if phi > target:
            lo = lam
        else:
            hi = lam
        # Newton step on psi: psi / psi' = (phi - phi**1.5 / r) / sum(D c^2 / (D + lam)^3).
        # The slope underflows only for radii near 1e-150; bisect then.
        step = lam + phi * (math.sqrt(phi) / r - 1.0) / slope if slope > 0.0 else lam
        if abs(phi - target) <= MU_REL_TOL * target:
            return min(max(step, lo), hi) / ge.n
        lam = step if lo < step < hi else 0.5 * (lo + hi)
    raise NumericalError(f"constraint multiplier did not converge in {MU_MAX_ITER} iterations")


def _secular_floats(d: list, dc2: list, lam: float) -> tuple[float, float]:
    """``(phi, slope)`` at ``lam`` from lists of floats, each summed left to right:
    ``phi = sum_i D_i c_i^2 / (D_i + lam)^2`` and
    ``slope = sum_i D_i c_i^2 / (D_i + lam)^3``."""
    phi = slope = 0.0
    for di, t in zip(d, dc2):
        inv = 1.0 / (di + lam)
        term = t * inv * inv
        phi += term
        slope += term * inv
    return phi, slope


def _secular_arrays(d: np.ndarray, dc2: np.ndarray, lam: float) -> tuple[float, float]:
    """``(phi, slope)`` of :func:`_secular_floats` from arrays, in numpy's sum and BLAS's dot."""
    inv = 1.0 / (d + lam)
    terms = dc2 * inv * inv
    return float(terms.sum()), float(terms @ inv)


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

    @property
    def n(self) -> int:
        return self.coeffs.shape[0]

    def train_loss(self, y: np.ndarray) -> float:
        """Empirical squared loss (1/n) sum (train_pred_i - y_i)^2."""
        return empirical_sq_distance(self.train_pred, y)


def fit_constrained(eigen: GramEigen, radii: Iterable[float]) -> list[ConstrainedFit]:
    """The least-squares fits constrained to the balls of ``radii``, in their order.

    ``eigen`` is the decomposition from :func:`eigen_gram` of the Gram matrix
    and responses, one per dataset-kernel pair for any number of radii; n, the
    rank, the spectrum and the projections all come from it.  ``radii`` is a
    sequence, so one radius's fit is ``fit_constrained(eigen, [r])[0]``; a
    string, bytes, a 0-d array or a value that is not iterable raises
    :class:`InputError` naming the whole value.  Every radius goes through
    :func:`~rkhsball.errors.check_real` as ``radius``, a finite real number of
    at least 0, before any multiplier is solved.  Every positive radius's
    multiplier comes from :func:`mu_of_r`.  With the eigenvectors ``A`` and the
    ``R x rank`` weights ``W = c / (D + n * mu)``, every coefficient vector
    comes from one product ``W A^T`` and every fitted value from one product
    ``(W diag(D)) A^T``; each fit holds one row of each.  A radius of 0 gives
    the zero fit, all ``+0.0``, as does a Gram of rank 0.
    """
    if isinstance(radii, np.ndarray):
        radii = radii.tolist()  # a 0-d array becomes one Python number
    if isinstance(radii, (str, bytes)) or not isinstance(radii, Iterable):
        raise InputError(f"radii must be a sequence of real numbers, got {radii!r}")
    radii = np.array([check_real(s, "radius", 0.0, strict=False) for s in radii], dtype=float)
    mus = [mu_of_r(eigen, float(s)) if s > 0.0 else 0.0 for s in radii]
    d, vectors = eigen.values, eigen.vectors
    w = eigen.proj / (d + eigen.n * np.array(mus)[:, None])
    zero = radii == 0.0
    w[zero] = 0.0
    coeffs = w @ vectors.T
    train_pred = (w * d) @ vectors.T
    # A product of zero weights can round to -0.0; the zero fit is +0.0.
    coeffs[zero] = train_pred[zero] = 0.0
    h_norms = np.sqrt((d * w**2).sum(axis=1))
    return [ConstrainedFit(r=float(radii[i]), mu=mus[i], coeffs=coeffs[i],
                           train_pred=train_pred[i], h_norm=float(h_norms[i]))
            for i in range(len(radii))]


def empirical_sq_distance(p, q) -> float:
    """Squared empirical-norm distance (1/n) sum (p_i - q_i)^2."""
    p = np.asarray(p, dtype=float).ravel()
    q = np.asarray(q, dtype=float).ravel()
    if p.shape != q.shape:
        raise InputError(f"length mismatch: {p.shape[0]} vs {q.shape[0]}")
    if p.shape[0] < 1:
        raise InputError("vectors must be non-empty")
    return float(np.mean((p - q) ** 2))
