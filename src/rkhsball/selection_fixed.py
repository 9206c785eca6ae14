"""Adaptive radius selection for a fixed kernel, and the two primitives of
every selection rule and majorant check in the package: :func:`fit_radius_path`
fits a radius grid from one Gram decomposition, and :func:`comparison_excess`
makes the penalised pairwise comparisons of a width x radius table of fits.
The fixed rule is its one-width case, with the radii as penalty scales.

The selection rule fits the constrained estimator at every radius of a finite
grid and picks the radius minimising

    total(r) = bias_proxy(r) + variance_term(r),

where the bias proxy is the largest penalised pairwise comparison against the
less-smooth (larger-radius) fits,

    bias_proxy(r) = max_{s in R, s >= r} ( ||pred_r - pred_s||_n^2
                                            - tau * (r + s) / sqrt(n) ),

and ``variance_term(r) = 2 * (1 + nu) * tau * r / sqrt(n)``.  Comparisons use
unclipped fits.  Since the comparison set contains ``r`` itself, every total
is at least ``2 * nu * tau * r / sqrt(n)``.  Ties in the argmin go to the
smallest radius.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .data import Dataset
from .errors import ConstraintError, InputError
from .estimator import ConstrainedFit, eigen_gram, fit_constrained
from .kernels import gram

__all__ = [
    "RadiusGrid",
    "GLConfig",
    "CriterionRow",
    "SelectionResult",
    "radius_grid",
    "comparison_excess",
    "fit_radius_path",
    "gl_criterion",
    "select_radius",
    "tau_min_fixed",
    "t_of_tau",
]


@dataclass(frozen=True)
class RadiusGrid:
    """Arithmetic radius grid {b*i : 0 <= i < I} capped at a*sqrt(n)."""

    a: float
    b: float
    n: int
    values: tuple[float, ...] = field(init=False)

    def __post_init__(self):
        if not (self.a > 0 and self.b > 0):
            raise InputError(f"grid parameters must be positive, got a={self.a}, b={self.b}")
        if self.n < 1:
            raise InputError(f"sample size must be at least 1, got {self.n}")
        object.__setattr__(self, "a", float(self.a))
        object.__setattr__(self, "b", float(self.b))
        cap = self.a * math.sqrt(self.n)
        steps = math.ceil(cap / self.b)
        vals = [self.b * i for i in range(steps)]
        if vals and vals[-1] >= cap * (1.0 - 1e-12):
            vals.pop()
        vals.append(cap)
        object.__setattr__(self, "values", tuple(vals))

    def __iter__(self):
        return iter(self.values)

    def __len__(self):
        return len(self.values)


def radius_grid(a: float, b: float, n: int) -> RadiusGrid:
    """Build the arithmetic radius grid with step ``b`` and cap ``a*sqrt(n)``."""
    return RadiusGrid(a=a, b=b, n=n)


def tau_min_fixed(k_diag: float, sigma: float) -> float:
    """Smallest penalty scale with a theoretical guarantee: 80*sqrt(k_diag)*sigma."""
    if not (k_diag > 0 and sigma > 0):
        raise InputError(f"k_diag and sigma must be positive, got {k_diag}, {sigma}")
    return 80.0 * math.sqrt(k_diag) * sigma


def t_of_tau(tau: float, k_diag: float, sigma: float) -> float:
    """Confidence level t = (tau / (80*sqrt(k_diag)*sigma))**2 implied by tau."""
    return _confidence_level(tau, tau_min_fixed(k_diag, sigma))


def _confidence_level(tau: float, lo: float) -> float:
    """Confidence level ``(tau / lo)**2`` of a penalty scale against its minimum ``lo``."""
    if not tau > 0:
        raise InputError(f"tau must be positive, got {tau}")
    if tau < lo:
        warnings.warn(f"tau={tau:g} is below the theoretical minimum {lo:g}; "
                      "the implied confidence level is below 1")
    return (tau / lo) ** 2


def _check_tau_minimum(tau: float, lo: float, theory_mode: bool) -> None:
    """Reject (theory mode) or warn about a penalty scale below its minimum ``lo``."""
    if tau < lo:
        if theory_mode:
            raise ConstraintError(f"theory mode requires tau >= {lo:g}, got {tau:g}")
        warnings.warn(f"tau={tau:g} is below the theoretical minimum {lo:g}")


@dataclass(frozen=True)
class GLConfig:
    """Tuning parameters of the radius selection rule.

    ``theory_mode`` enforces ``tau >= 80*sqrt(k_diag)*sigma`` strictly;
    otherwise a smaller tau only triggers a warning (the theoretical constant
    is conservative in practice).
    """

    tau: float
    nu: float
    sigma: float
    k_diag: float
    theory_mode: bool = False

    def __post_init__(self):
        if not (self.tau > 0 and self.nu > 0):
            raise InputError(f"tau and nu must be positive, got {self.tau}, {self.nu}")
        if not (self.sigma > 0 and self.k_diag > 0):
            raise InputError(f"sigma and k_diag must be positive, got {self.sigma}, {self.k_diag}")
        _check_tau_minimum(self.tau, tau_min_fixed(self.k_diag, self.sigma), self.theory_mode)


@dataclass(frozen=True)
class CriterionRow:
    r: float
    bias_proxy: float
    variance_term: float
    total: float


@dataclass(frozen=True)
class SelectionResult:
    """Chosen radius, criterion table, selected fit and all grid fits (ascending)."""

    r_hat: float
    criterion: tuple[CriterionRow, ...]
    fit_hat: ConstrainedFit
    clipped: bool = False
    fits: tuple[ConstrainedFit, ...] = ()


def comparison_excess(preds, scales, coef: float) -> np.ndarray:
    """Largest penalised comparison of each cell of a fit table with its partners.

    ``preds`` is a ``(W, R, n)`` table of fitted values by ascending width and
    radius, ``scales`` the ``(W, R)`` penalty scales.  Cell ``(i, j)`` holds
    ``max_{k <= i, l >= j} ||p_ij - p_kl||_n^2 - coef * (s_ij + s_kl)``.  The
    distances come from one product of the flattened table with its transpose,
    with squared norms read from its diagonal, so a self-distance is exactly 0.
    """
    preds = np.asarray(preds, dtype=float)
    w, r, n = preds.shape
    flat = preds.reshape(w * r, n)
    inner = flat @ flat.T
    sq = np.diag(inner)
    excess = (sq[:, None] + sq[None, :] - 2.0 * inner) / n
    s = np.asarray(scales, dtype=float).reshape(w * r)
    excess -= coef * (s[:, None] + s[None, :])
    width, radius = np.divmod(np.arange(w * r), r)
    partners = (width[None, :] <= width[:, None]) & (radius[None, :] >= radius[:, None])
    return np.where(partners, excess, -np.inf).max(axis=1).reshape(w, r)


def gl_criterion(fits: list[ConstrainedFit], cfg: GLConfig, n: int) -> list[CriterionRow]:
    """Evaluate the selection criterion over a table of fits.

    ``fits`` must be indexed by ascending grid radii and share one dataset and
    kernel.  Returns one row per radius.
    """
    if not fits:
        raise InputError("criterion requires at least one fitted radius")
    radii = np.asarray([f.r for f in fits])
    if np.any(radii[:-1] > radii[1:]):
        raise InputError("fits must be ordered by ascending radius")
    preds = np.stack([f.train_pred for f in fits])
    sqrt_n = math.sqrt(n)
    bias = comparison_excess(preds[None], radii[None], cfg.tau / sqrt_n)[0]
    variance = 2.0 * (1.0 + cfg.nu) * cfg.tau * radii / sqrt_n
    return [CriterionRow(r=float(r), bias_proxy=float(b), variance_term=float(v),
                         total=float(b + v))
            for r, b, v in zip(radii, bias, variance)]


def fit_radius_path(data: Dataset, kernel, radii) -> list[ConstrainedFit]:
    """Fit every radius in ``radii`` on one dataset and kernel.

    The Gram matrix is built and decomposed once and shared by all radii; both
    are released on return.
    """
    k = gram(kernel, data.x)
    ge = eigen_gram(k, data.y)
    kid = getattr(kernel, "kernel_id", None)
    return [fit_constrained(k, data.y, r, eigen=ge, kernel_id=kid) for r in radii]


def select_radius(data: Dataset, kernel, grid: RadiusGrid, cfg: GLConfig) -> SelectionResult:
    """Fit every grid radius and return the criterion minimiser.

    The selected radius is the smallest grid value attaining the minimum total.
    """
    if len(grid) == 0:
        raise InputError("radius grid is empty")
    fits = fit_radius_path(data, kernel, grid)
    rows = gl_criterion(fits, cfg, data.n)
    best = min(range(len(rows)), key=lambda i: (rows[i].total, rows[i].r))
    return SelectionResult(r_hat=rows[best].r, criterion=tuple(rows),
                           fit_hat=fits[best], clipped=data.c is not None,
                           fits=tuple(fits))
