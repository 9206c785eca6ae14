"""Adaptive radius selection for a fixed kernel, and the two primitives of
every selection rule and majorant check in the package: :func:`fit_radius_path`
fits a radius grid from one Gram decomposition, in one
:func:`~rkhsball.estimator.fit_constrained` call whose coefficients and fitted
values for all radii are one matrix product each, and
:func:`comparison_excess` makes the penalised pairwise comparisons of a
width x radius table of fits.

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

The rule is the one-width case of the width-family rule of
:mod:`rkhsball.selection_gauss`, with the radii as penalty scales: both make
their rows, argmin and result here, with ``gamma`` and ``gamma_hat`` None for a
fixed kernel.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .data import Dataset
from .errors import ConstraintError, InputError, check_int, check_real
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
]


@dataclass(frozen=True)
class RadiusGrid:
    """Arithmetic radius grid {b*i : 0 <= i < I} capped at a*sqrt(n)."""

    a: float
    b: float
    n: int
    values: tuple[float, ...] = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "a", check_real(self.a, "a"))
        object.__setattr__(self, "b", check_real(self.b, "b"))
        object.__setattr__(self, "n", check_int(self.n, "n"))
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
    return 80.0 * math.sqrt(check_real(k_diag, "k_diag")) * check_real(sigma, "sigma")


def _check_rule(cfg, positive, tau_min) -> None:
    """Check a rule's config: the fields named in ``positive`` are positive numbers,
    stored as floats; a tau below ``tau_min()`` is an error in theory mode, else a warning."""
    for name in positive:
        object.__setattr__(cfg, name, check_real(getattr(cfg, name), name))
    lo = tau_min()
    if cfg.tau < lo:
        if cfg.theory_mode:
            raise ConstraintError(f"theory mode requires tau >= {lo:g}, got {cfg.tau:g}")
        warnings.warn(f"tau={cfg.tau:g} is below the theoretical minimum {lo:g}")


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
        _check_rule(self, ("tau", "nu", "sigma", "k_diag"),
                    lambda: tau_min_fixed(self.k_diag, self.sigma))


@dataclass(frozen=True)
class CriterionRow:
    """One cell of a selection criterion; ``gamma`` is None for a fixed kernel."""

    r: float
    bias_proxy: float
    variance_term: float
    total: float
    gamma: float | None = None


@dataclass(frozen=True)
class SelectionResult:
    """Chosen cell, criterion table and selected fit; ``gamma_hat`` is None for a
    fixed kernel."""

    r_hat: float
    criterion: tuple[CriterionRow, ...]
    fit_hat: ConstrainedFit
    gamma_hat: float | None = None


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


def _criterion_rows(fits, widths, radii, scales, cfg) -> list[CriterionRow]:
    """Criterion rows of a ``(W, R)`` table of fits with penalty scales ``scales``,
    row-major; ``widths`` label the table's rows (``[None]`` for a fixed kernel).
    n is the training-set size that every fit shares."""
    sizes = {f.n for row in fits for f in row}
    if len(sizes) > 1:
        raise InputError("fits come from different training sets")
    (n,) = sizes
    preds = np.stack([np.stack([f.train_pred for f in row]) for row in fits])
    sqrt_n = math.sqrt(n)
    bias = comparison_excess(preds, scales, cfg.tau / sqrt_n).ravel()
    variance = (2.0 * (1.0 + cfg.nu) * cfg.tau * scales / sqrt_n).ravel()
    cells = [(gamma, r) for gamma in widths for r in radii]
    return [CriterionRow(r=float(r), bias_proxy=float(b), variance_term=float(v),
                         total=float(b + v), gamma=gamma)
            for (gamma, r), b, v in zip(cells, bias, variance)]


def _select(fits, rows: list[CriterionRow]) -> SelectionResult:
    """The minimiser of a ``(W, R)`` table's criterion rows; ties go to the largest
    width, then the smallest radius."""
    per_width = len(fits[0])
    best = min(range(len(rows)),
               key=lambda i: (rows[i].total, -(i // per_width), rows[i].r))
    row = rows[best]
    return SelectionResult(r_hat=row.r, criterion=tuple(rows),
                           fit_hat=fits[best // per_width][best % per_width],
                           gamma_hat=row.gamma)


def gl_criterion(fits: list[ConstrainedFit], cfg: GLConfig) -> list[CriterionRow]:
    """Evaluate the selection criterion over a table of fits.

    ``fits`` must be indexed by ascending grid radii and share one dataset and
    kernel; n is their training-set size.  Returns one row per radius.
    """
    if not fits:
        raise InputError("criterion requires at least one fitted radius")
    radii = np.asarray([f.r for f in fits])
    if np.any(radii[:-1] > radii[1:]):
        raise InputError("fits must be ordered by ascending radius")
    return _criterion_rows([fits], [None], radii, radii[None], cfg)


def fit_radius_path(data: Dataset, kernel, radii) -> list[ConstrainedFit]:
    """Fit every radius in ``radii`` on one dataset and kernel.

    The Gram matrix is built and decomposed once, and released before one
    :func:`~rkhsball.estimator.fit_constrained` call fits every radius from
    that decomposition.
    """
    return fit_constrained(eigen_gram(gram(kernel, data.x), data.y), radii)


def select_radius(data: Dataset, kernel, grid: RadiusGrid, cfg: GLConfig) -> SelectionResult:
    """Fit every grid radius and return the criterion minimiser.

    The selected radius is the smallest grid value attaining the minimum total.
    """
    if len(grid) == 0:
        raise InputError("radius grid is empty")
    fits = fit_radius_path(data, kernel, grid)
    return _select([fits], gl_criterion(fits, cfg))
