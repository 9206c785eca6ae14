"""Adaptive selection of Gaussian width and ball radius.

Extends the fixed-kernel rule to a two-parameter family.  Estimators with a
smaller width or a larger radius count as less smooth, so the comparison set
of a cell (gamma, r) is {eta <= gamma} x {s >= r}, and the penalties carry the
width-dependent scale ``gamma**(-d/2)``:

    bias_proxy(gamma, r) = max over the comparison set of
        ||pred_{gamma,r} - pred_{eta,s}||_n^2
            - tau * (gamma**(-d/2)*r + eta**(-d/2)*s) / sqrt(n)
    variance_term(gamma, r) = 2 * (1 + nu) * tau * gamma**(-d/2) * r / sqrt(n)

The bias proxies are :func:`rkhsball.selection_fixed.comparison_excess` of the
width x radius table, whose one-width case is the fixed-kernel rule.  Each width
is one :func:`rkhsball.selection_fixed.fit_radius_path` call, so one Gram matrix
is alive at a time.  The argmin is tie-broken towards the smoothest estimator:
largest width first, then smallest radius.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .errors import InputError
# ``fit_constrained`` is not called here; bench/test_bench.py patches it by this name.
from .estimator import ConstrainedFit, fit_constrained  # noqa: F401
from .kernels import GaussianKernel, WidthGrid, chaining_constant_bound
from .selection_fixed import (RadiusGrid, _check_tau_minimum, _confidence_level,
                              comparison_excess, fit_radius_path)

__all__ = [
    "GaussGLConfig",
    "GaussCriterionRow",
    "GaussSelectionResult",
    "gauss_gl_criterion",
    "select_width_radius",
    "tau_min_gauss",
    "t_of_tau_gauss",
]


def tau_min_gauss(j_const: float, sigma: float) -> float:
    """Smallest penalty scale with a theoretical guarantee: 84 * J * sigma."""
    if not (j_const > 0 and sigma > 0):
        raise InputError(f"chaining constant and sigma must be positive, got {j_const}, {sigma}")
    return 84.0 * j_const * sigma


def t_of_tau_gauss(tau: float, j_const: float, sigma: float) -> float:
    """Confidence level t = (tau / (84 * J * sigma))**2 implied by tau."""
    return _confidence_level(tau, tau_min_gauss(j_const, sigma))


@dataclass(frozen=True)
class GaussGLConfig:
    """Tuning parameters of the width/radius selection rule.

    ``j_const`` defaults to the closed-form chaining bound for the width
    interval; a smaller known value may be passed (the bound is conservative).
    """

    tau: float
    nu: float
    sigma: float
    dim: int
    width_grid: WidthGrid
    radius_grid: RadiusGrid
    j_const: float | None = None
    theory_mode: bool = False

    def __post_init__(self):
        if not (self.tau > 0 and self.nu > 0 and self.sigma > 0):
            raise InputError(
                f"tau, nu and sigma must be positive, got {self.tau}, {self.nu}, {self.sigma}")
        if self.dim < 1:
            raise InputError(f"dimension must be at least 1, got {self.dim}")
        if self.j_const is None:
            object.__setattr__(
                self, "j_const",
                chaining_constant_bound(self.width_grid.u, self.width_grid.v))
        elif not self.j_const > 0:
            raise InputError(f"chaining constant must be positive, got {self.j_const}")
        _check_tau_minimum(self.tau, tau_min_gauss(self.j_const, self.sigma),
                           self.theory_mode)


@dataclass(frozen=True)
class GaussCriterionRow:
    gamma: float
    r: float
    bias_proxy: float
    variance_term: float
    total: float


@dataclass(frozen=True)
class GaussSelectionResult:
    gamma_hat: float
    r_hat: float
    criterion: tuple[GaussCriterionRow, ...]
    fit_hat: ConstrainedFit
    clipped: bool = False


def _penalty_scales(widths, radii, dim: int) -> np.ndarray:
    w = np.asarray(widths, dtype=float) ** (-dim / 2.0)
    return w[:, None] * np.asarray(radii, dtype=float)[None, :]


def gauss_gl_criterion(
    fits: list[list[ConstrainedFit]],
    cfg: GaussGLConfig,
    n: int,
) -> list[GaussCriterionRow]:
    """Evaluate the two-parameter criterion over a table of fits.

    ``fits[i][j]`` is the fit for the i-th width (ascending) and j-th radius
    (ascending), all on the same dataset.  Rows are returned in row-major
    (width, radius) order.
    """
    widths = list(cfg.width_grid)
    radii = list(cfg.radius_grid)
    if not fits or not fits[0]:
        raise InputError("criterion requires a non-empty width x radius table")
    if len(fits) != len(widths) or any(len(row) != len(radii) for row in fits):
        raise InputError("fit table shape does not match the configured grids")
    preds = np.stack([np.stack([f.train_pred for f in row]) for row in fits])
    scale = _penalty_scales(widths, radii, cfg.dim)
    sqrt_n = math.sqrt(n)
    bias = comparison_excess(preds, scale, cfg.tau / sqrt_n).ravel()
    variance = (2.0 * (1.0 + cfg.nu) * cfg.tau * scale / sqrt_n).ravel()
    cells = [(gamma, r) for gamma in widths for r in radii]
    return [GaussCriterionRow(gamma=gamma, r=r, bias_proxy=float(b), variance_term=float(v),
                              total=float(b + v))
            for (gamma, r), b, v in zip(cells, bias, variance)]


def select_width_radius(data: Dataset, cfg: GaussGLConfig) -> GaussSelectionResult:
    """Fit every width/radius cell and return the tie-broken criterion minimiser."""
    widths = list(cfg.width_grid)
    radii = list(cfg.radius_grid)
    if not widths or not radii:
        raise InputError("width and radius grids must be non-empty")
    if data.d != cfg.dim:
        raise InputError(f"dataset dimension {data.d} does not match config dimension {cfg.dim}")
    fits = [fit_radius_path(data, GaussianKernel(gamma=gamma, dim=cfg.dim), radii)
            for gamma in widths]
    rows = gauss_gl_criterion(fits, cfg, data.n)
    best = min(range(len(rows)),
               key=lambda idx: (rows[idx].total, -rows[idx].gamma, rows[idx].r))
    bi, bj = divmod(best, len(radii))
    return GaussSelectionResult(gamma_hat=rows[best].gamma, r_hat=rows[best].r,
                                criterion=tuple(rows), fit_hat=fits[bi][bj],
                                clipped=data.c is not None)
