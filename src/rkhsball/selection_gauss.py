"""Adaptive selection of Gaussian width and ball radius.

Extends the fixed-kernel rule to a two-parameter family.  Estimators with a
smaller width or a larger radius count as less smooth, so the comparison set
of a cell (gamma, r) is {eta <= gamma} x {s >= r}, and the penalties carry the
width-dependent scale ``gamma**(-d/2)``:

    bias_proxy(gamma, r) = max over the comparison set of
        ||pred_{gamma,r} - pred_{eta,s}||_n^2
            - tau * (gamma**(-d/2)*r + eta**(-d/2)*s) / sqrt(n)
    variance_term(gamma, r) = 2 * (1 + nu) * tau * gamma**(-d/2) * r / sqrt(n)

The fixed-kernel rule is the one-width case, with ``r`` as penalty scale: both
rules share the rows, the argmin (largest width first, then smallest radius)
and the result of :mod:`rkhsball.selection_fixed`, so this rule too returns a
``SelectionResult`` with ``CriterionRow`` rows.  Each width is one
:func:`rkhsball.selection_fixed.fit_radius_path` call, so one Gram matrix is
alive at a time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .errors import InputError, check_int, check_real
# ``fit_constrained`` is not called here; bench/test_bench.py patches it by this name.
from .estimator import ConstrainedFit, fit_constrained  # noqa: F401
from .kernels import GaussianKernel, WidthGrid, _chaining_constant
from .selection_fixed import (CriterionRow, RadiusGrid, SelectionResult, _check_rule,
                              _criterion_rows, _select, fit_radius_path)

__all__ = [
    "GaussGLConfig",
    "gauss_gl_criterion",
    "select_width_radius",
    "tau_min_gauss",
]


def tau_min_gauss(j_const: float, sigma: float) -> float:
    """Smallest penalty scale with a theoretical guarantee: 84 * J * sigma."""
    return 84.0 * check_real(j_const, "j_const") * check_real(sigma, "sigma")


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
        object.__setattr__(self, "dim", check_int(self.dim, "dim"))
        object.__setattr__(self, "j_const", _chaining_constant(
            self.j_const, self.width_grid.u, self.width_grid.v))
        _check_rule(self, ("tau", "nu", "sigma", "j_const"),
                    lambda: tau_min_gauss(self.j_const, self.sigma))


def _penalty_scales(widths, radii, dim: int) -> np.ndarray:
    w = np.asarray(widths, dtype=float) ** (-dim / 2.0)
    return w[:, None] * np.asarray(radii, dtype=float)[None, :]


def gauss_gl_criterion(fits: list[list[ConstrainedFit]], cfg: GaussGLConfig) -> list[CriterionRow]:
    """Evaluate the two-parameter criterion over a table of fits.

    ``fits[i][j]`` is the fit for the i-th width (ascending) and j-th radius
    (ascending), all on the same dataset; n is its size.  Rows are returned in
    row-major (width, radius) order.
    """
    widths = list(cfg.width_grid)
    radii = list(cfg.radius_grid)
    if not fits or not fits[0]:
        raise InputError("criterion requires a non-empty width x radius table")
    if len(fits) != len(widths) or any(len(row) != len(radii) for row in fits):
        raise InputError("fit table shape does not match the configured grids")
    return _criterion_rows(fits, widths, radii, _penalty_scales(widths, radii, cfg.dim), cfg)


def select_width_radius(data: Dataset, cfg: GaussGLConfig) -> SelectionResult:
    """Fit every width/radius cell and return the tie-broken criterion minimiser."""
    widths = list(cfg.width_grid)
    radii = list(cfg.radius_grid)
    if not widths or not radii:
        raise InputError("width and radius grids must be non-empty")
    if data.d != cfg.dim:
        raise InputError(f"dataset dimension {data.d} does not match config dimension {cfg.dim}")
    fits = [fit_radius_path(data, GaussianKernel(gamma=gamma, dim=cfg.dim), radii)
            for gamma in widths]
    return _select(fits, gauss_gl_criterion(fits, cfg))
