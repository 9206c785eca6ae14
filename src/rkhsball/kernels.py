"""The scaled Gaussian kernel, its Gram matrices and the width family.

The Gaussian kernel of width ``gamma`` in dimension ``d`` is

    k_gamma(x1, x2) = gamma**(-d) * exp(-||x1 - x2||**2 / gamma**2),

so its diagonal value is ``gamma**(-d)`` everywhere.  The scaling makes the
unit balls of the associated function spaces nested: shrinking the width
enlarges the ball.  ``gram`` assembles the kernel matrix of the training
points and ``cross_gram`` the matrix between new and training points, which
evaluates a fit off the training set.  Both add up the squared coordinate
differences of each pair of points and make no BLAS call.  This module
imports nothing from the package but its errors.  It also provides the
closed-form geometry of the width family (covering numbers, the entropy
integral and the chaining constant): the chaining constant scales the
width-adaptive penalties.  A grid of widths or radii is an ascending tuple of
floats: :func:`width_grid` and :func:`~rkhsball.selection_fixed.radius_grid`
build one, and every rule that takes a grid checks it, since the rules read
their comparison sets off its order.  The width interval [u, v] of a width grid
is its first and last width.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .errors import InputError, check_int, check_real

__all__ = [
    "GaussianKernel",
    "gram",
    "cross_gram",
    "covering_number_bound",
    "entropy_integral_bound",
    "chaining_constant_bound",
    "width_grid",
]


@dataclass(frozen=True)
class GaussianKernel:
    """Scaled Gaussian kernel with width ``gamma`` on R^d."""

    gamma: float
    dim: int

    def __post_init__(self):
        object.__setattr__(self, "gamma", check_real(self.gamma, "gamma"))
        object.__setattr__(self, "dim", check_int(self.dim, "dim"))
        _diag_value(self.gamma, self.dim)

    @property
    def diag_sup(self) -> float:
        """sup_x k(x, x), equal to gamma**(-d) exactly."""
        return self.gamma ** (-self.dim)


def _diag_value(gamma: float, dim: int) -> float:
    # gamma**(-dim) overflows for small widths in high dimension (1e-3, 200).
    try:
        value = float(gamma) ** (-dim)
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise InputError(f"kernel scale gamma**(-d) overflows for width {gamma} and dimension {dim}")
    return value


def _as_points(x, dim: int) -> np.ndarray:
    pts = np.asarray(x, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    if pts.ndim != 2 or pts.shape[0] < 1:
        raise InputError(f"points must form an (n, d) array, got shape {pts.shape}")
    if pts.shape[1] != dim:
        raise InputError(f"points have dimension {pts.shape[1]}, kernel expects {dim}")
    if not np.isfinite(pts).all():
        raise InputError("points have a non-finite entry")
    return pts


def gram(kernel: GaussianKernel, x) -> np.ndarray:
    """Assemble the Gram matrix K[i, j] = k(X_i, X_j) for the given kernel.

    Each entry adds ``(X_ik - X_jk)**2`` over the coordinates k in order, and
    ``fl(a - b) = -fl(b - a)``, so K is exactly symmetric for any layout of
    the points and its diagonal is exactly ``kernel.diag_sup``.  The squared
    distances of points far from the origin do not cancel.
    """
    pts = _as_points(x, kernel.dim)
    return _gaussian(kernel, pts, pts)


def cross_gram(kernel: GaussianKernel, x_train, x_new) -> np.ndarray:
    """Rectangular kernel matrix K[j, i] = k(X_new_j, X_train_i), built as
    :func:`gram` builds K, whose bytes it has on the same points."""
    return _gaussian(kernel, _as_points(x_new, kernel.dim), _as_points(x_train, kernel.dim))


def _gaussian(kernel: GaussianKernel, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``out[j, i] = k(a_j, b_i)`` in one buffer, adding one coordinate's squared
    differences at a time through one scratch buffer when d >= 2."""
    out = np.subtract(a[:, :1], b[:, 0])
    out *= out
    if kernel.dim > 1:
        diff = np.empty_like(out)
        for k in range(1, kernel.dim):
            np.subtract(a[:, k:k + 1], b[:, k], out=diff)
            diff *= diff
            out += diff
    out /= -kernel.gamma**2
    np.exp(out, out=out)
    out *= kernel.gamma ** (-kernel.dim)
    return out


def covering_number_bound(a: float, u: float, v: float) -> float:
    """Bound on the covering number of the width family at scale ``a``.

    For ``a`` in (0, 1) returns ``log(v/u) * a**-2 + 2``; for ``a >= 1`` the
    family fits inside a single ball, so the bound is 1.
    """
    a = check_real(a, "a")
    u, v = _check_interval(u, v)
    if a >= 1.0:
        return 1.0
    return math.log(v / u) * a**-2 + 2.0


def entropy_integral_bound(u: float, v: float) -> float:
    """Closed-form bound on the entropy integral of the width family.

    Returns ``log(2 + 4*log(v/u)) / 2 + 1``, non-decreasing in ``v/u``.
    """
    u, v = _check_interval(u, v)
    return math.log(2.0 + 4.0 * math.log(v / u)) / 2.0 + 1.0


def chaining_constant_bound(u: float, v: float) -> float:
    """Upper bound on the chaining constant of the width family [u, v].

    Returns ``sqrt(81 * (log(8*log(v/u) + 4) + 2) + 1)``.  This is the
    constant that scales the width-adaptive penalties; it is conservative and
    may be overridden by a smaller value where a sharper one is known.
    """
    u, v = _check_interval(u, v)
    return math.sqrt(81.0 * (math.log(8.0 * math.log(v / u) + 4.0) + 2.0) + 1.0)


def _chaining_constant(j_const: float | None, u: float, v: float) -> float:
    """``j_const``, or the closed-form bound for the width interval [u, v] when None."""
    return j_const if j_const is not None else chaining_constant_bound(u, v)


def _check_interval(u: float, v: float) -> tuple[float, float]:
    """The width interval's ends ``u <= v`` as positive floats."""
    u, v = check_real(u, "u"), check_real(v, "v")
    if u > v:
        raise InputError(f"width interval must satisfy u <= v, got [{u}, {v}]")
    return u, v


def _capped(points: list[float], cap: float) -> tuple[float, ...]:
    """``points`` ending at ``cap``: a last point within a relative 1e-12 of the cap
    is dropped, and the cap is appended."""
    if points and points[-1] >= cap * (1.0 - 1e-12):
        points = points[:-1]
    return (*points, cap)


def _check_grid(values, name: str) -> tuple[float, ...]:
    """The grid ``values`` as an ascending tuple of floats; an input error naming the
    grid ``name`` when it is not a sequence, is empty, holds a value that is not a
    finite real number or decreases anywhere."""
    if isinstance(values, np.ndarray):
        values = values.tolist()  # a 0-d array becomes one Python number
    if isinstance(values, (str, bytes)) or not isinstance(values, Iterable):
        raise InputError(f"{name} must be a sequence of real numbers, got {values!r}")
    grid = tuple(check_real(v, f"{name} value", -math.inf) for v in values)
    if not grid:
        raise InputError(f"{name} must not be empty")
    if any(a > b for a, b in zip(grid, grid[1:])):
        raise InputError(f"{name} must be in ascending order, got {list(grid)}")
    return grid


def width_grid(u: float, v: float, c: float) -> tuple[float, ...]:
    """The geometric width grid ``(u, u*c, u*c**2, ...)`` capped at ``v``, ascending."""
    u, v = _check_interval(u, v)
    c = check_real(c, "c", 1.0)
    return _capped([u * c**i for i in range(math.ceil(math.log(v / u) / math.log(c)))], v)
