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
width-adaptive penalties.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError, check_int, check_real

__all__ = [
    "GaussianKernel",
    "WidthGrid",
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


@dataclass(frozen=True)
class WidthGrid:
    """Geometric width grid {u * c**i} capped at ``v``."""

    u: float
    v: float
    c: float
    values: tuple[float, ...] = field(init=False)

    def __post_init__(self):
        u, v = _check_interval(self.u, self.v)
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "c", check_real(self.c, "c", 1.0))
        n_steps = math.ceil(math.log(self.v / self.u) / math.log(self.c))
        vals = [self.u * self.c**i for i in range(n_steps)]
        # The appended endpoint may coincide with the last geometric point.
        if vals and vals[-1] >= self.v * (1.0 - 1e-12):
            vals.pop()
        vals.append(self.v)
        object.__setattr__(self, "values", tuple(vals))

    def __iter__(self):
        return iter(self.values)

    def __len__(self):
        return len(self.values)


def width_grid(u: float, v: float, c: float) -> WidthGrid:
    """Build the geometric width grid with base ``u``, cap ``v`` and ratio ``c``."""
    return WidthGrid(u=u, v=v, c=c)
