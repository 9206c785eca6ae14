"""Kernels, Gram matrices and the scaled Gaussian family.

The Gaussian kernel of width ``gamma`` in dimension ``d`` is

    k_gamma(x1, x2) = gamma**(-d) * exp(-||x1 - x2||**2 / gamma**2),

so its diagonal value is ``gamma**(-d)`` everywhere.  The scaling makes the
unit balls of the associated function spaces nested: shrinking the width
enlarges the ball.  This module also provides the closed-form geometry of the
family (sup-metric distances, covering numbers, the entropy integral and the
chaining constant) used by the width-adaptive selection rule and by the
theoretical bound calculators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError, NumericalError

__all__ = [
    "GaussianKernel",
    "PrecomputedKernel",
    "WidthGrid",
    "gaussian_eval",
    "gram",
    "family_sup_distance_bound",
    "covering_number_bound",
    "entropy_integral_bound",
    "chaining_constant_bound",
    "width_grid",
]

# Relative tolerances for validating user-supplied Gram matrices.
SYM_RTOL = 1e-12
PSD_RTOL = 1e-10


@dataclass(frozen=True)
class GaussianKernel:
    """Scaled Gaussian kernel with width ``gamma`` on R^d."""

    gamma: float
    dim: int

    def __post_init__(self):
        if not (self.gamma > 0 and math.isfinite(self.gamma)):
            raise InputError(f"kernel width must be positive, got {self.gamma}")
        if self.dim < 1 or int(self.dim) != self.dim:
            raise InputError(f"dimension must be a positive integer, got {self.dim}")
        _diag_value(self.gamma, self.dim)

    @property
    def diag_sup(self) -> float:
        """sup_x k(x, x), equal to gamma**(-d) exactly."""
        return float(self.gamma) ** (-self.dim)

    @property
    def kernel_id(self) -> str:
        return f"gaussian(gamma={self.gamma!r},dim={self.dim})"


@dataclass(frozen=True)
class PrecomputedKernel:
    """Kernel known only through its Gram matrix on the training points.

    ``diag_sup`` must be supplied: the supremum of k(x, x) over the whole
    covariate space is not recoverable from a finite matrix, and every bound
    calculator needs it.
    """

    gram: np.ndarray
    diag_sup: float
    label: str = "precomputed"

    def __post_init__(self):
        g = np.asarray(self.gram, dtype=float)
        if g.ndim != 2 or g.shape[0] != g.shape[1]:
            raise InputError(f"precomputed Gram must be square, got shape {g.shape}")
        scale = float(np.abs(g).max()) if g.size else 0.0
        asym = float(np.abs(g - g.T).max()) if g.size else 0.0
        if asym > SYM_RTOL * (1.0 + scale):
            raise InputError(f"precomputed Gram is asymmetric (max deviation {asym:.3e})")
        eigvals = np.linalg.eigvalsh(0.5 * (g + g.T))
        lo, hi = float(eigvals.min()), float(eigvals.max())
        if lo < -PSD_RTOL * max(hi, 0.0):
            raise NumericalError(f"precomputed Gram has eigenvalue {lo:.3e} below the PSD tolerance")
        if not (self.diag_sup > 0):
            raise InputError(f"diag_sup must be positive, got {self.diag_sup}")
        object.__setattr__(self, "gram", g)

    @property
    def kernel_id(self) -> str:
        return self.label


Kernel = GaussianKernel | PrecomputedKernel


def _diag_value(gamma: float, dim: int) -> float:
    # gamma**(-dim) overflows for small widths in high dimension (1e-3, 200).
    try:
        value = float(gamma) ** (-dim)
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise InputError(f"kernel scale gamma**(-d) overflows for width {gamma} and dimension {dim}")
    return value


def gaussian_eval(gamma: float, dim: int, x1, x2) -> float:
    """Evaluate the scaled Gaussian kernel at a pair of points.

    Parameters
    ----------
    gamma : float
        Positive kernel width.
    dim : int
        Dimension of the covariate space.
    x1, x2 : array-like
        Points of dimension ``dim``.

    Returns
    -------
    float
        ``gamma**(-dim) * exp(-||x1 - x2||_2**2 / gamma**2)``.
    """
    if not gamma > 0:
        raise InputError(f"kernel width must be positive, got {gamma}")
    a = np.atleast_1d(np.asarray(x1, dtype=float))
    b = np.atleast_1d(np.asarray(x2, dtype=float))
    if a.shape != (dim,) or b.shape != (dim,):
        raise InputError(f"points must have dimension {dim}, got shapes {a.shape} and {b.shape}")
    sq = float(np.sum((a - b) ** 2))
    return _diag_value(gamma, dim) * math.exp(-sq / gamma**2)


def _pairwise_sq_dists(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # ||a_i - b_j||^2 without forming the full difference tensor.
    a2 = np.sum(a * a, axis=1)[:, None]
    b2 = np.sum(b * b, axis=1)[None, :]
    sq = a2 + b2 - 2.0 * (a @ b.T)
    return np.maximum(sq, 0.0)


def _as_points(x, dim: int | None = None) -> np.ndarray:
    pts = np.asarray(x, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    if pts.ndim != 2 or pts.shape[0] < 1:
        raise InputError(f"points must form an (n, d) array, got shape {pts.shape}")
    if dim is not None and pts.shape[1] != dim:
        raise InputError(f"points have dimension {pts.shape[1]}, kernel expects {dim}")
    return pts


def gram(kernel: Kernel, x) -> np.ndarray:
    """Assemble the Gram matrix K[i, j] = k(X_i, X_j) for the given kernel."""
    if isinstance(kernel, PrecomputedKernel):
        n = np.asarray(x).shape[0] if np.asarray(x).ndim else 1
        if kernel.gram.shape[0] != n:
            raise InputError(
                f"precomputed Gram is {kernel.gram.shape[0]}x{kernel.gram.shape[0]} "
                f"but {n} points were supplied"
            )
        return kernel.gram
    pts = _as_points(x, kernel.dim)
    sq = _pairwise_sq_dists(pts, pts)
    k = kernel.gamma ** (-kernel.dim) * np.exp(-sq / kernel.gamma**2)
    return 0.5 * (k + k.T)


def cross_gram(kernel: Kernel, x_train, x_new) -> np.ndarray:
    """Rectangular kernel matrix K[j, i] = k(X_new_j, X_train_i)."""
    if isinstance(kernel, PrecomputedKernel):
        raise InputError("cross-evaluation is not available for precomputed kernels")
    a = _as_points(x_new, kernel.dim)
    b = _as_points(x_train, kernel.dim)
    # The holdout matrix is large (10 000 x n), so it is built in one buffer.
    out = a @ b.T
    out *= -2.0
    out += np.sum(a * a, axis=1)[:, None]
    out += np.sum(b * b, axis=1)[None, :]
    np.maximum(out, 0.0, out=out)
    out /= -kernel.gamma**2
    np.exp(out, out=out)
    out *= kernel.gamma ** (-kernel.dim)
    return out


def family_sup_distance_bound(gamma: float, eta: float) -> float:
    """Sup-metric distance bound between two unscaled Gaussian-family members.

    Returns ``sqrt(|gamma^2 - eta^2|) / max(gamma, eta)``, which dominates the
    sup-norm distance between the unit-scaled exponentials of widths ``gamma``
    and ``eta``.  Symmetric, zero iff the widths coincide, and always < 1.
    """
    if not (gamma > 0 and eta > 0):
        raise InputError(f"widths must be positive, got {gamma}, {eta}")
    return math.sqrt(abs(gamma**2 - eta**2)) / max(gamma, eta)


def covering_number_bound(a: float, u: float, v: float) -> float:
    """Bound on the covering number of the width family at scale ``a``.

    For ``a`` in (0, 1) returns ``log(v/u) * a**-2 + 2``; for ``a >= 1`` the
    family fits inside a single ball, so the bound is 1.
    """
    if not a > 0:
        raise InputError(f"scale must be positive, got {a}")
    _check_interval(u, v)
    if a >= 1.0:
        return 1.0
    return math.log(v / u) * a**-2 + 2.0


def entropy_integral_bound(u: float, v: float) -> float:
    """Closed-form bound on the entropy integral of the width family.

    Returns ``log(2 + 4*log(v/u)) / 2 + 1``, non-decreasing in ``v/u``.
    """
    _check_interval(u, v)
    return math.log(2.0 + 4.0 * math.log(v / u)) / 2.0 + 1.0


def chaining_constant_bound(u: float, v: float) -> float:
    """Upper bound on the chaining constant of the width family [u, v].

    Returns ``sqrt(81 * (log(8*log(v/u) + 4) + 2) + 1)``.  This is the
    constant that scales the width-adaptive penalties; it is conservative and
    may be overridden by a smaller value where a sharper one is known.
    """
    _check_interval(u, v)
    return math.sqrt(81.0 * (math.log(8.0 * math.log(v / u) + 4.0) + 2.0) + 1.0)


def _check_interval(u: float, v: float) -> None:
    if not (0 < u <= v):
        raise InputError(f"width interval must satisfy 0 < u <= v, got [{u}, {v}]")


@dataclass(frozen=True)
class WidthGrid:
    """Geometric width grid {u * c**i} capped at ``v``."""

    u: float
    v: float
    c: float
    values: tuple[float, ...] = field(init=False)

    def __post_init__(self):
        _check_interval(self.u, self.v)
        if not self.c > 1:
            raise InputError(f"grid ratio must exceed 1, got {self.c}")
        object.__setattr__(self, "u", float(self.u))
        object.__setattr__(self, "v", float(self.v))
        object.__setattr__(self, "c", float(self.c))
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
