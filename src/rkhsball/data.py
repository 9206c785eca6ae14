"""Regression dataset container."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError

__all__ = ["Dataset"]


@dataclass(frozen=True)
class Dataset:
    """Covariates ``x`` (n points in d dims), responses ``y`` (n reals).

    ``c`` is the known sup-norm bound on the regression function (used for
    clipping predictions) and ``sigma`` the noise scale; both are optional
    metadata consumed by selection and experiment code.
    """

    x: np.ndarray
    y: np.ndarray
    c: float | None = None
    sigma: float | None = None

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        if x.ndim == 1:
            x = x[:, None]
        y = np.asarray(self.y, dtype=float).ravel()
        if x.ndim != 2 or x.shape[0] != y.shape[0]:
            raise InputError(f"covariate shape {x.shape} does not match {y.shape[0]} responses")
        if x.shape[0] < 1:
            raise InputError("dataset must contain at least one point")
        if not (np.isfinite(x).all() and np.isfinite(y).all()):
            raise InputError("covariates and responses must be finite (found NaN or inf)")
        if self.c is not None and not self.c > 0:
            raise InputError(f"clip bound must be positive, got {self.c}")
        if self.sigma is not None and not self.sigma > 0:
            raise InputError(f"noise scale must be positive, got {self.sigma}")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def d(self) -> int:
        return self.x.shape[1]
