"""Regression dataset container."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError

__all__ = ["Dataset"]


@dataclass(frozen=True)
class Dataset:
    """Covariates ``x`` (n points in d dims) and responses ``y`` (n reals), all finite.

    Clipping acts only where predictions are evaluated: the harness's holdout
    errors clip at ``ScenarioConfig.c``."""

    x: np.ndarray
    y: np.ndarray

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
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def d(self) -> int:
        return self.x.shape[1]
