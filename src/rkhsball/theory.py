"""Closed-form evaluators for the high-probability risk bounds that the
``bounds`` subcommand tabulates.

Every function here evaluates a displayed inequality as written: nothing is
simulated and no constants are optimised.  ``approx_sq`` arguments denote a
squared sup-norm approximation error of the regression function by the ball
of the given radius; exact values of that infimum are uncomputable in general,
so the two approximation bounds at the top of the module are the intended
sources.
"""

from __future__ import annotations

import math

from .errors import InputError, check_int, check_real

__all__ = [
    "interpolation_approx_bound",
    "scaled_element_approx_bound",
    "fixed_kernel_risk_bound",
    "kernel_family_risk_bound",
]

# The arguments of the evaluators below that may equal their lower bound, by name;
# every other real argument must be positive.
_AT_LEAST = {"t": 1.0, "r": 0.0, "approx_sq": 0.0, "target_sup": 0.0}


def _check_args(**values) -> None:
    """Check arguments by name: ``n`` is an integer of at least 1, a name in
    ``_AT_LEAST`` is at least its bound, and every other value is positive."""
    for name, value in values.items():
        if name == "n":
            check_int(value, name)
        elif name in _AT_LEAST:
            check_real(value, name, _AT_LEAST[name], strict=False)
        else:
            check_real(value, name)


def interpolation_approx_bound(b_norm: float, beta: float, r: float) -> float:
    """Approximation bound from interpolation-space membership.

    For a target with interpolation norm at most ``b_norm`` and smoothness
    parameter ``beta`` in (0, 1), the squared sup-norm error of the best
    radius-``r`` approximant is at most ``b_norm**(2/(1-beta)) /
    r**(2*beta/(1-beta))``; decreasing in ``r``.
    """
    _check_args(b_norm=b_norm, beta=beta)
    check_real(r, "r")
    if beta >= 1.0:
        raise InputError(f"beta must lie strictly inside (0, 1), got {beta}")
    return b_norm ** (2.0 / (1.0 - beta)) / r ** (2.0 * beta / (1.0 - beta))


def scaled_element_approx_bound(target_norm: float, target_sup: float, r: float) -> float:
    """Computable approximation bound when the target itself lies in the space.

    For a target with known space norm ``target_norm`` and sup norm at most
    ``target_sup``, scaling the target into the radius-``r`` ball gives

        0                                 if r >= target_norm,
        ((1 - r/target_norm) * target_sup)**2   otherwise.
    """
    _check_args(target_norm=target_norm, target_sup=target_sup, r=r)
    if r >= target_norm:
        return 0.0
    return ((1.0 - r / target_norm) * target_sup) ** 2


def fixed_kernel_risk_bound(k_diag: float, c: float, sigma: float, r: float,
                            t: float, n: int, approx_sq: float) -> float:
    """Squared-error bound for the clipped radius-``r`` estimator, fixed kernel.

    ``2*sqrt(k_diag)*(97c + 20*sigma)*r*sqrt(t)/sqrt(n)
      + 16*sqrt(k_diag)*c*r*t/(3n) + 10*approx_sq``.
    Holds with probability at least ``1 - 2*exp(-t)``.
    """
    _check_args(k_diag=k_diag, c=c, sigma=sigma, r=r, t=t, n=n, approx_sq=approx_sq)
    root = math.sqrt(k_diag)
    return (2.0 * root * (97.0 * c + 20.0 * sigma) * r * math.sqrt(t) / math.sqrt(n)
            + 16.0 * root * c * r * t / (3.0 * n)
            + 10.0 * approx_sq)


def kernel_family_risk_bound(j_const: float, k_diag: float, c: float, sigma: float,
                             r: float, t: float, n: int, approx_sq: float) -> float:
    """Family version of :func:`fixed_kernel_risk_bound`, uniform over kernels.

    ``2*J*sqrt(k_diag)*(151c + 21*sigma)*r*sqrt(t)/sqrt(n)
      + 16*sqrt(k_diag)*c*r*t/(3n) + 10*approx_sq``.
    """
    _check_args(j_const=j_const, k_diag=k_diag, c=c, sigma=sigma, r=r, t=t, n=n,
                approx_sq=approx_sq)
    root = math.sqrt(k_diag)
    return (2.0 * j_const * root * (151.0 * c + 21.0 * sigma) * r * math.sqrt(t) / math.sqrt(n)
            + 16.0 * root * c * r * t / (3.0 * n)
            + 10.0 * approx_sq)
