"""Closed-form evaluators for the high-probability risk bounds.

Every function here evaluates a displayed inequality as written: nothing is
simulated and no constants are optimised.  ``approx_sq`` arguments denote a
squared sup-norm approximation error of the regression function by the ball
of the given radius; exact values of that infimum are uncomputable in general,
so the three upper bounds at the top of the module are the intended sources.
"""

from __future__ import annotations

import math

from .errors import InputError, check_int, check_real

__all__ = [
    "interpolation_approx_bound",
    "approx_shift_bound",
    "scaled_element_approx_bound",
    "fixed_kernel_risk_bound",
    "kernel_family_risk_bound",
    "adaptive_risk_bound_fixed",
    "adaptive_risk_bound_gauss",
    "rate_envelope",
]

# The arguments of the evaluators below that may equal their lower bound, by name;
# every other real argument must be positive.
_AT_LEAST = {"t": 1.0, "r": 0.0, "s": 0.0, "approx_sq": 0.0, "approx_sq_at_s": 0.0,
             "fit_risk": 0.0, "target_sup": 0.0, "d1": 0.0, "d2": 0.0}


def _check_args(**values) -> None:
    """Check arguments by name: ``n`` and ``dim`` are integers of at least 1, a name
    in ``_AT_LEAST`` is at least its bound, and every other value is positive."""
    for name, value in values.items():
        if name in ("n", "dim"):
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


def approx_shift_bound(approx_sq_at_s: float, k_diag: float, r: float, s: float) -> float:
    """Continuity bound when the ball radius shrinks from ``s`` to ``r <= s``.

    Returns ``(sqrt(approx_sq_at_s) + sqrt(k_diag) * (s - r))**2``.
    """
    _check_args(approx_sq_at_s=approx_sq_at_s, k_diag=k_diag, r=r, s=s)
    if r > s:
        raise InputError(f"radii must satisfy r <= s, got r={r}, s={s}")
    return (math.sqrt(approx_sq_at_s) + math.sqrt(k_diag) * (s - r)) ** 2


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


def adaptive_risk_bound_fixed(k_diag: float, c: float, sigma: float, tau: float,
                              nu: float, n: int, r: float, approx_sq: float,
                              fit_risk: float) -> float:
    """Unsimplified adaptive-estimator bound evaluated at one grid radius.

    ``fit_risk`` is (a bound on) the squared error of the clipped non-adaptive
    fit at radius ``r``; take the infimum over the grid externally.
    """
    _check_args(k_diag=k_diag, c=c, sigma=sigma, tau=tau, nu=nu, n=n, r=r,
                approx_sq=approx_sq, fit_risk=fit_risk)
    sqrt_n = math.sqrt(n)
    root = math.sqrt(k_diag)
    inner = 40.0 * approx_sq + 2.0 * (1.0 + nu) * tau * r / sqrt_n
    branch_small = (2.0 * tau * r / sqrt_n
                    + (1.0 / nu
                       + 97.0 * c / (80.0 * sigma * nu)
                       + c * tau / (2400.0 * root * sigma**2 * nu * sqrt_n)) * inner)
    branch_large = (4.0 * (2.0 + nu) * tau * r / sqrt_n
                    + 97.0 * c * tau * r / (40.0 * sigma * sqrt_n)
                    + c * tau**2 * r / (1200.0 * root * sigma**2 * n))
    return max(branch_small, branch_large) + 80.0 * approx_sq + 2.0 * fit_risk


def adaptive_risk_bound_gauss(j_const: float, c: float, sigma: float, tau: float,
                              nu: float, n: int, u: float, v: float, dim: int,
                              gamma: float, r: float, approx_sq: float,
                              fit_risk: float) -> float:
    """Unsimplified width-adaptive bound evaluated at one (width, radius) cell."""
    _check_args(j_const=j_const, c=c, sigma=sigma, tau=tau, nu=nu, n=n, u=u, v=v, dim=dim,
                gamma=gamma, r=r, approx_sq=approx_sq, fit_risk=fit_risk)
    if not u <= gamma <= v:
        raise InputError(f"width {gamma} outside the family interval [{u}, {v}]")
    sqrt_n = math.sqrt(n)
    ratio = (v / u) ** (dim / 2.0)
    pen = gamma ** (-dim / 2.0) * r
    inner = 20.0 * approx_sq + (1.0 + nu) * tau * pen / sqrt_n
    return (320.0 * approx_sq
            + 4.0 * ratio * (5.0 + 2.0 * nu) * tau * pen / sqrt_n
            + 302.0 * c * ratio * tau * pen / (21.0 * sigma * sqrt_n)
            + 4.0 * c * ratio * tau**2 * pen / (1323.0 * j_const**2 * sigma**2 * n)
            + (12.0 * ratio / nu
               + 302.0 * c * ratio / (21.0 * sigma * nu)
               + 4.0 * c * ratio * tau / (1323.0 * j_const**2 * sigma**2 * nu * sqrt_n)) * inner
            + 2.0 * fit_risk)


def rate_envelope(d1: float, d2: float, tau: float, n: int, beta: float) -> float:
    """Convergence-rate envelope ``d1*tau*n**(-beta/(1+beta)) +
    d2*tau**2*n**(-(1+3*beta)/(2*(1+beta)))``.

    The constants ``d1``/``d2`` are existential (independent of tau, r and n)
    and must be supplied; the envelope is used to overlay theory curves on
    simulated errors.
    """
    _check_args(d1=d1, d2=d2, tau=tau, n=n, beta=beta)
    if beta >= 1.0:
        raise InputError(f"beta must lie strictly inside (0, 1), got {beta}")
    return (d1 * tau * n ** (-beta / (1.0 + beta))
            + d2 * tau**2 * n ** (-(1.0 + 3.0 * beta) / (2.0 * (1.0 + beta))))
