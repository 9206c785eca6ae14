"""Seeded data generation and Monte Carlo verification harness.

Every replicate draws from an RNG substream derived deterministically from
``(master_seed, stream, replicate_index)``, so results are reproducible and
independent of execution order; running replicates across threads and merging
by index yields byte-identical outputs.

The event checks turn the high-probability statements behind the selection
rule into empirical frequencies: each replicate yields a 0/1 indicator that
the stated bound held simultaneously over the whole grid, and the report
carries a Wilson 95% interval around the observed frequency.  A check fails
only when the interval's upper end sits below the theoretical floor
``1 - exp(-t)``.  Computable upper bounds stand in for the exact sup-norm
approximation error; this only weakens the events, so the floor remains a
necessary condition.

The events share one replicate body, :func:`event_suite`: one draw and one
:func:`rkhsball.selection_fixed.fit_radius_path` call per width, with both
majorant events read off :func:`rkhsball.selection_fixed.comparison_excess`,
the comparison the selection rules penalise.  The CLI's ``majorant`` writes
every event of one suite run.  Each one-event check is a projection of the
suite; the benchmark workload still calls them.

The rate and oracle-gap records build one training Gram per replicate, select
from it and take from it the fits' Nystrom form: the p pivots of its pivoted
Cholesky (p ~ 12 at numerical rank 7) and a p x R weight matrix from one
triangular solve.  The Gram is then released, before the holdout draws its
points.  One loop evaluates the whole radius grid on those fresh points in row
blocks, each one product ``cross_gram(kernel, points, x_block) @ weights``:
the first with the training points and the fits' coefficients, the later ones
with the Nystrom form.  That form is used only when it reproduces the first
block's values to within half the full product's worst-case rounding; when it
does not, when the Cholesky gives up, or when the holdout is a single block,
every block comes from the full cross-Gram.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .data import Dataset
from .errors import InputError, check_int, check_real
from .estimator import _pivoted_cholesky, eigen_gram, fit_constrained
from .kernels import GaussianKernel, WidthGrid, _chaining_constant, cross_gram, gram
from .selection_fixed import (GLConfig, RadiusGrid, _select, comparison_excess,
                              fit_radius_path, gl_criterion, radius_grid, tau_min_fixed)
from .selection_gauss import _penalty_scales, tau_min_gauss
from .theory import _check_args

__all__ = [
    "RkhsTarget",
    "HatTarget",
    "ScenarioConfig",
    "SelectionSettings",
    "ExperimentRecord",
    "EventReport",
    "RateReport",
    "OracleGapReport",
    "QuadformReport",
    "default_scenario",
    "replicate_rng",
    "generate",
    "event_suite",
    "bias_event_check",
    "majorant_event_check",
    "gauss_majorant_event_check",
    "rate_experiment",
    "oracle_gap_check",
    "quadform_tail_check",
    "wilson_interval",
]

WILSON_Z = 1.959963984540054  # two-sided 95%

# Practical default penalty scale: the theoretical minimum 80*sqrt(k_diag)*sigma
# is conservative by roughly an order of magnitude at desk-scale n.
PRACTICAL_TAU_FACTOR = 8.0

# Holdout kernel rows are evaluated in blocks of about this many entries (2 MB).
HOLDOUT_BLOCK_ENTRIES = 2**18
# The holdout's pivoted Cholesky stops at a residual trace of
# lb * n * RANK_RTOL * HOLDOUT_CHOLESKY_MARGIN = lb * n * 1e-28, far past
# eigen_gram's stop: the residual diagonal is then down to rounding, so the
# pivots span every direction a fit can use.  On a rank-7 Gram at n = 200,
# d = 1 that takes 11 to 13 pivots.
HOLDOUT_CHOLESKY_MARGIN = 1e-16


def _finite_floats(value, name: str) -> np.ndarray:
    """``value`` as a float array; an input error naming the target's field
    ``name`` when it does not convert or holds a non-finite entry."""
    try:
        array = np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        array = None
    if array is None or not np.all(np.isfinite(array)):
        raise InputError(f"target {name} must be finite numbers, got {value!r}")
    return array


@dataclass(frozen=True)
class RkhsTarget:
    """Target g(x) = sum_j weights_j * k_gamma0(centers_j, x).

    The exact space norm ``(w^T K_z w)**0.5`` and a sup-norm upper bound are
    recorded on construction; both feed the computable approximation bounds.
    """

    gamma0: float
    centers: np.ndarray
    weights: np.ndarray
    h_norm: float = field(init=False)
    sup_bound: float = field(init=False)

    def __post_init__(self):
        centers = np.atleast_2d(_finite_floats(self.centers, "centers"))
        weights = _finite_floats(self.weights, "weights").ravel()
        if centers.shape[0] != weights.shape[0]:
            raise InputError(f"{centers.shape[0]} centers but {weights.shape[0]} weights")
        object.__setattr__(self, "gamma0", check_real(self.gamma0, "target gamma0"))
        object.__setattr__(self, "centers", centers)
        object.__setattr__(self, "weights", weights)
        d = centers.shape[1]
        kernel = GaussianKernel(gamma=self.gamma0, dim=d)
        kz = gram(kernel, centers)
        h_norm = math.sqrt(max(float(self.weights @ kz @ self.weights), 0.0))
        k_diag = kernel.diag_sup
        sup_bound = min(float(np.sum(np.abs(weights))) * k_diag,
                        math.sqrt(k_diag) * h_norm)
        object.__setattr__(self, "h_norm", h_norm)
        object.__setattr__(self, "sup_bound", sup_bound)

    @property
    def dim(self) -> int:
        return self.centers.shape[1]

    def evaluate(self, x) -> np.ndarray:
        kernel = GaussianKernel(gamma=self.gamma0, dim=self.dim)
        return cross_gram(kernel, self.centers, x) @ self.weights


@dataclass(frozen=True)
class HatTarget:
    """Tent function slope * max(0, 1 - ||x - center||); qualitative scenarios only."""

    slope: float
    center: tuple[float, ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "slope", float(_finite_floats(self.slope, "slope")))
        if self.center is not None:
            center = _finite_floats(self.center, "center")
            if center.ndim != 1:
                raise InputError(f"target center must be a list of numbers, got {self.center!r}")
            object.__setattr__(self, "center", tuple(center.tolist()))

    @property
    def dim(self) -> int | None:
        """Dimension of the center; None when it defaults to the origin of any R^d."""
        return None if self.center is None else len(self.center)

    def evaluate(self, x) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=float))
        center = np.zeros(x.shape[1]) if self.center is None else np.asarray(self.center)
        dist = np.sqrt(np.sum((x - center[None, :]) ** 2, axis=1))
        return self.slope * np.maximum(0.0, 1.0 - dist)


@dataclass(frozen=True)
class ScenarioConfig:
    """Full description of a simulated regression problem."""

    n: int
    d: int = 1
    design: str = "uniform-cube"
    target: object = None
    noise: str = "gaussian"
    sigma: float = 0.1
    c: float = 2.0
    replicates: int = 100
    master_seed: int = 0
    holdout_size: int = 10000

    def __post_init__(self):
        for name, low in (("n", 1), ("d", 1), ("replicates", 1), ("holdout_size", 1),
                          ("master_seed", 0)):
            object.__setattr__(self, name, check_int(getattr(self, name), name, low))
        if self.design not in ("uniform-cube", "standard-normal"):
            raise InputError(f"unknown design {self.design!r}")
        if self.noise not in ("gaussian", "rademacher"):
            raise InputError(f"unknown noise law {self.noise!r}")
        for name in ("sigma", "c"):
            object.__setattr__(self, name, check_real(getattr(self, name), name))
        if self.target is None:
            raise InputError("scenario requires a target")
        dim = getattr(self.target, "dim", None)
        if dim is not None and dim != self.d:
            raise InputError(f"target has dimension {dim} but the scenario has d = {self.d}")


def default_scenario(n: int = 200, *, sigma: float = 0.1, replicates: int = 100,
                     master_seed: int = 0, holdout_size: int = 10000) -> ScenarioConfig:
    """Canonical scenario: d=1, uniform design, width-1 target with norm 2."""
    target = RkhsTarget(gamma0=1.0, centers=[[0.5]], weights=[2.0])
    return ScenarioConfig(n=n, d=1, target=target, sigma=sigma, c=2.0,
                          replicates=replicates, master_seed=master_seed,
                          holdout_size=holdout_size)


def replicate_rng(master_seed: int, index: int, stream: int = 0) -> np.random.Generator:
    """Deterministic RNG substream for one replicate of one stream."""
    ss = np.random.SeedSequence(entropy=master_seed, spawn_key=(stream, index))
    return np.random.default_rng(ss)


def replicate_seed(master_seed: int, index: int) -> int:
    """Integer fingerprint of a replicate's data substream (stream 0), recorded in
    output tables."""
    ss = np.random.SeedSequence(entropy=master_seed, spawn_key=(0, index))
    return int(ss.generate_state(1)[0])


def _sample_design(rng: np.random.Generator, n: int, scenario: ScenarioConfig) -> np.ndarray:
    if scenario.design == "uniform-cube":
        return rng.uniform(0.0, 1.0, size=(n, scenario.d))
    return rng.standard_normal(size=(n, scenario.d))


def _sample_noise(rng: np.random.Generator, n: int, scenario: ScenarioConfig) -> np.ndarray:
    if scenario.noise == "gaussian":
        return rng.normal(0.0, scenario.sigma, size=n)
    return scenario.sigma * (2.0 * rng.integers(0, 2, size=n) - 1.0)


def generate(scenario: ScenarioConfig, replicate_index: int) -> Dataset:
    """Draw one replicate: X from the design, Y = g(X) + noise."""
    rng = replicate_rng(scenario.master_seed, replicate_index, stream=0)
    x = _sample_design(rng, scenario.n, scenario)
    eps = _sample_noise(rng, scenario.n, scenario)
    y = scenario.target.evaluate(x) + eps
    return Dataset(x=x, y=y)


def _pivot_basis(train_gram, x_train, coeffs: np.ndarray):
    """Nystrom form ``(points, weights)`` of the fits ``x -> k(x, X) coeffs``,
    so that ``cross_gram(kernel, points, x) @ weights`` approximates them; None
    when the pivoted Cholesky ``K ~ L L^T`` of the training Gram ``train_gram``
    gives up or a pivot degenerates.

    ``k(x, X) ~ k(x, P) L[P]^{-T} L^T`` on the pivots P (Williams & Seeger
    2001), so the points are the p pivots and the p x R weights are
    ``L[P]^{-T} (L^T coeffs)``, one solve with the triangle ``L[P]^T``.
    """
    factor = _pivoted_cholesky(train_gram, HOLDOUT_CHOLESKY_MARGIN)
    if factor is None:
        return None
    lt, _, _, pivots = factor
    lower = np.tril(lt[:, pivots].T)
    # Past the numerical rank the pivots are taken on rounding noise, and a
    # diagonal entry can come out as zero.
    if not np.all(np.diagonal(lower) > 0.0):
        return None
    return np.asarray(x_train)[pivots], np.linalg.solve(lower.T, lt @ coeffs)


def _holdout_means(coeffs: np.ndarray, kernel, x_train, scenario: ScenarioConfig,
                   rng: np.random.Generator, basis) -> np.ndarray:
    """Mean squared error, clipped at ``scenario.c``, of each fit ``k(x, X) coeffs``
    (one column each) on ``scenario.holdout_size`` fresh points.

    Each block of rows gives one product ``cross_gram(kernel, points, x_block)
    @ weights``, the first with the training points and ``coeffs``, the later
    ones with the pivot points and weights ``basis`` of :func:`_pivot_basis`
    (None: the full path) when it reproduces every first-block value to within
    half the full product's worst-case rounding, ``n * eps * diag_sup *
    ||c||_1`` for a fit column c: the first block is only a sample, so the
    blocks it vouches for keep a factor of two in hand.
    """
    x_new = _sample_design(rng, scenario.holdout_size, scenario)
    g_new = scenario.target.evaluate(x_new)
    step = max(1, HOLDOUT_BLOCK_ENTRIES // max(1, len(x_train)))
    points, weights = x_train, coeffs
    total = np.zeros(coeffs.shape[1])
    # Each block is reduced before the next is built: a 10 000-row kernel matrix
    # or error table freed on each of several pool threads leaves the process's
    # peak memory dependent on thread timing and allocator state.
    for start in range(0, len(x_new), step):
        x_block = x_new[start:start + step]
        sq = cross_gram(kernel, points, x_block) @ weights
        if start == 0 and basis is not None and len(x_new) > step:
            tol = 0.5 * len(x_train) * np.finfo(float).eps * kernel.diag_sup
            if np.all(np.abs(cross_gram(kernel, basis[0], x_block) @ basis[1] - sq)
                      <= tol * np.abs(coeffs).sum(axis=0)):
                points, weights = basis
        np.clip(sq, -scenario.c, scenario.c, out=sq)
        sq -= g_new[start:start + step, None]
        sq *= sq
        # Adding each block's rows to the total in order, as ``mean(axis=0)`` of the
        # whole table does for two or more columns (a grid has at least two radii),
        # keeps the means bit-identical to it: the total goes into the first row.
        sq[0] += total
        total = np.add.reduce(sq, axis=0)
    return total / scenario.holdout_size


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """Wilson score 95% interval for a binomial proportion."""
    z = WILSON_Z
    if trials < 1:
        raise InputError("Wilson interval needs at least one trial")
    phat = successes / trials
    denom = 1.0 + z**2 / trials
    center = (phat + z**2 / (2.0 * trials)) / denom
    half = z * math.sqrt(phat * (1.0 - phat) / trials + z**2 / (4.0 * trials**2)) / denom
    return max(0.0, center - half), min(1.0, center + half)


@dataclass(frozen=True)
class EventReport:
    """Empirical frequency of a high-probability event with its Wilson interval."""

    name: str
    t: float
    replicates: int
    successes: int
    frequency: float
    wilson_low: float
    wilson_high: float
    floor: float
    passed: bool
    indicators: tuple[int, ...] = ()


def _against_floor(successes: int, trials: int, t: float) -> dict:
    """An event's frequency, its Wilson interval, its floor ``1 - exp(-t)`` and whether
    the interval reaches the floor, keyed by the report fields that hold them."""
    low, high = wilson_interval(successes, trials)
    floor = 1.0 - math.exp(-t)
    return {"frequency": successes / trials, "wilson_low": low, "wilson_high": high,
            "floor": floor, "passed": high >= floor}


def _event_report(name: str, t: float, indicators: list[bool]) -> EventReport:
    successes = int(sum(indicators))
    return EventReport(name=name, t=t, replicates=len(indicators), successes=successes,
                       **_against_floor(successes, len(indicators), t),
                       indicators=tuple(int(b) for b in indicators))


def _map_indexed(fn, count: int, threads: int) -> list:
    threads = check_int(threads, "threads")
    if threads == 1:
        return [fn(i) for i in range(count)]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, range(count)))


def _event_inputs(scenario: ScenarioConfig, grid: RadiusGrid,
                  t: float) -> tuple[RkhsTarget, np.ndarray]:
    if not isinstance(scenario.target, RkhsTarget):
        raise InputError("event checks need a target with a known space norm")
    _check_args(t=t)
    return scenario.target, np.asarray(list(grid))


def event_suite(scenario: ScenarioConfig, widths: WidthGrid, grid: RadiusGrid, t: float, *,
                j_const: float | None = None, threads: int = 1) -> dict[str, EventReport]:
    """Reports, keyed by event name, of the events behind the selection rules, all
    read off one draw and one radius path per width (ascending) of each of the
    scenario's ``replicates`` replicates.  An event holds when its bound holds
    simultaneously over its whole grid.

    ``"gauss-majorant"``: each pair ((gamma, r), (eta, s)) with eta <= gamma and
    s >= r has ``||fit_{gamma,r} - fit_{eta,s}||_n^2 <= 40*approx_sq_upper(gamma, r)
    + 84*J*sigma*(gamma**(-d/2)*r + eta**(-d/2)*s)*sqrt(t)/sqrt(n)``, with J from
    ``j_const`` or the chaining bound of the width interval.  Widths up to the
    target's take the scaled-target bound (nested balls), wider ones the sup-norm
    bound of the zero approximant.

    When the target width is one of ``widths``, its path also gives ``"bias"``,
    against the scaled target ``h_r = (min(r, R0)/R0) * g`` (in the radius-r ball,
    with computable sup-distance to g), and ``"majorant"``, the one-width family
    event with tau_min_fixed for tau_min_gauss:

        ||fit_r - h_r||_n^2 <= 20*sqrt(k_diag)*sigma*r*sqrt(t)/sqrt(n) + 4*||h_r - g||_inf^2
        ||fit_r - fit_s||_n^2 <= 80*sqrt(k_diag)*sigma*(r+s)*sqrt(t)/sqrt(n)
                                 + 40*approx_sq_upper(r)   for s >= r
    """
    target, radii = _event_inputs(scenario, grid, t)
    tau_gauss = tau_min_gauss(_chaining_constant(j_const, widths.u, widths.v), scenario.sigma)
    gauss_coef = tau_gauss * math.sqrt(t) / math.sqrt(scenario.n)
    gammas = np.asarray(widths.values)
    kernels = [GaussianKernel(gamma=g, dim=scenario.d) for g in gammas]
    scales = _penalty_scales(gammas, radii, scenario.d)
    r0 = target.h_norm
    # Zero target: every ball contains it, so the comparator is g itself.
    shrink = np.minimum(radii, r0) / r0 if r0 > 0 else np.ones_like(radii)
    # The computable approximation bound: ||h_r - g||_inf^2 is at most this.
    approx = ((1.0 - shrink) * target.sup_bound) ** 2
    gauss_approx = np.where(gammas[:, None] <= target.gamma0, approx[None, :],
                            target.sup_bound ** 2)
    # The index of the target width's path, whose fits give the fixed-kernel events.
    at = widths.values.index(target.gamma0) if target.gamma0 in widths.values else None
    k_diag = GaussianKernel(gamma=target.gamma0, dim=scenario.d).diag_sup
    fixed_coef = tau_min_fixed(k_diag, scenario.sigma) * math.sqrt(t) / math.sqrt(scenario.n)
    bias_rhs = (20.0 * math.sqrt(k_diag) * scenario.sigma * radii * math.sqrt(t)
                / math.sqrt(scenario.n) + 4.0 * approx)

    def one(i: int) -> dict[str, bool]:
        data = generate(scenario, i)
        paths = [np.stack([f.train_pred for f in fit_radius_path(data, kernel, radii)])
                 for kernel in kernels]
        excess = comparison_excess(np.stack(paths), scales, gauss_coef)
        held = {"gauss-majorant": bool(np.all(excess <= 40.0 * gauss_approx))}
        if at is not None:
            preds, g_vals = paths[at], target.evaluate(data.x)
            lhs = np.mean((preds - shrink[:, None] * g_vals[None, :]) ** 2, axis=1)
            held["bias"] = bool(np.all(lhs <= bias_rhs))
            excess = comparison_excess(preds[None], radii[None], fixed_coef)
            held["majorant"] = bool(np.all(excess <= 40.0 * approx[None]))
        return held

    rows = _map_indexed(one, scenario.replicates, threads)
    return {name: _event_report(name, t, [row[name] for row in rows]) for name in rows[0]}


def _target_width_event(name: str, scenario: ScenarioConfig, grid: RadiusGrid, t: float,
                        threads: int) -> EventReport:
    """Event ``name`` of :func:`event_suite` on the one-width grid of the target width."""
    gamma0 = _event_inputs(scenario, grid, t)[0].gamma0
    return event_suite(scenario, WidthGrid(gamma0, gamma0, 2.0), grid, t,
                       threads=threads)[name]


def bias_event_check(scenario: ScenarioConfig, grid: RadiusGrid, t: float, *,
                     threads: int = 1) -> EventReport:
    """Frequency, over the scenario's replicates, of the per-radius estimation event
    ``"bias"`` of :func:`event_suite`."""
    return _target_width_event("bias", scenario, grid, t, threads)


def majorant_event_check(scenario: ScenarioConfig, grid: RadiusGrid, t: float, *,
                         threads: int = 1) -> EventReport:
    """Frequency, over the scenario's replicates, of the fixed-kernel majorant event
    ``"majorant"`` of :func:`event_suite`."""
    return _target_width_event("majorant", scenario, grid, t, threads)


def gauss_majorant_event_check(scenario: ScenarioConfig, widths: WidthGrid, grid: RadiusGrid,
                               t: float, *, j_const: float | None = None,
                               threads: int = 1) -> EventReport:
    """Frequency, over the scenario's replicates, of the width-family majorant event
    ``"gauss-majorant"`` of :func:`event_suite`."""
    return event_suite(scenario, widths, grid, t, j_const=j_const,
                       threads=threads)["gauss-majorant"]


@dataclass(frozen=True)
class SelectionSettings:
    """Radius-selection settings used by the experiment runners.

    ``tau=None`` resolves to the practical default ``8*sqrt(k_diag)*sigma``
    (a warning is emitted either way when below the theoretical minimum).  The
    CLI's ``select`` and ``select-gauss`` default to that minimum instead, the
    only value that carries the paper's guarantee; the harness keeps its own
    default, since the minimum is an order of magnitude too conservative at
    desk scale and the benchmark's recorded oracle-gap results were computed
    with this one.  ``nu``, ``grid_a``, ``grid_b`` and any given ``tau`` and
    ``kernel_gamma`` are checked as positive numbers when the settings are built.
    """

    tau: float | None = None
    nu: float = 0.5
    grid_a: float = 1.0
    grid_b: float = 0.5
    theory_mode: bool = False
    kernel_gamma: float | None = None

    def __post_init__(self):
        for name in ("tau", "nu", "grid_a", "grid_b", "kernel_gamma"):
            value = getattr(self, name)
            if value is not None or name in ("nu", "grid_a", "grid_b"):
                object.__setattr__(self, name, check_real(value, name))

    def resolve_kernel(self, scenario: ScenarioConfig) -> GaussianKernel:
        gamma = self.kernel_gamma
        if gamma is None:
            if not isinstance(scenario.target, RkhsTarget):
                raise InputError("kernel width must be given explicitly for non-space targets")
            gamma = scenario.target.gamma0
        return GaussianKernel(gamma=gamma, dim=scenario.d)

    def gl_config(self, k_diag: float, sigma: float) -> GLConfig:
        tau = self.tau
        if tau is None:
            tau = PRACTICAL_TAU_FACTOR * math.sqrt(k_diag) * sigma
        return GLConfig(tau=tau, nu=self.nu, sigma=sigma, k_diag=k_diag,
                        theory_mode=self.theory_mode)


@dataclass(frozen=True)
class ExperimentRecord:
    """One output row; its fields, in order, are the CSV columns, a stable external
    contract."""

    replicate: int
    n: int
    gamma_hat: float | None
    r_hat: float | None
    err_adaptive: float | None
    err_oracle_grid: float | None
    seed: int


@dataclass(frozen=True)
class RateReport:
    n_list: tuple[int, ...]
    medians: tuple[float, ...]
    slope: float | None
    degenerate: bool
    records: tuple[ExperimentRecord, ...]


def _adaptive_record(scenario: ScenarioConfig, settings: SelectionSettings,
                     replicate: int) -> ExperimentRecord:
    """Selection plus clipped holdout errors of the adaptive and the best grid fit."""
    data = generate(scenario, replicate)
    kernel = settings.resolve_kernel(scenario)
    grid = radius_grid(settings.grid_a, settings.grid_b, data.n)
    cfg = settings.gl_config(kernel.diag_sup, scenario.sigma)
    # ``select_radius``'s calls, keeping its Gram for the holdout's pivot factor.
    k = gram(kernel, data.x)
    fits = fit_constrained(eigen_gram(k, data.y), grid)
    result = _select([fits], gl_criterion(fits, cfg))
    coeffs = np.stack([f.coeffs for f in fits], axis=1)
    basis = _pivot_basis(k, data.x, coeffs)
    del k  # freed before the holdout draws its points
    rng = replicate_rng(scenario.master_seed, replicate, stream=1)
    means = _holdout_means(coeffs, kernel, data.x, scenario, rng, basis)
    return ExperimentRecord(
        replicate=replicate, n=scenario.n, gamma_hat=None, r_hat=result.r_hat,
        err_adaptive=float(means[grid.values.index(result.r_hat)]),
        err_oracle_grid=float(means.min()),
        seed=replicate_seed(scenario.master_seed, replicate))


def rate_experiment(scenario: ScenarioConfig, n_list, settings: SelectionSettings, *,
                    threads: int = 1) -> RateReport:
    """Median adaptive error against n, with the fitted log-log slope.

    Each record's holdout errors come from one loop over row blocks, through
    the pivot basis where it passes its check on the first block (see the
    module notes), so they can differ from the full evaluation's in the last
    digits.  Requires at least four ascending sample sizes.  The slope is left
    undefined (and the report flagged degenerate) when a median falls below
    1e-12, as happens in noiseless well-specified scenarios.
    """
    n_list = [check_int(n, "n_list") for n in n_list]
    if len(n_list) < 4 or any(b <= a for a, b in zip(n_list, n_list[1:])):
        raise InputError("rate experiment needs at least 4 strictly ascending sample sizes")
    records = []
    medians = []
    for n in n_list:
        one = functools.partial(_adaptive_record, dataclasses.replace(scenario, n=n), settings)
        recs = _map_indexed(one, scenario.replicates, threads)
        records.extend(recs)
        medians.append(float(np.median([r.err_adaptive for r in recs])))
    degenerate = any(m <= 1e-12 for m in medians)
    slope = None
    if not degenerate:
        logs_n = np.log(np.asarray(n_list, dtype=float))
        logs_e = np.log(np.asarray(medians))
        slope = float(np.polyfit(logs_n, logs_e, 1)[0])
    return RateReport(n_list=tuple(n_list), medians=tuple(medians), slope=slope,
                      degenerate=degenerate, records=tuple(records))


@dataclass(frozen=True)
class OracleGapReport:
    replicates: int
    threshold: float
    fraction_within: float
    passed: bool
    records: tuple[ExperimentRecord, ...]


def oracle_gap_check(scenario: ScenarioConfig, settings: SelectionSettings, *,
                     threshold: float = 10.0, pass_fraction: float = 0.9,
                     threads: int = 1) -> OracleGapReport:
    """Fraction of the scenario's replicates where the adaptive estimator is within
    a factor ``threshold`` of the best grid estimator, both clipped at the
    scenario's ``c`` and measured on its fresh holdout of ``holdout_size`` points.

    Each record frees its training Gram before the holdout, which one loop
    evaluates block by block, through the pivot basis where it passes its check
    on the first block and through the full cross-Gram otherwise (see the
    module notes).  The ratio counts as 1 when both errors are below 1e-12, so
    ``threshold`` must be at least 1; ``pass_fraction`` lies in (0, 1].
    """
    threshold = check_real(threshold, "threshold", 1.0, strict=False)
    if check_real(pass_fraction, "pass_fraction") > 1.0:
        raise InputError(f"pass_fraction must be at most 1, got {pass_fraction!r}")
    records = tuple(_map_indexed(functools.partial(_adaptive_record, scenario, settings),
                                 scenario.replicates, threads))

    def ratio(rec: ExperimentRecord) -> float:
        if rec.err_adaptive <= 1e-12 and rec.err_oracle_grid <= 1e-12:
            return 1.0
        return rec.err_adaptive / max(rec.err_oracle_grid, 1e-300)

    fraction = float(np.mean([ratio(rec) <= threshold for rec in records]))
    return OracleGapReport(replicates=scenario.replicates, threshold=threshold,
                           fraction_within=fraction, passed=fraction >= pass_fraction,
                           records=records)


@dataclass(frozen=True)
class QuadformTail:
    t: float
    frequency: float
    wilson_low: float
    wilson_high: float
    floor: float
    passed: bool


@dataclass(frozen=True)
class QuadformReport:
    """Empirical check of the off-diagonal quadratic-form tail bound."""

    n: int
    sigma: float
    replicates: int
    scale: float
    sample_mean: float
    stderr: float
    passed: bool
    tails: tuple[QuadformTail, ...]


def quadform_tail_check(n: int, sigma: float, t_list=(), replicates: int = 100_000, *,
                        master_seed: int = 0) -> QuadformReport:
    """Check the exponential-moment bound for the off-diagonal quadratic form.

    A Gram matrix M is drawn once; with
    Z = eps^T (M - diag M) eps for i.i.d. N(0, sigma^2) noise, the sample mean
    of ``exp(|Z| / a)`` must stay at most ``2 + 3 * stderr`` for the scale
    ``a = 2**3.5 * log(2) * sigma**2 * sqrt(tr(M^2)) / log(5/4)``.
    For each t in ``t_list`` the tail event ``|Z| <= a * (log 2 + t)`` is also
    reported against its floor ``1 - exp(-t)``.
    """
    n, sigma = check_int(n, "n", 2), check_real(sigma, "sigma")
    master_seed = check_int(master_seed, "master_seed", 0)
    replicates = check_int(replicates, "replicates", 2)
    t_list = [check_real(t, "t", -math.inf) for t in t_list]
    x = replicate_rng(master_seed, 0, stream=2).standard_normal(size=(n, 1))
    m = gram(GaussianKernel(gamma=1.0, dim=1), x)
    m_off = m - np.diag(np.diag(m))
    scale = (2.0 ** 3.5 * math.log(2.0) * sigma**2
             * math.sqrt(float(np.sum(m * m))) / math.log(5.0 / 4.0))
    rng = replicate_rng(master_seed, 1, stream=2)
    z_abs = np.empty(replicates)
    chunk = 20000
    for start in range(0, replicates, chunk):
        b = min(chunk, replicates - start)
        eps = rng.normal(0.0, sigma, size=(b, n))
        z_abs[start:start + b] = np.abs(np.einsum("bi,ij,bj->b", eps, m_off, eps))
    vals = np.exp(z_abs / scale)
    mean = float(vals.mean())
    stderr = float(vals.std(ddof=1) / math.sqrt(replicates))
    tails = []
    for t in t_list:
        ok = int(np.count_nonzero(z_abs <= scale * (math.log(2.0) + t)))
        tails.append(QuadformTail(t=t, **_against_floor(ok, replicates, t)))
    return QuadformReport(n=n, sigma=sigma, replicates=replicates, scale=scale,
                          sample_mean=mean, stderr=stderr,
                          passed=mean <= 2.0 + 3.0 * stderr, tails=tuple(tails))

