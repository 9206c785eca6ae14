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

Fits come from :func:`rkhsball.selection_fixed.fit_radius_path`.  Both majorant
events are read off :func:`rkhsball.selection_fixed.comparison_excess`, the
comparison the selection rules penalise, the fixed kernel as its one-width case.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .data import Dataset
from .errors import InputError
from .kernels import GaussianKernel, WidthGrid, chaining_constant_bound, cross_gram, gram
# ``gl_criterion`` is not called here; bench/test_bench.py patches it by this name.
from .selection_fixed import (  # noqa: F401
    GLConfig, RadiusGrid, comparison_excess, fit_radius_path, gl_criterion, radius_grid,
    select_radius)
from .selection_gauss import _penalty_scales
from .theory import scaled_element_approx_bound

__all__ = [
    "RkhsTarget",
    "HatTarget",
    "ScenarioConfig",
    "SelectionSettings",
    "ExperimentRecord",
    "HoldoutError",
    "EventReport",
    "RateReport",
    "OracleGapReport",
    "QuadformReport",
    "default_scenario",
    "replicate_rng",
    "generate",
    "holdout_sq_error",
    "bias_event_check",
    "majorant_event_check",
    "gauss_majorant_event_check",
    "rate_experiment",
    "oracle_gap_check",
    "quadform_tail_check",
    "wilson_interval",
    "write_csv",
    "write_records_csv",
    "write_summary_json",
]

WILSON_Z = 1.959963984540054  # two-sided 95%
RECORD_COLUMNS = ("replicate", "n", "gamma_hat", "r_hat", "err_adaptive",
                  "err_oracle_grid", "event_bias", "event_majorant", "seed")

# Practical default penalty scale: the theoretical minimum 80*sqrt(k_diag)*sigma
# is conservative by roughly an order of magnitude at desk-scale n.
PRACTICAL_TAU_FACTOR = 8.0

# Holdout kernel rows are evaluated in blocks of about this many entries (2 MB).
HOLDOUT_BLOCK_ENTRIES = 2**18


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
        centers = np.atleast_2d(np.asarray(self.centers, dtype=float))
        weights = np.asarray(self.weights, dtype=float).ravel()
        if centers.shape[0] != weights.shape[0]:
            raise InputError(f"{centers.shape[0]} centers but {weights.shape[0]} weights")
        if not self.gamma0 > 0:
            raise InputError(f"target width must be positive, got {self.gamma0}")
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

    def evaluate(self, x) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=float))
        center = np.zeros(x.shape[1]) if self.center is None else np.asarray(self.center)
        dist = np.sqrt(np.sum((x - center[None, :]) ** 2, axis=1))
        return self.slope * np.maximum(0.0, 1.0 - dist)

    @property
    def sup_bound(self) -> float:
        return abs(self.slope)


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
        if self.n < 1 or self.replicates < 1 or self.holdout_size < 1:
            raise InputError("n, replicates and holdout_size must all be at least 1")
        if self.design not in ("uniform-cube", "standard-normal"):
            raise InputError(f"unknown design {self.design!r}")
        if self.noise not in ("gaussian", "rademacher"):
            raise InputError(f"unknown noise law {self.noise!r}")
        if not self.sigma > 0:
            raise InputError(f"noise scale must be positive, got {self.sigma}")
        if not self.c > 0:
            raise InputError(f"clip bound must be positive, got {self.c}")
        if self.target is None:
            raise InputError("scenario requires a target")


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


def replicate_seed(master_seed: int, index: int, stream: int = 0) -> int:
    """Integer fingerprint of the substream, recorded in output tables."""
    ss = np.random.SeedSequence(entropy=master_seed, spawn_key=(stream, index))
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
    return Dataset(x=x, y=y, c=scenario.c, sigma=scenario.sigma)


@dataclass(frozen=True)
class HoldoutError:
    mean: float
    stderr: float


def _holdout_errors(coeffs: np.ndarray, kernel, x_train, scenario: ScenarioConfig,
                    c: float | None, n_test: int, rng: np.random.Generator):
    """Fresh-sample squared errors for a batch of coefficient vectors."""
    x_new = _sample_design(rng, n_test, scenario)
    g_new = scenario.target.evaluate(x_new)
    # The (n_test x n) kernel matrix is built a block of rows at a time: a
    # 10 000-row matrix freed on each of several pool threads leaves the
    # process's peak memory dependent on thread timing and allocator state.
    sq = np.empty((n_test, coeffs.shape[1]))
    step = max(1, HOLDOUT_BLOCK_ENTRIES // max(1, len(x_train)))
    for start in range(0, n_test, step):
        np.matmul(cross_gram(kernel, x_train, x_new[start:start + step]), coeffs,
                  out=sq[start:start + step])
    if c is not None:
        np.clip(sq, -c, c, out=sq)
    sq -= g_new[:, None]
    sq *= sq
    means = sq.mean(axis=0)
    stderrs = sq.std(axis=0, ddof=1) / math.sqrt(n_test) if n_test > 1 else np.zeros(sq.shape[1])
    return means, stderrs


def holdout_sq_error(fit, kernel, x_train, scenario: ScenarioConfig, *,
                     c: float | None = None, n_test: int | None = None,
                     rng: np.random.Generator | None = None) -> HoldoutError:
    """Monte Carlo estimate of the squared population error of a fit.

    Draws ``n_test`` fresh design points (default: the scenario's holdout
    size) and averages ``(clip(fit(x), c) - g(x))**2``, reporting the standard
    error alongside.
    """
    if n_test is None:
        n_test = scenario.holdout_size
    if n_test < 1:
        raise InputError(f"holdout size must be at least 1, got {n_test}")
    if rng is None:
        rng = replicate_rng(scenario.master_seed, 0, stream=1)
    means, stderrs = _holdout_errors(fit.coeffs[:, None], kernel, x_train, scenario,
                                     c, n_test, rng)
    return HoldoutError(mean=float(means[0]), stderr=float(stderrs[0]))


def wilson_interval(successes: int, trials: int, z: float = WILSON_Z) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion."""
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

    def as_dict(self) -> dict:
        d = dataclasses.asdict(self)
        d.pop("indicators")
        return d


def _event_report(name: str, t: float, indicators: list[bool]) -> EventReport:
    trials = len(indicators)
    successes = int(sum(indicators))
    low, high = wilson_interval(successes, trials)
    floor = 1.0 - math.exp(-t)
    return EventReport(name=name, t=t, replicates=trials, successes=successes,
                       frequency=successes / trials, wilson_low=low, wilson_high=high,
                       floor=floor, passed=high >= floor,
                       indicators=tuple(int(b) for b in indicators))


def _map_indexed(fn, count: int, threads: int) -> list:
    if threads <= 1:
        return [fn(i) for i in range(count)]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, range(count)))


def _event_inputs(scenario: ScenarioConfig, t: float,
                  replicates: int | None) -> tuple[RkhsTarget, int]:
    if not isinstance(scenario.target, RkhsTarget):
        raise InputError("event checks need a target with a known space norm")
    if t < 1:
        raise InputError(f"confidence level t must be at least 1, got {t}")
    return scenario.target, _replicate_count(replicates, scenario.replicates)


def _approx_upper(target: RkhsTarget, radii) -> np.ndarray:
    """Computable squared approximation bound at each radius."""
    if target.h_norm == 0.0:
        return np.zeros(len(radii))
    return np.asarray([scaled_element_approx_bound(target.h_norm, target.sup_bound, r)
                       for r in radii])


def _replicate_count(replicates: int | None, default: int | None = None, *,
                     minimum: int = 1) -> int:
    """The number of replicates to run: ``replicates``, else ``default``."""
    reps = default if replicates is None else int(replicates)
    if reps < minimum:
        raise InputError(f"replicates must be at least {minimum}, got {reps}")
    return reps


def _path_preds(data: Dataset, kernel, radii) -> np.ndarray:
    return np.stack([f.train_pred for f in fit_radius_path(data, kernel, radii)])


def bias_event_check(scenario: ScenarioConfig, grid: RadiusGrid, t: float, *,
                     replicates: int | None = None, threads: int = 1) -> EventReport:
    """Frequency of the per-radius estimation event.

    For every grid radius the fitted values are compared against the scaled
    target ``(min(r, R0)/R0) * g`` (a feasible element of the radius-``r``
    ball with computable sup-distance to g); the event holds when

        ||fit_r - h_r||_n^2 <= 20*sqrt(k_diag)*sigma*r*sqrt(t)/sqrt(n)
                               + 4*||h_r - g||_inf^2

    simultaneously over the grid.
    """
    target, reps = _event_inputs(scenario, t, replicates)
    kernel = GaussianKernel(gamma=target.gamma0, dim=scenario.d)
    k_diag = kernel.diag_sup
    radii = np.asarray(list(grid))
    r0 = target.h_norm
    # Zero target: every ball contains it, so the comparator is g itself.
    shrink = np.minimum(radii, r0) / r0 if r0 > 0 else np.ones_like(radii)
    sup_sq = ((1.0 - shrink) * target.sup_bound) ** 2

    def one(i: int) -> bool:
        data = generate(scenario, i)
        g_vals = target.evaluate(data.x)
        preds = _path_preds(data, kernel, radii)
        lhs = np.mean((preds - shrink[:, None] * g_vals[None, :]) ** 2, axis=1)
        rhs = (20.0 * math.sqrt(k_diag) * scenario.sigma * radii * math.sqrt(t)
               / math.sqrt(data.n) + 4.0 * sup_sq)
        return bool(np.all(lhs <= rhs))

    return _event_report("bias", t, _map_indexed(one, reps, threads))


def majorant_event_check(scenario: ScenarioConfig, grid: RadiusGrid, t: float, *,
                         replicates: int | None = None, threads: int = 1) -> EventReport:
    """Frequency of the pairwise-comparison majorant event for a fixed kernel.

    The event holds when, simultaneously for all grid pairs s >= r,

        ||fit_r - fit_s||_n^2 <= 80*sqrt(k_diag)*sigma*(r+s)*sqrt(t)/sqrt(n)
                                 + 40 * approx_sq_upper(r).
    """
    target, reps = _event_inputs(scenario, t, replicates)
    kernel = GaussianKernel(gamma=target.gamma0, dim=scenario.d)
    k_diag = kernel.diag_sup
    radii = np.asarray(list(grid))
    approx = _approx_upper(target, radii)

    def one(i: int) -> bool:
        data = generate(scenario, i)
        preds = _path_preds(data, kernel, radii)
        coef = 80.0 * math.sqrt(k_diag) * scenario.sigma * math.sqrt(t) / math.sqrt(data.n)
        excess = comparison_excess(preds[None], radii[None], coef)[0]
        return bool(np.all(excess <= 40.0 * approx))

    return _event_report("majorant", t, _map_indexed(one, reps, threads))


def gauss_majorant_event_check(scenario: ScenarioConfig, widths: WidthGrid,
                               grid: RadiusGrid, t: float, *,
                               j_const: float | None = None,
                               replicates: int | None = None,
                               threads: int = 1) -> EventReport:
    """Frequency of the majorant event across the Gaussian width family.

    Pairs ((gamma, r), (eta, s)) with eta <= gamma and s >= r are compared
    against ``84*J*sigma*(gamma**(-d/2)*r + eta**(-d/2)*s)*sqrt(t)/sqrt(n)
    + 40*approx_sq_upper(gamma, r)``.  For widths at most the target width the
    scaled-target bound applies (nested balls); wider kernels fall back to the
    sup-norm bound of the zero approximant.
    """
    target, reps = _event_inputs(scenario, t, replicates)
    if j_const is None:
        j_const = chaining_constant_bound(widths.u, widths.v)
    d = scenario.d
    gammas = np.asarray(list(widths))
    radii = np.asarray(list(grid))
    scales = _penalty_scales(gammas, radii, d)
    approx = np.where(gammas[:, None] <= target.gamma0, _approx_upper(target, radii)[None, :],
                      target.sup_bound ** 2)

    def one(i: int) -> bool:
        data = generate(scenario, i)
        preds = np.stack([_path_preds(data, GaussianKernel(gamma=g, dim=d), radii)
                          for g in gammas])
        coef = 84.0 * j_const * scenario.sigma * math.sqrt(t) / math.sqrt(data.n)
        return bool(np.all(comparison_excess(preds, scales, coef) <= 40.0 * approx))

    return _event_report("gauss-majorant", t, _map_indexed(one, reps, threads))


@dataclass(frozen=True)
class SelectionSettings:
    """Radius-selection settings used by the experiment runners.

    ``tau=None`` resolves to the practical default ``8*sqrt(k_diag)*sigma``
    (the theoretical minimum is an order of magnitude too conservative at
    desk scale; a warning is emitted either way when below it).
    """

    tau: float | None = None
    nu: float = 0.5
    grid_a: float = 1.0
    grid_b: float = 0.5
    theory_mode: bool = False
    kernel_gamma: float | None = None

    def resolve_kernel(self, scenario: ScenarioConfig) -> GaussianKernel:
        gamma = self.kernel_gamma
        if gamma is None:
            if not isinstance(scenario.target, RkhsTarget):
                raise InputError("kernel width must be given explicitly for non-space targets")
            gamma = scenario.target.gamma0
        return GaussianKernel(gamma=gamma, dim=scenario.d)

    def resolve_tau(self, k_diag: float, sigma: float) -> float:
        if self.tau is not None:
            return self.tau
        return PRACTICAL_TAU_FACTOR * math.sqrt(k_diag) * sigma

    def gl_config(self, k_diag: float, sigma: float) -> GLConfig:
        return GLConfig(tau=self.resolve_tau(k_diag, sigma), nu=self.nu, sigma=sigma,
                        k_diag=k_diag, theory_mode=self.theory_mode)


@dataclass(frozen=True)
class ExperimentRecord:
    """One output row; column layout is a stable external contract."""

    replicate: int
    n: int
    gamma_hat: float | None
    r_hat: float | None
    err_adaptive: float | None
    err_oracle_grid: float | None
    event_bias: int | None
    event_majorant: int | None
    seed: int


@dataclass(frozen=True)
class RateReport:
    n_list: tuple[int, ...]
    medians: tuple[float, ...]
    slope: float | None
    degenerate: bool
    records: tuple[ExperimentRecord, ...]

    def as_dict(self) -> dict:
        return {"n_list": list(self.n_list), "medians": list(self.medians),
                "slope": self.slope, "degenerate": self.degenerate}


def _adaptive_record(scenario: ScenarioConfig, settings: SelectionSettings,
                     replicate: int) -> ExperimentRecord:
    """Selection plus clipped holdout errors of the adaptive and the best grid fit."""
    data = generate(scenario, replicate)
    kernel = settings.resolve_kernel(scenario)
    grid = radius_grid(settings.grid_a, settings.grid_b, data.n)
    cfg = settings.gl_config(kernel.diag_sup, scenario.sigma)
    result = select_radius(data, kernel, grid, cfg)
    rng = replicate_rng(scenario.master_seed, replicate, stream=1)
    coeffs = np.stack([f.coeffs for f in result.fits], axis=1)
    means, _ = _holdout_errors(coeffs, kernel, data.x, scenario, scenario.c,
                               scenario.holdout_size, rng)
    return ExperimentRecord(
        replicate=replicate, n=scenario.n, gamma_hat=None, r_hat=result.r_hat,
        err_adaptive=float(means[grid.values.index(result.r_hat)]),
        err_oracle_grid=float(means.min()), event_bias=None, event_majorant=None,
        seed=replicate_seed(scenario.master_seed, replicate))


def rate_experiment(scenario: ScenarioConfig, n_list, settings: SelectionSettings, *,
                    threads: int = 1) -> RateReport:
    """Median adaptive error against n, with the fitted log-log slope.

    Requires at least four ascending sample sizes.  The slope is left
    undefined (and the report flagged degenerate) when a median falls below
    1e-12, as happens in noiseless well-specified scenarios.
    """
    n_list = [int(n) for n in n_list]
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

    def as_dict(self) -> dict:
        return {"replicates": self.replicates, "threshold": self.threshold,
                "fraction_within": self.fraction_within, "passed": self.passed}


def oracle_gap_check(scenario: ScenarioConfig, settings: SelectionSettings, *,
                     replicates: int | None = None, threshold: float = 10.0,
                     pass_fraction: float = 0.9, threads: int = 1) -> OracleGapReport:
    """Fraction of replicates where the adaptive estimator is within a factor
    ``threshold`` of the best clipped grid estimator (both on fresh holdouts).

    The ratio counts as 1 when both errors are below 1e-12.
    """
    reps = _replicate_count(replicates, scenario.replicates)
    records = tuple(_map_indexed(functools.partial(_adaptive_record, scenario, settings),
                                 reps, threads))

    def ratio(rec: ExperimentRecord) -> float:
        if rec.err_adaptive <= 1e-12 and rec.err_oracle_grid <= 1e-12:
            return 1.0
        return rec.err_adaptive / max(rec.err_oracle_grid, 1e-300)

    fraction = float(np.mean([ratio(rec) <= threshold for rec in records]))
    return OracleGapReport(replicates=reps, threshold=threshold,
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

    def as_dict(self) -> dict:
        d = {"n": self.n, "sigma": self.sigma, "replicates": self.replicates,
             "scale": self.scale, "sample_mean": self.sample_mean,
             "stderr": self.stderr, "passed": self.passed}
        d["tails"] = [dataclasses.asdict(t) for t in self.tails]
        return d


def quadform_tail_check(n: int, sigma: float, t_list=(), replicates: int = 100_000, *,
                        master_seed: int = 0, m: np.ndarray | None = None) -> QuadformReport:
    """Check the exponential-moment bound for the off-diagonal quadratic form.

    A Gram matrix M is drawn once (or supplied via ``m``); with
    Z = eps^T (M - diag M) eps for i.i.d. N(0, sigma^2) noise, the sample mean
    of ``exp(|Z| / a)`` must stay at most ``2 + 3 * stderr`` for the scale
    ``a = 2**3.5 * log(2) * sigma**2 * sqrt(tr(M^2)) / log(5/4)``.
    For each t in ``t_list`` the tail event ``|Z| <= a * (log 2 + t)`` is also
    reported against its floor ``1 - exp(-t)``.
    """
    if n < 2:
        raise InputError(f"quadratic form needs n >= 2, got {n}")
    if not sigma > 0:
        raise InputError(f"sigma must be positive, got {sigma}")
    replicates = _replicate_count(replicates, minimum=2)
    if m is None:
        rng_m = replicate_rng(master_seed, 0, stream=2)
        x = rng_m.standard_normal(size=(n, 1))
        m = gram(GaussianKernel(gamma=1.0, dim=1), x)
    else:
        m = np.asarray(m, dtype=float)
        if m.shape != (n, n):
            raise InputError(f"matrix must be {n}x{n}, got {m.shape}")
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
        low, high = wilson_interval(ok, replicates)
        floor = 1.0 - math.exp(-t)
        tails.append(QuadformTail(t=float(t), frequency=ok / replicates,
                                  wilson_low=low, wilson_high=high, floor=floor,
                                  passed=high >= floor))
    return QuadformReport(n=n, sigma=sigma, replicates=replicates, scale=scale,
                          sample_mean=mean, stderr=stderr,
                          passed=mean <= 2.0 + 3.0 * stderr, tails=tuple(tails))


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def write_csv(path, header, rows) -> None:
    """Write a CSV table; an empty cell is None, floats carry 17 significant digits."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_format_cell(cell) for cell in row))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def write_records_csv(path, records) -> None:
    """Write experiment records with the fixed column layout."""
    write_csv(path, RECORD_COLUMNS,
              ([getattr(rec, col) for col in RECORD_COLUMNS] for rec in records))


def _json_value(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        if math.isnan(value) or math.isinf(value):
            return "null"
        return format(value, ".17g")
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, dict):
        items = [f"{json.dumps(str(k))}: {_json_value(v)}" for k, v in value.items()]
        return "{" + ", ".join(items) + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_json_value(v) for v in value) + "]"
    if isinstance(value, np.floating):
        return _json_value(float(value))
    if dataclasses.is_dataclass(value):
        return _json_value(dataclasses.asdict(value))
    raise InputError(f"cannot serialise {type(value).__name__} to JSON")


def write_summary_json(path, summary: dict) -> None:
    """Write a JSON summary; floats carry 17 significant digits so round-trips
    are exact and outputs are byte-stable."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(_json_value(summary) + "\n")
