"""The benchmark's workloads: seeded inputs, one op, validation and summary.

Each workload is a closed loop with one caller.  Op ``i`` of a run with seed
``s`` draws its inputs from the benchmark's own RNG stream ``(s, stream, i)``,
so inputs do not depend on timing and the package generates none of them
(the harness workload passes only a master seed).  Calls go through module
attributes at call time, so the tracer's wrappers see them.

- ``family-n800``: seven Grams with numerical ranks from about 32 to 796 of
  800, both sides of any rank-based choice of decomposition path; the only
  workload that runs the two-parameter criterion.
- ``harness-n200``: the Monte Carlo checks, where the multiplier solve and the
  10 000-point holdout matrix dominate and two pool threads call the
  estimator at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from rkhsball import experiments, kernels, selection_fixed, selection_gauss
from rkhsball.data import Dataset

TAU = 0.8
NU = 0.5
SIGMA = 0.1
FLOOR_ATOL = 1e-12  # slack on the criterion floor, as in acceptance criterion 05
NORM_RTOL = 1e-8    # slack on ||fit_hat|| <= r_hat, as in acceptance criterion 02


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``make_input(rng)`` builds an op's inputs, ``run(inp)`` is the timed op,
    ``validate(inp, out)`` lists what is wrong with its output (empty when
    valid) and ``summarize(inp, out)`` gives the results that the agreement
    check compares with the stored reference.  ``expected`` names the traced
    layers every op must call.
    """

    name: str
    stream: int
    replicates_per_op: int
    make_input: Callable
    run: Callable
    validate: Callable
    summarize: Callable
    expected: tuple[str, ...]


def op_rng(seed: int, stream: int, index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(stream, index)))


def _gauss_section(x: np.ndarray, center, gamma: float = 1.0) -> np.ndarray:
    sq = np.sum((x - np.asarray(center, dtype=float)[None, :]) ** 2, axis=1)
    return gamma ** (-x.shape[1]) * np.exp(-sq / gamma**2)


def _check_rows(problems, rows, cells, floor_scale, n, what):
    if len(rows) != len(cells):
        problems.append(f"{len(rows)} criterion rows for {len(cells)} {what}")
        return
    for row, cell, scale in zip(rows, cells, floor_scale):
        key = (row.gamma, row.r)
        if key != cell:
            problems.append(f"criterion row {key} out of grid order (expected {cell})")
            return
        if not all(math.isfinite(v) for v in (row.bias_proxy, row.variance_term, row.total)):
            problems.append(f"non-finite criterion row at {key}")
            return
        floor = 2.0 * NU * TAU * scale / math.sqrt(n)
        if row.total < floor - FLOOR_ATOL:
            problems.append(f"total {row.total!r} below floor {floor!r} at {key}")
            return


def _check_fit(problems, res):
    if not res.fit_hat.h_norm <= res.r_hat * (1.0 + NORM_RTOL):
        problems.append(f"fit norm {res.fit_hat.h_norm!r} exceeds r_hat {res.r_hat!r}")


FAMILY_CENTERS = ((0.3, 0.5, 0.7), (0.7, 0.4, 0.2))
FAMILY_WEIGHTS = (1.5, -1.0)


def family_workload(n: int = 800) -> Workload:
    """One ``select_width_radius`` call at d=3 on a two-centre width-1 target."""
    dim = 3
    cfg = selection_gauss.GaussGLConfig(
        tau=TAU, nu=NU, sigma=SIGMA, dim=dim,
        width_grid=kernels.width_grid(0.25, 4.0, 1.6),
        radius_grid=selection_fixed.radius_grid(1.0, 0.5, n))
    widths, radii = tuple(cfg.width_grid), tuple(cfg.radius_grid)
    cells = [(g, r) for g in widths for r in radii]
    scales = [g ** (-dim / 2.0) * r for g, r in cells]

    def make_input(rng):
        x = rng.uniform(0.0, 1.0, size=(n, dim))
        g = sum(w * _gauss_section(x, c) for c, w in zip(FAMILY_CENTERS, FAMILY_WEIGHTS))
        return Dataset(x=x, y=g + rng.normal(0.0, SIGMA, size=n))

    def run(data):
        return selection_gauss.select_width_radius(data, cfg)

    def validate(data, res):
        problems = []
        if res.gamma_hat not in widths:
            problems.append(f"gamma_hat {res.gamma_hat!r} is not a grid width")
        if res.r_hat not in radii:
            problems.append(f"r_hat {res.r_hat!r} is not a grid radius")
        _check_rows(problems, res.criterion, cells, scales, data.n, "cells")
        _check_fit(problems, res)
        return problems

    def summarize(data, res):
        return {"cell": cells.index((res.gamma_hat, res.r_hat)),
                "totals": [row.total for row in res.criterion]}

    return Workload("family-n800", 2, 1, make_input, run, validate, summarize,
                    ("kernels.gram", "estimator.eigen_gram", "estimator.mu_of_r",
                     "estimator.fit_constrained", "selection_gauss.gauss_gl_criterion",
                     "selection_gauss.select_width_radius"))


EVENT_NAMES = ("majorant", "bias", "gauss-majorant")


@dataclass(frozen=True)
class HarnessResult:
    events: tuple  # EventReports in EVENT_NAMES order
    gap: object    # OracleGapReport


def harness_workload(n: int = 200, replicates: int = 20, threads: int = 2,
                     holdout: int = 10_000) -> Workload:
    """One batch of the four event/oracle checks that criteria 07 and 09 run."""
    grid = selection_fixed.radius_grid(1.0, 0.5, n)
    widths = kernels.width_grid(0.5, 2.0, 2.0)
    settings = experiments.SelectionSettings()
    radii = tuple(grid)

    def make_input(rng):
        return experiments.default_scenario(
            n=n, sigma=SIGMA, replicates=replicates, holdout_size=holdout,
            master_seed=int(rng.integers(0, 2**63 - 1)))

    def run(scen):
        events = (
            experiments.majorant_event_check(scen, grid, 1.0, threads=threads),
            experiments.bias_event_check(scen, grid, 1.0, threads=threads),
            experiments.gauss_majorant_event_check(scen, widths, grid, 1.0, threads=threads),
        )
        gap = experiments.oracle_gap_check(scen, settings, threads=threads)
        return HarnessResult(events, gap)

    def validate(scen, res):
        problems = []
        for name, rep in zip(EVENT_NAMES, res.events):
            if rep.name != name or rep.replicates != replicates \
                    or len(rep.indicators) != replicates:
                problems.append(f"{name} report covers {rep.replicates} replicates, "
                                f"expected {replicates}")
            elif rep.successes != sum(rep.indicators):
                problems.append(f"{name} successes disagree with its indicators")
            if not 0.0 <= rep.wilson_low <= rep.frequency <= rep.wilson_high <= 1.0:
                problems.append(f"{name} Wilson interval [{rep.wilson_low!r}, "
                                f"{rep.wilson_high!r}] invalid")
        gap = res.gap
        if gap.replicates != replicates or len(gap.records) != replicates:
            problems.append(f"oracle-gap report covers {gap.replicates} replicates")
        if not 0.0 <= gap.fraction_within <= 1.0:
            problems.append(f"fraction_within {gap.fraction_within!r} outside [0, 1]")
        for rec in gap.records:
            if rec.r_hat not in radii:
                problems.append(f"replicate {rec.replicate} r_hat {rec.r_hat!r} not in grid")
            if not all(math.isfinite(e) and e >= 0.0
                       for e in (rec.err_adaptive, rec.err_oracle_grid)):
                problems.append(f"replicate {rec.replicate} holdout error invalid")
        return problems

    def summarize(scen, res):
        recs = res.gap.records
        return {"indicators": {name: list(rep.indicators)
                               for name, rep in zip(EVENT_NAMES, res.events)},
                "fraction_within": res.gap.fraction_within,
                "cells": [radii.index(rec.r_hat) for rec in recs],
                "err_adaptive": [rec.err_adaptive for rec in recs],
                "err_oracle_grid": [rec.err_oracle_grid for rec in recs]}

    return Workload("harness-n200", 3, replicates, make_input, run, validate, summarize,
                    ("kernels.gram", "kernels.cross_gram", "estimator.eigen_gram",
                     "estimator.mu_of_r", "estimator.fit_constrained",
                     "selection_fixed.gl_criterion", "experiments.generate",
                     "experiments.majorant_event_check", "experiments.bias_event_check",
                     "experiments.gauss_majorant_event_check",
                     "experiments.oracle_gap_check"))


def harness_replicate_totals(scen) -> list[list[float]]:
    """Criterion totals behind each oracle-gap replicate's choice.

    The oracle-gap check reports only the chosen radius; the agreement check
    needs every radius's total to tell a near tie from a real change, so the
    reference recomputes them with the same selection the check runs.
    """
    settings = experiments.SelectionSettings()
    kernel = settings.resolve_kernel(scen)
    cfg = settings.gl_config(kernel.diag_sup, scen.sigma)
    grid = selection_fixed.radius_grid(settings.grid_a, settings.grid_b, scen.n)
    return [[row.total for row in selection_fixed.select_radius(
        experiments.generate(scen, i), kernel, grid, cfg).criterion]
        for i in range(scen.replicates)]


WORKLOADS = {
    "family-n800": family_workload,
    "harness-n200": harness_workload,
}
