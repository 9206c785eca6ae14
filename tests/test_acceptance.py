"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

The heavy Monte Carlo criteria run at their stated sizes; the full module is
expected to take a few minutes.
"""

import json
import math
import time
import warnings
from contextlib import contextmanager

import numpy as np

from conftest import (
    conditioned_instance,
    naive_fixed_criterion,
    naive_gauss_criterion,
    pgd_constrained_loss,
    random_instance,
    rkhs_sq_distance,
    stable_radius_scale,
)
from rkhsball.cli import main
from rkhsball.data import Dataset
from rkhsball.estimator import eigen_gram, fit_constrained
from rkhsball.experiments import (
    SelectionSettings,
    default_scenario,
    event_suite,
    oracle_gap_check,
    quadform_tail_check,
    rate_experiment,
)
from rkhsball.kernels import (
    GaussianKernel,
    chaining_constant_bound,
    covering_number_bound,
    entropy_integral_bound,
    gram,
    width_grid,
)
from rkhsball.selection_fixed import (
    GLConfig,
    fit_radius_path,
    gl_criterion,
    radius_grid,
    select_radius,
    tau_min_fixed,
)
from rkhsball.selection_gauss import GaussGLConfig, gauss_gl_criterion, select_width_radius

THREADS = 2


@contextmanager
def report(capsys, num, desc):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"\nACCEPTANCE {num:>2} FAIL: {desc}")
        raise
    elapsed = time.perf_counter() - start
    with capsys.disabled():
        print(f"\nACCEPTANCE {num:>2} PASS: {desc} [{elapsed:.1f}s]")


def _quiet_gl(**kwargs):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        return GLConfig(**kwargs)


def _quiet_gauss(**kwargs):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        return GaussGLConfig(**kwargs)


def test_criterion_01_closed_form_unit_instance(capsys):
    with report(capsys, 1, "1x1 closed form (mu, coefficients) exact to 1e-10, < 1 ms"):
        k = np.array([[1.0]])
        y = np.array([2.0])
        fit1 = fit_constrained(eigen_gram(k, y), [1.0])[0]
        assert abs(fit1.mu - 1.0) <= 1e-10
        assert abs(fit1.coeffs[0] - 1.0) <= 1e-10
        for r in (2.0, 3.0, 10.0):
            fit = fit_constrained(eigen_gram(k, y), [r])[0]
            assert fit.mu == 0.0
            assert abs(fit.coeffs[0] - 2.0) <= 1e-10
        times = []
        for _ in range(11):
            t0 = time.perf_counter()
            fit_constrained(eigen_gram(k, y), [1.0])
            times.append(time.perf_counter() - t0)
        assert min(times) < 1e-3


def test_criterion_02_feasibility_activity(capsys):
    with report(capsys, 2, "feasibility a'Ka <= r^2(1+1e-8), activity |h_norm - r| <= 1e-6 r"):
        rng = np.random.default_rng(202)
        checked_active = 0
        for _ in range(200):
            _, k, _, y = random_instance(rng, n_max=40)
            ge = eigen_gram(k, y)
            r = float(rng.uniform(0.05, 1.2)) * stable_radius_scale(k, y)
            fit = fit_constrained(ge, [r])[0]
            sq = float(fit.coeffs @ k @ fit.coeffs)
            assert sq <= r * r * (1.0 + 1e-8)
            if fit.mu > 0:
                checked_active += 1
                assert abs(math.sqrt(sq) - r) <= 1e-6 * r
        assert checked_active >= 100


def test_criterion_03_radius_lipschitz(capsys):
    with report(capsys, 3, "function-space distance^2 <= |r^2 - s^2| over 100 pairs/instance"):
        rng = np.random.default_rng(303)
        for _ in range(50):
            _, k, _, y = random_instance(rng, n_max=30)
            ge = eigen_gram(k, y)
            scale = max(stable_radius_scale(k, y), 1.0)
            fits = {}
            for _ in range(100):
                r, s = (float(v) for v in rng.uniform(0.0, 1.3, size=2) * scale)
                for radius in (r, s):
                    if radius not in fits:
                        fits[radius] = fit_constrained(ge, [radius])[0]
                lhs = rkhs_sq_distance(fits[r], fits[s], k)
                assert lhs <= abs(r * r - s * s) + 1e-8 * (1.0 + r * r + s * s)


def test_criterion_04_projected_gradient_oracle(capsys):
    with report(capsys, 4, "constrained loss matches projected-gradient oracle to 1e-6 rel"):
        rng = np.random.default_rng(404)
        for _ in range(20):
            k, y = conditioned_instance(rng, n_max=6)
            ge = eigen_gram(k, y)
            r = float(rng.uniform(0.1, 1.1)) * max(ge.rho, 0.5)
            loss = fit_constrained(ge, [r])[0].train_loss(y)
            oracle = pgd_constrained_loss(k, y, r)
            assert abs(loss - oracle) <= 1e-6 * max(abs(oracle), abs(loss)) + 1e-12


def test_criterion_05_criterion_floors(capsys):
    with report(capsys, 5, "criterion totals respect the 2*nu*tau*scale/sqrt(n) floors"):
        for seed in range(100):
            rng = np.random.default_rng(50_000 + seed)
            n = int(rng.integers(5, 30))
            data = Dataset(x=rng.uniform(size=(n, 1)), y=rng.normal(size=n))
            kernel = GaussianKernel(1.0, 1)
            cfg = _quiet_gl(tau=float(rng.uniform(0.2, 3.0)), nu=float(rng.uniform(0.1, 2.0)),
                            sigma=0.1, k_diag=1.0)
            k = gram(kernel, data.x)
            ge = eigen_gram(k, data.y)
            fits = [fit_constrained(ge, [r])[0]
                    for r in radius_grid(1.0, 0.5, n)]
            for row in gl_criterion(fits, cfg):
                assert row.total >= 2.0 * cfg.nu * cfg.tau * row.r / math.sqrt(n) - 1e-12
        for seed in range(100):
            rng = np.random.default_rng(60_000 + seed)
            n = int(rng.integers(5, 16))
            data = Dataset(x=rng.uniform(size=(n, 1)), y=rng.normal(size=n))
            cfg = _quiet_gauss(tau=float(rng.uniform(0.2, 2.0)), nu=float(rng.uniform(0.1, 1.5)),
                               sigma=0.1, dim=1, width_grid=width_grid(0.5, 2.0, 2.0),
                               radius_grid=radius_grid(1.0, 1.0, n))
            table = []
            for gamma in cfg.width_grid:
                kern = GaussianKernel(gamma, 1)
                k = gram(kern, data.x)
                ge = eigen_gram(k, data.y)
                table.append([fit_constrained(ge, [r])[0]
                              for r in cfg.radius_grid])
            for row in gauss_gl_criterion(table, cfg):
                floor = 2.0 * cfg.nu * cfg.tau * row.gamma ** -0.5 * row.r / math.sqrt(n)
                assert row.total >= floor - 1e-12


def test_criterion_06_brute_force_selection(capsys):
    with report(capsys, 6, "selection matches naive double/quadruple-loop oracles, 50 seeds"):
        for seed in range(50):
            rng = np.random.default_rng(70_000 + seed)
            n = int(rng.integers(4, 25))
            data = Dataset(x=rng.uniform(size=(n, 1)), y=rng.normal(size=n))
            kernel = GaussianKernel(1.0, 1)
            grid = radius_grid(1.0, float(rng.uniform(0.3, 1.0)), n)
            if len(grid) > 60:
                continue
            cfg = _quiet_gl(tau=float(rng.uniform(0.1, 2.0)), nu=float(rng.uniform(0.1, 1.5)),
                            sigma=0.1, k_diag=1.0)
            result = select_radius(data, kernel, grid, cfg)
            # The selection's own fits: the criteria are what differ.
            preds = [f.train_pred for f in fit_radius_path(data, kernel, grid)]
            _, r_hat = naive_fixed_criterion(preds, list(grid), cfg.tau, cfg.nu, n)
            assert result.r_hat == r_hat
        for seed in range(50):
            rng = np.random.default_rng(80_000 + seed)
            n = int(rng.integers(4, 14))
            data = Dataset(x=rng.uniform(size=(n, 1)), y=rng.normal(size=n))
            widths = width_grid(0.5, 2.0, 2.0)
            grid = radius_grid(1.0, 1.0, n)
            if len(widths) * len(grid) > 60:
                continue
            cfg = _quiet_gauss(tau=float(rng.uniform(0.1, 1.5)), nu=float(rng.uniform(0.1, 1.5)),
                               sigma=0.1, dim=1, width_grid=widths, radius_grid=grid)
            result = select_width_radius(data, cfg)
            preds = [[f.train_pred for f in fit_radius_path(data, GaussianKernel(gamma, 1), grid)]
                     for gamma in widths]
            _, gamma_hat, r_hat = naive_gauss_criterion(
                preds, list(widths), list(grid), cfg.tau, cfg.nu, cfg.dim, n)
            assert (result.gamma_hat, result.r_hat) == (gamma_hat, r_hat)


def test_criterion_07_event_frequencies(capsys):
    desc = ("majorant/bias/family event frequencies vs floor 1-e^-1 "
            "(n=200, 500 replicates each)")
    with report(capsys, 7, desc):
        floor = 1.0 - math.exp(-1.0)
        assert round(floor, 4) == 0.6321
        scen = default_scenario(n=200, sigma=0.1, replicates=500, master_seed=7001)
        grid = radius_grid(1.0, 0.5, scen.n)

        t0 = time.perf_counter()
        reps = event_suite(scen, width_grid(0.5, 2.0, 2.0), grid, 1.0, threads=THREADS)
        assert time.perf_counter() - t0 < 300.0
        assert reps["majorant"].wilson_high >= floor, \
            f"majorant interval below floor: {reps['majorant']}"
        assert reps["bias"].wilson_high >= floor, f"bias interval below floor: {reps['bias']}"
        assert reps["gauss-majorant"].wilson_high >= floor, \
            f"family interval below floor: {reps['gauss-majorant']}"


def test_criterion_08_rate_slope(capsys):
    desc = "adaptive error log-log slope <= -0.3 at tau = theoretical minimum"
    with report(capsys, 8, desc):
        scen = default_scenario(sigma=0.1, replicates=100, master_seed=8001,
                                holdout_size=10000)
        tau = tau_min_fixed(GaussianKernel(1.0, 1).diag_sup, scen.sigma)
        settings = SelectionSettings(tau=tau)
        t0 = time.perf_counter()
        rep = rate_experiment(scen, [50, 100, 200, 400, 800], settings, threads=THREADS)
        assert time.perf_counter() - t0 < 600.0
        assert not rep.degenerate
        assert rep.slope is not None and rep.slope <= -0.3, f"slope {rep.slope}"


def test_criterion_09_oracle_gap(capsys):
    desc = "adaptive within 10x of best grid estimator in >= 90% of 200 replicates"
    with report(capsys, 9, desc):
        scen = default_scenario(n=200, sigma=0.1, replicates=200, master_seed=9001,
                                holdout_size=10000)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            rep = oracle_gap_check(scen, SelectionSettings(), threads=THREADS)
        assert rep.fraction_within >= 0.9, f"fraction {rep.fraction_within}"


def test_criterion_10_appendix_formulas(capsys):
    desc = "covering/entropy/chaining formulas to 1e-9; quadratic-form mean <= 2 + 3se"
    with report(capsys, 10, desc):
        assert abs(covering_number_bound(0.5, 1.0, 1.0) - 2.0) <= 1e-9
        assert abs(covering_number_bound(0.5, 1.0, math.e) - 6.0) <= 1e-9
        assert covering_number_bound(1.0, 1.0, 10.0) == 1.0

        assert abs(entropy_integral_bound(1.0, 1.0) - (math.log(2.0) / 2.0 + 1.0)) <= 1e-9
        assert abs(entropy_integral_bound(1.0, math.e) - (math.log(6.0) / 2.0 + 1.0)) <= 1e-9
        assert abs(entropy_integral_bound(1.0, math.e**2)
                   - (math.log(10.0) / 2.0 + 1.0)) <= 1e-9

        assert abs(chaining_constant_bound(1.0, 1.0)
                   - math.sqrt(81.0 * (math.log(4.0) + 2.0) + 1.0)) <= 1e-9
        assert abs(chaining_constant_bound(1.0, math.e)
                   - math.sqrt(81.0 * (math.log(12.0) + 2.0) + 1.0)) <= 1e-9
        assert abs(chaining_constant_bound(1.0, math.e**4)
                   - math.sqrt(81.0 * (math.log(36.0) + 2.0) + 1.0)) <= 1e-9

        rep = quadform_tail_check(20, 1.0, t_list=[1.0], replicates=100_000,
                                  master_seed=1010)
        assert rep.sample_mean <= 2.0 + 3.0 * rep.stderr


def test_criterion_11_cli_determinism(capsys, tmp_path):
    with report(capsys, 11, "two cmd_rates runs with one config+seed are byte-identical"):
        cfg_path = tmp_path / "rates.json"
        cfg_path.write_text(json.dumps({
            "scenario": {"n": 24, "replicates": 5, "holdout_size": 1000,
                         "master_seed": 1111},
            "n_list": [16, 24, 32, 48],
            "selection": {"tau": 1.0},
        }), encoding="utf-8")
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["rates", "--config", str(cfg_path), "--out", str(out_a),
                     "--seed", "1111", "--threads", "2"]) == 0
        assert main(["rates", "--config", str(cfg_path), "--out", str(out_b),
                     "--seed", "1111", "--threads", "2"]) == 0
        csv_a = (out_a / "rates.csv").read_bytes()
        csv_b = (out_b / "rates.csv").read_bytes()
        assert csv_a == csv_b and len(csv_a) > 0
        assert (out_a / "rates_summary.json").read_bytes() \
            == (out_b / "rates_summary.json").read_bytes()
