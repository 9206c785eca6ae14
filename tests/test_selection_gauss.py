import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import naive_gauss_criterion
from rkhsball.data import Dataset
from rkhsball.errors import ConstraintError, InputError
from rkhsball.estimator import eigen_gram, fit_constrained
from rkhsball.kernels import GaussianKernel, gram, width_grid
from rkhsball.selection_fixed import GLConfig, RadiusGrid, gl_criterion, radius_grid
from rkhsball.selection_gauss import (
    GaussGLConfig,
    gauss_gl_criterion,
    select_width_radius,
    t_of_tau_gauss,
    tau_min_gauss,
)


def _quiet_gauss_config(**kwargs):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        return GaussGLConfig(**kwargs)


def _fit_table(data, cfg):
    fits = []
    for gamma in cfg.width_grid:
        kernel = GaussianKernel(gamma=gamma, dim=cfg.dim)
        k = gram(kernel, data.x)
        ge = eigen_gram(k, data.y)
        fits.append([fit_constrained(k, data.y, r, eigen=ge) for r in cfg.radius_grid])
    return fits


class TestTauGauss:
    def test_tau_min(self):
        assert tau_min_gauss(1.0, 1.0) == 84.0

    def test_t_of_tau(self):
        assert t_of_tau_gauss(84.0, 1.0, 1.0) == pytest.approx(1.0)
        assert t_of_tau_gauss(168.0, 1.0, 1.0) == pytest.approx(4.0)

    def test_invalid(self):
        with pytest.raises(InputError):
            tau_min_gauss(0.0, 1.0)

    def test_theory_mode(self):
        widths = width_grid(0.5, 2.0, 2.0)
        grid = radius_grid(1.0, 1.0, 4)
        with pytest.raises(ConstraintError):
            GaussGLConfig(tau=1.0, nu=0.5, sigma=1.0, dim=1, width_grid=widths,
                          radius_grid=grid, theory_mode=True)

    def test_default_chaining_constant(self):
        widths = width_grid(0.5, 2.0, 2.0)
        grid = radius_grid(1.0, 1.0, 4)
        cfg = _quiet_gauss_config(tau=1.0, nu=0.5, sigma=1.0, dim=1, width_grid=widths,
                                  radius_grid=grid)
        expected = math.sqrt(81.0 * (math.log(8.0 * math.log(4.0) + 4.0) + 2.0) + 1.0)
        assert cfg.j_const == pytest.approx(expected, abs=1e-12)


class TestGaussCriterion:
    def test_singleton_grids(self, rng):
        data = Dataset(x=rng.uniform(size=(4, 1)), y=rng.normal(size=4))
        widths = width_grid(1.5, 1.5, 2.0)
        grid = RadiusGrid(a=0.75, b=2.0, n=4)  # values {0, 1.5}
        cfg = _quiet_gauss_config(tau=1.0, nu=0.8, sigma=0.1, dim=1,
                                  width_grid=widths, radius_grid=grid)
        rows = gauss_gl_criterion(_fit_table(data, cfg), cfg, data.n)
        # Non-zero singleton width; criterions at r=0 and at the cap.
        cap = rows[-1]
        scale = 1.5 ** -0.5 * cap.r
        assert cap.total >= 2.0 * cfg.nu * cfg.tau * scale / math.sqrt(data.n) - 1e-12
        single = [row for row in rows if row.r > 0][-1]
        assert single.variance_term == pytest.approx(
            2.0 * (1.0 + cfg.nu) * cfg.tau * scale / math.sqrt(data.n), abs=1e-12)

    def test_variance_term_example(self, rng):
        # widths {1, 2}, d=2, r=1, tau=1, nu=1, n=4: variance at (2, 1) is 1.
        data = Dataset(x=rng.uniform(size=(4, 2)), y=rng.normal(size=4))
        widths = width_grid(1.0, 2.0, 2.0)
        grid = RadiusGrid(a=0.5, b=1.0, n=4)  # values {0, 1}
        cfg = _quiet_gauss_config(tau=1.0, nu=1.0, sigma=0.1, dim=2,
                                  width_grid=widths, radius_grid=grid)
        rows = gauss_gl_criterion(_fit_table(data, cfg), cfg, data.n)
        row = next(r for r in rows if r.gamma == 2.0 and r.r == 1.0)
        assert row.variance_term == pytest.approx(1.0, abs=1e-12)

    def test_zero_responses(self, rng):
        data = Dataset(x=rng.uniform(size=(9, 1)), y=np.zeros(9))
        widths = width_grid(0.5, 2.0, 2.0)
        grid = radius_grid(1.0, 1.0, 9)
        cfg = _quiet_gauss_config(tau=1.0, nu=0.5, sigma=0.1, dim=1,
                                  width_grid=widths, radius_grid=grid)
        rows = gauss_gl_criterion(_fit_table(data, cfg), cfg, data.n)
        for row in rows:
            scale = row.gamma ** -0.5 * row.r
            assert row.total == pytest.approx(
                2.0 * cfg.nu * cfg.tau * scale / math.sqrt(data.n), abs=1e-12)
        result = select_width_radius(data, cfg)
        assert result.r_hat == 0.0
        assert result.gamma_hat == max(widths)

    def test_floor_on_seeded_datasets(self):
        for seed in range(100):
            rng = np.random.default_rng(3000 + seed)
            n = int(rng.integers(4, 16))
            data = Dataset(x=rng.uniform(size=(n, 1)), y=rng.normal(size=n))
            widths = width_grid(0.5, 2.0, 2.0)
            grid = radius_grid(1.0, 1.0, n)
            cfg = _quiet_gauss_config(tau=float(rng.uniform(0.2, 2.0)),
                                      nu=float(rng.uniform(0.1, 1.5)), sigma=0.1,
                                      dim=1, width_grid=widths, radius_grid=grid)
            rows = gauss_gl_criterion(_fit_table(data, cfg), cfg, data.n)
            for row in rows:
                floor = 2.0 * cfg.nu * cfg.tau * row.gamma ** -0.5 * row.r / math.sqrt(n)
                assert row.total >= floor - 1e-12

    def test_empty_table_rejected(self):
        widths = width_grid(0.5, 2.0, 2.0)
        grid = radius_grid(1.0, 1.0, 4)
        cfg = _quiet_gauss_config(tau=1.0, nu=0.5, sigma=0.1, dim=1,
                                  width_grid=widths, radius_grid=grid)
        with pytest.raises(InputError):
            gauss_gl_criterion([], cfg, 4)


class TestSelectWidthRadius:
    def test_seeded_instance_against_brute_force(self):
        rng = np.random.default_rng(7)
        n = 100
        x = rng.uniform(size=(n, 1))
        g = 2.0 * np.exp(-((x[:, 0] - 0.5) ** 2))  # element of the width-1 space
        y = g + rng.normal(0.0, 0.1, size=n)
        data = Dataset(x=x, y=y)
        widths = width_grid(0.5, 2.0, 2.0)
        grid = RadiusGrid(a=0.4, b=1.0, n=n)
        cfg = _quiet_gauss_config(tau=0.8, nu=0.5, sigma=0.1, dim=1,
                                  width_grid=widths, radius_grid=grid)
        result = select_width_radius(data, cfg)
        table = _fit_table(data, cfg)
        preds = [[f.train_pred for f in row] for row in table]
        _, gamma_hat, r_hat = naive_gauss_criterion(
            preds, list(widths), list(grid), cfg.tau, cfg.nu, cfg.dim, n)
        assert result.gamma_hat == gamma_hat
        assert result.r_hat == r_hat

    def test_brute_force_equivalence_many_seeds(self):
        for seed in range(50):
            rng = np.random.default_rng(4000 + seed)
            n = int(rng.integers(4, 14))
            data = Dataset(x=rng.uniform(size=(n, 1)), y=rng.normal(size=n))
            widths = width_grid(0.5, 2.0, float(rng.uniform(1.5, 2.5)))
            grid = radius_grid(1.0, 1.0, n)
            if len(widths) * len(grid) > 60:
                continue
            cfg = _quiet_gauss_config(tau=float(rng.uniform(0.1, 1.5)),
                                      nu=float(rng.uniform(0.1, 1.5)), sigma=0.1,
                                      dim=1, width_grid=widths, radius_grid=grid)
            result = select_width_radius(data, cfg)
            preds = [[f.train_pred for f in row] for row in _fit_table(data, cfg)]
            rows, gamma_hat, r_hat = naive_gauss_criterion(
                preds, list(widths), list(grid), cfg.tau, cfg.nu, cfg.dim, n)
            assert (result.gamma_hat, result.r_hat) == (gamma_hat, r_hat)
            for mine, ref in zip(result.criterion, rows):
                assert mine.bias_proxy == pytest.approx(ref[2], abs=1e-10)
                assert mine.total == pytest.approx(ref[4], abs=1e-10)

    def test_comparison_set_shape(self, rng):
        # The maximiser over the comparison block must use a width at most
        # gamma and a radius at least r.
        data = Dataset(x=rng.uniform(size=(8, 1)), y=rng.normal(size=8))
        widths = width_grid(0.5, 2.0, 2.0)
        grid = radius_grid(1.0, 1.0, 8)
        cfg = _quiet_gauss_config(tau=0.3, nu=0.5, sigma=0.1, dim=1,
                                  width_grid=widths, radius_grid=grid)
        preds = [[f.train_pred for f in row] for row in _fit_table(data, cfg)]
        gammas, radii = list(widths), list(grid)
        rows = gauss_gl_criterion(_fit_table(data, cfg), cfg, data.n)
        idx = 0
        for i, gamma in enumerate(gammas):
            for j, r in enumerate(radii):
                best, arg = -math.inf, None
                for p in range(len(gammas)):
                    for q in range(len(radii)):
                        if gammas[p] > gamma or radii[q] < r:
                            continue
                        dist = float(np.mean((np.asarray(preds[i][j])
                                              - np.asarray(preds[p][q])) ** 2))
                        pen = cfg.tau * (gamma ** -0.5 * r
                                         + gammas[p] ** -0.5 * radii[q]) / math.sqrt(data.n)
                        if dist - pen > best:
                            best, arg = dist - pen, (gammas[p], radii[q])
                assert rows[idx].bias_proxy == pytest.approx(best, abs=1e-10)
                assert arg[0] <= gamma and arg[1] >= r
                idx += 1

    def test_reduction_to_fixed_selection(self, rng):
        # A single width reduces to the fixed-kernel rule with a scaled penalty.
        gamma, d, n = 1.7, 1, 12
        data = Dataset(x=rng.uniform(size=(n, d)), y=rng.normal(size=n))
        widths = width_grid(gamma, gamma, 2.0)
        grid = radius_grid(1.0, 0.5, n)
        tau = 0.9
        cfg = _quiet_gauss_config(tau=tau, nu=0.5, sigma=0.1, dim=d,
                                  width_grid=widths, radius_grid=grid)
        gauss_result = select_width_radius(data, cfg)
        kernel = GaussianKernel(gamma=gamma, dim=d)
        k = gram(kernel, data.x)
        ge = eigen_gram(k, data.y)
        fits = [fit_constrained(k, data.y, r, eigen=ge) for r in grid]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            fixed_cfg = GLConfig(tau=tau * gamma ** (-d / 2.0), nu=0.5, sigma=0.1,
                                 k_diag=kernel.diag_sup)
        fixed_rows = gl_criterion(fits, fixed_cfg, n)
        gauss_totals = [row.total for row in gauss_result.criterion]
        fixed_totals = [row.total for row in fixed_rows]
        assert gauss_totals == pytest.approx(fixed_totals, abs=1e-12)
        best = min(range(len(fixed_rows)),
                   key=lambda i: (fixed_rows[i].total, fixed_rows[i].r))
        assert gauss_result.r_hat == fixed_rows[best].r


class TestSelectWidthRadiusProperties:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 80), d=st.integers(1, 3),
           u=st.floats(0.2, 1.0), ratio=st.floats(1.3, 3.0), tau=st.floats(0.01, 5.0),
           nu=st.floats(0.05, 2.0), y_scale=st.floats(1e-3, 1e3),
           design=st.sampled_from(["uniform", "normal"]))
    def test_totals_respect_floor(self, seed, n, d, u, ratio, tau, nu, y_scale, design):
        # Each cell is its own comparison partner at distance exactly 0, so its
        # total is at least 2 * nu * tau * gamma**(-d/2) * r / sqrt(n).
        rng = np.random.default_rng(seed)
        x = rng.uniform(size=(n, d)) if design == "uniform" else rng.normal(size=(n, d))
        data = Dataset(x=x, y=y_scale * rng.normal(size=n))
        cfg = _quiet_gauss_config(tau=tau, nu=nu, sigma=0.1, dim=d,
                                  width_grid=width_grid(u, 4.0 * u, ratio),
                                  radius_grid=radius_grid(1.0, 0.5, n))
        result = select_width_radius(data, cfg)
        assert len(result.criterion) == len(cfg.width_grid) * len(cfg.radius_grid)
        for row in result.criterion:
            floor = 2.0 * nu * tau * row.gamma ** (-d / 2.0) * row.r / math.sqrt(n)
            assert row.total >= floor - 1e-12 * max(1.0, floor)
