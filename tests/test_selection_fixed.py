import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import naive_comparison_excess, naive_fixed_criterion
from rkhsball.data import Dataset
from rkhsball.errors import ConstraintError, InputError
from rkhsball.kernels import GaussianKernel, gram
from rkhsball.selection_fixed import (
    GLConfig,
    comparison_excess,
    fit_radius_path,
    gl_criterion,
    radius_grid,
    select_radius,
    tau_min_fixed,
)


def _config(tau=1.0, nu=0.5, sigma=0.1, k_diag=1.0):
    with pytest.warns(UserWarning):
        return GLConfig(tau=tau, nu=nu, sigma=sigma, k_diag=k_diag)


def _quiet_config(tau, nu, sigma, k_diag):
    if tau >= tau_min_fixed(k_diag, sigma):
        return GLConfig(tau=tau, nu=nu, sigma=sigma, k_diag=k_diag)
    return _config(tau, nu, sigma, k_diag)


class TestRadiusGrid:
    def test_spec_grid(self):
        assert list(radius_grid(1.0, 0.5, 16)) == [0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0]

    def test_coarse_grid(self):
        assert list(radius_grid(1.0, 2.0, 4)) == [0.0, 2.0]

    def test_minimal_grid(self):
        assert list(radius_grid(1.0, 1.0, 1)) == [0.0, 1.0]

    def test_invalid_parameters(self):
        with pytest.raises(InputError):
            radius_grid(0.0, 1.0, 4)
        with pytest.raises(InputError):
            radius_grid(1.0, -1.0, 4)

    @settings(max_examples=200, deadline=None)
    @given(a=st.floats(0.01, 5.0), b=st.floats(0.01, 5.0), n=st.integers(1, 500))
    def test_invariants(self, a, b, n):
        vals = radius_grid(a, b, n)
        assert type(vals) is tuple
        cap = a * math.sqrt(n)
        assert vals[0] == 0.0
        assert vals[-1] == cap
        assert all(x < y for x, y in zip(vals, vals[1:]))
        assert all(0.0 <= v <= cap * (1 + 1e-12) for v in vals)


class TestTau:
    def test_tau_min(self):
        assert tau_min_fixed(1.0, 1.0) == 80.0
        assert tau_min_fixed(4.0, 0.5) == 80.0

    def test_invalid_inputs(self):
        with pytest.raises(InputError):
            tau_min_fixed(0.0, 1.0)


class TestGLConfig:
    def test_theory_mode_enforces_minimum(self):
        with pytest.raises(ConstraintError):
            GLConfig(tau=40.0, nu=0.5, sigma=1.0, k_diag=1.0, theory_mode=True)

    def test_warns_below_minimum(self):
        with pytest.warns(UserWarning):
            GLConfig(tau=40.0, nu=0.5, sigma=1.0, k_diag=1.0)

    def test_accepts_theoretical_tau(self):
        cfg = GLConfig(tau=80.0, nu=0.5, sigma=1.0, k_diag=1.0, theory_mode=True)
        assert cfg.tau == 80.0

    def test_invalid_nu(self):
        with pytest.raises(InputError):
            GLConfig(tau=80.0, nu=0.0, sigma=1.0, k_diag=1.0)


class TestCriterion:
    def test_singleton_grid(self, rng):
        data = Dataset(x=rng.uniform(size=(9, 1)), y=rng.normal(size=9))
        kernel = GaussianKernel(1.0, 1)
        r0 = 1.5
        cfg = _config(tau=2.0, nu=0.7)
        rows = gl_criterion(fit_radius_path(data, kernel, [r0]), cfg)
        assert len(rows) == 1
        sqrt_n = math.sqrt(data.n)
        assert rows[0].bias_proxy == pytest.approx(-2.0 * cfg.tau * r0 / sqrt_n, abs=1e-12)
        assert rows[0].total == pytest.approx(2.0 * cfg.nu * cfg.tau * r0 / sqrt_n, abs=1e-12)

    def test_huge_tau_selects_zero(self, rng):
        data = Dataset(x=rng.uniform(size=(12, 1)), y=rng.normal(size=12))
        kernel = GaussianKernel(1.0, 1)
        cfg = GLConfig(tau=1e6, nu=0.5, sigma=0.1, k_diag=1.0)
        rows = gl_criterion(fit_radius_path(data, kernel, [0.0, 2.0]), cfg)
        assert rows[0].bias_proxy == 0.0
        assert rows[0].total == 0.0
        assert rows[0].total < rows[1].total

    def test_zero_responses(self, rng):
        data = Dataset(x=rng.uniform(size=(10, 1)), y=np.zeros(10))
        kernel = GaussianKernel(1.0, 1)
        cfg = _config(tau=1.0, nu=0.5)
        radii = [0.0, 1.0, 2.0]
        rows = gl_criterion(fit_radius_path(data, kernel, radii), cfg)
        sqrt_n = math.sqrt(data.n)
        for row in rows:
            assert row.bias_proxy == pytest.approx(-2.0 * cfg.tau * row.r / sqrt_n, abs=1e-12)
            assert row.total == pytest.approx(2.0 * cfg.nu * cfg.tau * row.r / sqrt_n, abs=1e-12)
        grid = radius_grid(1.0, 0.5, data.n)
        result = select_radius(data, kernel, grid, cfg)
        assert result.r_hat == 0.0

    def test_empty_grid_rejected(self):
        cfg = _config()
        with pytest.raises(InputError):
            gl_criterion([], cfg)

    def test_mixed_training_sets_rejected(self, rng):
        kernel = GaussianKernel(1.0, 1)
        small = Dataset(x=rng.uniform(size=(5, 1)), y=rng.normal(size=5))
        large = Dataset(x=rng.uniform(size=(6, 1)), y=rng.normal(size=6))
        fits = fit_radius_path(small, kernel, [0.0, 1.0]) + fit_radius_path(large, kernel, [2.0])
        with pytest.raises(InputError, match="fits come from different training sets"):
            gl_criterion(fits, _config())

    def test_floor_on_seeded_datasets(self):
        # Criterion totals never drop below 2*nu*tau*r/sqrt(n).
        kernel = GaussianKernel(1.0, 1)
        for seed in range(100):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(5, 30))
            data = Dataset(x=rng.uniform(size=(n, 1)), y=rng.normal(size=n))
            cfg = _quiet_config(float(rng.uniform(0.2, 3.0)), float(rng.uniform(0.1, 2.0)),
                                0.1, 1.0)
            rows = gl_criterion(fit_radius_path(data, kernel, list(radius_grid(1.0, 0.5, n))), cfg)
            for row in rows:
                assert row.total >= 2.0 * cfg.nu * cfg.tau * row.r / math.sqrt(n) - 1e-12

    def test_monotone_in_tau(self, rng):
        data = Dataset(x=rng.uniform(size=(15, 1)), y=rng.normal(size=15))
        kernel = GaussianKernel(1.0, 1)
        fits = fit_radius_path(data, kernel, [0.0, 0.5, 1.0, 2.0])
        lo = gl_criterion(fits, _config(tau=0.5, nu=0.5))
        hi = gl_criterion(fits, _config(tau=1.5, nu=0.5))
        for a, b in zip(lo, hi):
            assert b.bias_proxy <= a.bias_proxy + 1e-12
            assert b.variance_term >= a.variance_term - 1e-12

    def test_argmin_stable_under_constant_shift(self, rng):
        data = Dataset(x=rng.uniform(size=(20, 1)), y=rng.normal(size=20))
        kernel = GaussianKernel(1.0, 1)
        cfg = _config(tau=0.8, nu=0.5)
        rows = gl_criterion(fit_radius_path(data, kernel, list(radius_grid(1.0, 0.5, 20))), cfg)
        totals = [row.total for row in rows]
        base = min(range(len(rows)), key=lambda i: (totals[i], rows[i].r))
        shifted = [t + 17.3 for t in totals]
        again = min(range(len(rows)), key=lambda i: (shifted[i], rows[i].r))
        assert base == again


class TestSelectRadius:
    def test_zero_responses_select_zero(self, rng):
        data = Dataset(x=rng.uniform(size=(8, 1)), y=np.zeros(8))
        cfg = _config(tau=1.0, nu=0.5)
        result = select_radius(data, GaussianKernel(1.0, 1), radius_grid(1.0, 1.0, 8), cfg)
        assert result.r_hat == 0.0
        assert result.fit_hat.h_norm == 0.0

    def test_seeded_instance_against_brute_force(self):
        rng = np.random.default_rng(42)
        n = 100
        x = rng.uniform(size=(n, 1))
        g = 2.0 * np.exp(-x[:, 0] ** 2)
        y = g + rng.normal(0.0, 0.1, size=n)
        data = Dataset(x=x, y=y)
        kernel = GaussianKernel(1.0, 1)
        grid = radius_grid(1.0, 0.5, n)
        cfg = _config(tau=0.8, nu=0.5, sigma=0.1, k_diag=1.0)
        result = select_radius(data, kernel, grid, cfg)
        preds = [f.train_pred for f in fit_radius_path(data, kernel, list(grid))]
        _, r_hat = naive_fixed_criterion(preds, list(grid), cfg.tau, cfg.nu, n)
        assert result.r_hat == r_hat

    def test_brute_force_equivalence_many_seeds(self):
        kernel = GaussianKernel(1.0, 1)
        for seed in range(50):
            rng = np.random.default_rng(1000 + seed)
            n = int(rng.integers(4, 25))
            data = Dataset(x=rng.uniform(size=(n, 1)), y=rng.normal(size=n))
            grid = radius_grid(1.0, float(rng.uniform(0.3, 1.0)), n)
            if len(grid) > 60:
                continue
            cfg = _quiet_config(float(rng.uniform(0.1, 2.0)), float(rng.uniform(0.1, 1.5)),
                                0.1, 1.0)
            result = select_radius(data, kernel, grid, cfg)
            preds = [f.train_pred for f in fit_radius_path(data, kernel, list(grid))]
            rows, r_hat = naive_fixed_criterion(preds, list(grid), cfg.tau, cfg.nu, n)
            assert result.r_hat == r_hat
            for mine, ref in zip(result.criterion, rows):
                assert mine.bias_proxy == pytest.approx(ref[1], abs=1e-10)
                assert mine.total == pytest.approx(ref[3], abs=1e-10)

    def test_selected_fit_comes_from_table(self, rng):
        data = Dataset(x=rng.uniform(size=(10, 1)), y=rng.normal(size=10))
        cfg = _config(tau=0.5, nu=0.5)
        grid = radius_grid(1.0, 0.5, 10)
        result = select_radius(data, GaussianKernel(1.0, 1), grid, cfg)
        assert result.fit_hat.r == result.r_hat
        assert result.r_hat in set(grid)
        ref = fit_radius_path(data, GaussianKernel(1.0, 1), grid)[grid.index(result.r_hat)]
        assert result.fit_hat.mu == ref.mu
        assert np.array_equal(result.fit_hat.coeffs, ref.coeffs)
        assert np.array_equal(result.fit_hat.train_pred, ref.train_pred)
        assert result.gamma_hat is None
        assert all(row.gamma is None for row in result.criterion)

    def test_translation_far_from_origin_keeps_the_selection(self):
        # The kernel depends on x - x' alone.  Shifting 300 points in the unit
        # cube by 1000 rounds each coordinate by up to 5.7e-14; over seeds
        # 0-19 the fitted values then moved by at most 3.7e-13, so 1e-12 is
        # the bound.
        rng = np.random.default_rng(0)
        x = rng.uniform(size=(300, 3))
        y = np.sin(3.0 * x.sum(axis=1)) + 0.1 * rng.normal(size=300)
        kernel = GaussianKernel(1.0, 3)
        grid = radius_grid(1.0, 0.5, 300)
        cfg = _quiet_config(0.05, 0.5, 0.1, kernel.diag_sup)
        near = select_radius(Dataset(x=x, y=y), kernel, grid, cfg)
        far = select_radius(Dataset(x=x + 1000.0, y=y), kernel, grid, cfg)
        assert near.r_hat > 0.0 and far.r_hat == near.r_hat
        assert np.abs(far.fit_hat.train_pred - near.fit_hat.train_pred).max() <= 1e-12


@st.composite
def _comparison_tables(draw):
    """(W, R, n) fitted values with repeated and zero rows, scales with zeros, a coef."""
    w, r, n = draw(st.integers(1, 4)), draw(st.integers(1, 8)), draw(st.integers(1, 20))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pool = rng.uniform(-2.0, 2.0, size=(draw(st.integers(1, w * r)), n))
    if draw(st.booleans()):
        pool[0] = 0.0
    preds = pool[rng.integers(0, len(pool), size=(w, r))]
    scales = rng.uniform(0.0, 2.0, size=(w, r))
    scales[rng.uniform(size=(w, r)) < draw(st.floats(0.0, 1.0))] = 0.0
    return preds, scales, draw(st.floats(0.0, 4.0))


def _random_design(rng, n, d, design):
    return rng.uniform(size=(n, d)) if design == "uniform" else rng.normal(size=(n, d))


class TestSelectionProperties:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 120), d=st.integers(1, 3),
           gamma=st.floats(0.2, 3.0), tau=st.floats(0.05, 3.0),
           design=st.sampled_from(["uniform", "normal"]))
    def test_row_permutation(self, seed, n, d, gamma, tau, design):
        # Permuting the rows permutes the selected coefficients and keeps r_hat,
        # unless the two cells' totals tie to 1e-9.  The pivot order changes
        # with the row order (ties on the constant diagonal go to the first
        # row), so fits agree only to the tolerances of the decomposition's
        # oracle test: 1e-4 of the radius in the function-space norm, 1e-7 of
        # max|y| in fitted values.
        rng = np.random.default_rng(seed)
        x = _random_design(rng, n, d, design)
        y = np.sin(3.0 * x.sum(axis=1)) + 0.3 * rng.normal(size=n)
        kernel = GaussianKernel(gamma, d)
        cfg = _quiet_config(tau, 0.5, 0.3, kernel.diag_sup)
        grid = radius_grid(1.0, 0.5, n)
        perm = rng.permutation(n)
        a = select_radius(Dataset(x=x, y=y), kernel, grid, cfg)
        b = select_radius(Dataset(x=x[perm], y=y[perm]), kernel, grid, cfg)
        if a.r_hat != b.r_hat:
            totals = {row.r: row.total for row in a.criterion}
            assert abs(totals[a.r_hat] - totals[b.r_hat]) <= 1e-9
            return
        dc = a.fit_hat.coeffs[perm] - b.fit_hat.coeffs
        k = gram(kernel, x[perm])
        assert math.sqrt(max(float(dc @ k @ dc), 0.0)) <= 1e-4 * a.r_hat
        assert np.abs(a.fit_hat.train_pred[perm] - b.fit_hat.train_pred).max() \
            <= 1e-7 * np.abs(y).max()

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 120), d=st.integers(1, 3),
           gamma=st.floats(0.2, 3.0), tau=st.floats(0.01, 5.0), nu=st.floats(0.05, 2.0),
           y_scale=st.floats(1e-3, 1e3), design=st.sampled_from(["uniform", "normal"]))
    def test_totals_respect_floor(self, seed, n, d, gamma, tau, nu, y_scale, design):
        # Each cell is its own comparison partner at distance exactly 0, so its
        # total is at least 2 * nu * tau * r / sqrt(n).
        rng = np.random.default_rng(seed)
        data = Dataset(x=_random_design(rng, n, d, design), y=y_scale * rng.normal(size=n))
        kernel = GaussianKernel(gamma, d)
        cfg = _quiet_config(tau, nu, 0.1, kernel.diag_sup)
        result = select_radius(data, kernel, radius_grid(1.0, 0.5, n), cfg)
        for row in result.criterion:
            floor = 2.0 * nu * tau * row.r / math.sqrt(n)
            assert row.total >= floor - 1e-12 * max(1.0, floor)


class TestComparisonExcess:
    @settings(max_examples=200, deadline=None)
    @given(table=_comparison_tables())
    def test_matches_loop_oracle(self, table):
        preds, scales, coef = table
        out = comparison_excess(preds, scales, coef)
        ref = np.asarray(naive_comparison_excess(preds.tolist(), scales.tolist(), coef))
        assert out.shape == scales.shape
        tol = 1e-12 * (1.0 + float(np.max(np.mean(preds**2, axis=2))))
        assert np.max(np.abs(out - ref)) <= tol
        # The cell itself is a partner at distance exactly 0.
        assert np.all(out >= -(coef * (scales + scales)))

    def test_excess_of_both_signs(self):
        rng = np.random.default_rng(5)
        preds = rng.normal(size=(3, 5, 7))
        scales = rng.uniform(0.0, 1.0, size=(3, 5))
        out = comparison_excess(preds, scales, 2.0)
        ref = np.asarray(naive_comparison_excess(preds.tolist(), scales.tolist(), 2.0))
        assert np.any(ref > 0.0) and np.any(ref < 0.0)
        # The product form and the loop are different calls that agree within a
        # rounding bound; every value lies farther from 0, so their signs agree.
        tol = 1e-12 * (1.0 + np.max(np.mean(preds**2, axis=2)))
        assert np.max(np.abs(out - ref)) <= tol < np.min(np.abs(ref))

    def test_single_cell_is_its_own_partner(self):
        out = comparison_excess(np.full((1, 1, 4), 3.0), [[0.5]], 2.0)
        assert out.tolist() == [[-2.0]]
