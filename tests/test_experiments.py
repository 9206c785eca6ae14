import math
import warnings

import numpy as np
import pytest

from conftest import loop_gauss_majorant_indicators, loop_majorant_indicators
from rkhsball.errors import InputError
from rkhsball.estimator import fit_constrained
from rkhsball.experiments import (
    ExperimentRecord,
    HatTarget,
    RkhsTarget,
    ScenarioConfig,
    SelectionSettings,
    bias_event_check,
    default_scenario,
    gauss_majorant_event_check,
    generate,
    holdout_sq_error,
    majorant_event_check,
    oracle_gap_check,
    quadform_tail_check,
    rate_experiment,
    replicate_rng,
    wilson_interval,
    write_csv,
    write_records_csv,
    write_summary_json,
)
from rkhsball.kernels import GaussianKernel, cross_gram, gaussian_eval, gram, width_grid
from rkhsball.selection_fixed import radius_grid


class ConstantTarget:
    """Test stub: g identically equal to a constant."""

    def __init__(self, value):
        self.value = value

    def evaluate(self, x):
        return np.full(np.atleast_2d(np.asarray(x)).shape[0], self.value)


class LinearTarget:
    """Test stub: g(x) = first coordinate."""

    def evaluate(self, x):
        return np.atleast_2d(np.asarray(x))[:, 0]


class TestTargets:
    def test_rkhs_norm_recomputed_independently(self):
        target = RkhsTarget(gamma0=0.8, centers=[[0.1], [0.5], [0.9]],
                            weights=[1.0, -0.5, 0.25])
        acc = 0.0
        for wi, zi in zip(target.weights, target.centers):
            for wj, zj in zip(target.weights, target.centers):
                acc += wi * wj * gaussian_eval(0.8, 1, zi, zj)
        assert target.h_norm == pytest.approx(math.sqrt(acc), abs=1e-10)

    def test_sup_bound_dominates_samples(self, rng):
        target = RkhsTarget(gamma0=1.0, centers=[[0.2], [0.7]], weights=[1.5, -2.0])
        x = rng.uniform(-2, 3, size=(5000, 1))
        assert np.abs(target.evaluate(x)).max() <= target.sup_bound + 1e-12

    def test_default_scenario_norm_two(self):
        scen = default_scenario()
        assert scen.target.h_norm == pytest.approx(2.0, abs=1e-12)
        assert scen.target.sup_bound == pytest.approx(2.0, abs=1e-12)

    def test_hat_target(self):
        target = HatTarget(slope=1.5, center=(0.5,))
        vals = target.evaluate([[0.5], [1.0], [3.0]])
        assert vals == pytest.approx([1.5, 0.75, 0.0])

    def test_mismatched_weights(self):
        with pytest.raises(InputError):
            RkhsTarget(gamma0=1.0, centers=[[0.0]], weights=[1.0, 2.0])


class TestGenerate:
    def test_deterministic(self):
        scen = default_scenario(n=25, master_seed=9)
        a = generate(scen, 3)
        b = generate(scen, 3)
        assert np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y)

    def test_replicates_differ(self):
        scen = default_scenario(n=25, master_seed=9)
        a = generate(scen, 0)
        b = generate(scen, 1)
        assert not np.array_equal(a.y, b.y)

    def test_vanishing_noise_equals_target(self):
        scen = default_scenario(n=30, sigma=1e-300)
        data = generate(scen, 0)
        assert np.array_equal(data.y, scen.target.evaluate(data.x))

    def test_rademacher_residuals(self):
        target = RkhsTarget(gamma0=1.0, centers=[[0.5]], weights=[2.0])
        scen = ScenarioConfig(n=50, d=1, target=target, noise="rademacher", sigma=0.3)
        data = generate(scen, 0)
        resid = data.y - scen.target.evaluate(data.x)
        assert set(np.round(resid, 12)) <= {0.3, -0.3}

    def test_designs(self):
        target = RkhsTarget(gamma0=1.0, centers=[[0.0, 0.0]], weights=[1.0])
        cube = ScenarioConfig(n=200, d=2, target=target, design="uniform-cube")
        assert np.all((generate(cube, 0).x >= 0.0) & (generate(cube, 0).x <= 1.0))
        normal = ScenarioConfig(n=200, d=2, target=target, design="standard-normal")
        assert np.abs(generate(normal, 0).x).max() > 1.0

    def test_invalid_scenarios(self):
        target = RkhsTarget(gamma0=1.0, centers=[[0.5]], weights=[2.0])
        with pytest.raises(InputError):
            ScenarioConfig(n=10, target=target, design="poisson")
        with pytest.raises(InputError):
            ScenarioConfig(n=10, target=target, noise="cauchy")
        with pytest.raises(InputError):
            ScenarioConfig(n=10, target=None)


class TestHoldout:
    def test_exact_representation_gives_zero(self):
        target = RkhsTarget(gamma0=1.0, centers=[[0.5]], weights=[2.0])
        scen = ScenarioConfig(n=10, d=1, target=target, c=2.0)
        kernel = GaussianKernel(1.0, 1)
        x_train = np.array([[0.5]])
        k = gram(kernel, x_train)
        fit = fit_constrained(k, target.evaluate(x_train), 2.0)
        err = holdout_sq_error(fit, kernel, x_train, scen, c=2.0, n_test=500)
        assert err.mean <= 1e-20

    def test_zero_fit_constant_target(self):
        scen = ScenarioConfig(n=5, d=1, target=ConstantTarget(1.0), c=1.5)
        kernel = GaussianKernel(1.0, 1)
        x_train = np.array([[0.5]])
        fit = fit_constrained(gram(kernel, x_train), np.array([0.0]), 0.0)
        err = holdout_sq_error(fit, kernel, x_train, scen, c=1.5, n_test=200)
        assert err.mean == pytest.approx(1.0, abs=1e-12)
        assert err.stderr == pytest.approx(0.0, abs=1e-12)

    def test_zero_fit_linear_target_third(self):
        # E[x^2] = 1/3 for x uniform on [0, 1].
        scen = ScenarioConfig(n=5, d=1, target=LinearTarget(), c=2.0)
        kernel = GaussianKernel(1.0, 1)
        x_train = np.array([[0.5]])
        fit = fit_constrained(gram(kernel, x_train), np.array([0.0]), 0.0)
        err = holdout_sq_error(fit, kernel, x_train, scen, c=2.0, n_test=200000,
                               rng=replicate_rng(1, 0, stream=1))
        assert abs(err.mean - 1.0 / 3.0) <= 5.0 * err.stderr

    def test_row_blocks_match_full_matrix(self):
        # 40 training points put 20 001 holdout rows in four blocks, the last partial.
        scen = default_scenario(n=40)
        data = generate(scen, 0)
        kernel = GaussianKernel(0.5, 1)
        fit = fit_constrained(gram(kernel, data.x), data.y, 1.0)
        err = holdout_sq_error(fit, kernel, data.x, scen, c=scen.c, n_test=20001,
                               rng=replicate_rng(2, 0, stream=1))
        x_new = replicate_rng(2, 0, stream=1).uniform(0.0, 1.0, size=(20001, 1))
        preds = np.clip(cross_gram(kernel, data.x, x_new) @ fit.coeffs, -scen.c, scen.c)
        sq = (preds - scen.target.evaluate(x_new)) ** 2
        assert err.mean == pytest.approx(sq.mean(), rel=1e-12)
        assert err.stderr == pytest.approx(sq.std(ddof=1) / math.sqrt(20001), rel=1e-12)

    def test_clipped_error_bounded(self):
        scen = default_scenario(n=10)
        kernel = GaussianKernel(1.0, 1)
        x_train = np.array([[0.5]])
        fit = fit_constrained(gram(kernel, x_train), np.array([50.0]), 100.0)
        err = holdout_sq_error(fit, kernel, x_train, scen, c=scen.c, n_test=500)
        assert err.mean <= (2.0 * scen.c) ** 2


class TestWilson:
    def test_against_direct_formula(self):
        z = 1.959963984540054
        for successes, trials in [(316, 500), (0, 20), (20, 20), (7, 9)]:
            phat = successes / trials
            denom = 1 + z * z / trials
            center = (phat + z * z / (2 * trials)) / denom
            half = z * math.sqrt(phat * (1 - phat) / trials + z * z / (4 * trials**2)) / denom
            lo, hi = wilson_interval(successes, trials)
            assert lo == pytest.approx(max(0.0, center - half), abs=1e-12)
            assert hi == pytest.approx(min(1.0, center + half), abs=1e-12)

    def test_interval_orders(self):
        lo, hi = wilson_interval(450, 500)
        assert 0.0 <= lo <= 450 / 500 <= hi <= 1.0


class TestEventChecks:
    def test_zero_target_tiny_noise_frequency_one(self):
        target = RkhsTarget(gamma0=1.0, centers=[[0.5]], weights=[0.0])
        scen = ScenarioConfig(n=25, d=1, target=target, sigma=1e-12, replicates=10)
        grid = radius_grid(1.0, 1.0, 25)
        rep = bias_event_check(scen, grid, 1.0)
        assert rep.frequency == 1.0
        rep = majorant_event_check(scen, grid, 1.0)
        assert rep.frequency == 1.0 and rep.passed
        assert rep.indicators == loop_majorant_indicators(scen, grid, 1.0)

    def test_majorant_small_scenario(self):
        scen = default_scenario(n=60, replicates=25, master_seed=21)
        grid = radius_grid(1.0, 1.0, 60)
        rep = majorant_event_check(scen, grid, 1.0)
        assert rep.floor == pytest.approx(1.0 - math.exp(-1.0))
        assert rep.replicates == 25 and len(rep.indicators) == 25
        assert rep.passed
        assert rep.indicators == loop_majorant_indicators(scen, grid, 1.0)

    def test_bias_small_scenario(self):
        scen = default_scenario(n=60, replicates=25, master_seed=22)
        rep = bias_event_check(scen, radius_grid(1.0, 1.0, 60), 4.0)
        assert rep.floor == pytest.approx(1.0 - math.exp(-4.0))
        assert rep.passed

    def test_gauss_majorant_small_scenario(self):
        scen = default_scenario(n=60, replicates=20, master_seed=23)
        widths, grid = width_grid(0.5, 2.0, 2.0), radius_grid(1.0, 1.0, 60)
        rep = gauss_majorant_event_check(scen, widths, grid, 1.0)
        assert rep.passed and rep.name == "gauss-majorant"
        assert rep.indicators == loop_gauss_majorant_indicators(scen, widths, grid, 1.0)

    def test_gauss_majorant_failing_events_match_loop(self):
        # A chaining constant far below its bound makes some events fail.
        scen = default_scenario(n=60, replicates=20, master_seed=23)
        widths, grid = width_grid(0.5, 2.0, 2.0), radius_grid(1.0, 1.0, 60)
        rep = gauss_majorant_event_check(scen, widths, grid, 1.0, j_const=1e-4)
        assert 0 < rep.successes < rep.replicates
        assert rep.indicators == loop_gauss_majorant_indicators(scen, widths, grid, 1.0,
                                                                j_const=1e-4)

    @pytest.mark.parametrize("check", ["majorant", "bias", "gauss-majorant", "oracle-gap"])
    @pytest.mark.parametrize("replicates", [0, -3])
    def test_replicates_below_one_rejected(self, check, replicates):
        scen = default_scenario(n=10, replicates=2)
        grid = radius_grid(1.0, 1.0, 10)
        calls = {
            "majorant": lambda: majorant_event_check(scen, grid, 1.0, replicates=replicates),
            "bias": lambda: bias_event_check(scen, grid, 1.0, replicates=replicates),
            "gauss-majorant": lambda: gauss_majorant_event_check(
                scen, width_grid(0.5, 2.0, 2.0), grid, 1.0, replicates=replicates),
            "oracle-gap": lambda: oracle_gap_check(scen, SelectionSettings(),
                                                   replicates=replicates),
        }
        with pytest.raises(InputError, match="replicates must be at least 1"):
            calls[check]()

    def test_requires_rkhs_target(self):
        scen = ScenarioConfig(n=20, d=1, target=HatTarget(slope=1.0), sigma=0.1)
        with pytest.raises(InputError):
            majorant_event_check(scen, radius_grid(1.0, 1.0, 20), 1.0)

    def test_requires_t_at_least_one(self):
        scen = default_scenario(n=20, replicates=5)
        with pytest.raises(InputError):
            majorant_event_check(scen, radius_grid(1.0, 1.0, 20), 0.5)

    def test_threaded_matches_serial(self):
        scen = default_scenario(n=40, replicates=12, master_seed=31)
        grid = radius_grid(1.0, 1.0, 40)
        serial = majorant_event_check(scen, grid, 1.0, threads=1)
        threaded = majorant_event_check(scen, grid, 1.0, threads=4)
        assert serial.indicators == threaded.indicators


class TestRateExperiment:
    def test_zero_target_degenerate(self):
        target = RkhsTarget(gamma0=1.0, centers=[[0.5]], weights=[0.0])
        scen = ScenarioConfig(n=10, d=1, target=target, sigma=1e-300, replicates=3,
                              holdout_size=50)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            rep = rate_experiment(scen, [8, 12, 16, 24], SelectionSettings(tau=1.0))
        assert rep.degenerate and rep.slope is None
        assert all(m <= 1e-12 for m in rep.medians)

    def test_records_shape_and_reproducibility(self):
        scen = default_scenario(n=10, replicates=3, master_seed=77, holdout_size=100)
        settings = SelectionSettings()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            a = rate_experiment(scen, [8, 12, 16, 24], settings)
            b = rate_experiment(scen, [8, 12, 16, 24], settings, threads=3)
        assert a.records == b.records
        assert len(a.records) == 4 * 3
        assert {r.n for r in a.records} == {8, 12, 16, 24}

    def test_needs_four_ascending_sizes(self):
        scen = default_scenario(n=10, replicates=2)
        with pytest.raises(InputError):
            rate_experiment(scen, [10, 20, 30], SelectionSettings())
        with pytest.raises(InputError):
            rate_experiment(scen, [10, 20, 20, 30], SelectionSettings())


class TestOracleGap:
    def test_ratio_at_least_one_and_fraction(self):
        scen = default_scenario(n=40, replicates=10, master_seed=13, holdout_size=400)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            rep = oracle_gap_check(scen, SelectionSettings())
        assert rep.replicates == 10
        for rec in rep.records:
            assert rec.err_adaptive >= rec.err_oracle_grid - 1e-15
        assert 0.0 <= rep.fraction_within <= 1.0

    def test_zero_noise_well_specified_ratio_one(self):
        target = RkhsTarget(gamma0=1.0, centers=[[0.5]], weights=[0.0])
        scen = ScenarioConfig(n=12, d=1, target=target, sigma=1e-300, replicates=4,
                              holdout_size=100)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            rep = oracle_gap_check(scen, SelectionSettings(tau=1.0))
        assert rep.fraction_within == 1.0 and rep.passed


class TestQuadform:
    def test_diagonal_matrix_mean_one(self):
        rep = quadform_tail_check(4, 1.0, replicates=500, m=np.diag([1.0, 2.0, 3.0, 4.0]))
        assert rep.sample_mean == 1.0 and rep.passed

    def test_scale_invariant_in_sigma(self):
        # Both the quadratic form and its normaliser scale with sigma^2, so
        # the checked statistic does not depend on sigma.
        small = quadform_tail_check(10, 1e-8, replicates=2000, master_seed=3)
        unit = quadform_tail_check(10, 1.0, replicates=2000, master_seed=3)
        assert small.sample_mean == pytest.approx(unit.sample_mean, rel=1e-9)
        assert small.passed and unit.passed

    def test_gaussian_gram_run(self):
        rep = quadform_tail_check(15, 1.0, t_list=[1.0, 4.0], replicates=20000,
                                  master_seed=5)
        assert rep.sample_mean <= 2.0 + 3.0 * rep.stderr
        assert len(rep.tails) == 2
        for tail in rep.tails:
            assert tail.passed

    def test_reproducible(self):
        a = quadform_tail_check(8, 0.5, replicates=1000, master_seed=11)
        b = quadform_tail_check(8, 0.5, replicates=1000, master_seed=11)
        assert a.sample_mean == b.sample_mean and a.scale == b.scale

    def test_input_validation(self):
        with pytest.raises(InputError):
            quadform_tail_check(1, 1.0)
        with pytest.raises(InputError):
            quadform_tail_check(4, 0.0)
        for replicates in (-3, 0, 1):
            with pytest.raises(InputError, match="replicates must be at least 2"):
                quadform_tail_check(4, 1.0, replicates=replicates)


class TestOutputs:
    def test_records_csv_layout(self, tmp_path):
        rec = ExperimentRecord(replicate=0, n=10, gamma_hat=None, r_hat=0.5,
                               err_adaptive=0.1, err_oracle_grid=None,
                               event_bias=None, event_majorant=1, seed=42)
        path = tmp_path / "records.csv"
        write_records_csv(path, [rec])
        text = path.read_text()
        lines = text.splitlines()
        assert lines[0] == "replicate,n,gamma_hat,r_hat,err_adaptive,err_oracle_grid," \
                           "event_bias,event_majorant,seed"
        assert lines[1] == "0,10,,0.5,0.10000000000000001,,,1,42"

    def test_csv_cells(self, tmp_path):
        path = tmp_path / "table.csv"
        write_csv(path, ("a", "b", "c", "d", "e"),
                  [(0.1, None, 3, np.float64(1e-300), "x"), (2.0, -0.0, True, 1.5, "")])
        assert path.read_bytes() == (b"a,b,c,d,e\n0.10000000000000001,,3,1e-300,x\n"
                                     b"2,-0,True,1.5,\n")

    def test_summary_json_format(self, tmp_path):
        path = tmp_path / "s.json"
        write_summary_json(path, {"a": 0.1, "b": None, "c": [1, 2.5], "d": {"e": True},
                                  "f": "text"})
        text = path.read_text()
        assert '"a": 0.10000000000000001' in text
        assert '"b": null' in text
        assert '"d": {"e": true}' in text
        import json
        parsed = json.loads(text)
        assert parsed["a"] == 0.1 and parsed["c"] == [1, 2.5]
