import dataclasses
import math
import warnings
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (gaussian_eval, holdout_sq_error, loop_gauss_majorant_indicators,
                      loop_majorant_indicators)
from rkhsball import experiments, selection_fixed
from rkhsball.cli import _records_table, write_output
from rkhsball.data import Dataset
from rkhsball.errors import InputError
from rkhsball.estimator import _pivoted_cholesky, eigen_gram, fit_constrained
from rkhsball.experiments import (
    ExperimentRecord,
    HatTarget,
    RkhsTarget,
    ScenarioConfig,
    SelectionSettings,
    bias_event_check,
    default_scenario,
    event_suite,
    gauss_majorant_event_check,
    generate,
    majorant_event_check,
    oracle_gap_check,
    quadform_tail_check,
    rate_experiment,
    replicate_rng,
    wilson_interval,
)
from rkhsball.kernels import GaussianKernel, cross_gram, gram, width_grid
from rkhsball.selection_fixed import fit_radius_path, radius_grid, select_radius


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

    @pytest.mark.parametrize("gamma0, centers, weights, field", [
        pytest.param(1.0, [[0.5]], "abc", "weights", id="centers0-abc-weights"),
        pytest.param(1.0, "x", [2.0], "centers", id="x-weights1-centers"),
        pytest.param(1.0, [[0.5]], [math.nan], "weights", id="centers2-weights2-weights"),
        pytest.param(1.0, [[math.inf]], [2.0], "centers", id="centers3-weights3-centers"),
        pytest.param(1.0, [[0.5], [0.1, 0.2]], [1.0, 1.0], "centers",
                     id="centers4-weights4-centers"),
        pytest.param(1.0, [[0.5]], ["2.0"], "weights", id="weights-quoted"),
        pytest.param(1.0, [[True]], [2.0], "centers", id="centers-bool"),
        pytest.param("abc", [[0.5]], [2.0], "gamma0", id="gamma0-abc"),
        pytest.param(math.nan, [[0.5]], [2.0], "gamma0", id="gamma0-nan"),
        pytest.param(math.inf, [[0.5]], [2.0], "gamma0", id="gamma0-inf"),
        pytest.param(0.0, [[0.5]], [2.0], "gamma0", id="gamma0-zero"),
    ])
    def test_rkhs_arrays_must_be_finite_numbers(self, gamma0, centers, weights, field):
        with pytest.raises(InputError, match=f"target {field} must be"):
            RkhsTarget(gamma0=gamma0, centers=centers, weights=weights)

    @pytest.mark.parametrize("slope, center, field", [
        (1.0, 5, "center"), (1.0, "ab", "center"), (1.0, [[0.5]], "center"),
        (1.0, [math.nan], "center"), (math.nan, None, "slope"), ("x", None, "slope"),
        (1.0, [1, "0.5"], "center"), (1.0, [True], "center"), ([2.0], None, "slope"),
        (True, None, "slope"), ("1.5", None, "slope"), (b"2", None, "slope"),
    ])
    def test_hat_values_must_be_finite_numbers(self, slope, center, field):
        with pytest.raises(InputError, match=f"target {field} must be"):
            HatTarget(slope=slope, center=center)

    def test_hat_center_stored_as_floats(self):
        target = HatTarget(slope=1.0, center=[1, 0.5])
        assert target.center == (1.0, 0.5) and target.dim == 2
        assert HatTarget(slope=1.0).dim is None

    @pytest.mark.parametrize("target", [
        HatTarget(slope=1.0, center=(0.5, 0.5)),
        RkhsTarget(gamma0=1.0, centers=[[0.5, 0.5]], weights=[2.0]),
    ])
    def test_scenario_rejects_target_of_another_dimension(self, target):
        with pytest.raises(InputError, match="target has dimension 2 but the scenario has d = 1"):
            ScenarioConfig(n=10, d=1, target=target)
        assert ScenarioConfig(n=10, d=2, target=target).target is target


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
        for name in ("n", "d", "replicates", "holdout_size"):
            with pytest.raises(InputError, match=f"^{name} must be at least 1, got 0$"):
                ScenarioConfig(**{"n": 10, name: 0}, target=target)

    @pytest.mark.parametrize("name,value", [
        ("replicates", 2.5), ("n", 10.5), ("replicates", "3"), ("holdout_size", 20.5),
        ("master_seed", 1.5), ("n", True), ("d", 1.5),
    ])
    def test_integer_fields_must_be_integers(self, name, value):
        target = RkhsTarget(gamma0=1.0, centers=[[0.5]], weights=[2.0])
        with pytest.raises(InputError, match=f"^{name} must be an integer, got {value!r}$"):
            ScenarioConfig(**{"n": 10, name: value}, target=target)
        ScenarioConfig(**{"n": 10, name: np.int64(1)}, target=target)  # numpy integers count


def product_spy(calls):
    """A stand-in for ``experiments.cross_gram`` that appends ``[points, x_block]``
    to ``calls`` for each kernel block it builds, then the values of the
    product the caller takes from that block."""

    class Block(np.ndarray):
        """A kernel block that records the values the caller takes from it."""

        def __matmul__(self, weights):
            values = np.asarray(self) @ weights
            calls[-1].append(values.copy())
            return values

    def spy(kern, points, x_block):
        calls.append([points, x_block])
        return cross_gram(kern, points, x_block).view(Block)

    return spy


class TestHoldout:
    def test_exact_representation_gives_zero(self):
        target = RkhsTarget(gamma0=1.0, centers=[[0.5]], weights=[2.0])
        scen = ScenarioConfig(n=10, d=1, target=target, c=2.0)
        kernel = GaussianKernel(1.0, 1)
        x_train = np.array([[0.5]])
        k = gram(kernel, x_train)
        fit = fit_constrained(eigen_gram(k, target.evaluate(x_train)), [2.0])[0]
        err = holdout_sq_error(fit, kernel, x_train, dataclasses.replace(scen, holdout_size=500))
        assert err.mean <= 1e-20

    def test_zero_fit_constant_target(self):
        scen = ScenarioConfig(n=5, d=1, target=ConstantTarget(1.0), c=1.5)
        kernel = GaussianKernel(1.0, 1)
        x_train = np.array([[0.5]])
        fit = fit_constrained(eigen_gram(gram(kernel, x_train), np.array([0.0])), [0.0])[0]
        err = holdout_sq_error(fit, kernel, x_train, dataclasses.replace(scen, holdout_size=200))
        assert err.mean == pytest.approx(1.0, abs=1e-12)
        assert err.stderr == pytest.approx(0.0, abs=1e-12)

    def test_zero_fit_linear_target_third(self):
        # E[x^2] = 1/3 for x uniform on [0, 1].
        scen = ScenarioConfig(n=5, d=1, target=LinearTarget(), c=2.0)
        kernel = GaussianKernel(1.0, 1)
        x_train = np.array([[0.5]])
        fit = fit_constrained(eigen_gram(gram(kernel, x_train), np.array([0.0])), [0.0])[0]
        err = holdout_sq_error(fit, kernel, x_train,
                               dataclasses.replace(scen, holdout_size=200000),
                               rng=replicate_rng(1, 0, stream=1))
        assert abs(err.mean - 1.0 / 3.0) <= 5.0 * err.stderr

    def test_row_blocks_match_full_matrix(self):
        # 40 training points put 20 001 holdout rows in four blocks, the last partial.
        scen = dataclasses.replace(default_scenario(n=40), holdout_size=20001)
        data = generate(scen, 0)
        kernel = GaussianKernel(0.5, 1)
        fits = fit_constrained(eigen_gram(gram(kernel, data.x), data.y), [0.5, 1.0])
        coeffs = np.stack([f.coeffs for f in fits], axis=1)
        calls = []
        with mock.patch.object(experiments, "cross_gram", product_spy(calls)):
            means = experiments._holdout_means(coeffs, kernel, data.x, scen,
                                               replicate_rng(2, 0, stream=1), None)
        # The target's own kernel products are not holdout blocks.
        blocks = [call for call in calls if call[0] is data.x]
        assert [len(x_block) for _, x_block, _ in blocks] == [6553, 6553, 6553, 342]
        x_new = np.vstack([x_block for _, x_block, _ in blocks])
        preds = np.vstack([values for _, _, values in blocks])
        # The means are mean(axis=0) of the clipped errors of the loop's own
        # block products, bit for bit.
        sq = (np.clip(preds, -scen.c, scen.c) - scen.target.evaluate(x_new)[:, None]) ** 2
        assert np.array_equal(means, sq.mean(axis=0))
        # A block product and the one full product are different BLAS calls; they
        # agree to within the full product's worst-case rounding,
        # n * eps * diag_sup * ||c||_1 per fit.
        bound = len(data.x) * np.finfo(float).eps * kernel.diag_sup * np.abs(coeffs).sum(axis=0)
        assert np.all(np.abs(preds - cross_gram(kernel, data.x, x_new) @ coeffs) <= bound)
        for fit, mean in zip(fits, means):
            err = holdout_sq_error(fit, kernel, data.x, scen, rng=replicate_rng(2, 0, stream=1))
            assert err.mean == pytest.approx(mean, rel=1e-12)

    def test_training_set_length_mismatch(self):
        scen = default_scenario(n=10)
        kernel = GaussianKernel(1.0, 1)
        x_train = np.array([[0.2], [0.5], [0.8]])
        fit = fit_constrained(eigen_gram(gram(kernel, x_train), np.ones(3)), [1.0])[0]
        with pytest.raises(InputError, match="3 coefficients but 2 training points"):
            holdout_sq_error(fit, kernel, x_train[:2], dataclasses.replace(scen, holdout_size=50))

    def test_clipped_error_bounded(self):
        scen = default_scenario(n=10)
        kernel = GaussianKernel(1.0, 1)
        x_train = np.array([[0.5]])
        fit = fit_constrained(eigen_gram(gram(kernel, x_train), np.array([50.0])), [100.0])[0]
        err = holdout_sq_error(fit, kernel, x_train, dataclasses.replace(scen, holdout_size=500))
        assert err.mean <= (2.0 * scen.c) ** 2


def full_holdout_means(scen, selection, replicate):
    """The grid's clipped holdout errors from the full cross-Gram, block by block
    as ``_holdout_means`` builds them, reduced by ``mean(axis=0)``."""
    data = generate(scen, replicate)
    kernel = selection.resolve_kernel(scen)
    grid = radius_grid(selection.grid_a, selection.grid_b, scen.n)
    result = select_radius(data, kernel, grid, selection.gl_config(kernel.diag_sup, scen.sigma))
    coeffs = np.stack([f.coeffs for f in fit_radius_path(data, kernel, grid)], axis=1)
    x_new = replicate_rng(scen.master_seed, replicate, stream=1).uniform(
        size=(scen.holdout_size, scen.d))
    g_new = scen.target.evaluate(x_new)
    step = experiments.HOLDOUT_BLOCK_ENTRIES // scen.n
    sq = np.vstack([(np.clip(cross_gram(kernel, data.x, x_new[s:s + step]) @ coeffs,
                             -scen.c, scen.c) - g_new[s:s + step, None]) ** 2
                    for s in range(0, scen.holdout_size, step)])
    return result.r_hat, list(grid), sq.mean(axis=0)


class TestPivotBasisHoldout:
    """The grid holdout through the pivoted-Cholesky (Nystrom) basis against the
    full cross-Gram."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 200), d=st.integers(1, 3),
           gamma=st.floats(0.2, 4.0))
    def test_within_rounding_bound_of_full_evaluation(self, seed, n, d, gamma):
        # Every holdout value within the full product's worst-case rounding,
        # n * eps * diag_sup * ||c||_1 per fit column, whichever path each block took.
        rng = np.random.default_rng(seed)
        x = rng.uniform(size=(n, d))
        data = Dataset(x=x, y=np.sin(3.0 * x.sum(axis=1)) + 0.1 * rng.normal(size=n))
        kernel = GaussianKernel(gamma, d)
        fits = fit_radius_path(data, kernel, radius_grid(1.0, 0.5, n))
        coeffs = np.stack([f.coeffs for f in fits], axis=1)
        basis = experiments._pivot_basis(gram(kernel, x), x, coeffs)
        # The tent target calls no kernel, so every cross-Gram below is the holdout's.
        scen = ScenarioConfig(n=n, d=d, target=HatTarget(1.0), holdout_size=10000)
        calls = []
        with mock.patch.object(experiments, "cross_gram", product_spy(calls)):
            experiments._holdout_means(coeffs, kernel, x, scen, rng, basis)
        # The first block is the full evaluation's, bit for bit.
        (points, first, values), *later = calls
        assert points is x
        assert np.array_equal(values, cross_gram(kernel, x, first) @ coeffs)
        # The check on the first block reads the basis, but its values are not kept.
        blocks = [call for call in later if call[1] is not first]
        assert sum(len(call[1]) for call in blocks) + len(first) == 10000
        bound = n * np.finfo(float).eps * kernel.diag_sup * np.abs(coeffs).sum(axis=0)
        for points, x_block, values in blocks:
            assert np.all(np.abs(values - cross_gram(kernel, x, x_block) @ coeffs) <= bound)

    def test_one_block_holdout_is_the_full_evaluation(self):
        # 40 training points take 6553 holdout rows per block.
        scen = default_scenario(n=40, replicates=3, master_seed=5, holdout_size=6553)
        selection = SelectionSettings()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            rep = oracle_gap_check(scen, selection)
            for rec in rep.records:
                r_hat, radii, means = full_holdout_means(scen, selection, rec.replicate)
                assert rec.r_hat == r_hat
                assert rec.err_adaptive == means[radii.index(r_hat)]
                assert rec.err_oracle_grid == means.min()

    @pytest.mark.parametrize("gamma,gives_up", [(1e-3, True), (1.0, False)])
    def test_fallback_is_the_full_evaluation(self, monkeypatch, gamma, gives_up):
        # Two holdout blocks at n = 40.  At width 1e-3 the Gram is nearly
        # 1000 * I and the Cholesky reaches its cap of 20 pivots, so there is no
        # basis.  At width 1.0 it finishes with about a dozen pivots, and every
        # weight is shifted by 1: each value then moves by at least the largest
        # kernel value at a pivot, far past the check's tolerance of
        # n * eps * diag_sup * ||c||_1 / 2, so the basis misses the first
        # block's full values and only that check reads it.  Either way both
        # blocks come from the full cross-Gram.
        taken, reads = [], []
        real_basis, real_cross = experiments._pivot_basis, experiments.cross_gram

        def basis(*args):
            real = real_basis(*args)
            taken.append(real if real is None else (real[0], real[1] + 1.0))
            return taken[-1]

        monkeypatch.setattr(experiments, "_pivot_basis", basis)

        def cross(kernel, points, x):
            reads.append(any(b is not None and points is b[0] for b in taken))
            return real_cross(kernel, points, x)

        monkeypatch.setattr(experiments, "cross_gram", cross)
        scen = default_scenario(n=40, replicates=2, master_seed=0)
        selection = SelectionSettings(kernel_gamma=gamma)
        kernel = selection.resolve_kernel(scen)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            rep = oracle_gap_check(scen, selection)
            assert [b is None for b in taken] == [gives_up, gives_up]
            assert sum(reads) == (0 if gives_up else 2)
            for rec in rep.records:
                x = generate(scen, rec.replicate).x
                factor = _pivoted_cholesky(gram(kernel, x), experiments.HOLDOUT_CHOLESKY_MARGIN)
                assert (factor is None) == gives_up
                r_hat, radii, means = full_holdout_means(scen, selection, rec.replicate)
                assert rec.err_adaptive == means[radii.index(r_hat)]
                assert rec.err_oracle_grid == means.min()

    def test_threaded_records_match_serial(self, monkeypatch):
        # 10 000 holdout points at n = 40 to 64 are two blocks, so the later
        # block goes through the pivot basis.
        taken = []
        real = experiments._pivot_basis
        monkeypatch.setattr(experiments, "_pivot_basis",
                            lambda *args: taken.append(real(*args)) or taken[-1])
        scen = default_scenario(n=40, replicates=4, master_seed=21)
        selection = SelectionSettings()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            gap = [oracle_gap_check(scen, selection, threads=t).records for t in (1, 3)]
            rates = [rate_experiment(dataclasses.replace(scen, replicates=2), [40, 48, 56, 64],
                                     selection, threads=t).records for t in (1, 3)]
        assert gap[0] == gap[1] and rates[0] == rates[1]
        assert len(taken) == 2 * (4 + 4 * 2) and any(f is not None for f in taken)


class TestPivotBasisWeights:
    def test_one_solve_per_replicate(self, monkeypatch):
        # 10 000 holdout points at n = 200 are eight blocks.  The pivot weights
        # take one solve per replicate, however many blocks they evaluate.
        # The record's one Gram serves both the selection and the pivot factor.
        solves, taken, grams = [], [], []
        real_solve, real_basis = np.linalg.solve, experiments._pivot_basis
        # Made before counting: the scenario's target builds a Gram of its own.
        scen = default_scenario(n=200, replicates=3, master_seed=0)
        monkeypatch.setattr(np.linalg, "solve",
                            lambda *args: solves.append(1) or real_solve(*args))
        monkeypatch.setattr(experiments, "_pivot_basis",
                            lambda *args: taken.append(real_basis(*args)) or taken[-1])
        for module in (experiments, selection_fixed):
            monkeypatch.setattr(module, "gram",
                                lambda *args: grams.append(1) or gram(*args))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            oracle_gap_check(scen, SelectionSettings())
        assert len(taken) == 3 and all(basis is not None for basis in taken)
        assert len(solves) == 3
        assert len(grams) == 3

    def test_gram_released_once_the_factor_exists(self, monkeypatch):
        # Every holdout cross-Gram, the first block's included, is built with
        # the record's Gram already freed.
        refs, alive = [], []
        real_basis, real_cross = experiments._pivot_basis, experiments.cross_gram

        def basis(train_gram, x_train, coeffs):
            refs.append(weakref.ref(train_gram))
            return real_basis(train_gram, x_train, coeffs)

        def cross(*args):
            alive.extend(ref() is not None for ref in refs)
            return real_cross(*args)

        monkeypatch.setattr(experiments, "_pivot_basis", basis)
        monkeypatch.setattr(experiments, "cross_gram", cross)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            oracle_gap_check(default_scenario(n=200, replicates=2, master_seed=0),
                             SelectionSettings())
        # Each replicate's holdout evaluates the target, eight blocks and the check.
        assert len(refs) == 2 and len(alive) >= 2 * 10 and not any(alive)


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

    @pytest.mark.parametrize("successes, trials, message", [
        (5, 3, "successes must be at most trials (3), got 5"),
        (-1, 3, "successes must be at least 0, got -1"),
        (1.5, 3, "successes must be an integer, got 1.5"),
        (True, 3, "successes must be an integer, got True"),
        (1, 0, "trials must be at least 1, got 0"),
        (1, 2.5, "trials must be an integer, got 2.5"),
        (1, False, "trials must be an integer, got False"),
    ])
    def test_bad_counts_rejected(self, successes, trials, message):
        with pytest.raises(InputError) as info:
            wilson_interval(successes, trials)
        assert str(info.value) == message

    def test_integral_counts_accepted(self):
        assert wilson_interval(np.int64(3), 4.0) == wilson_interval(3, 4)


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

    def test_one_width_family_is_the_fixed_check(self):
        # At gamma0 = 1 and d = 1 the width-family penalty scale gamma**(-d/2)*r is r,
        # and this J makes 84*J equal to 80*sqrt(k_diag).
        scen = default_scenario(n=60, replicates=20, master_seed=24)
        grid = radius_grid(1.0, 1.0, 60)
        j_const = 80.0 * math.sqrt(GaussianKernel(1.0, 1).diag_sup) / 84.0
        assert 84.0 * j_const == 80.0 * math.sqrt(GaussianKernel(1.0, 1).diag_sup)
        family = gauss_majorant_event_check(scen, width_grid(1.0, 1.0, 2.0), grid, 1.0,
                                            j_const=j_const)
        assert family.indicators == majorant_event_check(scen, grid, 1.0).indicators

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("case", ["default", "d2", "failing"])
    def test_suite_reports_are_the_checks(self, case, threads):
        widths, grid, j_const = width_grid(0.5, 2.0, 2.0), radius_grid(1.0, 0.5, 40), None
        if case == "default":
            scen = default_scenario(n=40, replicates=8, master_seed=41)
        elif case == "d2":
            target = RkhsTarget(gamma0=1.0, centers=[[0.2, 0.4], [0.7, 0.6]],
                                weights=[1.0, -0.7])
            scen = ScenarioConfig(n=40, d=2, target=target, replicates=8, master_seed=42)
        else:
            # The config of test_gauss_majorant_failing_events_match_loop.
            scen, grid, j_const = (default_scenario(n=60, replicates=20, master_seed=23),
                                   radius_grid(1.0, 1.0, 60), 1e-4)
        suite = event_suite(scen, widths, grid, 1.0, j_const=j_const, threads=threads)
        checks = {
            "bias": bias_event_check(scen, grid, 1.0, threads=threads),
            "majorant": majorant_event_check(scen, grid, 1.0, threads=threads),
            "gauss-majorant": gauss_majorant_event_check(scen, widths, grid, 1.0,
                                                         j_const=j_const, threads=threads),
        }
        assert sorted(suite) == sorted(checks)
        for name, rep in checks.items():
            assert suite[name].name == name
            assert suite[name] == rep
        if case == "failing":
            family = suite["gauss-majorant"]
            assert 0 < family.successes < family.replicates
            assert family.indicators == loop_gauss_majorant_indicators(scen, widths, grid, 1.0,
                                                                       j_const=j_const)
            assert suite["majorant"].indicators == loop_majorant_indicators(scen, grid, 1.0)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_suite_without_the_target_width_reports_the_family_event(self, threads):
        target = RkhsTarget(gamma0=0.7, centers=[[0.5]], weights=[1.5])
        scen = ScenarioConfig(n=40, d=1, target=target, replicates=8, master_seed=43)
        widths, grid = width_grid(0.5, 2.0, 2.0), radius_grid(1.0, 0.5, 40)
        suite = event_suite(scen, widths, grid, 1.0, threads=threads)
        family = gauss_majorant_event_check(scen, widths, grid, 1.0, threads=threads)
        assert list(suite) == ["gauss-majorant"]
        assert suite["gauss-majorant"] == family

    def test_suite_draws_once_and_fits_one_path_per_width(self, monkeypatch):
        calls = {"generate": [], "fit_radius_path": []}
        for name in calls:
            real = getattr(experiments, name)

            def counted(*args, _real=real, _name=name):
                calls[_name].append(args)
                return _real(*args)
            monkeypatch.setattr(experiments, name, counted)
        scen, grid = default_scenario(n=30, replicates=3), radius_grid(1.0, 1.0, 30)
        widths = width_grid(0.5, 2.0, 2.0)
        suite = event_suite(scen, widths, grid, 1.0)
        assert sorted(suite) == ["bias", "gauss-majorant", "majorant"]
        assert [args[1] for args in calls["generate"]] == [0, 1, 2]
        assert [args[1].gamma for args in calls["fit_radius_path"]] == list(widths) * 3
        # A fixed-kernel check runs the suite on the target width alone.
        calls["fit_radius_path"].clear()
        bias_event_check(scen, grid, 1.0)
        assert [args[1].gamma for args in calls["fit_radius_path"]] == [1.0] * 3

    @pytest.mark.parametrize("check", ["majorant", "bias", "gauss-majorant", "oracle-gap"])
    @pytest.mark.parametrize("replicates", [0, -3])
    def test_replicates_below_one_rejected(self, check, replicates):
        grid = radius_grid(1.0, 1.0, 10)
        calls = {
            "majorant": lambda scen: majorant_event_check(scen, grid, 1.0),
            "bias": lambda scen: bias_event_check(scen, grid, 1.0),
            "gauss-majorant": lambda scen: gauss_majorant_event_check(
                scen, width_grid(0.5, 2.0, 2.0), grid, 1.0),
            "oracle-gap": lambda scen: oracle_gap_check(scen, SelectionSettings()),
        }
        with pytest.raises(InputError, match="replicates must be at least 1"):
            calls[check](default_scenario(n=10, replicates=replicates))

    def test_requires_rkhs_target(self):
        scen = ScenarioConfig(n=20, d=1, target=HatTarget(slope=1.0), sigma=0.1)
        with pytest.raises(InputError):
            majorant_event_check(scen, radius_grid(1.0, 1.0, 20), 1.0)

    def test_requires_t_at_least_one(self):
        scen = default_scenario(n=20, replicates=5)
        for check in (majorant_event_check, bias_event_check):
            for t in (0.5, math.nan, math.inf):
                with pytest.raises(InputError):
                    check(scen, radius_grid(1.0, 1.0, 20), t)

    @pytest.mark.parametrize("j_const", [0.0, -1.0, math.nan])
    def test_gauss_majorant_rejects_nonpositive_chaining_constant(self, j_const):
        scen = default_scenario(n=20, replicates=5)
        expected = "finite" if math.isnan(j_const) else "greater than 0"
        with pytest.raises(InputError, match=f"^j_const must be {expected}, got {j_const!r}$"):
            gauss_majorant_event_check(scen, width_grid(0.5, 2.0, 2.0),
                                       radius_grid(1.0, 1.0, 20), 1.0, j_const=j_const)

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
    def test_diagonal_matrix_mean_one(self, monkeypatch):
        # The diagonal is removed from the form, so a diagonal Gram gives Z = 0.
        monkeypatch.setattr(experiments, "gram", lambda kernel, x: np.diag([1.0, 2.0, 3.0, 4.0]))
        rep = quadform_tail_check(4, 1.0, replicates=500)
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
        for t in (math.nan, math.inf):
            with pytest.raises(InputError, match="must be finite"):
                quadform_tail_check(4, 1.0, t_list=[1.0, t], replicates=100)


class TestOutputs:
    def test_records_csv_layout(self, tmp_path):
        rec = ExperimentRecord(replicate=0, n=10, gamma_hat=None, r_hat=0.5,
                               err_adaptive=0.1, err_oracle_grid=None, seed=42)
        path = tmp_path / "records.csv"
        write_output(path, _records_table([rec]))
        text = path.read_text()
        lines = text.splitlines()
        assert lines[0] == "replicate,n,gamma_hat,r_hat,err_adaptive,err_oracle_grid,seed"
        assert lines[1] == "0,10,,0.5,0.10000000000000001,,42"

    def test_csv_cells(self, tmp_path):
        path = tmp_path / "table.csv"
        write_output(path, (("a", "b", "c", "d", "e"),
                            [(0.1, None, 3, np.float64(1e-300), "x"), (2.0, -0.0, True, 1.5, "")]))
        assert path.read_bytes() == (b"a,b,c,d,e\n0.10000000000000001,,3,1e-300,x\n"
                                     b"2,-0,True,1.5,\n")

    def test_summary_json_format(self, tmp_path):
        path = tmp_path / "s.json"
        write_output(path, {"a": 0.1, "b": None, "c": [1, 2.5], "d": {"e": True},
                            "f": "text"})
        text = path.read_text()
        assert '"a": 0.10000000000000001' in text
        assert '"b": null' in text
        assert '"d": {"e": true}' in text
        import json
        parsed = json.loads(text)
        assert parsed["a"] == 0.1 and parsed["c"] == [1, 2.5]
