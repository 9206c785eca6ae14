import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    bisect_mu,
    conditioned_instance,
    full_eigen_gram,
    pgd_constrained_loss,
    pivots_needed,
    random_instance,
    rkhs_sq_distance,
    stable_radius_scale,
)
from rkhsball import estimator, selection_fixed
from rkhsball.data import Dataset
from rkhsball.errors import InputError, NumericalError
from rkhsball.estimator import (
    GramEigen,
    eigen_gram,
    empirical_sq_distance,
    fit_constrained,
    mu_of_r,
)
from rkhsball.kernels import GaussianKernel, gram, width_grid
from rkhsball.selection_fixed import radius_grid

K1 = np.array([[1.0]])


def synthetic_eigen(values, proj):
    """GramEigen with the positive leading entries of the given spectrum, n =
    len(values); the solver reads only the vectors' row count."""
    n, rank = values.shape[0], int(np.count_nonzero(values > 0))
    values, proj = values[:rank], proj[:rank]
    rho = math.sqrt(float(np.sum(proj**2 / values)))
    return GramEigen(vectors=np.zeros((n, 0)), values=values, proj=proj, rho=rho)


# mu_of_r's two evaluators, each forced by the rank threshold: every spectrum is
# solved in numpy arrays at SCALAR_RANK = 0 and in Python floats at sys.maxsize.
PATHS = {"arrays": 0, "floats": sys.maxsize}


def on_both_paths(monkeypatch):
    """Yield each evaluator's name with mu_of_r forced onto it."""
    for name, threshold in PATHS.items():
        monkeypatch.setattr(estimator, "SCALAR_RANK", threshold)
        yield name


def spread_spectrum(seed, rank, n=200):
    """GramEigen of n rows whose rank values spread over 12 decades."""
    rng = np.random.default_rng(seed)
    values = np.sort(10.0 ** (-12.0 * rng.uniform(size=rank)))[::-1]
    return synthetic_eigen(np.concatenate([values, np.zeros(n - rank)]), rng.normal(size=n))


def constraint_value(ge, mu, n):
    d, c = ge.values, ge.proj
    return float(np.sum(d * c**2 / (d + n * mu) ** 2))


class TestEigenGram:
    def test_one_by_one(self):
        ge = eigen_gram(K1, np.array([2.0]))
        assert ge.values[0] == 1.0 and ge.rank == 1
        assert ge.proj[0] == pytest.approx(2.0)
        assert ge.rho == pytest.approx(2.0, abs=1e-12)

    def test_zero_matrix(self):
        ge = eigen_gram(np.array([[0.0]]), np.array([5.0]))
        assert ge.rank == 0 and ge.rho == 0.0

    def test_rank_one_two_by_two(self):
        ge = eigen_gram(np.array([[1.0, 1.0], [1.0, 1.0]]), np.array([1.0, 1.0]))
        # Only the eigenpair above the rank threshold is stored.
        assert np.allclose(ge.values, [2.0], atol=1e-12)
        assert ge.rank == 1 and ge.vectors.shape == (2, 1)
        assert abs(ge.proj[0]) == pytest.approx(math.sqrt(2.0), abs=1e-12)
        assert ge.rho == pytest.approx(1.0, abs=1e-12)

    def test_reconstruction(self, rng):
        for _ in range(20):
            _, k, _, y = random_instance(rng, n_max=30)
            ge = eigen_gram(k, y)
            rebuilt = ge.vectors @ np.diag(ge.values) @ ge.vectors.T
            top = ge.values[0]
            assert np.abs(rebuilt - k).max() <= 1e-8 * (1.0 + top)
            assert all(a >= b for a, b in zip(ge.values, ge.values[1:]))

    def test_asymmetric_rejected(self):
        with pytest.raises(NumericalError):
            eigen_gram(np.array([[1.0, 0.5], [0.0, 1.0]]), np.array([1.0, 1.0]))

    def test_one_ulp_asymmetry_rejected(self, rng):
        k = gram(GaussianKernel(0.7, 2), rng.uniform(size=(30, 2)))
        k[3, 7] = np.nextafter(k[3, 7], 2.0)
        with pytest.raises(NumericalError,
                           match=r"not exactly symmetric: .*pass 0\.5 \* \(k \+ k\.T\)"):
            eigen_gram(k, np.ones(30))

    def test_strided_and_reversed_points_decompose_as_their_copy(self, rng):
        # The views of the kernel test of the same name: gram's exactly symmetric
        # K passes the symmetry check, and the layout changes no output bit.
        kern = GaussianKernel(0.7, 2)
        x = rng.uniform(size=(333, 4))
        y = rng.normal(size=333)
        for view in (x[:, ::2], x[:, :2][::-1]):
            got, ref = eigen_gram(gram(kern, view), y), eigen_gram(gram(kern, view.copy()), y)
            for name in ("values", "vectors", "proj"):
                assert getattr(got, name).tobytes() == getattr(ref, name).tobytes()
            assert got.rho == ref.rho

    @pytest.mark.parametrize("cells,value", [
        (((1, 2),), float("nan")),
        (((1, 2), (2, 1)), float("nan")),
        (((0, 0),), float("inf")),
    ])
    def test_non_finite_rejected(self, cells, value):
        k = np.eye(4)
        for cell in cells:
            k[cell] = value
        with pytest.raises(NumericalError, match="non-finite"):
            eigen_gram(k, np.ones(4))

    def test_indefinite_rejected(self):
        with pytest.raises(NumericalError):
            eigen_gram(np.array([[0.0, 1.0], [1.0, 0.0]]), np.array([1.0, 1.0]))

    def test_length_mismatch(self):
        with pytest.raises(InputError):
            eigen_gram(K1, np.array([1.0, 2.0]))

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_responses_rejected(self, value):
        y = np.ones(4)
        y[2] = value
        with pytest.raises(InputError, match="responses have a non-finite entry"):
            eigen_gram(np.eye(4), y)
        # The shape is checked first.
        with pytest.raises(InputError, match="response length"):
            eigen_gram(np.eye(3), y)


def smooth_instance(seed, n, d, gamma):
    """Gaussian Gram and smooth-target responses on n uniform points."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.0, 1.0, size=(n, d))
    y = np.sin(3.0 * x.sum(axis=1)) + 0.3 * rng.normal(size=n)
    return gram(GaussianKernel(gamma, d), x), y


def ritz_examples(test):
    """Add n = 800, d = 3 cases at the four widths of ``width_grid(0.25, 4.0, 1.6)``
    whose Cholesky finishes, with 65 to 277 pivots: the drawn n <= 120 never
    reaches a Ritz step of more than 60 pivots."""
    for seed in (1, 2):
        for gamma in list(width_grid(0.25, 4.0, 1.6))[3:]:
            test = example(seed=seed, n=800, d=3, gamma=gamma)(test)
    return test


class TestEigenGramPaths:
    """The pivoted-Cholesky path and the full-eigh fallback against the oracle."""

    @settings(max_examples=80, deadline=None)
    @ritz_examples
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 120), d=st.integers(1, 3),
           gamma=st.floats(0.1, 4.0))
    def test_matches_full_eigh_oracle(self, seed, n, d, gamma):
        k, y = smooth_instance(seed, n, d, gamma)
        ge, ref = eigen_gram(k, y), full_eigen_gram(k, y)
        assert ge.n == n and ge.vectors.shape == (n, ge.rank)
        assert ge.values.shape == ge.proj.shape == (ge.rank,)
        top = ref.values[0]
        threshold = top * n * estimator.RANK_RTOL
        # A Ritz value is at most its eigenvalue and at least that minus the
        # Schur complement's norm, itself far below the threshold, so the
        # ranks can differ only with an eigenvalue near the threshold.
        if not np.any((ref.values > 0.5 * threshold) & (ref.values < 4.0 * threshold)):
            assert ge.rank == ref.rank
        if ge.rank != ref.rank:
            return
        assert np.all(np.abs(ge.values - ref.values) <= 1e-12 * top)
        assert np.abs(ge.vectors.T @ ge.vectors - np.eye(ge.rank)).max() <= 1e-12
        # Fits on the selection grid: fitted values to 1e-7 of the response
        # scale, and kernel-section coefficients to 1e-4 of the radius in the
        # function-space norm sqrt(dc^T K dc).
        y_scale = float(np.abs(y).max())
        for r in list(radius_grid(1.0, 0.5, n))[1:]:
            fit = fit_constrained(ge, [r])[0]
            oracle = fit_constrained(ref, [r])[0]
            assert np.abs(fit.train_pred - oracle.train_pred).max() <= 1e-7 * y_scale
            assert math.sqrt(max(rkhs_sq_distance(fit, oracle, k), 0.0)) <= 1e-4 * r

    def test_low_rank_takes_the_cholesky_path(self):
        k, y = smooth_instance(3, 200, 1, 1.0)
        lt = estimator._pivoted_cholesky(k)[0]
        ge, ref = eigen_gram(k, y), full_eigen_gram(k, y)
        assert ge.rank == ref.rank < lt.shape[0] < 20
        assert ge.vectors.flags.c_contiguous and ge.vectors.flags.owndata
        assert np.allclose(ge.values, ref.values, rtol=0.0, atol=1e-12 * ref.values[0])

    def test_near_full_rank_falls_back_to_full_eigh(self):
        k, y = smooth_instance(5, 200, 3, 0.25)
        assert estimator._pivoted_cholesky(k) is None
        ge, ref = eigen_gram(k, y), full_eigen_gram(k, y)
        assert ge.rank == ref.rank > 100
        assert ge.vectors.flags.c_contiguous and ge.vectors.flags.owndata
        assert np.array_equal(ge.values, ref.values)
        assert np.array_equal(ge.vectors, ref.vectors)
        assert np.allclose(ge.proj, ref.proj, rtol=0.0, atol=1e-12)
        assert ge.rho == pytest.approx(ref.rho, rel=1e-12)

    def test_rank_zero_keeps_n(self):
        k = np.zeros((5, 5))
        ge = eigen_gram(k, np.ones(5))
        assert ge.rank == 0 and ge.n == 5 and ge.rho == 0.0
        assert ge.vectors.shape == (5, 0) and ge.values.shape == ge.proj.shape == (0,)
        fit = fit_constrained(ge, [1.0])[0]
        assert fit.n == 5 and np.all(fit.coeffs == 0.0)

    def test_single_point(self):
        ge = eigen_gram(np.array([[3.0]]), np.array([-2.0]))
        assert ge.n == 1 and ge.rank == 1 and ge.values[0] == 3.0
        assert ge.rho == pytest.approx(2.0 / math.sqrt(3.0), rel=1e-15)

    def test_thin_storage_reports_n(self):
        k, y = smooth_instance(8, 60, 1, 2.0)
        ge = eigen_gram(k, y)
        assert ge.rank < 15 and ge.n == 60 and ge.vectors.shape == (60, ge.rank)
        assert fit_constrained(ge, [1.0])[0].n == 60

    @pytest.mark.parametrize("diag", [0.0, 1e-13])
    def test_hidden_indefinite_block_rejected(self, diag):
        # A rank-3 PSD part plus [[diag, a], [a, diag]] on two points: K has an
        # eigenvalue near -a, yet its diagonal is that of the PSD part up to
        # diag, so the Cholesky's residual trace drops below its stop after
        # three pivots.  Only the Schur complement check sees the block.
        rng = np.random.default_rng(11)
        u = rng.normal(size=(40, 3))
        k = u @ u.T
        k[0, 1] += 1e-3
        k[1, 0] += 1e-3
        k[0, 0] += diag
        k[1, 1] += diag
        assert estimator._pivoted_cholesky(k)[0].shape[0] == 3
        with pytest.raises(NumericalError):
            full_eigen_gram(k, np.ones(40))
        with pytest.raises(NumericalError, match="Schur complement"):
            eigen_gram(k, np.ones(40))

    def test_negative_diagonal_rejected(self):
        with pytest.raises(NumericalError):
            eigen_gram(np.array([[-1.0]]), np.array([1.0]))
        with pytest.raises(NumericalError):
            eigen_gram(np.diag([1.0, 1.0, -1e-6]), np.ones(3))


class TestCholeskyGiveUp:
    """The early give-up of the pivoted Cholesky against the uncapped pivot count."""

    @pytest.mark.parametrize("seed", [1, 2])
    def test_family_widths(self, monkeypatch, seed):
        # The seven widths of select_width_radius at n = 800, d = 3 on a
        # uniform design: the three smallest are near full rank and are given
        # up well before the cap of 400 pivots; the others finish with the
        # oracle's pivot count.  The responses do not enter the Cholesky.
        x = np.random.default_rng(seed).uniform(size=(800, 3))
        given_up_at = []
        real = estimator._out_of_reach

        def spy(gaps, cap):
            out = real(gaps, cap)
            if out:
                given_up_at.append(len(gaps) - 1)
            return out

        monkeypatch.setattr(estimator, "_out_of_reach", spy)
        for gamma in width_grid(0.25, 4.0, 1.6):
            k = gram(GaussianKernel(gamma, 3), x)
            factor = estimator._pivoted_cholesky(k)
            if gamma < 1.0:
                assert factor is None
                assert given_up_at and given_up_at.pop() <= 192
            else:
                assert factor[0].shape[0] == pivots_needed(k)
        assert not given_up_at

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(66, 400), d=st.integers(1, 3),
           gamma=st.floats(0.1, 4.0), design=st.sampled_from(["uniform", "normal"]))
    def test_never_abandons_what_finishes_early(self, seed, n, d, gamma, design):
        # A Gram the oracle finishes within 3/4 of the cap is never given up,
        # one past the cap always is, and a finished factor has the oracle's
        # pivot count.  Between 3/4 of the cap and the cap either is allowed.
        rng = np.random.default_rng(seed)
        x = rng.uniform(size=(n, d)) if design == "uniform" else rng.normal(size=(n, d))
        k = gram(GaussianKernel(gamma, d), x)
        need, cap = pivots_needed(k), int(estimator.PIVOT_FRACTION * n)
        factor = estimator._pivoted_cholesky(k)
        if need > cap:
            assert factor is None
        elif need <= 0.75 * cap:
            assert factor is not None
        if factor is not None:
            assert factor[0].shape[0] == need

    def test_speeding_decay_is_not_abandoned(self, monkeypatch):
        # d = 1, normal design, small width: the decay is slow while the
        # pivots cover the design and fast after.  The oracle finishes in 130
        # of the 200 pivots allowed.
        x = np.random.default_rng(3).normal(size=(400, 1))
        k = gram(GaussianKernel(0.13, 1), x)
        seen = []
        real = estimator._out_of_reach
        monkeypatch.setattr(estimator, "_out_of_reach",
                            lambda gaps, cap: seen.append(list(gaps)) or real(gaps, cap))
        factor = estimator._pivoted_cholesky(k)
        assert factor is not None and factor[0].shape[0] == pivots_needed(k) <= 0.75 * 200
        g = seen[0]
        assert len(g) == 65
        # The log trace falls faster over [32, 64] than over [16, 32], so at
        # pivot 64 both the average rate since pivot 0 and the rate since
        # pivot 32 would miss the stop in the 136 pivots left.
        assert (g[32] - g[64]) / 32 > (g[16] - g[32]) / 16
        assert g[64] > (g[0] - g[64]) * 136 / 64
        assert g[64] > (g[32] - g[64]) * 136 / 32


class TestMuOfR:
    def test_unit_case(self):
        ge = eigen_gram(K1, np.array([2.0]))
        assert mu_of_r(ge, 1.0) == pytest.approx(1.0, abs=1e-10)

    def test_interpolation_branch(self):
        ge = eigen_gram(K1, np.array([2.0]))
        assert mu_of_r(ge, 2.0) == 0.0

    def test_scaled_case(self):
        ge = eigen_gram(K1, np.array([4.0]))
        assert mu_of_r(ge, 1.0) == pytest.approx(3.0, abs=1e-9)

    def test_nonpositive_radius(self):
        ge = eigen_gram(K1, np.array([2.0]))
        with pytest.raises(InputError):
            mu_of_r(ge, 0.0)

    def test_monotone_in_r(self, rng):
        _, k, _, y = random_instance(rng, n_max=20)
        ge = eigen_gram(k, y)
        radii = np.linspace(0.05, max(ge.rho, 1.0), 12)
        mus = [mu_of_r(ge, r) for r in radii]
        assert all(a >= b - 1e-12 for a, b in zip(mus, mus[1:]))

    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.sampled_from([1, 5, 60, 2000]),
           top=st.floats(-4.0, 4.0), decades=st.floats(0.0, 12.0),
           proj_decades=st.floats(0.0, 6.0), frac=st.floats(-9.0, -1e-9))
    def test_matches_bisection_oracle(self, seed, n, top, decades, proj_decades, frac):
        # Spectra spread over up to 12 decades; rank 7 at n = 2000 as in the
        # low-rank Grams of d = 1 data.  r = rho * (1 - 10**frac).
        rng = np.random.default_rng(seed)
        rank = 7 if n == 2000 else int(rng.integers(1, n + 1))
        values = np.zeros(n)
        values[:rank] = np.sort(10.0 ** (top - decades * rng.uniform(size=rank)))[::-1]
        proj = rng.normal(size=n) * 10.0 ** (proj_decades * rng.uniform(-0.5, 0.5, size=n))
        ge = synthetic_eigen(values, proj)
        r = ge.rho * (1.0 - 10.0**frac)
        mu = mu_of_r(ge, r)  # raises NumericalError past the iteration cap
        assert mu > 0
        assert abs(constraint_value(ge, mu, n) - r * r) <= 1e-10 * r * r
        if r <= (1.0 - 1e-6) * ge.rho:
            ref = bisect_mu(ge, r, n)
            assert abs(mu - ref) <= 1e-8 * ref

    def test_iteration_cap_raises(self, monkeypatch):
        values = np.array([1.0, 1e-6, 1e-12])
        ge = synthetic_eigen(values, np.array([1.0, 1.0, 1.0]))
        monkeypatch.setattr(estimator, "MU_MAX_ITER", 1)
        raised = {}
        for path in on_both_paths(monkeypatch):
            with pytest.raises(NumericalError) as info:
                mu_of_r(ge, 0.5 * ge.rho)
            raised[path] = (type(info.value), str(info.value))
        assert raised["arrays"] == raised["floats"]

    @pytest.mark.parametrize("rank", [1, estimator.SCALAR_RANK, estimator.SCALAR_RANK + 1, 120])
    def test_matches_bisection_oracle_on_either_side_of_the_threshold(self, rank):
        # The rank alone picks the evaluator: floats up to SCALAR_RANK, arrays past it.
        for seed in range(4):
            ge = spread_spectrum(seed, rank)
            for frac in (-6.0, -3.0, -1.0, -0.3, -0.05):
                r = ge.rho * (1.0 - 10.0**frac)
                mu = mu_of_r(ge, r)
                assert abs(constraint_value(ge, mu, ge.n) - r * r) <= 1e-10 * r * r
                ref = bisect_mu(ge, r, ge.n)
                assert abs(mu - ref) <= 1e-8 * ref

    @pytest.mark.parametrize("seed", range(3))
    def test_evaluators_agree(self, monkeypatch, seed):
        # The two paths differ only in the order of their sums.  The multiplier's
        # condition number phi / (2 lam |phi'|) grows like 1 / (2 (1 - r / rho))
        # near rho, and the gap with it: up to 2.3e-14 at r <= 0.99 rho over 200
        # seeds, 2.2e-13 at r = 0.999 rho.
        ge = spread_spectrum(seed, estimator.SCALAR_RANK)
        radii = ge.rho * np.geomspace(1e-4, 0.99, 29)
        mus = {path: np.array([mu_of_r(ge, r) for r in radii])
               for path in on_both_paths(monkeypatch)}
        assert np.all(mus["arrays"] > 0)
        assert np.all(np.abs(mus["floats"] - mus["arrays"]) <= 1e-13 * mus["arrays"])

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), a=st.floats(1e-3, 1e3),
           frac=st.floats(0.01, 0.99))
    def test_response_scaling_leaves_mu_unchanged(self, seed, a, frac):
        # (y, r) -> (a y, a r) scales the coefficients by a and keeps mu.
        _, k, _, y = random_instance(np.random.default_rng(seed), n_max=25)
        ge, ge_a = eigen_gram(k, y), eigen_gram(k, a * y)
        if ge.rank == 0:
            return
        r = frac * ge.rho
        fit = fit_constrained(ge, [r])[0]
        fit_a = fit_constrained(ge_a, [a * r])[0]
        assert abs(fit_a.mu - fit.mu) <= 1e-8 * fit.mu
        scale = np.abs(fit.coeffs).max()
        assert np.abs(fit_a.coeffs - a * fit.coeffs).max() <= 1e-8 * a * scale

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           fracs=st.lists(st.floats(0.01, 2.0), min_size=2, max_size=12))
    def test_h_norm_is_min_of_r_and_rho(self, seed, fracs):
        _, k, _, y = random_instance(np.random.default_rng(seed), n_max=25)
        ge = eigen_gram(k, y)
        radii = sorted(f * max(ge.rho, 1e-3) for f in fracs)
        norms = [fit_constrained(ge, [r])[0].h_norm for r in radii]
        for r, h in zip(radii, norms):
            assert abs(h - min(r, ge.rho)) <= 1e-9 * min(r, ge.rho)
        assert all(a <= b * (1.0 + 1e-9) for a, b in zip(norms, norms[1:]))

    def test_tiny_radius(self, monkeypatch):
        # The Newton slope underflows near r = 1e-150; mu -> sqrt(S) / (n r).
        ge = synthetic_eigen(np.array([2.0, 0.5]), np.array([1.0, -3.0]))
        r = 1e-150
        s = float(np.sum(ge.values * ge.proj**2))
        for _ in on_both_paths(monkeypatch):
            assert mu_of_r(ge, r) == pytest.approx(math.sqrt(s) / (2 * r), rel=1e-8)

    def test_non_finite_rho_rejected(self):
        ge = GramEigen(vectors=np.eye(1), values=np.array([1.0]), proj=np.array([np.nan]),
                       rho=math.nan)
        with pytest.raises(NumericalError):
            mu_of_r(ge, 1.0)

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_non_finite_constraint_rejected(self, monkeypatch):
        ge = GramEigen(vectors=np.eye(2), values=np.array([1.0, 0.5]),
                       proj=np.array([1.0, np.inf]), rho=2.0)
        raised = {}
        for path in on_both_paths(monkeypatch):
            with pytest.raises(NumericalError) as info:
                mu_of_r(ge, 1.0)
            raised[path] = (type(info.value), str(info.value))
        assert raised["arrays"] == raised["floats"]

    def test_nan_response_raises(self):
        k = gram(GaussianKernel(1.0, 1), np.linspace(0, 1, 5)[:, None])
        y = np.array([0.1, np.nan, 0.3, 0.2, 0.0])
        with pytest.raises(InputError, match="responses have a non-finite entry"):
            fit_constrained(eigen_gram(k, y), [0.5])
        with pytest.raises(InputError):
            Dataset(x=np.linspace(0, 1, 5), y=y)
        with pytest.raises(InputError):
            Dataset(x=[0.0, np.inf], y=[1.0, 2.0])


class TestFitConstrained:
    def test_zero_radius(self):
        fit = fit_constrained(eigen_gram(K1, np.array([2.0])), [0.0])[0]
        assert fit.coeffs[0] == 0.0
        assert fit.train_loss(np.array([2.0])) == 4.0

    def test_active_constraint(self):
        fit = fit_constrained(eigen_gram(K1, np.array([2.0])), [1.0])[0]
        assert fit.coeffs[0] == pytest.approx(1.0, abs=1e-10)
        assert fit.train_pred[0] == pytest.approx(1.0, abs=1e-10)
        assert fit.h_norm == pytest.approx(1.0, abs=1e-10)
        assert fit.mu == pytest.approx(1.0, abs=1e-10)

    def test_interpolation_branch(self):
        fit = fit_constrained(eigen_gram(K1, np.array([2.0])), [3.0])[0]
        assert fit.mu == 0.0
        assert fit.coeffs[0] == pytest.approx(2.0, abs=1e-12)
        assert fit.h_norm == pytest.approx(2.0, abs=1e-12)

    def test_feasibility_and_activity(self, rng):
        for _ in range(200):
            _, k, _, y = random_instance(rng)
            ge = eigen_gram(k, y)
            r = float(rng.uniform(0.05, 1.2)) * stable_radius_scale(k, y)
            fit = fit_constrained(ge, [r])[0]
            sq = float(fit.coeffs @ k @ fit.coeffs)
            assert sq <= r * r * (1.0 + 1e-8)
            if fit.mu > 0:
                assert abs(math.sqrt(sq) - r) <= 1e-6 * r

    def test_radius_lipschitz(self, rng):
        # ||fit_r - fit_s||^2 in the function space is at most |r^2 - s^2|.
        for _ in range(10):
            _, k, _, y = random_instance(rng, n_max=25)
            ge = eigen_gram(k, y)
            scale = max(stable_radius_scale(k, y), 1.0)
            for _ in range(10):
                r, s = rng.uniform(0.0, 1.3, size=2) * scale
                fa = fit_constrained(ge, [float(r)])[0]
                fb = fit_constrained(ge, [float(s)])[0]
                lhs = rkhs_sq_distance(fa, fb, k)
                assert lhs <= abs(r * r - s * s) + 1e-8 * (1.0 + r * r + s * s)

    def test_loss_monotone_in_radius(self, rng):
        for _ in range(10):
            _, k, _, y = random_instance(rng, n_max=25)
            ge = eigen_gram(k, y)
            losses = [fit_constrained(ge, [r])[0].train_loss(y)
                      for r in np.linspace(0.0, 1.2 * max(ge.rho, 1.0), 8)]
            assert all(a >= b - 1e-10 for a, b in zip(losses, losses[1:]))

    def test_interpolation_beyond_rho(self, rng):
        for _ in range(10):
            _, k, _, y = random_instance(rng, n_max=15)
            ge = eigen_gram(k, y)
            fit = fit_constrained(ge, [ge.rho * 1.5 + 1.0])[0]
            proj = ge.vectors @ ge.proj
            assert np.abs(fit.train_pred - proj).max() <= 1e-8 * (1.0 + np.abs(y).max())

    def test_matches_pgd_oracle(self, rng):
        for _ in range(20):
            k, y = conditioned_instance(rng, n_max=6)
            ge = eigen_gram(k, y)
            r = float(rng.uniform(0.1, 1.1)) * max(ge.rho, 0.5)
            loss = fit_constrained(ge, [r])[0].train_loss(y)
            oracle = pgd_constrained_loss(k, y, r)
            assert loss == pytest.approx(oracle, rel=1e-6, abs=1e-12)

    def test_negative_radius(self):
        with pytest.raises(InputError):
            fit_constrained(eigen_gram(K1, np.array([1.0])), [-0.5])

    def test_zero_responses_give_zero_fit(self):
        k = gram(GaussianKernel(1.0, 1), np.linspace(0, 1, 5)[:, None])
        fit = fit_constrained(eigen_gram(k, np.zeros(5)), [2.0])[0]
        assert fit.h_norm == 0.0
        assert np.all(fit.coeffs == 0.0)


class TestRadiusPath:
    """A radius path against a one-radius path for each of its radii."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 200), d=st.integers(1, 3),
           gamma=st.floats(0.2, 4.0),
           fracs=st.lists(st.floats(0.01, 2.0), min_size=1, max_size=12))
    def test_matches_scalar_calls(self, seed, n, d, gamma, fracs):
        k, y = smooth_instance(seed, n, d, gamma)
        ge = eigen_gram(k, y)
        # The selection grid, radii around rho, and 0 again between them.
        radii = list(radius_grid(1.0, 0.5, n)) + [f * max(ge.rho, 1e-3) for f in fracs] + [0.0]
        path = fit_constrained(ge, radii)
        assert [f.r for f in path] == radii
        eps = np.finfo(float).eps
        for r, fit in zip(radii, path):
            one = fit_constrained(ge, [r])[0]
            assert fit.mu == one.mu
            # Both are products of the same weights with orthonormal columns, so
            # each entry of either is within rank * eps / 2 * ||weights||_2 of
            # the exact value; ||weights||_2 is the product's own norm, rank <= n.
            for a, b in ((fit.coeffs, one.coeffs), (fit.train_pred, one.train_pred)):
                assert np.abs(a - b).max() <= n * eps * np.linalg.norm(b)
            assert abs(fit.h_norm - one.h_norm) <= 1e-12 * one.h_norm

    def test_every_sequence_gives_a_list(self):
        ge = eigen_gram(np.eye(2), np.ones(2))
        (one,) = fit_constrained(ge, [1.5])
        for radii in ((1.5,), np.array([1.5]), (r for r in [1.5])):
            (fit,) = fit_constrained(ge, radii)
            assert type(fit.r) is float and fit.r == one.r and fit.mu == one.mu
            assert fit.coeffs.tobytes() == one.coeffs.tobytes()
        assert fit_constrained(ge, []) == []

    # test_errors.py pins the messages for a float, a 0-d array, str, bytes and None.
    @pytest.mark.parametrize("radii", [np.float64(1.5), 1], ids=["numpy-float", "int"])
    def test_one_radius_is_not_a_sequence(self, radii, monkeypatch):
        calls = []
        monkeypatch.setattr(estimator, "mu_of_r", lambda *args: calls.append(args))
        with pytest.raises(InputError, match="^radii must be a sequence of real numbers, got "):
            fit_constrained(eigen_gram(np.eye(2), np.ones(2)), radii)
        assert calls == []

    def test_zero_radius_rows_are_positive_zero(self):
        k, y = smooth_instance(4, 50, 2, 1.0)
        for fit in fit_constrained(eigen_gram(k, -y), [0.0, 1.0, 0.0, 2.0])[::2]:
            assert fit.mu == 0.0 and fit.h_norm == 0.0
            for a in (fit.coeffs, fit.train_pred):
                assert np.all(a == 0.0) and not np.signbit(a).any()

    def test_rank_zero_gram_gives_zero_fits(self):
        path = fit_constrained(eigen_gram(np.zeros((4, 4)), np.ones(4)), [0.0, 0.5, 3.0])
        assert len(path) == 3
        for fit in path:
            assert fit.n == 4 and fit.mu == 0.0 and fit.h_norm == 0.0
            assert not np.any(fit.coeffs) and not np.any(fit.train_pred)

    @pytest.mark.parametrize("bad", [float("nan"), -0.5, math.inf])
    @pytest.mark.parametrize("at", [0, 2])
    @pytest.mark.parametrize("k", [np.eye(3), np.zeros((3, 3))], ids=["rank3", "rank0"])
    def test_bad_radius_anywhere_rejected(self, bad, at, k):
        radii = [0.5, 1.0, 1.5]
        radii[at] = bad
        rule = "be at least 0" if math.isfinite(bad) else "be finite"
        for r in (radii, [bad]):
            with pytest.raises(InputError) as info:
                fit_constrained(eigen_gram(k, np.ones(3)), r)
            assert str(info.value) == f"radius must {rule}, got {bad!r}"

    def test_bad_radius_fails_before_any_multiplier_solve(self, monkeypatch):
        calls = []

        def counting(*args):
            calls.append(args)
            return mu_of_r(*args)

        monkeypatch.setattr(estimator, "mu_of_r", counting)
        eigen = eigen_gram(np.eye(2), np.ones(2))
        with pytest.raises(InputError, match="radius must be finite, got inf"):
            fit_constrained(eigen, [1.0, math.inf])
        assert calls == []
        fit_constrained(eigen, [1.0, 0.5])
        assert len(calls) == 2

    def test_radius_path_is_one_call(self, monkeypatch):
        # The path makes one fit_constrained call and one mu_of_r call per
        # positive radius on either evaluator: at width 1 the Gram of 200 points
        # has rank 7 in one dimension and 115, past SCALAR_RANK, in three.  The
        # benchmark traces both layers by these names.
        calls = {}

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(selection_fixed, "fit_constrained",
                            counting("fit_constrained", fit_constrained))
        monkeypatch.setattr(estimator, "mu_of_r", counting("mu_of_r", mu_of_r))
        for d, short in ((1, True), (3, False)):
            x = np.random.default_rng(2).uniform(size=(200, d))
            data = Dataset(x=x, y=np.sin(3.0 * x[:, 0]))
            kernel = GaussianKernel(1.0, d)
            rank = eigen_gram(gram(kernel, data.x), data.y).rank
            assert (rank <= estimator.SCALAR_RANK) == short
            grid = radius_grid(1.0, 0.5, data.n)
            calls.update(fit_constrained=0, mu_of_r=0)
            fits = selection_fixed.fit_radius_path(data, kernel, grid)
            assert len(fits) == len(grid) == 30
            assert calls == {"fit_constrained": 1, "mu_of_r": 29}


class TestDistances:
    def test_empirical_zero(self):
        assert empirical_sq_distance([1.0, 2.0], [1.0, 2.0]) == 0.0

    def test_empirical_single(self):
        assert empirical_sq_distance([1.0], [2.0]) == 1.0

    def test_empirical_pair(self):
        assert empirical_sq_distance([0.0, 2.0], [0.0, 0.0]) == 2.0

    def test_empirical_length_mismatch(self):
        with pytest.raises(InputError):
            empirical_sq_distance([1.0], [1.0, 2.0])

    def test_rkhs_distance_same_fit(self):
        fit = fit_constrained(eigen_gram(K1, np.array([2.0])), [1.0])[0]
        assert rkhs_sq_distance(fit, fit, K1) == 0.0

    def test_rkhs_distance_examples(self):
        f1 = fit_constrained(eigen_gram(K1, np.array([2.0])), [1.0])[0]
        f3 = fit_constrained(eigen_gram(K1, np.array([2.0])), [3.0])[0]
        f0 = fit_constrained(eigen_gram(K1, np.array([2.0])), [0.0])[0]
        assert rkhs_sq_distance(f1, f3, K1) == pytest.approx(1.0, abs=1e-9)
        assert rkhs_sq_distance(f0, f1, K1) == pytest.approx(1.0, abs=1e-9)

