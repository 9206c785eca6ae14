import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import gaussian_eval
from rkhsball.errors import InputError
from rkhsball.kernels import (
    GaussianKernel,
    chaining_constant_bound,
    covering_number_bound,
    cross_gram,
    entropy_integral_bound,
    gram,
    width_grid,
)


class TestGaussianEval:
    def test_diagonal_gamma_one(self):
        assert gaussian_eval(1.0, 2, [0.3, 0.7], [0.3, 0.7]) == 1.0

    def test_unit_distance(self):
        assert gaussian_eval(1.0, 1, [0.0], [1.0]) == pytest.approx(math.exp(-1.0), abs=1e-12)

    def test_diagonal_gamma_two(self):
        assert gaussian_eval(2.0, 1, [0.4], [0.4]) == pytest.approx(0.5, abs=1e-15)

    def test_symmetry(self):
        a = gaussian_eval(1.3, 2, [0.1, 0.9], [0.5, 0.2])
        b = gaussian_eval(1.3, 2, [0.5, 0.2], [0.1, 0.9])
        assert a == b

    def test_dimension_mismatch(self):
        with pytest.raises(InputError):
            gaussian_eval(1.0, 2, [0.0], [1.0, 2.0])

    def test_scale_overflow_rejected(self):
        with pytest.raises(InputError):
            gaussian_eval(1e-3, 200, np.zeros(200), np.zeros(200))
        with pytest.raises(InputError):
            GaussianKernel(gamma=1e-3, dim=200)
        assert GaussianKernel(gamma=1e-3, dim=40).diag_sup == pytest.approx(1e120)

    def test_nonpositive_width(self):
        with pytest.raises(InputError):
            gaussian_eval(0.0, 1, [0.0], [1.0])


class TestGram:
    def test_single_point(self):
        k = gram(GaussianKernel(1.0, 1), [[0.0]])
        assert k.shape == (1, 1) and k[0, 0] == 1.0

    def test_duplicate_points_rank_one(self):
        k = gram(GaussianKernel(1.0, 1), [[0.0], [0.0]])
        assert np.allclose(k, np.ones((2, 2)))

    def test_two_points(self):
        k = gram(GaussianKernel(1.0, 1), [[0.0], [1.0]])
        e = math.exp(-1.0)
        assert np.allclose(k, [[1.0, e], [e, 1.0]], atol=1e-12)

    def test_matches_pointwise_eval(self, rng):
        kern = GaussianKernel(0.8, 2)
        x = rng.uniform(size=(6, 2))
        k = gram(kern, x)
        for i in range(6):
            for j in range(6):
                assert k[i, j] == pytest.approx(
                    gaussian_eval(0.8, 2, x[i], x[j]), abs=1e-12)

    def test_psd_over_random_instances(self, rng):
        for _ in range(100):
            n = int(rng.integers(1, 51))
            d = int(rng.integers(1, 4))
            gamma = float(rng.uniform(0.3, 3.0))
            x = rng.uniform(size=(n, d))
            k = gram(GaussianKernel(gamma, d), x)
            w = np.linalg.eigvalsh(k)
            assert w.min() >= -1e-10 * max(w.max(), 0.0)

    def test_matches_unfused_formula_bytewise(self, rng):
        # Up to 400 points, where BLAS blocks the product x x^T; K's exact
        # symmetry rests on that product's.
        for _ in range(30):
            n, d = int(rng.integers(1, 401)), int(rng.integers(1, 6))
            gamma = float(rng.uniform(0.3, 3.0))
            x = rng.uniform(size=(n, d))
            x2 = np.sum(x * x, axis=1)
            sq = np.maximum(x2[:, None] + x2[None, :] - 2.0 * (x @ x.T), 0.0)
            k = gamma ** (-d) * np.exp(-sq / gamma**2)
            got = gram(GaussianKernel(gamma, d), x)
            assert got.tobytes() == (0.5 * (k + k.T)).tobytes()
            assert np.array_equal(got, got.T)

    def test_strided_and_reversed_points_give_the_contiguous_gram(self, rng):
        # The layout of a view of the points can change how BLAS rounds x x^T;
        # gram works on a C-contiguous copy, so K stays exactly symmetric.
        kern = GaussianKernel(0.7, 2)
        x = rng.uniform(size=(333, 4))
        for view in (x[:, ::2], x[:, :2][::-1]):
            got = gram(kern, view)
            assert np.array_equal(got, got.T)
            assert got.tobytes() == gram(kern, view.copy()).tobytes()

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_points_rejected(self, bad):
        kern, pts = GaussianKernel(1.0, 1), [[bad], [0.0]]
        for call in (lambda: gram(kern, pts), lambda: cross_gram(kern, pts, [[0.5]]),
                     lambda: cross_gram(kern, [[0.5]], pts)):
            with pytest.raises(InputError, match="^points have a non-finite entry$"):
                call()

    def test_diag_sup_exact(self):
        assert GaussianKernel(2.0, 3).diag_sup == 2.0 ** -3
        assert GaussianKernel(0.5, 2).diag_sup == 0.5 ** -2

    def test_fields_normalised(self):
        kern = GaussianKernel(1, 1.0)
        assert type(kern.gamma) is float and type(kern.dim) is int
        assert kern == GaussianKernel(1.0, 1)

    @pytest.mark.parametrize("dim", [True, 0, 1.5, math.nan, math.inf])
    def test_bad_dimension_rejected(self, dim):
        expected = "at least 1" if dim == 0 else "an integer"
        with pytest.raises(InputError, match=f"^dim must be {expected}, got {dim!r}$"):
            GaussianKernel(1.0, dim)


class TestCrossGram:
    def test_matches_pointwise_eval(self, rng):
        for _ in range(50):
            d = int(rng.integers(1, 4))
            gamma = float(rng.uniform(0.5, 2.0))
            x_train = rng.uniform(size=(int(rng.integers(1, 8)), d))
            x_new = rng.uniform(size=(int(rng.integers(1, 8)), d))
            kx = cross_gram(GaussianKernel(gamma, d), x_train, x_new)
            assert kx.shape == (x_new.shape[0], x_train.shape[0])
            for j, b in enumerate(x_new):
                for i, a in enumerate(x_train):
                    assert kx[j, i] == pytest.approx(gaussian_eval(gamma, d, b, a), rel=1e-14)


class TestCoveringNumber:
    def test_scale_at_least_one(self):
        assert covering_number_bound(1.0, 1.0, 10.0) == 1.0

    def test_degenerate_interval(self):
        assert covering_number_bound(0.5, 1.0, 1.0) == pytest.approx(2.0, abs=1e-12)

    def test_unit_log_ratio(self):
        assert covering_number_bound(0.5, 1.0, math.e) == pytest.approx(6.0, abs=1e-12)

    def test_nonincreasing_in_scale(self):
        scales = np.linspace(0.05, 0.999, 200)
        vals = [covering_number_bound(a, 1.0, 4.0) for a in scales]
        assert all(x >= y for x, y in zip(vals, vals[1:]))

    def test_invalid_interval(self):
        with pytest.raises(InputError):
            covering_number_bound(0.5, 2.0, 1.0)


class TestEntropyIntegral:
    def test_degenerate_interval(self):
        assert entropy_integral_bound(1.0, 1.0) == pytest.approx(
            math.log(2.0) / 2.0 + 1.0, abs=1e-12)

    def test_log_ratio_one(self):
        assert entropy_integral_bound(1.0, math.e) == pytest.approx(
            math.log(6.0) / 2.0 + 1.0, abs=1e-12)

    def test_log_ratio_two(self):
        assert entropy_integral_bound(1.0, math.e**2) == pytest.approx(
            math.log(10.0) / 2.0 + 1.0, abs=1e-12)

    def test_nondecreasing_in_ratio(self):
        vals = [entropy_integral_bound(1.0, v) for v in np.linspace(1.0, 50.0, 100)]
        assert all(x <= y for x, y in zip(vals, vals[1:]))


class TestChainingConstant:
    def test_degenerate_interval(self):
        assert chaining_constant_bound(1.0, 1.0) == pytest.approx(
            math.sqrt(81.0 * (math.log(4.0) + 2.0) + 1.0), abs=1e-12)

    def test_log_ratio_one(self):
        assert chaining_constant_bound(1.0, math.e) == pytest.approx(
            math.sqrt(81.0 * (math.log(12.0) + 2.0) + 1.0), abs=1e-12)

    def test_log_ratio_four(self):
        assert chaining_constant_bound(1.0, math.e**4) == pytest.approx(
            math.sqrt(81.0 * (math.log(36.0) + 2.0) + 1.0), abs=1e-12)

    def test_at_least_one_and_monotone(self):
        prev = 1.0
        for v in np.linspace(1.0, 100.0, 50):
            val = chaining_constant_bound(1.0, v)
            assert val >= max(prev, 1.0)
            prev = val


class TestWidthGrid:
    def test_power_of_two(self):
        assert list(width_grid(1.0, 4.0, 2.0)) == [1.0, 2.0, 4.0]

    def test_single_width(self):
        assert list(width_grid(3.0, 3.0, 2.0)) == [3.0]

    def test_cap_appended(self):
        assert list(width_grid(1.0, 3.0, 2.0)) == [1.0, 2.0, 3.0]

    def test_invalid_ratio(self):
        with pytest.raises(InputError):
            width_grid(1.0, 2.0, 1.0)

    def test_invalid_interval(self):
        with pytest.raises(InputError):
            width_grid(2.0, 1.0, 2.0)

    @settings(max_examples=200, deadline=None)
    @given(u=st.floats(0.01, 10.0), ratio=st.floats(1.0, 20.0), c=st.floats(1.001, 4.0))
    def test_invariants(self, u, ratio, c):
        v = u * ratio
        vals = list(width_grid(u, v, c))
        assert all(x < y for x, y in zip(vals, vals[1:]))
        assert all(u * (1 - 1e-12) <= x <= v * (1 + 1e-12) for x in vals)
        assert vals[-1] == v
        assert vals[0] == pytest.approx(u, rel=1e-12)
