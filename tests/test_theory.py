import math

import numpy as np
import pytest

from rkhsball.errors import InputError
from rkhsball.theory import (
    fixed_kernel_risk_bound,
    interpolation_approx_bound,
    kernel_family_risk_bound,
    scaled_element_approx_bound,
)


class TestInterpolationApproxBound:
    def test_all_ones(self):
        assert interpolation_approx_bound(1.0, 0.5, 1.0) == 1.0

    def test_radius_four(self):
        assert interpolation_approx_bound(1.0, 0.5, 4.0) == pytest.approx(1.0 / 16.0)

    def test_norm_two(self):
        assert interpolation_approx_bound(2.0, 0.5, 1.0) == pytest.approx(16.0)

    def test_decreasing_in_radius_increasing_in_norm(self):
        radii = np.linspace(0.5, 5.0, 30)
        vals = [interpolation_approx_bound(1.3, 0.4, r) for r in radii]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        norms = np.linspace(0.5, 5.0, 30)
        vals = [interpolation_approx_bound(b, 0.4, 1.7) for b in norms]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_domain_errors(self):
        with pytest.raises(InputError):
            interpolation_approx_bound(1.0, 0.5, 0.0)
        with pytest.raises(InputError):
            interpolation_approx_bound(1.0, 1.0, 1.0)
        with pytest.raises(InputError):
            interpolation_approx_bound(0.0, 0.5, 1.0)


class TestScaledElementApproxBound:
    def test_beyond_norm(self):
        assert scaled_element_approx_bound(2.0, 1.0, 2.0) == 0.0

    def test_half_radius(self):
        assert scaled_element_approx_bound(2.0, 1.0, 1.0) == pytest.approx(0.25)

    def test_zero_radius(self):
        assert scaled_element_approx_bound(2.0, 3.0, 0.0) == pytest.approx(9.0)

    def test_continuous_at_norm(self):
        eps = 1e-9
        below = scaled_element_approx_bound(2.0, 3.0, 2.0 - eps)
        assert below <= 1e-15
        assert scaled_element_approx_bound(2.0, 3.0, 2.0 + eps) == 0.0

    def test_sandwich_against_shift_bound(self):
        # Shrinking the radius from s to r costs at most the shift bound
        # (sqrt(approx at s) + sqrt(k_diag) * (s - r))**2, for targets whose
        # sup norm is dominated by sqrt(k_diag) * norm.
        for gamma, d, norm in [(1.0, 1, 2.0), (0.5, 2, 1.3), (2.0, 1, 0.7)]:
            k_diag = gamma ** -d
            sup = math.sqrt(k_diag) * norm * 0.9
            for s in np.linspace(0.0, 2.5 * norm, 12):
                for r in np.linspace(0.0, s, 8):
                    lhs = scaled_element_approx_bound(norm, sup, r)
                    at_s = scaled_element_approx_bound(norm, sup, s)
                    rhs = (math.sqrt(at_s) + math.sqrt(k_diag) * (s - r)) ** 2
                    assert lhs <= rhs + 1e-12


class TestRiskBounds:
    def test_fixed_zero_radius(self):
        assert fixed_kernel_risk_bound(1.0, 1.0, 1.0, 0.0, 1.0, 1, 0.0) == 0.0

    def test_fixed_unit_values(self):
        val = fixed_kernel_risk_bound(1.0, 1.0, 1.0, 1.0, 1.0, 1, 0.0)
        assert val == pytest.approx(2.0 * 117.0 + 16.0 / 3.0)

    def test_fixed_scaling_with_n(self):
        val = fixed_kernel_risk_bound(1.0, 1.0, 1.0, 1.0, 1.0, 4, 0.0)
        assert val == pytest.approx(117.0 + 4.0 / 3.0)

    def test_fixed_requires_t_at_least_one(self):
        for t in (0.5, math.nan, math.inf):
            with pytest.raises(InputError):
                fixed_kernel_risk_bound(1.0, 1.0, 1.0, 1.0, t, 1, 0.0)

    def test_family_requires_t_at_least_one(self):
        for t in (0.5, math.nan, math.inf):
            with pytest.raises(InputError):
                kernel_family_risk_bound(1.0, 1.0, 1.0, 1.0, 1.0, t, 1, 0.0)

    def test_family_zero_radius(self):
        assert kernel_family_risk_bound(1.0, 1.0, 1.0, 1.0, 0.0, 1.0, 1, 0.0) == 0.0

    def test_family_unit_values(self):
        val = kernel_family_risk_bound(1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1, 0.0)
        assert val == pytest.approx(2.0 * 172.0 + 16.0 / 3.0)

    def test_family_approx_slope_ten(self):
        base = kernel_family_risk_bound(1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1, 0.0)
        assert kernel_family_risk_bound(1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1, 1.0) \
            == pytest.approx(base + 10.0)

    def test_linear_in_radius_additive_in_approx(self):
        f = lambda r, a: fixed_kernel_risk_bound(2.0, 1.5, 0.5, r, 2.0, 50, a)
        assert f(2.0, 0.0) == pytest.approx(2.0 * f(1.0, 0.0), rel=1e-12)
        assert f(1.0, 0.7) - f(1.0, 0.0) == pytest.approx(7.0, rel=1e-12)
