"""The one rule for numeric parameters: ``check_real`` and ``check_int``, and the
public constructors and functions that apply it; and the one rule for grids, which
every rule that takes a grid applies."""

import math

import numpy as np
import pytest

from rkhsball.errors import InputError, check_int, check_real
from rkhsball.data import Dataset
from rkhsball.estimator import eigen_gram, fit_constrained, mu_of_r
from rkhsball.experiments import (
    RkhsTarget,
    SelectionSettings,
    bias_event_check,
    default_scenario,
    event_suite,
    gauss_majorant_event_check,
    majorant_event_check,
    oracle_gap_check,
    quadform_tail_check,
)
from rkhsball.kernels import GaussianKernel, width_grid
from rkhsball.selection_fixed import GLConfig, radius_grid, select_radius, tau_min_fixed
from rkhsball.selection_gauss import GaussGLConfig
from rkhsball.theory import fixed_kernel_risk_bound, kernel_family_risk_bound

_INF = math.inf
_GL = {"tau": 1.0, "nu": 0.5, "sigma": 0.1, "k_diag": 1.0}
_GAUSS_GL = {"tau": 100.0, "nu": 0.5, "sigma": 0.1, "width_grid": width_grid(0.5, 2.0, 2.0),
             "radius_grid": radius_grid(1.0, 0.5, 10)}
_FIXED = {"k_diag": 1.0, "c": 1.0, "sigma": 0.1, "r": 1.0, "t": 1.0, "n": 100, "approx_sq": 0.0}
_SMALL = default_scenario(n=10, replicates=2, holdout_size=100)


class TestHelpers:
    def test_converted_values(self):
        assert check_real(np.float64(0.5), "x") == 0.5 and type(check_real(1, "x")) is float
        assert check_real(0, "x", 0.0, strict=False) == 0.0
        for value in (2, 2.0, np.int64(2), np.float32(2.0)):
            assert check_int(value, "x") == 2 and type(check_int(value, "x")) is int
        assert check_int(0, "x", 0) == 0

    def test_int_beyond_the_float_range_is_not_finite(self):
        with pytest.raises(InputError, match="^x must be finite, got 1000"):
            check_real(10**400, "x")


@pytest.mark.parametrize("call,expected", [
    (lambda: radius_grid(_INF, 0.5, 10), "a must be finite, got inf"),
    (lambda: width_grid(0.5, _INF, 2.0), "v must be finite, got inf"),
    (lambda: radius_grid(1.0, 0.5, 2.5), "n must be an integer, got 2.5"),
    (lambda: radius_grid(1.0, 0.5, True), "n must be an integer, got True"),
    (lambda: radius_grid(1.0, "0.5", 10), "b must be a real number, got '0.5'"),
    (lambda: GLConfig(**{**_GL, "nu": "1"}), "nu must be a real number, got '1'"),
    (lambda: width_grid(0.5, 2.0, _INF), "c must be finite, got inf"),
    (lambda: GLConfig(**{**_GL, "tau": _INF}), "tau must be finite, got inf"),
    (lambda: tau_min_fixed(_INF, 0.1), "k_diag must be finite, got inf"),
    (lambda: GaussGLConfig(**_GAUSS_GL, dim=1.5), "dim must be an integer, got 1.5"),
    (lambda: GaussGLConfig(**_GAUSS_GL, dim=True), "dim must be an integer, got True"),
    (lambda: GaussianKernel(True, 1), "gamma must be a real number, got True"),
    (lambda: RkhsTarget(gamma0=True, centers=[[0.5]], weights=[2.0]),
     "target gamma0 must be a real number, got True"),
    (lambda: GaussianKernel("0.5", 1), "gamma must be a real number, got '0.5'"),
    (lambda: default_scenario(sigma="0.1"), "sigma must be a real number, got '0.1'"),
    (lambda: default_scenario(sigma=_INF), "sigma must be finite, got inf"),
    (lambda: quadform_tail_check(2.5, 1.0), "n must be an integer, got 2.5"),
    (lambda: quadform_tail_check(4, 1.0, replicates=2.9),
     "replicates must be an integer, got 2.9"),
    (lambda: fixed_kernel_risk_bound(**{**_FIXED, "k_diag": -1.0}),
     "k_diag must be greater than 0, got -1.0"),
    (lambda: fixed_kernel_risk_bound(**{**_FIXED, "c": -1.0}),
     "c must be greater than 0, got -1.0"),
    (lambda: kernel_family_risk_bound(j_const=-1.0, **_FIXED),
     "j_const must be greater than 0, got -1.0"),
    (lambda: fixed_kernel_risk_bound(**{**_FIXED, "approx_sq": -1.0}),
     "approx_sq must be at least 0, got -1.0"),
    (lambda: oracle_gap_check(_SMALL, SelectionSettings(), threads=1.5),
     "threads must be an integer, got 1.5"),
    (lambda: oracle_gap_check(_SMALL, SelectionSettings(), threshold=-1.0, pass_fraction=0.0),
     "threshold must be at least 1, got -1.0"),
    (lambda: oracle_gap_check(_SMALL, SelectionSettings(), pass_fraction=0.0),
     "pass_fraction must be greater than 0, got 0.0"),
    (lambda: mu_of_r(eigen_gram(np.eye(1), np.array([2.0])), True),
     "r must be a real number, got True"),
    (lambda: SelectionSettings(grid_b=-1.0), "grid_b must be greater than 0, got -1.0"),
    (lambda: SelectionSettings(kernel_gamma=-1.0),
     "kernel_gamma must be greater than 0, got -1.0"),
    (lambda: fit_constrained(eigen_gram(np.eye(2), np.ones(2)), [1.0, _INF]),
     "radius must be finite, got inf"),
    (lambda: fit_constrained(eigen_gram(np.eye(2), np.ones(2)), [True]),
     "radius must be a real number, got True"),
    (lambda: fit_constrained(eigen_gram(np.eye(2), np.ones(2)), ["1.0"]),
     "radius must be a real number, got '1.0'"),
    (lambda: fit_constrained(eigen_gram(np.eye(2), np.ones(2)), "1.0"),
     "radii must be a sequence of real numbers, got '1.0'"),
    (lambda: fit_constrained(eigen_gram(np.eye(2), np.ones(2)), None),
     "radii must be a sequence of real numbers, got None"),
    (lambda: fit_constrained(eigen_gram(np.eye(2), np.ones(2)), b"1"),
     "radii must be a sequence of real numbers, got b'1'"),
    (lambda: fit_constrained(eigen_gram(np.eye(2), np.ones(2)), 1.5),
     "radii must be a sequence of real numbers, got 1.5"),
    (lambda: fit_constrained(eigen_gram(np.eye(2), np.ones(2)), np.array(1.5)),
     "radii must be a sequence of real numbers, got 1.5"),
], ids=["radius-a-inf", "width-v-inf", "radius-n-fraction", "radius-n-bool", "radius-b-str",
        "gl-nu-str", "width-c-inf", "gl-tau-inf", "tau-min-inf", "gauss-dim-fraction",
        "gauss-dim-bool", "kernel-gamma-bool", "target-gamma0-bool", "kernel-gamma-str",
        "scenario-sigma-str", "scenario-sigma-inf", "quadform-n-fraction",
        "quadform-replicates-fraction", "fixed-bound-k-diag", "fixed-bound-c",
        "family-bound-j-const", "fixed-bound-approx-sq", "oracle-gap-threads",
        "oracle-gap-threshold", "oracle-gap-pass-fraction", "mu-r-bool", "settings-grid-b", "settings-kernel-gamma",
        "fit-radius-inf", "fit-radius-bool", "fit-radius-str", "fit-radii-str",
        "fit-radii-none", "fit-radii-bytes", "fit-radii-float", "fit-radii-0d-array"])
def test_bad_value_names_its_parameter(call, expected):
    with pytest.raises(InputError) as info:
        call()
    assert str(info.value) == expected


_RADII, _WIDTHS = radius_grid(1.0, 0.5, 10), width_grid(0.5, 2.0, 2.0)
_DATA = Dataset(x=np.linspace(0.0, 1.0, 10)[:, None], y=np.cos(np.arange(10.0)))

# Each rule that takes a grid, called with the radius grid ``r`` and the width grid ``w``.
_GRID_RULES = {
    "select_radius": lambda r, w: select_radius(
        _DATA, GaussianKernel(1.0, 1), r, GLConfig(tau=8.0, nu=0.5, sigma=0.1, k_diag=1.0)),
    "GaussGLConfig": lambda r, w: GaussGLConfig(
        tau=200.0, nu=0.5, sigma=0.1, dim=1, width_grid=w, radius_grid=r),
    "event_suite": lambda r, w: event_suite(_SMALL, w, r, 1.0),
    "bias_event_check": lambda r, w: bias_event_check(_SMALL, r, 1.0),
    "majorant_event_check": lambda r, w: majorant_event_check(_SMALL, r, 1.0),
    "gauss_majorant_event_check": lambda r, w: gauss_majorant_event_check(_SMALL, w, r, 1.0),
}
_TAKES_WIDTHS = ("GaussGLConfig", "event_suite", "gauss_majorant_event_check")


@pytest.mark.parametrize("rule, name, bad", [
    pytest.param(rule, name, bad, id=f"{rule}-{name.split()[0]}-{kind}")
    for rule in _GRID_RULES
    for name in (("radius grid", "width grid") if rule in _TAKES_WIDTHS else ("radius grid",))
    for kind, bad in (("empty", []), ("descending", None))
])
def test_bad_grid_names_the_grid(rule, name, bad):
    # The rules read their comparison sets off the grid's order: a descending grid
    # would pair each fit with the wrong partners.
    grids = {"radius grid": _RADII, "width grid": _WIDTHS}
    grids[name] = grids[name][::-1] if bad is None else bad
    with pytest.raises(InputError, match=f"^{name} must"):
        _GRID_RULES[rule](grids["radius grid"], grids["width grid"])


def _comparable(result):
    """``result`` with a selection's fit left out, whose arrays do not compare with ==."""
    if hasattr(result, "fit_hat"):
        return result.r_hat, result.gamma_hat, result.criterion
    return result


@pytest.mark.parametrize("rule", _GRID_RULES)
def test_grid_forms_give_one_result(rule):
    results = [_comparable(_GRID_RULES[rule](form(_RADII), form(_WIDTHS)))
               for form in (tuple, list, np.asarray)]
    assert results[0] == results[1] == results[2]
