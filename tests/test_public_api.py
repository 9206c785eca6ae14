"""The package's public surface: every exported name resolves, the package
re-exports only exported names, and removed names, parameters, fields and
config forms stay removed."""

import dataclasses
import importlib
import inspect
import types

import rkhsball

MODULES = ["data", "errors", "estimator", "kernels", "selection_fixed", "selection_gauss",
           "experiments", "theory"]

# Deleted, or moved into the tests as reference oracles.
REMOVED = {
    "estimator": ["predict", "clip", "rkhs_sq_distance"],
    "kernels": ["family_sup_distance_bound", "gaussian_eval"],
    "selection_fixed": ["t_of_tau", "_confidence_level"],
    "selection_gauss": ["t_of_tau_gauss", "GaussCriterionRow", "GaussSelectionResult"],
    "experiments": ["holdout_sq_error", "HoldoutError"],
    "theory": ["approx_shift_bound", "adaptive_risk_bound_fixed", "adaptive_risk_bound_gauss",
               "rate_envelope"],
}


def test_public_surface():
    modules = {name: importlib.import_module(f"rkhsball.{name}") for name in MODULES}
    exported = set()
    for name, module in modules.items():
        entries = getattr(module, "__all__", None)
        assert entries is not None, f"{name} has no __all__"
        missing = [entry for entry in entries if not hasattr(module, entry)]
        assert not missing, f"{name}.__all__ lists missing names {missing}"
        exported.update(entries)
    reexported = {key for key, value in vars(rkhsball).items()
                  if not key.startswith("_") and not isinstance(value, types.ModuleType)}
    assert reexported <= exported, f"not in any __all__: {sorted(reexported - exported)}"
    left = [f"{name}.{entry}" for name, entries in REMOVED.items() for entry in entries
            if hasattr(modules[name], entry) or hasattr(rkhsball, entry)]
    assert not left, f"removed names still present: {left}"


def test_both_gram_builders_are_exported():
    # cross_gram evaluates a fit off the training set, next to gram's training Gram.
    kernels = importlib.import_module("rkhsball.kernels")
    for name in ("gram", "cross_gram"):
        assert name in kernels.__all__
        assert getattr(rkhsball, name) is getattr(kernels, name)


def test_removed_parameters_and_fields(tmp_path, capsys):
    from rkhsball.cli import main
    from rkhsball.estimator import ConstrainedFit, GramEigen, fit_constrained
    from rkhsball.experiments import (HatTarget, quadform_tail_check, replicate_seed,
                                      wilson_interval)
    from rkhsball.kernels import GaussianKernel
    from rkhsball.selection_fixed import SelectionResult, gl_criterion
    from rkhsball.selection_gauss import gauss_gl_criterion

    assert "kernel_id" not in {f.name for f in dataclasses.fields(ConstrainedFit)}
    assert "fits" not in {f.name for f in dataclasses.fields(SelectionResult)}
    # The rank is the length of the stored spectrum, not a second stored value.
    assert "rank" not in {f.name for f in dataclasses.fields(GramEigen)}
    assert isinstance(GramEigen.rank, property)
    assert not hasattr(GaussianKernel(1.0, 1), "kernel_id")
    assert not hasattr(HatTarget(1.0), "sup_bound")
    for func, name in ((fit_constrained, "kernel_id"), (fit_constrained, "r"),
                       (wilson_interval, "z"),
                       (replicate_seed, "stream"), (quadform_tail_check, "m"),
                       (gl_criterion, "n"), (gauss_gl_criterion, "n")):
        assert name not in inspect.signature(func).parameters, f"{func.__name__}({name})"
    cfg = tmp_path / "c.conf"
    cfg.write_text("scenario.n: 30\n", encoding="utf-8")
    assert main(["rates", "--config", str(cfg), "--print-config"]) == 2
    assert "expected 'key = value'" in capsys.readouterr().err
    cfg.write_text('scenario.target.kind = "hat-function"\n', encoding="utf-8")
    assert main(["oracle-gap", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert "unknown target kind" in capsys.readouterr().err
