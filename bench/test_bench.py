"""The benchmark's own tests, at tiny sizes.

    python3 -m pytest bench/test_bench.py -q
"""

import dataclasses
import math
import sys
import warnings
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import agreement  # noqa: E402
import tracer as tr  # noqa: E402
from workloads import family_workload, harness_workload, op_rng  # noqa: E402

from rkhsball import estimator, experiments, selection_fixed, selection_gauss  # noqa: E402


@pytest.fixture(autouse=True)
def _quiet():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        yield


TINY = {
    "family": lambda: family_workload(n=30),
    "harness": lambda: harness_workload(n=20, replicates=3, threads=1, holdout=200),
}


def traced_ops(wl, count=2):
    tracer = tr.Tracer()
    with tr.patched(tracer):
        for i in range(count):
            inp = wl.make_input(op_rng(0, wl.stream, i))
            with tracer.op(i):
                out = wl.run(inp)
            assert wl.validate(inp, out) == []
    return tracer


@pytest.mark.parametrize("name", sorted(TINY))
def test_self_times_sum_to_op_wall(name):
    wl = TINY[name]()
    tracer = traced_ops(wl)
    selfs = tr.self_times(tracer.spans)
    ops = [s for s in tracer.spans if s.name == tr.OP_SPAN]
    assert len(ops) == 2
    for op in ops:
        total = sum(selfs[s.id] for s in tracer.spans if s.op == op.op)
        assert math.isclose(total, op.seconds, rel_tol=1e-9, abs_tol=1e-9)
    table = tr.layer_table(tracer.spans)
    assert [q for q in wl.expected if table[q]["calls"] == 0] == []


def test_pool_threads_nest_under_the_check():
    wl = harness_workload(n=20, replicates=4, threads=2, holdout=200)
    tracer = traced_ops(wl, count=1)
    by_id = {s.id: s for s in tracer.spans}
    for s in tracer.spans:
        if s.name == "experiments.generate":
            assert by_id[s.parent].name.startswith("experiments.") and \
                by_id[s.parent].name.endswith("_check")
    selfs = tr.self_times(tracer.spans)
    assert all(v >= -1e-9 for v in selfs.values())


def test_patching_reaches_names_imported_elsewhere_and_restores():
    originals = {
        (selection_fixed, "eigen_gram"): estimator.eigen_gram,
        (selection_gauss, "fit_constrained"): estimator.fit_constrained,
        (experiments, "cross_gram"): experiments.cross_gram,
        (experiments, "gl_criterion"): selection_fixed.gl_criterion,
    }
    with tr.patched(tr.Tracer()):
        for (module, attr), fn in originals.items():
            assert getattr(module, attr) is not fn
            assert getattr(module, attr).__wrapped__ is fn
    for (module, attr), fn in originals.items():
        assert getattr(module, attr) is fn


def test_missing_layer_is_reported():
    import worker

    tracer = traced_ops(TINY["harness"](), count=1)
    ops = [{"traced": False, "seconds": 1.0, "cpu_seconds": 1.0},
           {"traced": True, "seconds": 1.1, "cpu_seconds": 1.1}]
    assert worker.trace_report(TINY["harness"](), ops, tracer.spans)["missing"] == []
    report = worker.trace_report(TINY["family"](), ops, tracer.spans)
    assert "selection_gauss.gauss_gl_criterion" in report["missing"]
    assert math.isclose(report["overhead_frac"], 1.0 - 1.0 / 1.1)


def one_op(wl):
    inp = wl.make_input(op_rng(0, wl.stream, 0))
    return inp, wl.run(inp)


def test_validator_rejects_corrupted_selection():
    wl = TINY["family"]()
    inp, out = one_op(wl)
    assert wl.validate(inp, out) == []
    assert wl.validate(inp, dataclasses.replace(out, r_hat=out.r_hat + 0.25))
    assert wl.validate(inp, dataclasses.replace(out, gamma_hat=out.gamma_hat * 1.5))
    rows = list(out.criterion)
    rows[1] = dataclasses.replace(rows[1], total=float("nan"))
    assert wl.validate(inp, dataclasses.replace(out, criterion=tuple(rows)))
    assert wl.validate(inp, dataclasses.replace(out, criterion=out.criterion[:-1]))
    rows = list(out.criterion)
    rows[2] = dataclasses.replace(rows[2], total=0.0)
    assert wl.validate(inp, dataclasses.replace(out, criterion=tuple(rows)))
    big = dataclasses.replace(out.fit_hat, h_norm=out.r_hat * 1.01 + 1.0)
    assert wl.validate(inp, dataclasses.replace(out, fit_hat=big))


def test_validator_rejects_corrupted_harness():
    wl = TINY["harness"]()
    inp, out = one_op(wl)
    assert wl.validate(inp, out) == []
    short = dataclasses.replace(out.events[0], replicates=2, indicators=out.events[0].indicators[:2])
    assert wl.validate(inp, dataclasses.replace(out, events=(short,) + out.events[1:]))
    wide = dataclasses.replace(out.events[1], wilson_high=1.5)
    assert wl.validate(inp, dataclasses.replace(out, events=(out.events[0], wide, out.events[2])))


def test_near_tie_flip_agrees_and_real_change_does_not():
    totals = [1.0, 0.5, 0.5 * (1 + 1e-9), 0.7]
    ref = {"cell": 1, "totals": totals}
    same = agreement.compare({"cell": 1, "totals": list(totals)}, ref)
    assert same == (True, 0, [])
    tie = agreement.compare({"cell": 2, "totals": list(totals)}, ref)
    assert tie[:2] == (True, 1)
    real = agreement.compare({"cell": 3, "totals": list(totals)}, ref)
    assert real[0] is False
    drift = agreement.compare({"cell": 1, "totals": [1.0, 0.5, 0.5, 0.71]}, ref)
    assert drift[0] is False


def test_harness_agreement_uses_reference_totals_for_ties():
    ref = {"indicators": {"majorant": [1, 0]}, "fraction_within": 1.0,
           "cells": [2, 3], "err_adaptive": [0.1, 0.2], "err_oracle_grid": [0.05, 0.1],
           "replicate_totals": [[3.0, 2.0, 1.0, 1.0], [3.0, 2.0, 1.5, 1.0]]}
    got = dict(ref, cells=[3, 3], err_adaptive=[0.11, 0.2])
    assert agreement.compare(got, ref)[:2] == (True, 1)
    got = dict(ref, cells=[2, 2])
    assert agreement.compare(got, ref)[0] is False
    got = dict(ref, indicators={"majorant": [1, 1]})
    assert agreement.compare(got, ref)[0] is False
