"""Command-line surface.

Subcommands wrap the library: ``fit`` and ``select``/``select-gauss`` operate
on CSV data files (header ``x_1,...,x_d,y``), ``rates``/``majorant`` run the
seeded Monte Carlo harness and ``bounds`` tabulates the theoretical curves.
All parameters live in a config file (``--config``): either JSON or simple
``dotted.key = value`` lines.  Unknown keys are rejected.  Outputs are
deterministic functions of (config, seed); floats are serialised with 17
significant digits so round-trips are exact.

Exit codes: 0 success, 2 input error, 3 constraint violation, 4 numerical
failure.
"""

from __future__ import annotations

import argparse
import copy
import csv
import json
import math
import os
import sys

import numpy as np

from .data import Dataset
from .errors import ConstraintError, InputError, NumericalError, RkhsBallError
from .estimator import fit_constrained
from .experiments import (
    ExperimentRecord,
    HatTarget,
    RkhsTarget,
    ScenarioConfig,
    SelectionSettings,
    bias_event_check,
    gauss_majorant_event_check,
    majorant_event_check,
    quadform_tail_check,
    rate_experiment,
    replicate_seed,
    oracle_gap_check,
    write_csv,
    write_records_csv,
    write_summary_json,
    _json_value,
)
from .kernels import GaussianKernel, chaining_constant_bound, gram, width_grid
from .selection_fixed import GLConfig, radius_grid, select_radius, tau_min_fixed
from .selection_gauss import GaussGLConfig, select_width_radius, tau_min_gauss
from .theory import (
    fixed_kernel_risk_bound,
    interpolation_approx_bound,
    kernel_family_risk_bound,
    scaled_element_approx_bound,
)

_COMMON_DEFAULTS = {
    "seed": 0,
    "threads": 1,
    "theory_mode": False,
}

_SCENARIO_DEFAULTS = {
    "n": 200,
    "d": 1,
    "design": "uniform-cube",
    "noise": "gaussian",
    "sigma": 0.1,
    "c": 2.0,
    "replicates": 100,
    "master_seed": 0,
    "holdout_size": 10000,
    "target": {"kind": "rkhs-element", "gamma0": 1.0, "centers": [[0.5]], "weights": [2.0]},
}

_SELECTION_DEFAULTS = {
    "tau": None,
    "nu": 0.5,
    "grid_a": 1.0,
    "grid_b": 0.5,
    "kernel_gamma": None,
}

DEFAULTS = {
    "fit": {
        **_COMMON_DEFAULTS,
        "data": None,
        "r": None,
        "kernel": {"gamma": 1.0},
        "clip": None,
    },
    "select": {
        **_COMMON_DEFAULTS,
        "data": None,
        "kernel": {"gamma": 1.0},
        "grid": {"a": 1.0, "b": 0.5},
        "tau": None,
        "nu": 0.5,
        "sigma": 0.1,
        "clip": None,
    },
    "select-gauss": {
        **_COMMON_DEFAULTS,
        "data": None,
        "widths": {"u": 0.5, "v": 2.0, "c": 2.0},
        "grid": {"a": 1.0, "b": 0.5},
        "tau": None,
        "nu": 0.5,
        "sigma": 0.1,
        "j_const": None,
        "clip": None,
    },
    "rates": {
        **_COMMON_DEFAULTS,
        "scenario": _SCENARIO_DEFAULTS,
        "n_list": [50, 100, 200, 400, 800],
        "selection": _SELECTION_DEFAULTS,
        "slope_threshold": None,
    },
    "majorant": {
        **_COMMON_DEFAULTS,
        "scenario": _SCENARIO_DEFAULTS,
        "event": "majorant",
        "t": 1.0,
        "grid": {"a": 1.0, "b": 0.5},
        "widths": {"u": 0.5, "v": 2.0, "c": 2.0},
        "replicates": None,
    },
    "bounds": {
        **_COMMON_DEFAULTS,
        "k_diag": 1.0,
        "c": 1.0,
        "sigma": 0.1,
        "t": 1.0,
        "n": 200,
        "j_const": None,
        "widths": {"u": 0.5, "v": 2.0},
        "r": {"min": 0.0, "max": 5.0, "count": 11},
        "approx": None,
    },
    "oracle-gap": {
        **_COMMON_DEFAULTS,
        "scenario": _SCENARIO_DEFAULTS,
        "selection": _SELECTION_DEFAULTS,
        "replicates": None,
        "threshold": 10.0,
        "pass_fraction": 0.9,
    },
    "quadform": {
        **_COMMON_DEFAULTS,
        "n": 20,
        "sigma": 1.0,
        "t_list": [1.0, 4.0],
        "replicates": 100000,
    },
}

# Subtrees whose keys are validated downstream, not against the defaults.
_OPEN_SUBTREES = {"scenario.target", "approx"}


def _parse_kv_config(text: str) -> dict:
    cfg: dict = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" in line:
            key, _, val = line.partition("=")
        elif ":" in line:
            key, _, val = line.partition(":")
        else:
            raise InputError(f"config line {lineno}: expected 'key = value'")
        key = key.strip()
        val = val.strip()
        if not key:
            raise InputError(f"config line {lineno}: empty key")
        try:
            parsed = json.loads(val)
        except json.JSONDecodeError:
            parsed = val
        node = cfg
        parts = key.split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise InputError(f"config line {lineno}: {key} conflicts with a scalar key")
        node[parts[-1]] = parsed
    return cfg


def load_config_file(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise InputError(f"cannot read config file {path}: {exc}") from exc
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            cfg = json.loads(text)
        except json.JSONDecodeError as exc:
            raise InputError(f"config file {path} is not valid JSON: {exc}") from exc
        if not isinstance(cfg, dict):
            raise InputError(f"config file {path} must contain a JSON object")
        return cfg
    return _parse_kv_config(text)


def _merge_config(defaults: dict, override: dict, path: str = "") -> dict:
    out = copy.deepcopy(defaults)
    for key, val in override.items():
        full = f"{path}.{key}" if path else key
        if key not in defaults:
            raise InputError(f"unknown config key: {full}")
        base = defaults[key]
        if isinstance(base, dict) and full in _OPEN_SUBTREES:
            out[key] = copy.deepcopy(val)
        elif isinstance(base, dict) and isinstance(val, dict):
            out[key] = _merge_config(base, val, full)
        else:
            out[key] = copy.deepcopy(val)
    return out


def read_data_csv(path: str) -> Dataset:
    """Read a data file with header x_1,...,x_d,y."""
    try:
        fh = open(path, "r", encoding="utf-8", newline="")
    except OSError as exc:
        raise InputError(f"cannot read data file {path}: {exc}") from exc
    with fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise InputError(f"{path}: line 1: empty data file") from None
        header = [h.strip() for h in header]
        if "y" not in header:
            raise InputError(f"{path}: line 1: missing y column")
        d = len(header) - 1
        expected = [f"x_{i}" for i in range(1, d + 1)] + ["y"]
        if header != expected:
            raise InputError(
                f"{path}: line 1: expected columns {','.join(expected)}, got {','.join(header)}")
        xs, ys = [], []
        for lineno, row in enumerate(reader, 2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != d + 1:
                raise InputError(f"{path}: line {lineno}: expected {d + 1} fields, got {len(row)}")
            try:
                vals = [float(cell) for cell in row]
            except ValueError as exc:
                raise InputError(f"{path}: line {lineno}: {exc}") from exc
            if not all(math.isfinite(v) for v in vals):
                raise InputError(f"{path}: line {lineno}: non-finite value (NaN or inf)")
            xs.append(vals[:d])
            ys.append(vals[d])
    if not xs:
        raise InputError(f"{path}: no data rows")
    return Dataset(x=np.asarray(xs), y=np.asarray(ys))


def _number(value, key: str, kind=float):
    """``kind(value)`` for the config value at ``key``; an input error naming the key
    when the value does not convert."""
    try:
        return kind(value)
    except (TypeError, ValueError, OverflowError):
        what = "an integer" if kind is int else "a number"
        raise InputError(f"config key {key} must be {what}, got {value!r}") from None


def _build_target(spec: dict):
    if not isinstance(spec, dict):
        raise InputError("scenario.target must be a mapping")
    kind = spec.get("kind", "rkhs-element")
    if kind == "rkhs-element":
        allowed = {"kind", "gamma0", "centers", "weights"}
        _reject_unknown(spec, allowed, "scenario.target")
        return RkhsTarget(gamma0=_number(spec.get("gamma0", 1.0), "scenario.target.gamma0"),
                          centers=spec.get("centers", [[0.5]]),
                          weights=spec.get("weights", [2.0]))
    if kind in ("hat", "hat-function"):
        allowed = {"kind", "slope", "center"}
        _reject_unknown(spec, allowed, "scenario.target")
        center = spec.get("center")
        return HatTarget(slope=_number(spec.get("slope", 1.0), "scenario.target.slope"),
                         center=tuple(center) if center is not None else None)
    raise InputError(f"unknown target kind {kind!r}")


def _reject_unknown(spec: dict, allowed: set, where: str) -> None:
    extra = set(spec) - allowed
    if extra:
        raise InputError(f"unknown config key: {where}.{sorted(extra)[0]}")


def _build_scenario(cfg: dict, seed_override: int | None) -> ScenarioConfig:
    scen = cfg["scenario"]
    master_seed = seed_override if seed_override is not None else scen["master_seed"]
    return ScenarioConfig(
        n=_number(scen["n"], "scenario.n", int), d=_number(scen["d"], "scenario.d", int),
        design=scen["design"], target=_build_target(scen["target"]), noise=scen["noise"],
        sigma=_number(scen["sigma"], "scenario.sigma"), c=_number(scen["c"], "scenario.c"),
        replicates=_number(scen["replicates"], "scenario.replicates", int),
        master_seed=_number(master_seed, "scenario.master_seed", int),
        holdout_size=_number(scen["holdout_size"], "scenario.holdout_size", int))


def _build_settings(cfg: dict, theory_mode: bool) -> SelectionSettings:
    sel = cfg["selection"]
    return SelectionSettings(
        tau=None if sel["tau"] is None else _number(sel["tau"], "selection.tau"),
        nu=_number(sel["nu"], "selection.nu"),
        grid_a=_number(sel["grid_a"], "selection.grid_a"),
        grid_b=_number(sel["grid_b"], "selection.grid_b"),
        theory_mode=theory_mode,
        kernel_gamma=(None if sel["kernel_gamma"] is None
                      else _number(sel["kernel_gamma"], "selection.kernel_gamma")))


def _grid(cfg: dict) -> tuple[float, float]:
    return _number(cfg["grid"]["a"], "grid.a"), _number(cfg["grid"]["b"], "grid.b")


def _widths(cfg: dict):
    return width_grid(*(_number(cfg["widths"][key], f"widths.{key}")
                        for key in ("u", "v", "c")))


def _replicates(cfg: dict) -> int | None:
    reps = cfg["replicates"]
    return None if reps is None else _number(reps, "replicates", int)


def _require(cfg: dict, key: str, command: str):
    if cfg.get(key) is None:
        raise InputError(f"{command} requires config key {key!r}")
    return cfg[key]


def cmd_fit(cfg: dict, out_dir: str) -> list[str]:
    data = read_data_csv(_require(cfg, "data", "fit"))
    r = _number(_require(cfg, "r", "fit"), "r")
    kernel = GaussianKernel(gamma=_number(cfg["kernel"]["gamma"], "kernel.gamma"), dim=data.d)
    k = gram(kernel, data.x)
    fit = fit_constrained(k, data.y, r, kernel_id=kernel.kernel_id)
    summary = {
        "kernel": {"gamma": kernel.gamma, "dim": kernel.dim},
        "r": fit.r,
        "mu": fit.mu,
        "h_norm": fit.h_norm,
        "train_loss": fit.train_loss(data.y),
        "coefficients": [float(a) for a in fit.coeffs],
    }
    path = os.path.join(out_dir, "fit.json")
    write_summary_json(path, summary)
    return [path]


def _resolve_tau_fixed(cfg: dict, k_diag: float) -> float:
    if cfg["tau"] is not None:
        return _number(cfg["tau"], "tau")
    return tau_min_fixed(k_diag, _number(cfg["sigma"], "sigma"))


def cmd_select(cfg: dict, out_dir: str) -> list[str]:
    data = read_data_csv(_require(cfg, "data", "select"))
    kernel = GaussianKernel(gamma=_number(cfg["kernel"]["gamma"], "kernel.gamma"), dim=data.d)
    tau = _resolve_tau_fixed(cfg, kernel.diag_sup)
    gl = GLConfig(tau=tau, nu=_number(cfg["nu"], "nu"), sigma=_number(cfg["sigma"], "sigma"),
                  k_diag=kernel.diag_sup, theory_mode=bool(cfg["theory_mode"]))
    grid = radius_grid(*_grid(cfg), data.n)
    result = select_radius(data, kernel, grid, gl)
    crit_path = os.path.join(out_dir, "criterion.csv")
    write_csv(crit_path, ("r", "bias_proxy", "variance_term", "total"),
              [(row.r, row.bias_proxy, row.variance_term, row.total)
               for row in result.criterion])
    summary = {
        "r_hat": result.r_hat,
        "mu": result.fit_hat.mu,
        "h_norm": result.fit_hat.h_norm,
        "train_loss": result.fit_hat.train_loss(data.y),
        "tau": gl.tau,
        "nu": gl.nu,
        "sigma": gl.sigma,
        "k_diag": gl.k_diag,
        "grid": {"a": grid.a, "b": grid.b, "size": len(grid)},
        "coefficients": [float(a) for a in result.fit_hat.coeffs],
    }
    sel_path = os.path.join(out_dir, "selection.json")
    write_summary_json(sel_path, summary)
    return [sel_path, crit_path]


def cmd_select_gauss(cfg: dict, out_dir: str) -> list[str]:
    data = read_data_csv(_require(cfg, "data", "select-gauss"))
    widths = _widths(cfg)
    j_const = (_number(cfg["j_const"], "j_const") if cfg["j_const"] is not None
               else chaining_constant_bound(widths.u, widths.v))
    sigma = _number(cfg["sigma"], "sigma")
    tau = _number(cfg["tau"], "tau") if cfg["tau"] is not None else tau_min_gauss(j_const, sigma)
    grid = radius_grid(*_grid(cfg), data.n)
    gauss_cfg = GaussGLConfig(tau=tau, nu=_number(cfg["nu"], "nu"), sigma=sigma,
                              dim=data.d, width_grid=widths, radius_grid=grid,
                              j_const=j_const, theory_mode=bool(cfg["theory_mode"]))
    result = select_width_radius(data, gauss_cfg)
    crit_path = os.path.join(out_dir, "criterion_gauss.csv")
    write_csv(crit_path, ("gamma", "r", "bias_proxy", "variance_term", "total"),
              [(row.gamma, row.r, row.bias_proxy, row.variance_term, row.total)
               for row in result.criterion])
    summary = {
        "gamma_hat": result.gamma_hat,
        "r_hat": result.r_hat,
        "mu": result.fit_hat.mu,
        "h_norm": result.fit_hat.h_norm,
        "train_loss": result.fit_hat.train_loss(data.y),
        "tau": gauss_cfg.tau,
        "nu": gauss_cfg.nu,
        "sigma": gauss_cfg.sigma,
        "j_const": gauss_cfg.j_const,
        "widths": list(widths),
        "grid_size": len(grid),
        "coefficients": [float(a) for a in result.fit_hat.coeffs],
    }
    sel_path = os.path.join(out_dir, "selection_gauss.json")
    write_summary_json(sel_path, summary)
    return [sel_path, crit_path]


def cmd_rates(cfg: dict, out_dir: str, seed_override: int | None, threads: int) -> list[str]:
    scenario = _build_scenario(cfg, seed_override)
    settings = _build_settings(cfg, bool(cfg["theory_mode"]))
    n_list = [_number(n, "n_list", int) for n in cfg["n_list"]]
    report = rate_experiment(scenario, n_list, settings, threads=threads)
    csv_path = os.path.join(out_dir, "rates.csv")
    write_records_csv(csv_path, report.records)
    summary = {"config": _echo_config(cfg), "aggregates": report.as_dict()}
    if cfg["slope_threshold"] is not None:
        thr = _number(cfg["slope_threshold"], "slope_threshold")
        summary["passed"] = (not report.degenerate and report.slope is not None
                             and report.slope <= thr)
    sum_path = os.path.join(out_dir, "rates_summary.json")
    write_summary_json(sum_path, summary)
    return [csv_path, sum_path]


def cmd_majorant(cfg: dict, out_dir: str, seed_override: int | None, threads: int) -> list[str]:
    scenario = _build_scenario(cfg, seed_override)
    t = _number(cfg["t"], "t")
    grid = radius_grid(*_grid(cfg), scenario.n)
    reps = _replicates(cfg)
    event = cfg["event"]
    if event == "majorant":
        report = majorant_event_check(scenario, grid, t, replicates=reps, threads=threads)
    elif event == "bias":
        report = bias_event_check(scenario, grid, t, replicates=reps, threads=threads)
    elif event == "gauss-majorant":
        report = gauss_majorant_event_check(scenario, _widths(cfg), grid, t,
                                            replicates=reps, threads=threads)
    else:
        raise InputError(f"unknown event {event!r}; expected majorant, bias or gauss-majorant")
    records = []
    for i, ind in enumerate(report.indicators):
        records.append(ExperimentRecord(
            replicate=i, n=scenario.n, gamma_hat=None, r_hat=None,
            err_adaptive=None, err_oracle_grid=None,
            event_bias=ind if event == "bias" else None,
            event_majorant=ind if event != "bias" else None,
            seed=replicate_seed(scenario.master_seed, i)))
    csv_path = os.path.join(out_dir, "majorant.csv")
    write_records_csv(csv_path, records)
    summary = {"config": _echo_config(cfg), **report.as_dict()}
    sum_path = os.path.join(out_dir, "majorant_summary.json")
    write_summary_json(sum_path, summary)
    return [csv_path, sum_path]


def cmd_oracle_gap(cfg: dict, out_dir: str, seed_override: int | None, threads: int) -> list[str]:
    scenario = _build_scenario(cfg, seed_override)
    settings = _build_settings(cfg, bool(cfg["theory_mode"]))
    report = oracle_gap_check(scenario, settings, replicates=_replicates(cfg),
                              threshold=_number(cfg["threshold"], "threshold"),
                              pass_fraction=_number(cfg["pass_fraction"], "pass_fraction"),
                              threads=threads)
    csv_path = os.path.join(out_dir, "oracle_gap.csv")
    write_records_csv(csv_path, report.records)
    summary = {"config": _echo_config(cfg), **report.as_dict()}
    sum_path = os.path.join(out_dir, "oracle_gap_summary.json")
    write_summary_json(sum_path, summary)
    return [csv_path, sum_path]


def cmd_quadform(cfg: dict, out_dir: str, seed_override: int | None) -> list[str]:
    seed = seed_override if seed_override is not None else _number(cfg["seed"], "seed", int)
    report = quadform_tail_check(_number(cfg["n"], "n", int), _number(cfg["sigma"], "sigma"),
                                 t_list=[_number(t, "t_list") for t in cfg["t_list"]],
                                 replicates=_number(cfg["replicates"], "replicates", int),
                                 master_seed=seed)
    sum_path = os.path.join(out_dir, "quadform_summary.json")
    write_summary_json(sum_path, {"config": _echo_config(cfg), **report.as_dict()})
    return [sum_path]


def _approx_fn(cfg: dict):
    spec = cfg["approx"]
    if spec is None:
        return lambda r: 0.0
    if not isinstance(spec, dict) or "kind" not in spec:
        raise InputError("approx must be null or a mapping with a 'kind'")
    if spec["kind"] == "interpolation":
        _reject_unknown(spec, {"kind", "b_norm", "beta"}, "approx")
        b_norm = _number(spec["b_norm"], "approx.b_norm")
        beta = _number(spec["beta"], "approx.beta")
        return lambda r: interpolation_approx_bound(b_norm, beta, r)
    if spec["kind"] == "element":
        _reject_unknown(spec, {"kind", "norm", "sup"}, "approx")
        norm, sup = _number(spec["norm"], "approx.norm"), _number(spec["sup"], "approx.sup")
        return lambda r: scaled_element_approx_bound(norm, sup, r)
    raise InputError(f"unknown approx kind {spec['kind']!r}")


def cmd_bounds(cfg: dict, out_dir: str) -> list[str]:
    r_spec = cfg["r"]
    r_min, r_max = _number(r_spec["min"], "r.min"), _number(r_spec["max"], "r.max")
    count = _number(r_spec["count"], "r.count", int)
    if count < 1 or r_max < r_min or r_min < 0:
        raise InputError(f"invalid radius range {r_spec!r}")
    approx = _approx_fn(cfg)
    if cfg["approx"] is not None and cfg["approx"].get("kind") == "interpolation" and r_min == 0:
        raise InputError("interpolation approx bound is undefined at r = 0; use r.min > 0")
    j_const = (_number(cfg["j_const"], "j_const") if cfg["j_const"] is not None
               else chaining_constant_bound(_number(cfg["widths"]["u"], "widths.u"),
                                            _number(cfg["widths"]["v"], "widths.v")))
    k_diag, c = _number(cfg["k_diag"], "k_diag"), _number(cfg["c"], "c")
    sigma, t = _number(cfg["sigma"], "sigma"), _number(cfg["t"], "t")
    n = _number(cfg["n"], "n", int)
    radii = np.linspace(r_min, r_max, count)
    rows = []
    for r in radii:
        a_sq = approx(float(r))
        rows.append((float(r), a_sq,
                     fixed_kernel_risk_bound(k_diag, c, sigma, float(r), t, n, a_sq),
                     kernel_family_risk_bound(j_const, k_diag, c, sigma, float(r), t, n, a_sq)))
    path = os.path.join(out_dir, "bounds.csv")
    write_csv(path, ("r", "approx_sq", "fixed_risk_bound", "family_risk_bound"), rows)
    return [path]


def _echo_config(cfg: dict) -> dict:
    # ``threads`` is left out so that summaries are byte-identical at any thread count.
    return {key: copy.deepcopy(val) for key, val in cfg.items() if key != "threads"}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="rkhsball",
                                     description="Constrained kernel regression with "
                                                 "adaptive radius/width selection")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in DEFAULTS:
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="JSON or key=value config file")
        p.add_argument("--seed", type=int, default=None, help="override the master seed")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--threads", type=int, default=None, help="worker thread cap")
        p.add_argument("--theory-mode", action="store_true",
                       help="enforce theoretical tuning constraints strictly")
        p.add_argument("--print-config", action="store_true",
                       help="print the effective config and exit")
    return parser


def run(argv=None) -> int:
    args = build_parser().parse_args(argv)
    cfg = copy.deepcopy(DEFAULTS[args.command])
    if args.config is not None:
        cfg = _merge_config(cfg, load_config_file(args.config))
    if args.seed is not None:
        cfg["seed"] = int(args.seed)
    if args.threads is not None:
        cfg["threads"] = int(args.threads)
    if args.theory_mode:
        cfg["theory_mode"] = True
    if args.print_config:
        sys.stdout.write(_json_value(cfg) + "\n")
        return 0
    out_dir = args.out
    os.makedirs(out_dir, exist_ok=True)
    threads = _number(cfg["threads"], "threads", int)
    seed_override = None if args.seed is None else int(args.seed)
    if args.command == "fit":
        paths = cmd_fit(cfg, out_dir)
    elif args.command == "select":
        paths = cmd_select(cfg, out_dir)
    elif args.command == "select-gauss":
        paths = cmd_select_gauss(cfg, out_dir)
    elif args.command == "rates":
        paths = cmd_rates(cfg, out_dir, seed_override, threads)
    elif args.command == "majorant":
        paths = cmd_majorant(cfg, out_dir, seed_override, threads)
    elif args.command == "oracle-gap":
        paths = cmd_oracle_gap(cfg, out_dir, seed_override, threads)
    elif args.command == "quadform":
        paths = cmd_quadform(cfg, out_dir, seed_override)
    else:
        paths = cmd_bounds(cfg, out_dir)
    for path in paths:
        sys.stdout.write(path + "\n")
    return 0


def main(argv=None) -> int:
    try:
        return run(argv)
    except InputError as exc:
        sys.stderr.write(f"input error: {exc}\n")
        return 2
    except ConstraintError as exc:
        sys.stderr.write(f"constraint violation: {exc}\n")
        return 3
    except NumericalError as exc:
        sys.stderr.write(f"numerical failure: {exc}\n")
        return 4
    except RkhsBallError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
