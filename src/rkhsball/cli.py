"""Command-line surface.

Subcommands wrap the library: ``fit`` and ``select``/``select-gauss`` operate
on CSV data files (header ``x_1,...,x_d,y``), ``rates``/``majorant``/
``oracle-gap``/``quadform`` run the seeded Monte Carlo harness and ``bounds``
tabulates the theoretical curves.  ``majorant`` writes every event of one
:func:`~rkhsball.experiments.event_suite` run, one 0/1 column per event; the
bias and majorant events need the target width among ``widths``.  All
parameters live in a config file (``--config``): either JSON or
``dotted.key = value`` lines, where ``#`` starts a comment outside a
double-quoted string.  A subcommand accepts only the keys of its :data:`DEFAULTS`
entry, and reads them all.  A mapping with a ``kind`` takes the :data:`_KINDS`
defaults of the kind it names: ``scenario.target`` is ``rkhs-element`` (the default;
``gamma0``, ``centers``, ``weights``) or ``hat`` (``slope``, ``center``), and
``approx`` is null, ``interpolation`` (``b_norm``, ``beta``) or ``element``
(``norm``, ``sup``), whose numbers have no default.  Each value is checked against
the type of its default when the config is read, a number by the package's one rule
(:func:`~rkhsball.errors.check_real` or :func:`~rkhsball.errors.check_int`), so a
quoted number such as ``"1.5"`` is a string and fails; ``--print-config`` too
rejects a malformed config (exit code 2).
``--seed`` sets the seed key, ``scenario.master_seed`` (``quadform``:
``seed``); it, ``--threads`` and ``--theory-mode`` exist only where the key
does.

Each ``cmd_*`` function computes its results and returns them as a dict from
output file name to payload, in the order the files are printed: a summary
``dict``, written as JSON, or a ``(header, rows)`` table, written as CSV.
:func:`run` rejects an ``--out`` that cannot become a directory before the
command runs, creates ``--out`` only after the command has returned, and
:func:`write_output`, the one function that writes an output file, writes each
payload, so a failing command leaves no output directory.  Outputs are
deterministic functions of the config; floats are serialised with 17
significant digits so round-trips are exact.

Exit codes: 0 success, 2 input error, 3 constraint violation, 4 numerical
failure.
"""

from __future__ import annotations

import argparse
import copy
import csv
import dataclasses
import json
import math
import os
import re
import sys

import numpy as np

from .data import Dataset
from .errors import (ConstraintError, InputError, NumericalError, RkhsBallError, check_int,
                     check_real)
from .experiments import (
    ExperimentRecord,
    HatTarget,
    RkhsTarget,
    ScenarioConfig,
    SelectionSettings,
    event_suite,
    quadform_tail_check,
    rate_experiment,
    replicate_seed,
    oracle_gap_check,
)
from .kernels import GaussianKernel, _chaining_constant, width_grid
from .selection_fixed import (GLConfig, fit_radius_path, radius_grid, select_radius,
                              tau_min_fixed)
from .selection_gauss import GaussGLConfig, select_width_radius, tau_min_gauss
from .theory import (
    fixed_kernel_risk_bound,
    interpolation_approx_bound,
    kernel_family_risk_bound,
    scaled_element_approx_bound,
)

# The defaults of each kind of the mappings that name a ``kind``.  The approx numbers
# have none, and come in the order that their kind's bound takes them.
_KINDS = {
    "scenario.target": {
        "rkhs-element": {"kind": "rkhs-element", "gamma0": 1.0, "centers": [[0.5]],
                         "weights": [2.0]},
        "hat": {"kind": "hat", "slope": 1.0, "center": None},
    },
    "approx": {
        "interpolation": {"kind": "interpolation", "b_norm": None, "beta": None},
        "element": {"kind": "element", "norm": None, "sup": None},
    },
}

# The dataclasses' own defaults, with ``default_scenario``'s n and target.
_SCENARIO_DEFAULTS = {
    "n": 200,
    **{f.name: f.default for f in dataclasses.fields(ScenarioConfig)
       if f.name not in ("n", "target")},
    "target": _KINDS["scenario.target"]["rkhs-element"],
}

_SELECTION_DEFAULTS = {f.name: f.default for f in dataclasses.fields(SelectionSettings)
                       if f.name != "theory_mode"}

DEFAULTS = {
    "fit": {
        "data": None,
        "r": None,
        "kernel": {"gamma": 1.0},
    },
    "select": {
        "theory_mode": False,
        "data": None,
        "kernel": {"gamma": 1.0},
        "grid": {"a": 1.0, "b": 0.5},
        "tau": None,
        "nu": 0.5,
        "sigma": 0.1,
    },
    "select-gauss": {
        "theory_mode": False,
        "data": None,
        "widths": {"u": 0.5, "v": 2.0, "c": 2.0},
        "grid": {"a": 1.0, "b": 0.5},
        "tau": None,
        "nu": 0.5,
        "sigma": 0.1,
        "j_const": None,
    },
    "rates": {
        "threads": 1,
        "theory_mode": False,
        "scenario": _SCENARIO_DEFAULTS,
        "n_list": [50, 100, 200, 400, 800],
        "selection": _SELECTION_DEFAULTS,
        "slope_threshold": None,
    },
    "majorant": {
        "threads": 1,
        # The events never clip and draw no holdout.
        "scenario": {key: val for key, val in _SCENARIO_DEFAULTS.items()
                     if key not in ("c", "holdout_size")},
        "t": 1.0,
        "grid": {"a": 1.0, "b": 0.5},
        "widths": {"u": 0.5, "v": 2.0, "c": 2.0},
    },
    "bounds": {
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
        "threads": 1,
        "theory_mode": False,
        "scenario": _SCENARIO_DEFAULTS,
        "selection": _SELECTION_DEFAULTS,
        "threshold": 10.0,
        "pass_fraction": 0.9,
    },
    "quadform": {
        "seed": 0,
        "n": 20,
        "sigma": 1.0,
        "t_list": [1.0, 4.0],
        "replicates": 100000,
    },
}

# Arrays taken as they are: the target classes check their values, shape and dimension.
_ARRAY_KEYS = {"scenario.target.centers", "scenario.target.weights", "scenario.target.center"}

# The type of each key whose default is null; such a key may also stay null.
_NULL_DEFAULT_TYPES = {"data": str, "approx": dict, **dict.fromkeys(
    ["tau", "selection.tau", "selection.kernel_gamma", "j_const", "slope_threshold", "r",
     "approx.b_norm", "approx.beta", "approx.norm", "approx.sup"], float)}

_KIND_NAMES = {dict: "a mapping", list: "a list", bool: "true or false", str: "a string"}


# A line's text before its comment: a ``#`` outside a double-quoted string.
_UNCOMMENTED = re.compile(r'(?:[^"#]|"(?:[^"\\]|\\.)*"?)*')


def _parse_kv_config(text: str) -> dict:
    cfg: dict = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = _UNCOMMENTED.match(raw).group().strip()
        if not line:
            continue
        if "=" not in line:
            raise InputError(f"config line {lineno}: expected 'key = value'")
        key, _, val = line.partition("=")
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
    """``defaults`` with the values of ``override``, each checked against the type of
    the default it replaces and stored converted to that type.  A mapping with a
    ``kind`` replaces its default by the defaults of the kind it names."""
    out = copy.deepcopy(defaults)
    for key, val in override.items():
        full = f"{path}.{key}" if path else key
        if key not in defaults:
            raise InputError(f"unknown config key: {full}")
        base = defaults[key]
        if full in _KINDS and isinstance(val, dict):
            name = val.get("kind", base and base["kind"])
            if name is None:
                raise InputError(f"config key {full}.kind is missing")
            if not isinstance(name, str) or name not in _KINDS[full]:
                raise InputError(f"unknown {key} kind {name!r}")
            base = _KINDS[full][name]
        kind = _NULL_DEFAULT_TYPES.get(full) if base is None else type(base)
        if full in _ARRAY_KEYS or (base is None and val is None):
            out[key] = copy.deepcopy(val)
        elif kind in (int, float):
            out[key] = _number(val, full, kind)
        elif not isinstance(val, kind):
            raise InputError(f"config key {full} must be {_KIND_NAMES[kind]}, got {val!r}")
        elif kind is dict:
            out[key] = _merge_config(base, val, full)
        elif kind is list:
            out[key] = [_number(v, full, type(base[0])) for v in val]
        else:
            out[key] = val
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
        if d < 1:
            raise InputError(f"{path}: line 1: no x_ column, expected x_1,...,x_d,y")
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
    """The config value at ``key`` as ``kind``, by the package's rule for numbers,
    :func:`~rkhsball.errors.check_int` or :func:`~rkhsball.errors.check_real`, with
    no lower bound: the checks downstream name the bounds."""
    name = f"config key {key}"
    if kind is int:
        return check_int(value, name, -math.inf)
    return check_real(value, name, -math.inf)


def _build_scenario(cfg: dict) -> ScenarioConfig:
    scen = cfg["scenario"]
    target = dict(scen["target"])
    build = {"rkhs-element": RkhsTarget, "hat": HatTarget}[target.pop("kind")]
    return ScenarioConfig(**{**scen, "target": build(**target)})


def _build_settings(cfg: dict) -> SelectionSettings:
    return SelectionSettings(**cfg["selection"], theory_mode=cfg["theory_mode"])


def _require(value, key: str, command: str):
    if value is None:
        raise InputError(f"config key {key} is missing: {command} requires it")
    return value


def cmd_fit(cfg: dict) -> dict:
    data = read_data_csv(_require(cfg["data"], "data", "fit"))
    r = _require(cfg["r"], "r", "fit")
    kernel = GaussianKernel(gamma=cfg["kernel"]["gamma"], dim=data.d)
    fit = fit_radius_path(data, kernel, [r])[0]
    return {"fit.json": {
        "kernel": {"gamma": kernel.gamma, "dim": kernel.dim},
        "r": fit.r,
        "mu": fit.mu,
        "h_norm": fit.h_norm,
        "train_loss": fit.train_loss(data.y),
        "coefficients": [float(a) for a in fit.coeffs],
    }}


def _tau(cfg: dict, tau_min, *args) -> float:
    """The configured ``tau``, else the rule's theoretical minimum ``tau_min(*args)``,
    the only value that carries the paper's guarantee; the harness commands keep
    :class:`~rkhsball.experiments.SelectionSettings`' practical default instead."""
    return tau_min(*args) if cfg["tau"] is None else cfg["tau"]


def _selection_outputs(data: Dataset, result, gl, rule: dict) -> dict:
    """A selection's summary, with the rule's entries ``rule``, and its criterion table;
    a width-family result adds ``gamma`` and ``gamma_hat`` and ``_gauss`` file names."""
    family = result.gamma_hat is not None
    suffix = "_gauss" if family else ""
    columns = (("gamma",) if family else ()) + ("r", "bias_proxy", "variance_term", "total")
    summary = {"gamma_hat": result.gamma_hat} if family else {}
    summary.update({
        "r_hat": result.r_hat,
        "mu": result.fit_hat.mu,
        "h_norm": result.fit_hat.h_norm,
        "train_loss": result.fit_hat.train_loss(data.y),
        "tau": gl.tau,
        "nu": gl.nu,
        "sigma": gl.sigma,
        **rule,
        "coefficients": [float(a) for a in result.fit_hat.coeffs],
    })
    return {f"selection{suffix}.json": summary,
            f"criterion{suffix}.csv": (columns, [[getattr(row, col) for col in columns]
                                                 for row in result.criterion])}


def cmd_select(cfg: dict) -> dict:
    data = read_data_csv(_require(cfg["data"], "data", "select"))
    kernel = GaussianKernel(gamma=cfg["kernel"]["gamma"], dim=data.d)
    gl = GLConfig(tau=_tau(cfg, tau_min_fixed, kernel.diag_sup, cfg["sigma"]), nu=cfg["nu"],
                  sigma=cfg["sigma"], k_diag=kernel.diag_sup, theory_mode=cfg["theory_mode"])
    grid = radius_grid(**cfg["grid"], n=data.n)
    return _selection_outputs(data, select_radius(data, kernel, grid, gl), gl,
                              {"k_diag": gl.k_diag,
                               "grid": {**cfg["grid"], "size": len(grid)}})


def cmd_select_gauss(cfg: dict) -> dict:
    data = read_data_csv(_require(cfg["data"], "data", "select-gauss"))
    widths = width_grid(**cfg["widths"])
    j_const = _chaining_constant(cfg["j_const"], widths[0], widths[-1])
    grid = radius_grid(**cfg["grid"], n=data.n)
    gl = GaussGLConfig(tau=_tau(cfg, tau_min_gauss, j_const, cfg["sigma"]), nu=cfg["nu"],
                       sigma=cfg["sigma"], dim=data.d, width_grid=widths, radius_grid=grid,
                       j_const=j_const, theory_mode=cfg["theory_mode"])
    return _selection_outputs(data, select_width_radius(data, gl), gl,
                              {"j_const": gl.j_const, "widths": list(widths),
                               "grid_size": len(grid)})


def _summary(report) -> dict:
    """A harness report's summary: its fields except the per-replicate ``records`` and
    ``indicators``, which go to the CSV."""
    return {f.name: getattr(report, f.name) for f in dataclasses.fields(report)
            if f.name not in ("records", "indicators")}


def _records_table(records) -> tuple:
    """Experiment records as a table whose columns are :class:`ExperimentRecord`'s fields."""
    return ([f.name for f in dataclasses.fields(ExperimentRecord)],
            [dataclasses.astuple(rec) for rec in records])


def cmd_rates(cfg: dict) -> dict:
    scenario = _build_scenario(cfg)
    report = rate_experiment(scenario, cfg["n_list"], _build_settings(cfg),
                             threads=cfg["threads"])
    summary = {"config": _echo_config(cfg), "aggregates": _summary(report)}
    thr = cfg["slope_threshold"]
    if thr is not None:
        summary["passed"] = (not report.degenerate and report.slope is not None
                             and report.slope <= thr)
    return {"rates.csv": _records_table(report.records), "rates_summary.json": summary}


def cmd_majorant(cfg: dict) -> dict:
    scenario = _build_scenario(cfg)
    widths = width_grid(**cfg["widths"])
    reports = event_suite(scenario, widths, radius_grid(**cfg["grid"], n=scenario.n), cfg["t"],
                          threads=cfg["threads"])
    rows = [(i, scenario.n, *held, replicate_seed(scenario.master_seed, i))
            for i, held in enumerate(zip(*(rep.indicators for rep in reports.values())))]
    summary = {"config": _echo_config(cfg),
               "events": {name: _summary(rep) for name, rep in reports.items()}}
    if "bias" not in reports:
        summary["note"] = (f"bias and majorant are read at the target width "
                           f"{scenario.target.gamma0!r}, which is not a value of widths "
                           f"{list(widths)!r}")
    return {"majorant.csv": (("replicate", "n", *reports, "seed"), rows),
            "majorant_summary.json": summary}


def cmd_oracle_gap(cfg: dict) -> dict:
    report = oracle_gap_check(_build_scenario(cfg), _build_settings(cfg),
                              threshold=cfg["threshold"], pass_fraction=cfg["pass_fraction"],
                              threads=cfg["threads"])
    return {"oracle_gap.csv": _records_table(report.records),
            "oracle_gap_summary.json": {"config": _echo_config(cfg), **_summary(report)}}


def cmd_quadform(cfg: dict) -> dict:
    report = quadform_tail_check(cfg["n"], cfg["sigma"], t_list=cfg["t_list"],
                                 replicates=cfg["replicates"], master_seed=cfg["seed"])
    return {"quadform_summary.json": {"config": _echo_config(cfg), **_summary(report)}}


def _approx_fn(cfg: dict):
    spec = cfg["approx"]
    if spec is None:
        return lambda r: 0.0
    bound = {"interpolation": interpolation_approx_bound,
             "element": scaled_element_approx_bound}[spec["kind"]]
    args = [_require(val, f"approx.{key}", "bounds") for key, val in spec.items()
            if key != "kind"]
    return lambda r: bound(*args, r)


def cmd_bounds(cfg: dict) -> dict:
    r_spec = cfg["r"]
    r_min = check_real(r_spec["min"], "r.min", 0.0, strict=False)
    r_max, count = r_spec["max"], check_int(r_spec["count"], "r.count")
    if r_max < r_min:
        raise InputError(f"r.max must be at least r.min, got {r_spec!r}")
    approx = _approx_fn(cfg)
    if cfg["approx"] is not None and cfg["approx"]["kind"] == "interpolation" and r_min == 0:
        raise InputError("interpolation approx bound is undefined at r = 0; use r.min > 0")
    j_const = _chaining_constant(cfg["j_const"], **cfg["widths"])
    k_diag, c, sigma, t, n = (cfg[key] for key in ("k_diag", "c", "sigma", "t", "n"))
    radii = np.linspace(r_min, r_max, count)
    rows = []
    for r in radii:
        a_sq = approx(float(r))
        rows.append((float(r), a_sq,
                     fixed_kernel_risk_bound(k_diag, c, sigma, float(r), t, n, a_sq),
                     kernel_family_risk_bound(j_const, k_diag, c, sigma, float(r), t, n, a_sq)))
    return {"bounds.csv": (("r", "approx_sq", "fixed_risk_bound", "family_risk_bound"), rows)}


def _echo_config(cfg: dict) -> dict:
    # ``threads`` is left out so that summaries are byte-identical at any thread count.
    return {key: copy.deepcopy(val) for key, val in cfg.items() if key != "threads"}


def json_value(value) -> str:
    """JSON text of ``value``; floats carry 17 significant digits, NaN and inf are null."""
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        if math.isnan(value) or math.isinf(value):
            return "null"
        return format(value, ".17g")
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, dict):
        items = [f"{json.dumps(str(k))}: {json_value(v)}" for k, v in value.items()]
        return "{" + ", ".join(items) + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(json_value(v) for v in value) + "]"
    if isinstance(value, np.floating):
        return json_value(float(value))
    if dataclasses.is_dataclass(value):
        return json_value(dataclasses.asdict(value))
    raise InputError(f"cannot serialise {type(value).__name__} to JSON")


def write_output(path: str, payload) -> None:
    """Write one subcommand output: a summary ``dict`` as JSON, or a ``(header, rows)``
    table as CSV, where None is an empty cell.  Floats carry 17 significant digits,
    so round-trips are exact and outputs are byte-stable."""
    if isinstance(payload, dict):
        lines = [json_value(payload)]
    else:
        header, rows = payload
        lines = [",".join(header)]
        for row in rows:
            lines.append(",".join("" if cell is None
                                  else format(cell, ".17g") if isinstance(cell, float)
                                  else str(cell) for cell in row))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


COMMANDS = {
    "fit": cmd_fit,
    "select": cmd_select,
    "select-gauss": cmd_select_gauss,
    "rates": cmd_rates,
    "majorant": cmd_majorant,
    "bounds": cmd_bounds,
    "oracle-gap": cmd_oracle_gap,
    "quadform": cmd_quadform,
}


def _seed_slot(cfg: dict):
    """The mapping and key of a subcommand's seed, or None when it draws no random numbers."""
    if "scenario" in cfg:
        return cfg["scenario"], "master_seed"
    return (cfg, "seed") if "seed" in cfg else None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="rkhsball",
                                     description="Constrained kernel regression with "
                                                 "adaptive radius/width selection")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        defaults = DEFAULTS[name]
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="JSON or key=value config file")
        if _seed_slot(defaults) is not None:
            p.add_argument("--seed", type=int, default=None, help="override the seed key")
        p.add_argument("--out", default=".", help="output directory")
        if "threads" in defaults:
            p.add_argument("--threads", type=int, default=None, help="worker thread cap")
        if "theory_mode" in defaults:
            p.add_argument("--theory-mode", action="store_true",
                           help="enforce theoretical tuning constraints strictly")
        p.add_argument("--print-config", action="store_true",
                       help="print the effective config and exit")
    return parser


def _check_out(out: str) -> None:
    """Reject an ``--out`` that cannot become a directory: it, or its nearest
    existing ancestor, exists and is not a directory."""
    path = os.path.abspath(out)
    while not os.path.lexists(path):
        path = os.path.dirname(path)
    if not os.path.isdir(path):
        raise InputError(f"--out {out}: {path} exists and is not a directory")


def run(argv=None) -> int:
    args = build_parser().parse_args(argv)
    flags = vars(args)
    cfg = copy.deepcopy(DEFAULTS[args.command])
    if args.config is not None:
        cfg = _merge_config(cfg, load_config_file(args.config))
    if flags.get("seed") is not None:
        node, key = _seed_slot(cfg)
        node[key] = args.seed
    if flags.get("threads") is not None:
        cfg["threads"] = args.threads
    if flags.get("theory_mode"):
        cfg["theory_mode"] = True
    if args.print_config:
        sys.stdout.write(json_value(cfg) + "\n")
        return 0
    _check_out(args.out)
    outputs = COMMANDS[args.command](cfg)
    os.makedirs(args.out, exist_ok=True)
    for name, payload in outputs.items():
        path = os.path.join(args.out, name)
        write_output(path, payload)
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
