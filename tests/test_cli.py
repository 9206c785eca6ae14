import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import rkhsball
from rkhsball.cli import COMMANDS, DEFAULTS, main
from rkhsball.experiments import (bias_event_check, default_scenario, event_suite,
                                  gauss_majorant_event_check, majorant_event_check)
from rkhsball.kernels import width_grid
from rkhsball.selection_fixed import radius_grid


def _write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def _data_csv(path, rows, d=1):
    header = ",".join([f"x_{i}" for i in range(1, d + 1)] + ["y"])
    body = "\n".join(",".join(str(v) for v in row) for row in rows)
    return _write(path, header + "\n" + body + "\n")


@pytest.fixture
def unit_data(tmp_path):
    return _data_csv(tmp_path / "data.csv", [[0.0, 2.0]])


class TestFit:
    def test_closed_form_instance(self, tmp_path, unit_data, capsys):
        cfg = _write(tmp_path / "cfg.json",
                     json.dumps({"data": unit_data, "r": 1.0, "kernel": {"gamma": 1.0}}))
        assert main(["fit", "--config", cfg, "--out", str(tmp_path)]) == 0
        out = json.loads((tmp_path / "fit.json").read_text())
        assert out["mu"] == pytest.approx(1.0, abs=1e-10)
        assert out["coefficients"] == [pytest.approx(1.0, abs=1e-10)]
        assert out["h_norm"] == pytest.approx(1.0, abs=1e-10)

    def test_zero_radius_loss(self, tmp_path):
        data = _data_csv(tmp_path / "d.csv", [[0.1, 1.0], [0.4, 3.0]])
        cfg = _write(tmp_path / "cfg.json", json.dumps({"data": data, "r": 0.0}))
        assert main(["fit", "--config", cfg, "--out", str(tmp_path)]) == 0
        out = json.loads((tmp_path / "fit.json").read_text())
        assert out["coefficients"] == [0.0, 0.0]
        assert out["train_loss"] == pytest.approx((1.0 + 9.0) / 2.0)

    def test_missing_y_column(self, tmp_path):
        bad = _write(tmp_path / "bad.csv", "x_1,z\n0.0,1.0\n")
        cfg = _write(tmp_path / "cfg.json", json.dumps({"data": bad, "r": 1.0}))
        assert main(["fit", "--config", cfg, "--out", str(tmp_path)]) == 2

    def test_missing_x_column(self, tmp_path, capsys):
        bad = _write(tmp_path / "bad.csv", "y\n1.0\n2.0\n")
        cfg = _write(tmp_path / "cfg.json", json.dumps({"data": bad, "r": 1.0}))
        assert main(["fit", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "bad.csv: line 1: no x_ column" in capsys.readouterr().err

    def test_malformed_row_reports_line(self, tmp_path, capsys):
        bad = _write(tmp_path / "bad.csv", "x_1,y\n0.0,1.0\n0.5,oops\n")
        cfg = _write(tmp_path / "cfg.json", json.dumps({"data": bad, "r": 1.0}))
        assert main(["fit", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "line 3" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_value_reports_line(self, tmp_path, capsys, value):
        bad = _data_csv(tmp_path / "bad.csv", [[0.0, 1.0], [0.5, value], [0.7, 0.2]])
        cfg = _write(tmp_path / "cfg.json", json.dumps({"data": bad, "r": 1.0}))
        assert main(["fit", "--config", cfg, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "bad.csv: line 3" in err and "non-finite" in err

    def test_width_overflow_rejected(self, tmp_path, capsys):
        data = _data_csv(tmp_path / "d.csv", [[0.5] * 200 + [1.0]], d=200)
        cfg = _write(tmp_path / "cfg.json",
                     json.dumps({"data": data, "r": 1.0, "kernel": {"gamma": 1e-3}}))
        assert main(["fit", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "overflows" in capsys.readouterr().err

    def test_missing_r(self, tmp_path, unit_data):
        cfg = _write(tmp_path / "cfg.json", json.dumps({"data": unit_data}))
        assert main(["fit", "--config", cfg, "--out", str(tmp_path)]) == 2


class TestSelect:
    def _config(self, tmp_path, data, **extra):
        body = {"data": data, "sigma": 0.1, "tau": 0.8, "nu": 0.5, **extra}
        return _write(tmp_path / "sel.json", json.dumps(body))

    def test_select_runs_and_is_deterministic(self, tmp_path):
        rng = np.random.default_rng(0)
        rows = [[float(x), float(2 * math.exp(-x * x) + 0.1 * e)]
                for x, e in zip(rng.uniform(size=30), rng.normal(size=30))]
        data = _data_csv(tmp_path / "d.csv", rows)
        cfg = self._config(tmp_path, data)
        out1 = tmp_path / "o1"
        out2 = tmp_path / "o2"
        with pytest.warns(UserWarning):
            assert main(["select", "--config", cfg, "--out", str(out1)]) == 0
        with pytest.warns(UserWarning):
            assert main(["select", "--config", cfg, "--out", str(out2)]) == 0
        assert (out1 / "selection.json").read_bytes() == (out2 / "selection.json").read_bytes()
        assert (out1 / "criterion.csv").read_bytes() == (out2 / "criterion.csv").read_bytes()
        sel = json.loads((out1 / "selection.json").read_text())
        assert "r_hat" in sel and sel["tau"] == 0.8

    def test_zero_data_selects_zero(self, tmp_path):
        data = _data_csv(tmp_path / "d.csv", [[0.1, 0.0], [0.5, 0.0], [0.9, 0.0]])
        cfg = self._config(tmp_path, data)
        with pytest.warns(UserWarning):
            assert main(["select", "--config", cfg, "--out", str(tmp_path)]) == 0
        sel = json.loads((tmp_path / "selection.json").read_text())
        assert sel["r_hat"] == 0.0

    def test_theory_mode_rejects_low_tau(self, tmp_path, unit_data):
        cfg = self._config(tmp_path, unit_data, tau=4.0)  # tau_min = 8 at sigma 0.1
        assert main(["select", "--config", cfg, "--out", str(tmp_path),
                     "--theory-mode"]) == 3

    def test_tau_defaults_to_theoretical_minimum(self, tmp_path, unit_data):
        cfg = _write(tmp_path / "s.json", json.dumps({"data": unit_data, "sigma": 0.1}))
        assert main(["select", "--config", cfg, "--out", str(tmp_path)]) == 0
        sel = json.loads((tmp_path / "selection.json").read_text())
        assert sel["tau"] == pytest.approx(8.0)

    def test_points_far_from_origin(self, tmp_path):
        # 300 points in [1000, 1001]^3: the Gram keeps its accuracy, so the
        # PSD check passes and the selection is that of the unshifted points.
        rng = np.random.default_rng(0)
        x = rng.uniform(size=(300, 3))
        y = np.sin(3.0 * x.sum(axis=1)) + 0.1 * rng.normal(size=300)
        chosen = []
        for shift in (0.0, 1000.0):
            out = tmp_path / f"o{shift:g}"
            rows = [[*map(float, point + shift), float(v)] for point, v in zip(x, y)]
            data = _data_csv(tmp_path / f"d{shift:g}.csv", rows, d=3)
            cfg = self._config(tmp_path, data, tau=0.05)
            with pytest.warns(UserWarning):
                assert main(["select", "--config", cfg, "--out", str(out)]) == 0
            chosen.append(json.loads((out / "selection.json").read_text())["r_hat"])
        assert chosen[0] == chosen[1] > 0.0


class TestSelectGauss:
    def test_runs(self, tmp_path):
        rng = np.random.default_rng(1)
        rows = [[float(x), float(np.sin(3 * x) + 0.1 * e)]
                for x, e in zip(rng.uniform(size=25), rng.normal(size=25))]
        data = _data_csv(tmp_path / "d.csv", rows)
        cfg = _write(tmp_path / "g.json",
                     json.dumps({"data": data, "sigma": 0.1, "tau": 0.8,
                                 "widths": {"u": 0.5, "v": 2.0, "c": 2.0}}))
        with pytest.warns(UserWarning):
            assert main(["select-gauss", "--config", cfg, "--out", str(tmp_path)]) == 0
        sel = json.loads((tmp_path / "selection_gauss.json").read_text())
        assert sel["gamma_hat"] in [0.5, 1.0, 2.0]
        crit = (tmp_path / "criterion_gauss.csv").read_text().splitlines()
        assert crit[0] == "gamma,r,bias_proxy,variance_term,total"


class TestRates:
    def _config(self, tmp_path):
        return _write(tmp_path / "r.json", json.dumps({
            "scenario": {"n": 16, "replicates": 3, "holdout_size": 200, "master_seed": 4},
            "n_list": [8, 12, 16, 24],
            "selection": {"tau": 1.0},
        }))

    def test_outputs_and_determinism(self, tmp_path):
        cfg = self._config(tmp_path)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["rates", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["rates", "--config", cfg, "--out", str(out2)]) == 0
        assert (out1 / "rates.csv").read_bytes() == (out2 / "rates.csv").read_bytes()
        header = (out1 / "rates.csv").read_text().splitlines()[0]
        assert header == "replicate,n,gamma_hat,r_hat,err_adaptive,err_oracle_grid,seed"
        summary = json.loads((out1 / "rates_summary.json").read_text())
        assert summary["aggregates"]["n_list"] == [8, 12, 16, 24]

    def test_seed_flag_changes_output(self, tmp_path):
        cfg = self._config(tmp_path)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["rates", "--config", cfg, "--out", str(out1), "--seed", "4"]) == 0
        assert main(["rates", "--config", cfg, "--out", str(out2), "--seed", "5"]) == 0
        assert (out1 / "rates.csv").read_bytes() != (out2 / "rates.csv").read_bytes()
        for out, seed in ((out1, 4), (out2, 5)):
            echoed = json.loads((out / "rates_summary.json").read_text())["config"]
            assert echoed["scenario"]["master_seed"] == seed and "seed" not in echoed


class TestThreadCount:
    @pytest.mark.parametrize("command, config", [
        ("rates", {"scenario": {"n": 16, "replicates": 3, "holdout_size": 200,
                                "master_seed": 4},
                   "n_list": [8, 12, 16, 24], "selection": {"tau": 1.0}}),
        ("majorant", {"scenario": {"n": 30, "replicates": 6}, "t": 1.0,
                      "grid": {"a": 1.0, "b": 1.0}}),
        # The default 10 000 holdout points at n = 40 are two blocks, so the
        # later one goes through the pivot basis.
        ("oracle-gap", {"scenario": {"n": 40, "replicates": 4}}),
        # Widths without the target width: the family event alone.
        ("majorant", {"scenario": {"n": 30, "replicates": 6}, "t": 1.0,
                      "grid": {"a": 1.0, "b": 1.0}, "widths": {"u": 1.5, "v": 3.0, "c": 2.0}}),
        # The target width is the widest of the grid.
        ("majorant", {"scenario": {"n": 30, "replicates": 6,
                                   "target": {"gamma0": 2.0, "centers": [[0.3]],
                                              "weights": [1.5]}},
                      "t": 1.0, "grid": {"a": 1.0, "b": 1.0}}),
    ])
    def test_outputs_identical_across_threads(self, tmp_path, command, config):
        cfg = _write(tmp_path / "c.json", json.dumps(config))
        outs = [tmp_path / f"t{threads}" for threads in (1, 2)]
        for threads, out in zip((1, 2), outs):
            assert main([command, "--config", cfg, "--out", str(out),
                         "--threads", str(threads)]) == 0
        stem = command.replace("-", "_")
        names = sorted(path.name for path in outs[0].iterdir())
        assert names == [f"{stem}.csv", f"{stem}_summary.json"]
        assert names == sorted(path.name for path in outs[1].iterdir())
        for name in names:
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


class TestBlasThreadCount:
    def test_selection_stable_across_blas_threads(self, tmp_path):
        # Bytes are fixed only for a given BLAS thread count: at another count
        # the BLAS sums in another order.  The selected cell must stay, and the
        # criterion totals and coefficients may move in their last digits only.
        rng = np.random.default_rng(0)
        x = rng.uniform(size=(600, 3))
        y = np.sin(3.0 * x.sum(axis=1)) + 0.1 * rng.normal(size=600)
        data = _data_csv(tmp_path / "d.csv", np.column_stack([x, y]).tolist(), d=3)
        cfg = _write(tmp_path / "c.json", json.dumps({"data": data, "tau": 0.8}))
        src = str(Path(rkhsball.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        runs = []
        for threads in (1, 2):
            out = tmp_path / f"blas{threads}"
            env = {**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": str(threads)}
            subprocess.run([sys.executable, "-m", "rkhsball.cli", "select-gauss",
                            "--config", cfg, "--out", str(out)],
                           env=env, check=True, capture_output=True, timeout=600)
            runs.append((json.loads((out / "selection_gauss.json").read_text()),
                         np.loadtxt(out / "criterion_gauss.csv", delimiter=",", skiprows=1)))
        (sel1, crit1), (sel2, crit2) = runs
        assert (sel1["gamma_hat"], sel1["r_hat"]) == (sel2["gamma_hat"], sel2["r_hat"])
        assert np.array_equal(crit1[:, :2], crit2[:, :2])
        np.testing.assert_allclose(crit2[:, 4], crit1[:, 4], rtol=1e-12, atol=0.0)
        coeffs1, coeffs2 = np.array(sel1["coefficients"]), np.array(sel2["coefficients"])
        assert np.abs(coeffs1 - coeffs2).max() <= 1e-7 * np.abs(coeffs1).max()


class TestMajorant:
    _SCENARIO = {"n": 30, "replicates": 6, "master_seed": 5}
    _GRID = {"a": 1.0, "b": 1.0}

    def _run(self, tmp_path, config, threads=1):
        cfg = _write(tmp_path / "m.json", json.dumps(config))
        out = tmp_path / f"t{threads}"
        assert main(["majorant", "--config", cfg, "--out", str(out),
                     "--threads", str(threads)]) == 0
        with open(out / "majorant.csv", encoding="utf-8") as fh:
            header, *rows = [line.split(",") for line in fh.read().splitlines()]
        summary = json.loads((out / "majorant_summary.json").read_text())
        return header, rows, summary

    def test_summary_fields(self, tmp_path):
        header, rows, summary = self._run(tmp_path, {
            "scenario": {"n": 30, "replicates": 15}, "t": 1.0, "grid": self._GRID})
        assert header == ["replicate", "n", "gauss-majorant", "bias", "majorant", "seed"]
        assert len(rows) == 15
        assert all(cell in {"0", "1"} for row in rows for cell in row[2:5])
        assert list(summary) == ["config", "events"] and "event" not in summary["config"]
        assert list(summary["events"]) == ["gauss-majorant", "bias", "majorant"]
        for name, fields in summary["events"].items():
            assert fields["name"] == name and fields["replicates"] == 15
            assert fields["floor"] == pytest.approx(1.0 - math.exp(-1.0), abs=1e-12)
            assert isinstance(fields["passed"], bool)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_columns_are_the_one_event_checks(self, tmp_path, threads):
        header, rows, summary = self._run(
            tmp_path, {"scenario": self._SCENARIO, "grid": self._GRID}, threads)
        scen = default_scenario(n=30, replicates=6, master_seed=5)
        grid = radius_grid(1.0, 1.0, 30)
        checks = {
            "gauss-majorant": gauss_majorant_event_check(scen, width_grid(0.5, 2.0, 2.0),
                                                         grid, 1.0),
            "bias": bias_event_check(scen, grid, 1.0),
            "majorant": majorant_event_check(scen, grid, 1.0),
        }
        columns = dict(zip(header, zip(*rows)))
        assert list(columns) == ["replicate", "n", *checks, "seed"]
        assert columns["replicate"] == tuple(str(i) for i in range(6))
        for name, rep in checks.items():
            assert columns[name] == tuple(str(ind) for ind in rep.indicators)
            assert summary["events"][name]["successes"] == rep.successes

    def test_each_column_is_its_event(self, tmp_path, monkeypatch):
        # Every event holds on every replicate of these configs; give each event
        # its own pattern, so a column written under another event's name shows.
        def suite(*args, **kwargs):
            return {name: dataclasses.replace(rep, indicators=tuple(
                        int(i == k) for i in range(rep.replicates)))
                    for k, (name, rep) in enumerate(event_suite(*args, **kwargs).items())}
        monkeypatch.setattr("rkhsball.cli.event_suite", suite)
        header, rows, _ = self._run(tmp_path, {"scenario": self._SCENARIO, "grid": self._GRID})
        assert header[2:5] == ["gauss-majorant", "bias", "majorant"]
        assert [row[2:5] for row in rows[:4]] == [["1", "0", "0"], ["0", "1", "0"],
                                                  ["0", "0", "1"], ["0", "0", "0"]]

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("widths", [
        {"u": 1.5, "v": 3.0, "c": 2.0},
        # sqrt(5)**2 * 0.2 is 1.0000000000000002, not the target width 1.0.
        {"u": 0.2, "v": 2.0, "c": math.sqrt(5.0)},
    ])
    def test_widths_without_the_target_width(self, tmp_path, threads, widths):
        header, rows, summary = self._run(
            tmp_path, {"scenario": self._SCENARIO, "grid": self._GRID, "widths": widths},
            threads)
        assert header == ["replicate", "n", "gauss-majorant", "seed"]
        family = gauss_majorant_event_check(default_scenario(n=30, replicates=6, master_seed=5),
                                            width_grid(**widths), radius_grid(1.0, 1.0, 30), 1.0)
        assert [row[2] for row in rows] == [str(ind) for ind in family.indicators]
        assert list(summary["events"]) == ["gauss-majorant"]
        assert summary["note"].startswith("bias and majorant are read at the target width 1.0,")


class TestBounds:
    def test_zero_radius_row_is_zero(self, tmp_path):
        assert main(["bounds", "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "bounds.csv").read_text().splitlines()
        assert lines[0] == "r,approx_sq,fixed_risk_bound,family_risk_bound"
        first = lines[1].split(",")
        assert float(first[0]) == 0.0
        assert all(float(v) == 0.0 for v in first[1:])

    def test_element_approx_model(self, tmp_path):
        cfg = _write(tmp_path / "b.json", json.dumps({
            "approx": {"kind": "element", "norm": 2.0, "sup": 2.0},
            "r": {"min": 0.0, "max": 4.0, "count": 5},
        }))
        assert main(["bounds", "--config", cfg, "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "bounds.csv").read_text().splitlines()
        rows = [line.split(",") for line in lines[1:]]
        assert float(rows[0][1]) == pytest.approx(4.0)   # r=0: sup^2
        assert float(rows[-1][1]) == 0.0                 # r=4 beyond norm

    def test_interpolation_rejects_zero_min(self, tmp_path):
        cfg = _write(tmp_path / "b.json", json.dumps({
            "approx": {"kind": "interpolation", "b_norm": 1.0, "beta": 0.5}}))
        assert main(["bounds", "--config", cfg, "--out", str(tmp_path)]) == 2


class TestRanges:
    @pytest.mark.parametrize("command,config,expected", [
        ("bounds", {"k_diag": -1.0}, "k_diag must be greater than 0, got -1.0"),
        ("bounds", {"c": -1.0}, "c must be greater than 0, got -1.0"),
        ("bounds", {"sigma": -0.1}, "sigma must be greater than 0, got -0.1"),
        ("bounds", {"j_const": -1.0}, "j_const must be greater than 0, got -1.0"),
        ("bounds", {"r": {"min": -1.0}}, "r.min must be at least 0, got -1.0"),
        ("bounds", {"r": {"count": 0}}, "r.count must be at least 1, got 0"),
        ("oracle-gap", {"threshold": -1.0, "pass_fraction": 0.0},
         "threshold must be at least 1, got -1.0"),
        ("oracle-gap", {"pass_fraction": 0.0}, "pass_fraction must be greater than 0, got 0.0"),
        ("oracle-gap", {"pass_fraction": 1.5}, "pass_fraction must be at most 1, got 1.5"),
        ("oracle-gap", {"selection": {"grid_b": -1.0}}, "grid_b must be greater than 0, got -1.0"),
    ])
    def test_out_of_range_writes_nothing(self, tmp_path, capsys, command, config, expected):
        cfg = _write(tmp_path / "c.json", json.dumps(config))
        out = tmp_path / "out"
        assert main([command, "--config", cfg, "--out", str(out)]) == 2
        assert expected in capsys.readouterr().err
        assert not out.exists()


class TestConfigHandling:
    def test_print_config(self, tmp_path, capsys):
        assert main(["bounds", "--print-config"]) == 0
        parsed = json.loads(capsys.readouterr().out)
        assert parsed["k_diag"] == 1.0 and parsed["r"]["count"] == 11

    @pytest.mark.parametrize("command", COMMANDS)
    def test_printed_config_reads_back_unchanged(self, tmp_path, capsys, command):
        # Every default passes the type check that the config file's values get.
        assert main([command, "--print-config"]) == 0
        printed = capsys.readouterr().out
        cfg = _write(tmp_path / "c.json", printed)
        assert main([command, "--config", cfg, "--print-config"]) == 0
        assert capsys.readouterr().out == printed

    @pytest.mark.parametrize("command,key", [
        ("bounds", "bogus"),
        ("select", "clip"),
        ("rates", "seed"),
        ("fit", "threads"),
        ("majorant", "theory_mode"),
        ("majorant", "replicates"),
        ("oracle-gap", "replicates"),
        ("majorant", "scenario.c"),
        ("majorant", "event"),
    ])
    def test_unknown_key_rejected(self, tmp_path, capsys, command, key):
        config = 1
        for part in reversed(key.split(".")):
            config = {part: config}
        cfg = _write(tmp_path / "c.json", json.dumps(config))
        assert main([command, "--config", cfg, "--out", str(tmp_path)]) == 2
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("command,flag", [
        ("fit", ["--seed", "1"]),
        ("bounds", ["--threads", "2"]),
        ("quadform", ["--theory-mode"]),
    ])
    def test_flag_without_its_key_is_a_usage_error(self, tmp_path, command, flag):
        with pytest.raises(SystemExit) as exc:
            main([command, "--out", str(tmp_path), *flag])
        assert exc.value.code == 2

    def test_nested_unknown_key_rejected(self, tmp_path):
        cfg = _write(tmp_path / "c.json", json.dumps({"scenario": {"bogus": 1}}))
        assert main(["rates", "--config", cfg, "--out", str(tmp_path)]) == 2

    def test_key_value_format(self, tmp_path):
        cfg = _write(tmp_path / "c.conf", "\n".join([
            "# comment",
            "scenario.n = 16",
            "scenario.replicates = 2",
            "scenario.holdout_size = 100",
            "n_list = [8, 12, 16, 24]",
            "selection.tau = 1.0",
        ]))
        out = tmp_path / "out"
        assert main(["rates", "--config", cfg, "--out", str(out)]) == 0
        summary = json.loads((out / "rates_summary.json").read_text())
        assert summary["config"]["scenario"]["n"] == 16

    @pytest.mark.parametrize("comment", ["", "  # note"])
    def test_hash_inside_quoted_value_is_kept(self, tmp_path, comment):
        data = _data_csv(tmp_path / "d#1.csv", [[0.1, 1.0], [0.4, 3.0]])
        as_json = _write(tmp_path / "c.json", json.dumps({"data": data, "r": 1.5}))
        as_kv = _write(tmp_path / "c.conf",
                       f"# a fit\ndata = {json.dumps(data)}{comment}\nr = 1.5 # radius\n")
        assert main(["fit", "--config", as_json, "--out", str(tmp_path / "json")]) == 0
        assert main(["fit", "--config", as_kv, "--out", str(tmp_path / "kv")]) == 0
        written = (tmp_path / "kv" / "fit.json").read_bytes()
        assert written == (tmp_path / "json" / "fit.json").read_bytes()
        assert json.loads(written)["r"] == 1.5

    def test_missing_config_file(self, tmp_path):
        assert main(["rates", "--config", str(tmp_path / "nope.json")]) == 2

    def test_quadform_subcommand(self, tmp_path):
        cfg = _write(tmp_path / "q.json", json.dumps({"n": 8, "replicates": 500}))
        assert main(["quadform", "--config", cfg, "--out", str(tmp_path)]) == 0
        summary = json.loads((tmp_path / "quadform_summary.json").read_text())
        assert summary["sample_mean"] <= 2.0 + 3.0 * summary["stderr"]

    def test_oracle_gap_subcommand(self, tmp_path):
        cfg = _write(tmp_path / "o.json", json.dumps({
            "scenario": {"n": 16, "replicates": 3, "holdout_size": 100},
            "selection": {"tau": 1.0}}))
        assert main(["oracle-gap", "--config", cfg, "--out", str(tmp_path)]) == 0
        summary = json.loads((tmp_path / "oracle_gap_summary.json").read_text())
        assert 0.0 <= summary["fraction_within"] <= 1.0


# A rates config that runs in well under a second.
_SMALL_SCENARIO = {"n": 16, "replicates": 2, "holdout_size": 100}
_SMALL_RATES = {"scenario": _SMALL_SCENARIO, "n_list": [8, 12, 16, 24],
                "selection": {"tau": 1.0}}


def _target_config(target: dict) -> dict:
    """A small oracle-gap config with scenario target ``target`` and the explicit
    kernel width that a hat target needs."""
    return {"scenario": {**_SMALL_SCENARIO, "target": target},
            "selection": {"kernel_gamma": 1.0}}


class TestReplicatesBoundary:
    @pytest.mark.parametrize("command,config,expected", [
        ("quadform", {"n": 8, "replicates": -3}, 2),
        ("quadform", {"n": 8, "replicates": 1}, 2),
        ("oracle-gap", {"scenario": {"n": 16, "replicates": 0, "holdout_size": 100}}, 1),
        ("majorant", {"scenario": {"n": 16, "replicates": 0}}, 1),
        ("quadform", {"n": 8, "t_list": 5}, "config key t_list must be a list, got 5"),
        ("rates", {"n_list": 5}, "config key n_list must be a list, got 5"),
        ("bounds", {"approx": {"kind": "element", "sup": 1.0}},
         "config key approx.norm must be a real number, got None"),
        ("rates", {"theory_mode": "abc"}, "config key theory_mode must be true or false"),
        ("rates", {**_SMALL_RATES, "scenario": {**_SMALL_SCENARIO, "master_seed": -1}},
         "master_seed must be at least 0, got -1"),
        ("quadform", {"n": 8, "replicates": 500, "seed": -2},
         "master_seed must be at least 0, got -2"),
        ("rates", {**_SMALL_RATES, "scenario": {**_SMALL_SCENARIO, "master_seed": 1.5}},
         "config key scenario.master_seed must be an integer, got 1.5"),
        ("rates", {**_SMALL_RATES, "scenario": {**_SMALL_SCENARIO, "n": 30.7}},
         "config key scenario.n must be an integer, got 30.7"),
        ("rates", {**_SMALL_RATES, "threads": 0}, "threads must be at least 1, got 0"),
        ("rates", {"scenario": 5}, "config key scenario must be a mapping, got 5"),
        ("select", {"data": 0}, "config key data must be a string, got 0"),
        ("fit", {"data": "data.csv", "r": True}, "config key r must be a real number, got True"),
        ("select", {"data": "data.csv", "grid": {"a": True}},
         "config key grid.a must be a real number, got True"),
        ("rates", {**_SMALL_RATES, "n_list": [8, True, 16, 24]},
         "config key n_list must be an integer, got True"),
        ("rates", {**_SMALL_RATES, "scenario": {**_SMALL_SCENARIO, "design": 5}},
         "config key scenario.design must be a string, got 5"),
        # JSON's Infinity and NaN load as floats.
        ("select", {"data": "data.csv", "grid": {"a": math.inf}},
         "config key grid.a must be finite, got inf"),
        ("select-gauss", {"data": "data.csv", "widths": {"v": math.inf}},
         "config key widths.v must be finite, got inf"),
        ("fit", {"data": "data.csv", "r": math.inf}, "config key r must be finite, got inf"),
        ("fit", {"data": "data.csv", "r": math.nan}, "config key r must be finite, got nan"),
        ("oracle-gap", _target_config({"weights": "abc"}),
         "target weights must be finite numbers, got 'abc'"),
        ("oracle-gap", _target_config({"centers": "x"}),
         "target centers must be finite numbers, got 'x'"),
        ("oracle-gap", _target_config({"weights": [math.nan]}),
         "target weights must be finite numbers, got [nan]"),
        ("oracle-gap", _target_config({"kind": "hat", "center": 5}),
         "target center must be a list of numbers, got 5"),
        ("oracle-gap", _target_config({"kind": "hat", "center": "ab"}),
         "target center must be finite numbers, got 'ab'"),
        ("oracle-gap", _target_config({"kind": "hat", "center": [0.5, 0.5]}),
         "target has dimension 2 but the scenario has d = 1"),
    ])
    def test_rejected_as_input_error(self, tmp_path, capsys, monkeypatch, command, config,
                                     expected):
        # An integer is the smallest replicate count the command accepts.
        if isinstance(expected, int):
            expected = f"replicates must be at least {expected}"
        _data_csv(tmp_path / "data.csv", [[0.0, 2.0], [0.5, 1.0]])
        monkeypatch.chdir(tmp_path)
        cfg = _write(tmp_path / "c.json", json.dumps(config))
        assert main([command, "--config", cfg, "--out", str(tmp_path)]) == 2
        assert expected in capsys.readouterr().err


class TestNonNumericConfig:
    @pytest.mark.parametrize("line,key", [
        ("scenario.replicates = abc", "scenario.replicates"),
        ("scenario.sigma = abc", "scenario.sigma"),
    ])
    def test_majorant_names_the_key(self, tmp_path, capsys, line, key):
        cfg = _write(tmp_path / "m.conf", f"scenario.n = 16\nscenario.replicates = 3\n{line}\n")
        assert main(["majorant", "--config", cfg, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert f"config key {key} must be" in err and "'abc'" in err

    @pytest.mark.parametrize("command,line,message", [
        ("select", 'grid.a = "1.5"', "config key grid.a must be a real number, got '1.5'"),
        ("rates", 'scenario.n = "30"', "config key scenario.n must be an integer, got '30'"),
        ("rates", "scenario.n = 30.0", None),
    ])
    def test_quoted_number_is_a_string(self, tmp_path, capsys, command, line, message):
        # A config number follows the package's one rule: a string is no number.
        cfg = _write(tmp_path / "c.conf", f"{line}\n")
        assert main([command, "--config", cfg, "--print-config"]) == (2 if message else 0)
        captured = capsys.readouterr()
        if message:
            assert captured.err == f"input error: {message}\n"
        else:
            assert json.loads(captured.out)["scenario"]["n"] == 30


class TestOutputFiles:
    @pytest.mark.parametrize("command,config,names", [
        ("fit", {"r": 1.0}, ["fit.json"]),
        ("select", {}, ["selection.json", "criterion.csv"]),
        ("select-gauss", {}, ["selection_gauss.json", "criterion_gauss.csv"]),
        ("rates", _SMALL_RATES, ["rates.csv", "rates_summary.json"]),
        ("majorant", {"scenario": {"n": 16, "replicates": 2}},
         ["majorant.csv", "majorant_summary.json"]),
        ("bounds", {}, ["bounds.csv"]),
        ("oracle-gap", {"scenario": _SMALL_SCENARIO},
         ["oracle_gap.csv", "oracle_gap_summary.json"]),
        ("quadform", {"n": 8, "replicates": 500}, ["quadform_summary.json"]),
    ])
    def test_printed_paths_are_the_written_files(self, tmp_path, capsys, command, config,
                                                 names):
        if "data" in DEFAULTS[command]:
            config = {**config, "data": _data_csv(tmp_path / "d.csv",
                                                  [[0.1, 1.0], [0.5, 2.0], [0.9, 0.5]])}
        cfg = _write(tmp_path / "c.json", json.dumps(config))
        out = tmp_path / "out"
        assert main([command, "--config", cfg, "--out", str(out)]) == 0
        assert capsys.readouterr().out.splitlines() == [str(out / name) for name in names]
        assert sorted(os.listdir(out)) == sorted(names)

    @pytest.mark.parametrize("below", ["", "sub"])
    def test_out_that_cannot_be_a_directory(self, tmp_path, capsys, below):
        # --out is an existing file, or lies under one: rejected before the command runs.
        blocker = tmp_path / "FILE"
        blocker.write_bytes(b"x,y\n1,2\n")
        assert main(["bounds", "--out", str(blocker / below)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("input error: --out ")
        assert blocker.read_bytes() == b"x,y\n1,2\n"
