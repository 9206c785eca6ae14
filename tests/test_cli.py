import json
import math

import numpy as np
import pytest

from rkhsball.cli import main


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
        assert header == ("replicate,n,gamma_hat,r_hat,err_adaptive,err_oracle_grid,"
                          "event_bias,event_majorant,seed")
        summary = json.loads((out1 / "rates_summary.json").read_text())
        assert summary["aggregates"]["n_list"] == [8, 12, 16, 24]

    def test_seed_flag_changes_output(self, tmp_path):
        cfg = self._config(tmp_path)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["rates", "--config", cfg, "--out", str(out1), "--seed", "4"]) == 0
        assert main(["rates", "--config", cfg, "--out", str(out2), "--seed", "5"]) == 0
        assert (out1 / "rates.csv").read_bytes() != (out2 / "rates.csv").read_bytes()


class TestThreadCount:
    @pytest.mark.parametrize("command, config", [
        ("rates", {"scenario": {"n": 16, "replicates": 3, "holdout_size": 200,
                                "master_seed": 4},
                   "n_list": [8, 12, 16, 24], "selection": {"tau": 1.0}}),
        ("majorant", {"scenario": {"n": 30, "replicates": 6}, "t": 1.0,
                      "grid": {"a": 1.0, "b": 1.0}}),
    ])
    def test_summary_identical_across_threads(self, tmp_path, command, config):
        cfg = _write(tmp_path / "c.json", json.dumps(config))
        outs = [tmp_path / f"t{threads}" for threads in (1, 2)]
        for threads, out in zip((1, 2), outs):
            assert main([command, "--config", cfg, "--out", str(out),
                         "--threads", str(threads)]) == 0
        name = f"{command}_summary.json"
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


class TestMajorant:
    def test_summary_fields(self, tmp_path):
        cfg = _write(tmp_path / "m.json", json.dumps({
            "scenario": {"n": 30, "replicates": 15},
            "t": 1.0,
            "grid": {"a": 1.0, "b": 1.0},
        }))
        assert main(["majorant", "--config", cfg, "--out", str(tmp_path)]) == 0
        summary = json.loads((tmp_path / "majorant_summary.json").read_text())
        assert summary["floor"] == pytest.approx(1.0 - math.exp(-1.0), abs=1e-12)
        assert isinstance(summary["passed"], bool)
        lines = (tmp_path / "majorant.csv").read_text().splitlines()
        assert len(lines) == 16
        assert lines[1].split(",")[7] in {"0", "1"}  # event_majorant column

    def test_bias_event_variant(self, tmp_path):
        cfg = _write(tmp_path / "m.json", json.dumps({
            "scenario": {"n": 30, "replicates": 10},
            "event": "bias",
            "grid": {"a": 1.0, "b": 1.0},
        }))
        assert main(["majorant", "--config", cfg, "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "majorant.csv").read_text().splitlines()
        assert lines[1].split(",")[6] in {"0", "1"}  # event_bias column

    def test_unknown_event(self, tmp_path):
        cfg = _write(tmp_path / "m.json", json.dumps({"event": "nope"}))
        assert main(["majorant", "--config", cfg, "--out", str(tmp_path)]) == 2


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


class TestConfigHandling:
    def test_print_config(self, tmp_path, capsys):
        assert main(["bounds", "--print-config"]) == 0
        parsed = json.loads(capsys.readouterr().out)
        assert parsed["k_diag"] == 1.0 and parsed["r"]["count"] == 11

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = _write(tmp_path / "c.json", json.dumps({"bogus": 1}))
        assert main(["bounds", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "bogus" in capsys.readouterr().err

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


class TestReplicatesBoundary:
    @pytest.mark.parametrize("command,config,minimum", [
        ("quadform", {"n": 8, "replicates": -3}, 2),
        ("quadform", {"n": 8, "replicates": 1}, 2),
        ("oracle-gap", {"scenario": {"n": 16, "replicates": 3, "holdout_size": 100},
                        "replicates": 0}, 1),
        ("majorant", {"scenario": {"n": 16, "replicates": 3}, "replicates": 0}, 1),
    ])
    def test_rejected_as_input_error(self, tmp_path, capsys, command, config, minimum):
        cfg = _write(tmp_path / "c.json", json.dumps(config))
        assert main([command, "--config", cfg, "--out", str(tmp_path)]) == 2
        assert f"replicates must be at least {minimum}" in capsys.readouterr().err


class TestNonNumericConfig:
    @pytest.mark.parametrize("line,key", [
        ("replicates = abc", "replicates"),
        ("scenario.sigma = abc", "scenario.sigma"),
    ])
    def test_majorant_names_the_key(self, tmp_path, capsys, line, key):
        cfg = _write(tmp_path / "m.conf", f"scenario.n = 16\nscenario.replicates = 3\n{line}\n")
        assert main(["majorant", "--config", cfg, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert f"config key {key} must be" in err and "'abc'" in err
