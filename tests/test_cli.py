import argparse
import inspect
import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import qthermo
from qthermo import experiments
from qthermo.cli import EXIT_CODES, _fmt, _parse, build_parser, main, write_csv
from qthermo.closed_forms import optimal_ratio, steady_qfi
from qthermo.config import KINDS, parse_config_file, resolve
from qthermo.errors import ParseError, ValidationError
from qthermo.models import BathSpec
from reference import direct_probe_qfi


def with_params(command, *params):
    """``command`` with one ``--param`` flag per ``KEY=VALUE`` of ``params``."""
    return [command, *(arg for p in params for arg in ("--param", p))]


class TestConfig:
    def test_defaults_match_standard_parameters(self):
        cfg = resolve("kappa_sweep")
        assert cfg.options["temperature"] == 0.4
        assert cfg.options["eta"] == 0.01
        assert cfg.options["cutoff"] == 10.0
        assert cfg.options["kappa_list"] == [0.6, 0.7, 0.8, 0.9]

    def test_file_and_override_precedence(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "# shared\nout = fromfile\n[kappa_sweep]\ntemperature = 0.5\n"
            "kappa_list = 0.3, 0.4\n"
        )
        sections = parse_config_file(str(path))
        cfg = resolve("kappa_sweep", sections, {"temperature": "0.7"})
        assert cfg.options["temperature"] == 0.7  # flag beats file
        assert cfg.options["kappa_list"] == [0.3, 0.4]  # file beats default
        assert cfg.out_dir == "fromfile"

    def test_negative_temperature_rejected(self):
        with pytest.raises(ValidationError, match="temperature"):
            resolve("kappa_sweep", None, {"temperature": "-1"})

    def test_unknown_key_rejected(self):
        with pytest.raises(ValidationError, match="gamma"):
            resolve("kappa_sweep", None, {"gamma": "1.0"})

    def test_unknown_common_key_in_file_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("gamma = 1.0\n[kappa_sweep]\ntemperature = 0.5\n")
        with pytest.raises(ValidationError, match="gamma"):
            resolve("kappa_sweep", parse_config_file(str(path)))

    def test_unknown_experiment_section_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("[not_an_experiment]\nx = 1\n")
        with pytest.raises(ParseError, match="not_an_experiment"):
            parse_config_file(str(path))

    def test_parse_error_reports_line(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("temperature = 0.4\nbogus line\n")
        with pytest.raises(ParseError, match="line 2"):
            parse_config_file(str(path))

    def test_zero_t_max_rejected(self):
        with pytest.raises(ValidationError, match="t_max"):
            resolve("evolve", None, {"t_max": "0"})

    def test_grid_int_rejects_fraction(self):
        with pytest.raises(ValidationError, match="n_points"):
            resolve("evolve", None, {"n_points": "10.5"})

    @pytest.mark.parametrize("experiment, key", [
        ("theta_scan", "n_points"), ("evolve", "n_points"), ("steady_qsnr", "ratio_points"),
        ("steady_qsnr", "n_line"),
    ])
    def test_grid_int_ceiling(self, experiment, key, tmp_path, capsys):
        # a grid's states are held at once: sizes above 100000 are refused
        # before any array is allocated
        assert resolve(experiment, None, {key: "100000"}).options[key] == 100000
        for value in ("100001", "1e20"):
            with pytest.raises(ValidationError, match=key):
                resolve(experiment, None, {key: value})
            argv = [experiment, "--out", str(tmp_path), "--quiet", "--param", f"{key}={value}"]
            assert main(argv) == 3
            assert f"{key}: must lie in [2, 100000]" in capsys.readouterr().err

    def test_angles_lie_in_closed_zero_pi(self, tmp_path, capsys):
        # every model rejects theta > pi, so the validator does too
        path = tmp_path / "angles.cfg"
        body = {"direct_vs_ancilla": "theta = 3.14159265359", "theta_scan": "theta_list = 0, 3.14159265359"}
        path.write_text("".join(f"[{name}]\n{line}\n" for name, line in body.items()))
        assert main(["validate", "--config", str(path), "--quiet"]) == 3
        assert "theta:" in capsys.readouterr().err
        path.write_text(f"[theta_scan]\n{body['theta_scan']}\n")
        assert main(["validate", "--config", str(path), "--quiet"]) == 3
        assert "theta_list:" in capsys.readouterr().err
        pi = repr(np.pi)
        assert resolve("direct_vs_ancilla", None, {"theta": pi}).options["theta"] == np.pi
        assert resolve("theta_scan", None, {"theta_list": f"0, {pi}"}).options["theta_list"] == [0.0, np.pi]
        argv = ["qfi_point", "--out", str(tmp_path), "--quiet", "--param", f"theta={pi}"]
        assert main(argv + ["--param", "at=1"]) == 0

    @pytest.mark.parametrize(
        "argv",
        [
            ["evolve", "--param", "n_points=inf"],
            ["evolve", "--param", "temperature=nan"],
            ["qfi_point", "--param", "temperature=nan"],
            ["qfi_point", "--param", "at=inf"],
            ["kappa_sweep", "--param", "kappa_list=0.6,inf"],
            ["steady_qsnr", "--param", "ratio_max=nan"],
        ],
        ids=lambda argv: f"{argv[0]}-{argv[-1]}",
    )
    def test_non_finite_value_rejected(self, argv, tmp_path, capsys):
        assert main(argv + ["--out", str(tmp_path), "--quiet"]) == 3
        assert argv[-1].partition("=")[0] in capsys.readouterr().err

    def test_at_steady_or_time(self):
        assert resolve("qfi_point", None, {"at": "steady"}).options["at"] == "steady"
        assert resolve("qfi_point", None, {"at": "3.5"}).options["at"] == 3.5
        with pytest.raises(ValidationError):
            resolve("qfi_point", None, {"at": "-2"})


class TestCsv:
    def test_seventeen_digit_roundtrip(self, tmp_path):
        path = tmp_path / "x.csv"
        value = 0.1 + 0.2 + 1e-17
        write_csv(str(path), ("a", "b"), {"a": [value], "b": ["s"]})
        header, row = path.read_text().strip().split("\n")
        assert header == "a,b"
        back = float(row.split(",")[0])
        assert back == value


    def test_mixed_column_follows_the_per_value_rule(self, tmp_path):
        # _fmt: %.17g for float subclasses, str() for everything else, per value
        path = tmp_path / "x.csv"
        mixed = ["abc", "", 0.1 + 0.2, np.float64(1 / 3), 7, True, None, np.float32(0.5), -0.0]
        data = {"a": list(range(len(mixed))), "v": mixed}
        write_csv(str(path), ("a", "v"), data)
        expected = ["a,v"] + [f"{i},{_fmt(value)}" for i, value in enumerate(mixed)]
        assert path.read_text().split("\n") == expected + [""]
        write_csv(str(path), ("v",), data)
        assert path.read_text().split("\n") == ["v"] + [_fmt(value) for value in mixed] + [""]


class TestMain:
    def test_steady_qsnr_run(self, tmp_path):
        out = str(tmp_path / "o")
        assert main(["steady_qsnr", "--out", out, "--quiet"]) == 0
        summary = json.loads((tmp_path / "o" / "steady_qsnr.summary.json").read_text())
        assert summary["results"]["root_condition"]["ratio"] == pytest.approx(
            1.19967864, abs=1e-6
        )
        assert summary["results"]["root_condition"]["qsnr"] == pytest.approx(
            0.43922884, abs=1e-6
        )
        assert summary["parameters"]["ratio_points"] == 200
        assert (tmp_path / "o" / "steady_qsnr.csv").exists()
        assert (tmp_path / "o" / "steady_qsnr.gp").exists()

    def test_byte_identical_reruns(self, tmp_path):
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        args = ["evolve", "--param", "model=direct", "--param", "n_points=40", "--quiet"]
        assert main(args + ["--out", a]) == 0
        assert main(args + ["--out", b]) == 0
        csv_a = (tmp_path / "a" / "evolve.csv").read_bytes()
        csv_b = (tmp_path / "b" / "evolve.csv").read_bytes()
        assert csv_a == csv_b

    def test_validation_error_exit_code(self, tmp_path, capsys):
        code = main(
            ["evolve", "--out", str(tmp_path), "--param", "t_max=0", "--quiet"]
        )
        assert code == 3
        assert "t_max" in capsys.readouterr().err

    def test_unknown_key_exit_code(self, tmp_path):
        assert main(["evolve", "--out", str(tmp_path), "--param", "gamma=1"]) == 3

    def test_parse_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("???\n")
        assert main(["evolve", "--config", str(bad), "--quiet"]) == 2

    def test_validate_subcommand(self, tmp_path, capsys):
        path = tmp_path / "run.cfg"
        path.write_text("[qfi_point]\nat = steady\nkappa = 0.6\n")
        assert main(["validate", "--config", str(path)]) == 0
        assert "qfi_point" in capsys.readouterr().out

    def test_validate_rejects_bad_value(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("[qfi_point]\ntemperature = -4\n")
        assert main(["validate", "--config", str(path), "--quiet"]) == 3

    def test_qfi_point_run_and_summary_echo(self, tmp_path):
        out = str(tmp_path / "o")
        code = main(
            [
                "qfi_point", "--out", out, "--quiet",
                "--param", "model=two_qubit_local",
                "--param", "kappa=0.6", "--param", "eta2=0.05",
            ]
        )
        assert code == 0
        summary = json.loads((tmp_path / "o" / "qfi_point.summary.json").read_text())
        params = summary["parameters"]
        for key in ("model", "at", "temperature", "eta", "eta2", "cutoff", "kappa", "theta"):
            assert key in params
        assert summary["results"]["record"]["qfi"] == pytest.approx(2.5411871, rel=1e-5)

    @pytest.mark.parametrize("params", [
        ["eta=0"],
        ["model=direct", "eta=0"],
        ["model=two_qubit_local", "eta=0"],
        ["model=two_qubit_common", "eta=0", "eta2=0"],
    ])
    def test_steady_point_without_bath_rejected(self, params, tmp_path, capsys):
        # every rate is zero: no stationary state exists, so fail up front
        argv = ["qfi_point", "--out", str(tmp_path), "--quiet", "--param", "at=steady"]
        for p in params:
            argv += ["--param", p]
        assert main(argv) == 3
        assert "eta" in capsys.readouterr().err

    def test_steady_point_with_one_bath_runs(self, tmp_path):
        argv = ["qfi_point", "--out", str(tmp_path), "--quiet", "--param", "at=steady",
                "--param", "model=two_qubit_local", "--param", "eta=0", "--param", "eta2=0.05",
                "--param", "kappa=0.6"]
        assert main(argv) == 0

    @pytest.mark.parametrize("args, code", [
        # a zero-eta local bath leaves its coupling out; these requests keep their exit codes
        ("qfi_point model=probe_ancilla eta=0 at=5", 0),
        ("qfi_point model=probe_ancilla eta=0 at=steady", 3),
        ("qfi_point model=two_qubit_local eta2=0 at=5", 0),
        ("qfi_point model=two_qubit_local eta2=0 at=steady", 0),
        ("qfi_point model=two_qubit_local eta=0 eta2=0 at=5", 0),
        ("qfi_point model=two_qubit_local eta=0 eta2=0 at=steady", 3),
        ("evolve model=probe_ancilla eta=0", 0),
        ("kappa_sweep eta=0", 6),
        ("two_qubit_configs eta1=0", 0),
    ])
    def test_zero_coupling_requests_exit_codes(self, args, code, tmp_path):
        assert main(with_params(*args.split()) + ["--out", str(tmp_path), "--quiet"]) == code

    @staticmethod
    def assert_exact_steady_qfi(params, tmp_path, capsys):
        """An at=steady two_qubit_common request exits 0, silently, with the
        QFI of ``steady_qfi`` to 1e-12 relative."""
        argv = with_params("qfi_point", "at=steady", "model=two_qubit_common", *params)
        assert main(argv + ["--out", str(tmp_path), "--quiet"]) == 0
        assert capsys.readouterr().err == ""
        summary = json.loads((tmp_path / "qfi_point.summary.json").read_text())
        options = summary["parameters"]
        exact = steady_qfi(options["kappa"], options["temperature"])
        assert summary["results"]["record"]["qfi"] == pytest.approx(exact, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("params, rate", [
        # perfbench point queries seed 3 #40 and seed 6 #63, next to the
        # common bath's decoherence-free corner eta = eta2: the exchange
        # sector relaxes at ``rate`` against max|lam| ~ 3, which left the
        # projection's limit unresolved (exit 6); the rate law is exact
        (["temperature=0.138719", "kappa=1.49637", "theta=2.4335",
          "eta=0.0123647", "eta2=0.0123972"], "1.487e-07"),
        (["temperature=0.42789", "kappa=0.53308", "theta=0.297824",
          "eta=0.0639672", "eta2=0.0640604"], "1.206e-07"),
    ])
    def test_unresolved_steady_state_exits_6(self, params, rate, tmp_path, capsys):
        self.assert_exact_steady_qfi(params, tmp_path, capsys)

    def test_default_common_bath_steady_point(self, tmp_path):
        # eta2 defaults to eta, and theta = pi/2 prepares the exchange state
        # the common bath cannot reach: stationary, though the sector's
        # coherence never decays, so the limit exists and carries no information
        argv = ["qfi_point", "--out", str(tmp_path), "--quiet", "--param", "model=two_qubit_common"]
        assert main(argv) == 0
        summary = json.loads((tmp_path / "qfi_point.summary.json").read_text())
        assert summary["results"]["record"]["qfi"] <= 1e-20

    def test_unresolved_steady_information_exits_17(self, tmp_path, capsys):
        # at kappa/T ~ 14 the steady state's minority population is below
        # float64 resolution next to 1: the spectral QFI of the stored state
        # dropped it (FI > QFI, exit 17), and the rate law's populations keep it
        self.assert_exact_steady_qfi(["eta2=0.05", "kappa=1", "temperature=0.07"], tmp_path, capsys)

    def test_warning_printed_on_every_request(self, tmp_path, capsys):
        # the same warning, raised from the same line, reaches stderr on each
        # request, with no source path
        argv = ["qfi_point", "--out", str(tmp_path), "--quiet", "--param", "model=direct",
                "--param", "at=5", "--param", "temperature=1e-12"]
        lines = []
        for _ in range(2):
            assert main(argv) == 0
            warned = [ln for ln in capsys.readouterr().err.splitlines() if ln.startswith("warning: ")]
            assert len(warned) == 1 and ".py:" not in warned[0]
            lines += warned
        assert lines[0] == lines[1]
        assert lines[0].startswith("warning: spectral QFI dropped a boundary-of-support term")

    @pytest.mark.parametrize("params, population", [
        # perfbench point queries seed 4 #156 and seed 19 #256, next to the
        # common bath's decoherence-free corner: every input is valid, and a
        # doublet-basis population of the projected steady state rounded to
        # ``population`` (exit 17); the rate law's populations are exact
        (["temperature=0.0792883", "kappa=1.01153", "theta=0.331794",
          "eta=0.034329", "eta2=0.0344895"], -3.88e-11),
        (["temperature=0.0824759", "kappa=1.21599", "theta=0.783238",
          "eta=0.00609977", "eta2=0.00601916"], -2.22e-11),
    ])
    def test_negative_basis_population_exits_17(self, params, population, tmp_path, capsys):
        self.assert_exact_steady_qfi(params, tmp_path, capsys)

    @pytest.mark.parametrize("params", [
        ["qfi_point", "model=direct", "temperature=1e300", "eta=1e300", "at=5"],
        ["qfi_point", "model=two_qubit_local", "temperature=1e200", "eta=1e200", "at=5"],
        ["direct_vs_ancilla", "temperature=1e155", "kappa=1", "eta=1e300", "theta=0.5"],
        ["coherence_parametric", "temperature=1e300", "eta=1e300", "cutoff=1e-300"],
        ["evolve", "model=probe_ancilla", "temperature=1e300", "eta=1e300", "kappa=1e-300", "n_points=60"],
    ])
    def test_overflowing_generator_exits_15(self, params, tmp_path, capsys):
        assert main(with_params(*params) + ["--out", str(tmp_path), "--quiet"]) == 15
        assert "error: generator overflows float64; largest rate inf\n" in capsys.readouterr().err

    @pytest.mark.parametrize("at", ["5", "steady"])
    @pytest.mark.parametrize("model", ["probe_ancilla", "two_qubit_local"])
    def test_infinite_bohr_frequency_names_its_nan_rate(self, model, at, tmp_path, capsys):
        # kappa at the float64 maximum: the +-kappa levels are 2 kappa = inf
        # apart, and the spectral density there is inf * 0
        argv = with_params("qfi_point", f"model={model}", "kappa=1.7976931348623157e308", f"at={at}")
        assert main(argv + ["--out", str(tmp_path), "--quiet"]) == 15
        assert capsys.readouterr().err.endswith("error: generator overflows float64; rate nan at omega = -inf\n")

    def test_infinite_bohr_frequency_of_a_common_bath(self, tmp_path, capsys):
        # at eta2 = eta (the default) no channel joins the +-kappa levels, so
        # the generator's commutator is what overflows, and the error names it
        argv = with_params("qfi_point", "model=two_qubit_common", "kappa=1.7976931348623157e308", "at=5")
        assert main(argv + ["--out", str(tmp_path), "--quiet"]) == 15
        assert capsys.readouterr().err.endswith("error: generator overflows float64; Bohr frequency inf\n")

    def test_rejected_steady_request_builds_its_channels_once(self, tmp_path, capsys):
        # the rate law rejects this steady request with the generator's
        # error, from the channels it was given and without assembling a
        # generator, so each overflow warning of their rates is printed once
        argv = with_params("qfi_point", "at=steady", "model=probe_ancilla", "temperature=1e300",
                           "eta=1e300", f"theta={np.pi!r}")
        assert main(argv + ["--out", str(tmp_path), "--quiet"]) == 15
        assert capsys.readouterr().err == (
            "warning: overflow encountered in scalar multiply\n" * 2
            + "error: generator overflows float64; largest rate inf\n"
        )

    @staticmethod
    def tiny_t_and_kappa_at(at, tmp_path):
        argv = with_params("qfi_point", f"at={at}", "temperature=1e-300", "kappa=1e-300", f"theta={np.pi!r}")
        return main(argv + ["--out", str(tmp_path), "--quiet"])

    def test_non_finite_qfi_exits_15(self, tmp_path, capsys):
        assert self.tiny_t_and_kappa_at("1e300", tmp_path) == 15
        assert "error: qfi is inf at t = 1e+300\n" in capsys.readouterr().err

    def test_qsnr_survives_t_squared_underflow(self, tmp_path):
        # T^2 = 1e-308 is subnormal, so the QSNR is T (T F): here of the
        # direct probe at G t = 1 (G = 4 pi eta T), whose F the closed form gives
        at = 7.95775e154
        argv = with_params("qfi_point", "model=direct", "temperature=1e-154", f"at={at!r}")
        assert main(argv + ["--out", str(tmp_path), "--quiet"]) == 0
        record = json.loads((tmp_path / "qfi_point.summary.json").read_text())["results"]["record"]
        assert record["qfi"] == pytest.approx(direct_probe_qfi(at, BathSpec(0.01, 10.0, 1e-154)), rel=1e-14)
        assert record["qsnr"] == 1e-154 * (1e-154 * record["qfi"]) != 1e-308 * record["qfi"]

    @pytest.mark.xfail(raises=AssertionError, strict=True, reason=(
        "T = kappa = 1e-300 at theta = pi: the propagated states hold their entries to about 1e-32 "
        "absolute, and the QFI rests on entries of 1e-51 to 1e-99 (ROADMAP items 4 and 16)"))
    def test_tiny_temperature_and_coupling_corner(self, tmp_path):
        # the QFI of a 60-digit mpmath expm of the same float64 generator
        for at, want in (("5", 2.1158348434641413e-99), ("1e100", 8.4633e99), ("1e200", 8.4633e299)):
            assert self.tiny_t_and_kappa_at(at, tmp_path) == 0
            record = json.loads((tmp_path / "qfi_point.summary.json").read_text())["results"]["record"]
            assert record["qfi"] == pytest.approx(want, rel=1e-4), at

    @pytest.mark.parametrize("at", ["1e6", "1e300"])
    def test_far_time_point(self, at, tmp_path):
        # the dephased probe carries no information; the exact derivative says so
        assert main(["qfi_point", "--out", str(tmp_path), "--quiet", "--param", f"at={at}"]) == 0
        summary = json.loads((tmp_path / "qfi_point.summary.json").read_text())
        assert summary["results"]["record"]["qfi"] <= 1e-12

    def test_gnuplot_companion_mentions_groups(self, tmp_path):
        out = str(tmp_path / "o")
        main(["evolve", "--out", out, "--param", "n_points=40", "--quiet"])
        gp = (tmp_path / "o" / "evolve.gp").read_text()
        assert "set datafile separator ','" in gp
        assert "evolve.csv" in gp

    def test_workers_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("QTHERMO_WORKERS", "1")
        out = str(tmp_path / "o")
        assert main(["steady_qsnr", "--out", out, "--quiet"]) == 0

    @pytest.mark.parametrize("value", ["abc", "0", "-2", "1.5"])
    def test_malformed_workers_env_rejected(self, value, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("QTHERMO_WORKERS", value)
        argv = ["direct_vs_ancilla", "--out", str(tmp_path), "--param", "n_points=2", "--quiet"]
        assert main(argv) == 3
        assert "QTHERMO_WORKERS" in capsys.readouterr().err

    @pytest.mark.parametrize("param, key", [
        # a two-point grid is [0, 0.01] whatever t_max says
        ("n_points=2", "n_points"),
        # below 0.01 the log-spaced part of the grid runs backwards
        ("t_max=0.001", "t_max"),
        ("t_max=0.01", "t_max"),
    ])
    def test_two_qubit_grid_limits_rejected(self, param, key, tmp_path, capsys):
        argv = ["two_qubit_configs", "--out", str(tmp_path), "--quiet", "--param", param]
        assert main(argv) == 3
        assert f"{key}: must" in capsys.readouterr().err

    @pytest.mark.parametrize("ratio_max", ["0.05", "5"])
    def test_steady_qsnr_range_must_ascend(self, ratio_max, tmp_path, capsys):
        argv = ["steady_qsnr", "--out", str(tmp_path), "--quiet",
                "--param", "ratio_min=5", "--param", f"ratio_max={ratio_max}"]
        assert main(argv) == 3
        assert "ratio_max: must" in capsys.readouterr().err

    def test_malformed_param_rejected(self, tmp_path):
        assert main(["evolve", "--out", str(tmp_path), "--param", "nonsense", "--quiet"]) == 3

    def test_validate_without_config_checks_defaults(self, capsys):
        assert main(["validate"]) == 0
        out = capsys.readouterr().out
        assert "steady_qsnr" in out

    @pytest.mark.parametrize("key, value, takers", [
        ("kappa", "0.5", ["theta_scan", "direct_vs_ancilla", "two_qubit_configs", "evolve", "qfi_point"]),
        ("ratio_points", "5", ["steady_qsnr"]),
    ])
    def test_validate_override_checks_the_experiments_taking_it(self, key, value, takers, capsys):
        assert main(["validate", "--param", f"{key}={value}"]) == 0
        assert capsys.readouterr().out == f"config valid for: {', '.join(takers)}\n"

    @pytest.mark.parametrize("param, message", [
        ("nonsense=1", "error: nonsense: unknown key for every experiment\n"),
        ("kappa=-1", "error: kappa: must be > 0\n"),
        ("ratio_points=1.5", "error: ratio_points: must be an integer\n"),
    ])
    def test_validate_override_no_experiment_accepts(self, param, message, capsys):
        assert main(["validate", "--param", param]) == 3
        assert capsys.readouterr().err == message

    def test_validate_names_every_failing_section(self, tmp_path, capsys):
        path = tmp_path / "two.cfg"
        path.write_text(
            "[direct_vs_ancilla]\ntheta = 4\n[qfi_point]\nkappa = 0.6\n[theta_scan]\ntheta_list = 0, 4\n"
        )
        assert main(["validate", "--config", str(path)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: [direct_vs_ancilla] theta: must lie in [0, pi]\n"
            "error: [theta_scan] theta_list: list entries must lie in [0, pi]\n"
        )

    @pytest.mark.parametrize("target", ["file", "file/sub", "dir"])
    def test_out_that_cannot_be_a_directory_exits_3(self, target, tmp_path, capsys):
        (tmp_path / "file").write_text("")
        (tmp_path / "dir" / "qfi_point.csv").mkdir(parents=True)  # the CSV's path is a directory
        assert main(["qfi_point", "--out", str(tmp_path / target), "--quiet"]) == 3
        assert capsys.readouterr().err.startswith("error: out: ")

    def test_short_writes_are_retried(self, tmp_path, monkeypatch):
        # 5000 rows: the CSV goes out in two chunks
        argv = with_params("evolve", "model=direct", "n_points=5000") + ["--quiet", "--out"]
        assert main(argv + [str(tmp_path / "whole")]) == 0
        write, calls = os.write, []

        def seven_bytes(fd, data):
            calls.append(len(data))
            return write(fd, data[:7])

        monkeypatch.setattr(os, "write", seven_bytes)
        assert main(argv + [str(tmp_path / "short")]) == 0
        monkeypatch.undo()
        assert max(calls) > 7 and len(calls) > 3
        for name in ("evolve.csv", "evolve.gp", "evolve.summary.json"):
            want, got = ((tmp_path / run / name).read_bytes() for run in ("whole", "short"))
            if name.endswith(".json"):  # the wall time differs
                want, got = (re.sub(rb'"wall_time_s": [^,\n}]*', b"", text) for text in (want, got))
            assert got == want, name

    def test_rerun_over_longer_files_leaves_exactly_the_new_bytes(self, tmp_path):
        argv = with_params("evolve", "model=direct", "n_points=40") + ["--quiet", "--out"]
        names = ("evolve.csv", "evolve.gp", "evolve.summary.json")
        (tmp_path / "rerun").mkdir()
        for name in names:  # longer files of the same names, left by an earlier run
            (tmp_path / "rerun" / name).write_bytes(b"x" * 100_000)
        for run in ("fresh", "rerun"):
            assert main(argv + [str(tmp_path / run)]) == 0
        for name in names:
            want, got = ((tmp_path / run / name).read_bytes() for run in ("fresh", "rerun"))
            if name.endswith(".json"):  # the wall time differs
                want, got = (re.sub(rb'"wall_time_s": [^,\n}]*', b"", text) for text in (want, got))
            assert got == want, name

    def test_written_files_get_the_mode_open_gives(self, tmp_path):
        mask = os.umask(0o027)
        try:
            assert main(["evolve", "--out", str(tmp_path), "--quiet"]) == 0
            with open(tmp_path / "by_open", "w"):
                pass
        finally:
            os.umask(mask)
        modes = {path.name: path.stat().st_mode & 0o777 for path in tmp_path.iterdir()}
        assert set(modes.values()) == {0o640}, modes

    def test_selftest_subcommand(self):
        assert main(["selftest", "--quiet"]) == 0

    @pytest.mark.parametrize("argv", [
        [], ["-h"], ["qfi_point", "-h"],
        ["qfi_point", "--bogus"], ["qfi_point", "extra"], ["qfi_point", "--param"], ["qfi_point", "--out"],
        ["bogus"], ["--param", "x=1", "qfi_point"],
        ["qfi_point", "--par", "at=1"], ["qfi_point", "--param=at=1"], ["qfi_point", "--", "x"],
        ["qfi_point", "-q"],
        ["validate"], ["selftest", "--quiet"],
        ["qfi_point", "--param", "at=1", "--out", "d", "--quiet"],
        ["qfi_point", "--param", ""], ["qfi_point", "--param", "-1"], ["qfi_point", "--param", "--quiet"],
        ["qfi_point", "--out", "a", "--out", "b"], ["qfi_point", "--quiet", "--quiet"],
        ["qfi_point", "--config", "f", "--param", "at=1"], ["validate", "--param", "at=1"],
        ["qfi_point", "--quiet", "extra"],
    ])
    def test_parse_matches_the_top_level_parser(self, argv, capsys):
        def parsed(parse):
            try:
                args, code = parse(list(argv)), None
            except SystemExit as exc:
                args, code = None, exc.code
            return args, code, *capsys.readouterr()

        assert parsed(_parse) == parsed(build_parser().parse_args)

    def test_canonical_point_query_skips_argparse(self, monkeypatch):
        def walked(*args, **kwargs):
            raise AssertionError("argparse read a canonical argv")

        argv = ["qfi_point", "--param", "at=steady", "--param", "model=direct", "--out", "d", "--quiet"]
        want = build_parser().parse_args(argv)
        monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", walked)
        monkeypatch.setattr("qthermo.cli.build_parser", walked)  # nor builds a parser
        assert _parse(argv) == want

    def test_parser_reuse_carries_nothing_over(self, tmp_path):
        def outputs(out):
            summary = json.loads((out / "qfi_point.summary.json").read_text())
            del summary["wall_time_s"]
            return (out / "qfi_point.csv").read_bytes(), summary

        # reference: the defaults on the first main call of a fresh process
        fresh = tmp_path / "fresh"
        subprocess.run(
            [sys.executable, "-m", "qthermo.cli", "qfi_point", "--out", str(fresh), "--quiet"],
            check=True, env=_src_env(),
        )
        first = ["qfi_point", "--param", "at=1", "--param", "model=direct", "--quiet"]
        assert main(first + ["--out", str(tmp_path / "first")]) == 0
        assert main(["qfi_point", "--out", str(tmp_path / "second"), "--quiet"]) == 0
        assert outputs(tmp_path / "second") == outputs(fresh)
        assert outputs(tmp_path / "first") != outputs(fresh)

        parser = build_parser()
        assert parser is build_parser()
        args = parser.parse_args(["steady_qsnr"])
        assert (args.command, args.param, args.config, args.out, args.quiet) == (
            "steady_qsnr", [], None, None, False
        )

    def test_import_leaves_scipy_unloaded(self, tmp_path):
        # only linalg.expm needs scipy, and it imports it on first use; no
        # experiment request calls it (each default, and a finite-time point)
        script = (
            "import sys\n"
            "import numpy as np\n"
            "import qthermo.cli\n"
            "assert 'scipy' not in sys.modules, 'scipy imported at start-up'\n"
            f"for argv in [[name] for name in qthermo.experiments.EXPERIMENTS] + [['qfi_point', '--param', 'at=5']]:\n"
            f"    assert qthermo.cli.main(argv + ['--out', {str(tmp_path)!r}, '--quiet']) == 0, argv\n"
            "    assert 'scipy' not in sys.modules, f'{argv} imported scipy'\n"
            "from qthermo.linalg import expm\n"
            "t = 0.7\n"
            "out = expm(np.array([[0.0, t], [-t, 0.0]]))\n"
            "rot = np.array([[np.cos(t), np.sin(t)], [-np.sin(t), np.cos(t)]])\n"
            "assert np.allclose(out, rot, rtol=0, atol=1e-14), out\n"
            "assert np.allclose(expm(np.diag([1.0, -2.0])), np.diag(np.exp([1.0, -2.0])))\n"
        )
        subprocess.run([sys.executable, "-c", script], check=True, env=_src_env())


def _src_env() -> dict:
    """The environment with this checkout's ``qthermo`` first on the path."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(qthermo.__file__)))
    return {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}


# Smallest grid on which each experiment succeeds: the QSNR and coherence
# optima need one interior grid point.
SMALL_RUNS = {
    "theta_scan": ["n_points=2", "theta_list=0.5,1.5"],
    "direct_vs_ancilla": ["n_points=2"],
    "kappa_sweep": ["n_points=3", "kappa_list=0.6,0.9"],
    "coherence_parametric": ["n_points=3", "kappa_list=0.6,0.9"],
    "two_qubit_configs": ["n_points=3"],
    "steady_qsnr": ["ratio_points=3", "n_line=2"],
    "evolve": ["n_points=2"],
    "qfi_point": [],
}


@pytest.mark.parametrize("name", list(experiments.EXPERIMENTS))
def test_registry_entry(name, tmp_path, monkeypatch):
    spec = experiments.EXPERIMENTS[name]
    assert set(SMALL_RUNS) == set(experiments.EXPERIMENTS)

    # the entry runs end to end, and its plot names columns of the CSV
    monkeypatch.setenv("QTHERMO_WORKERS", "1")
    argv = [name, "--out", str(tmp_path), "--quiet"]
    for pair in SMALL_RUNS[name]:
        argv += ["--param", pair]
    assert main(argv) == 0
    header = (tmp_path / f"{name}.csv").read_text().splitlines()[0].split(",")
    gp = (tmp_path / f"{name}.gp").read_text()
    labels = re.findall(r"set [xy]label '(\w+)'", gp) + re.findall(r"title '(\w+)=", gp)
    named = list(dict.fromkeys(labels))
    assert named == [c for c in spec.plot if c is not None]
    assert set(named) <= set(header)


@pytest.mark.parametrize("name", list(experiments.EXPERIMENTS))
def test_summary_parameters_are_the_resolved_config(name, tmp_path):
    assert main([name, "--out", str(tmp_path), "--quiet"]) == 0
    summary = json.loads((tmp_path / f"{name}.summary.json").read_text())
    assert summary["parameters"] == {"experiment": name, **resolve(name).options}


def test_kinds_type_exactly_the_runner_keywords(monkeypatch):
    # one kind per key name: no runner keyword untyped, no kind unused
    keywords = set().union(
        *(inspect.signature(spec.run).parameters for spec in experiments.EXPERIMENTS.values())
    )
    assert keywords - {"workers"} == set(KINDS)

    def run(kappa_list=(1.0,), *, untyped_key=2.0, workers=None):
        return None

    monkeypatch.setitem(experiments.EXPERIMENTS, "untyped_toy", experiments.ExperimentSpec(run))
    with pytest.raises(KeyError, match="untyped_key"):
        resolve("untyped_toy")


# Accepted values far from the defaults, one key at a time: the first slice
# of a property test over the whole accepted range, without value oracles.
EXTREME_REQUESTS = (["qfi_point", "--param", "at=steady"], ["qfi_point", "--param", "at=5"],
                    ["evolve", "--param", "n_points=5", "--param", "t_max=3"])


def assert_finite_or_named(argv, tmp_path):
    """The request exits 0 with finite CSV values, or with a code of ``EXIT_CODES``."""
    code = main(argv + ["--out", str(tmp_path), "--quiet"])
    assert code == 0 or code in {c for _, c in EXIT_CODES}, (argv, code)
    if code == 0:
        text = (tmp_path / f"{argv[0]}.csv").read_text()
        assert "nan" not in text and "inf" not in text, (argv, text)


@pytest.mark.parametrize("model", experiments.MODEL_NAMES)
def test_accepted_extreme_values_never_crash(model, tmp_path, capsys):
    keys = ["temperature", "kappa", "eta", "cutoff"] + (["eta2"] if model.startswith("two_qubit") else [])
    for key in keys:
        for value in ("1e-300", "1e155", "1e300", "1.7976931348623157e308"):
            for request in EXTREME_REQUESTS:
                assert_finite_or_named([*request, "--param", f"model={model}", "--param", f"{key}={value}"], tmp_path)
    capsys.readouterr()


# Several keys at their extremes at once, at theta = pi: rates whose generator
# overflows, a QFI that overflows, and T^2 below the smallest normal float.
MULTI_KEY_EXTREMES = (
    *({"temperature": "1e-300", "kappa": "1e-300", "at": at} for at in ("1e200", "1e300", "steady")),
    *({"eta": "1e300", "temperature": temp, "at": "5"} for temp in ("1e300", "1e155", "1e-300")),
    {"temperature": "1e300", "eta": "1e300", "kappa": "1e-300", "at": "steady"},
)


@pytest.mark.parametrize("model", experiments.MODEL_NAMES)
def test_multi_key_extremes_never_crash(model, tmp_path, capsys):
    for params in MULTI_KEY_EXTREMES:
        shared = [f"model={model}", f"theta={np.pi!r}", *(f"{k}={v}" for k, v in params.items() if k != "at")]
        for request in (["qfi_point", f"at={params['at']}"], ["evolve", "n_points=5", "t_max=3"]):
            assert_finite_or_named(with_params(*request, *shared), tmp_path)
    capsys.readouterr()


def _merged_levels(k):
    """Strict xfail of the optimal-coupling request at T = 10^-k, where
    kappa = x* T < DEFAULT_FREQ_TOL / 2 and the +-kappa levels merge."""
    reason = ("DEFAULT_FREQ_TOL = 1e-13 (absolute) merges the +-kappa levels, so their shared "
              "channel breaks detailed balance and the rate law exits 17")
    return pytest.param(k, marks=pytest.mark.xfail(strict=True, raises=AssertionError, reason=reason))


@pytest.mark.parametrize("model, params", [("two_qubit_local", ()), ("two_qubit_common", ("eta2=0.05",))])
@pytest.mark.parametrize("k", [*range(14), _merged_levels(14)])
def test_optimal_steady_qsnr_at_any_low_temperature(model, params, k, tmp_path, capsys):
    # the paper's claim: at the optimal coupling kappa = x* T the steady QSNR
    # x*^2 sech^2(x*) does not depend on T, however low
    x_star, qsnr_star = optimal_ratio()
    temp = 10.0**-k
    argv = with_params("qfi_point", "at=steady", f"model={model}", f"temperature={temp!r}",
                       f"kappa={x_star * temp!r}", *params)
    code = main(argv + ["--out", str(tmp_path), "--quiet"])
    capsys.readouterr()
    assert code == 0
    record = json.loads((tmp_path / "qfi_point.summary.json").read_text())["results"]["record"]
    assert abs(record["qsnr"] - qsnr_star) <= 1e-12


@pytest.mark.parametrize("model, params", [("two_qubit_local", ()), ("two_qubit_common", ("eta2=0.05",))])
@pytest.mark.parametrize("temp, kappa", [
    (1e-14, 1.19967864e-14), (1e-20, optimal_ratio()[0] * 1e-20), (1e-100, optimal_ratio()[0] * 1e-100),
])
def test_optimal_coupling_below_the_merged_levels_exits_17(model, params, temp, kappa, tmp_path, capsys):
    # below T ~ 4e-14 the +-kappa levels at kappa = x* T are one level of the
    # channels: their rates cannot hold the Gibbs ratio exp(2 x*), and the
    # request names the pair instead of a QSNR of order 1e-63
    argv = with_params("qfi_point", "at=steady", f"model={model}", f"temperature={temp!r}",
                       f"kappa={kappa!r}", *params)
    assert main(argv + ["--out", str(tmp_path), "--quiet"]) == 17
    pair = f"levels E = {-kappa:.6g} and {kappa:.6g} break detailed balance at T = {temp:g}"
    assert pair in capsys.readouterr().err
