import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import powerquery
from powerquery import cli, quantum
from powerquery.cli import main, parse_and_dispatch
from powerquery.errors import NumericalError
from powerquery.reports import RunReport, Table, render_csv, render_json
from test_acceptance import CLI_EXAMPLES


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDiscretize:
    def test_matrix_payload(self, capsys):
        code, out, _ = run_cli(capsys, "discretize", "--q", "const:0", "--n", "2")
        assert code == 0
        doc = json.loads(out)
        assert doc["results"]["diag"] == [18, 18]
        assert doc["results"]["offdiag"] == -9

    def test_csv_form(self, capsys):
        code, out, _ = run_cli(capsys, "discretize", "--q", "const:0", "--n", "2",
                               "--format", "csv")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "j,diag,offdiag"
        assert lines[1] == "1,18,-9"

    def test_error_study_csv_header(self, capsys):
        code, out, _ = run_cli(capsys, "discretize", "--q", "const:0",
                               "--n-list", "8,16", "--format", "csv")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "n,lambda_continuum,lambda_discrete,error,scaled_error"
        assert len(lines) == 3

    def test_out_of_class_potential_rejected(self, capsys):
        code, _, err = run_cli(capsys, "discretize", "--q", "const:1.5", "--n", "2")
        assert code == 1
        assert "error" in err


class TestEigensolve:
    def test_json_payload(self, capsys):
        code, out, _ = run_cli(capsys, "eigensolve", "--q", "const:0", "--n", "3")
        assert code == 0
        doc = json.loads(out)
        lam1 = doc["results"]["eigenvalues"][0]
        assert lam1 == pytest.approx(32 - 16 * math.sqrt(2), abs=1e-9)
        assert doc["results"]["orthonormality_deviation"] <= 1e-10

    def test_csv_rows(self, capsys):
        code, out, _ = run_cli(capsys, "eigensolve", "--q", "const:0", "--n", "3",
                               "--format", "csv")
        lines = out.strip().split("\n")
        assert lines[0] == "s,eigenvalue"
        assert len(lines) == 4

    def test_vectors_independent_of_blas_threads(self):
        # LAPACK decides the payload, so its bytes must not depend on how
        # many threads OpenBLAS uses
        src = str(Path(__file__).resolve().parents[1] / "src")
        payloads = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
            env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
            proc = subprocess.run(
                [sys.executable, "-m", "powerquery.cli", "eigensolve",
                 "--q", "poly:0.5,0.1,-0.05", "--n", "300", "--vectors"],
                capture_output=True, env=env)
            assert proc.returncode == 0, proc.stderr.decode()
            payloads.append(proc.stdout)
        assert payloads[0] == payloads[1]


class TestPhaseEstimate:
    def test_json_success_field(self, capsys):
        code, out, _ = run_cli(capsys, "phase-estimate", "--q", "const:0.5", "--n", "16",
                               "--T", "6", "--epsilon", "0.4")
        assert code == 0
        doc = json.loads(out)
        assert doc["results"]["success_probability"] >= 0.75
        assert len(doc["results"]["outcomes"]) == 64

    def test_sampling_is_seeded(self, capsys):
        args = ("phase-estimate", "--q", "const:0.5", "--n", "8", "--T", "4",
                "--epsilon", "0.5", "--samples", "16", "--seed", "9")
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2
        doc = json.loads(out1)
        assert len(doc["results"]["samples"]) == 16

    def test_csv_with_samples(self, capsys):
        code, out, _ = run_cli(capsys, "phase-estimate", "--q", "const:0.5", "--n", "8",
                               "--T", "3", "--epsilon", "0.5", "--samples", "5",
                               "--format", "csv")
        lines = out.strip().split("\n")
        assert lines[0] == "outcome,lambda_estimate,probability,sample_count"
        assert len(lines) == 9

    def test_perturbed_mode_flag(self, capsys):
        code, out, _ = run_cli(capsys, "phase-estimate", "--q", "const:0.5", "--n", "8",
                               "--T", "4", "--epsilon", "0.5", "--mode", "perturbed:0.95")
        assert code == 0
        assert json.loads(out)["config"]["mode"] == "perturbed:0.95"

    def test_perturbed_norm_check_at_2_20_amplitudes(self):
        # every control row is an exact copy of the target after the Hadamard
        # layer; a sequential single-threaded BLAS norm misread this state by
        # 1.2e-12 and rejected it
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-m", "powerquery.cli", "phase-estimate",
             "--q", "poly:0.1,0.2,0.05", "--n", "128", "--T", "13", "--epsilon", "0.01",
             "--mode", "perturbed:0.95"],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["results"]["success_probability"] >= 0.75

    def test_bad_mode(self, capsys):
        code, _, err = run_cli(capsys, "phase-estimate", "--q", "const:0.5", "--n", "8",
                               "--T", "4", "--epsilon", "0.5", "--mode", "sideways")
        assert code == 1


class TestErrorSweep:
    def test_csv_halving_column(self, capsys):
        code, out, _ = run_cli(capsys, "error-sweep", "--T-range", "4:6", "--n", "16",
                               "--grid", "8")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "T,epsilon_achieved,min_success_prob"
        assert len(lines) == 4
        eps = [float(line.split(",")[1]) for line in lines[1:]]
        for a, b in zip(eps, eps[1:]):
            assert 0.3 <= b / a <= 0.7

    def test_bad_range(self, capsys):
        code, _, _ = run_cli(capsys, "error-sweep", "--T-range", "6:4")
        assert code == 1

    def test_explicit_zero_threshold_is_honored(self, capsys):
        code, out, _ = run_cli(capsys, "error-sweep", "--T-range", "3:3", "--n", "4",
                               "--grid", "4", "--threshold", "0")
        assert code == 0
        assert float(out.strip().split("\n")[1].split(",")[1]) == 0.0


class TestFreqAudit:
    def test_powers_payload(self, capsys):
        code, out, _ = run_cli(capsys, "freq-audit", "--powers", "1,3", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["results"]["l_set"] == list(range(-4, 5))
        assert doc["results"]["l_cardinality"] == 9
        assert doc["results"]["sharp"] is True

    def test_pe_powers(self, capsys):
        code, out, _ = run_cli(capsys, "freq-audit", "--pe-T", "3")
        doc = json.loads(out)
        assert doc["results"]["powers"] == [1, 2, 4]
        assert doc["results"]["m_set"] == list(range(8))

    def test_requires_exactly_one_source(self, capsys):
        assert run_cli(capsys, "freq-audit")[0] == 1
        assert run_cli(capsys, "freq-audit", "--powers", "1", "--pe-T", "2")[0] == 1

    def test_coefficient_dump(self, capsys, tmp_path):
        path = tmp_path / "coeffs.csv"
        code, _, _ = run_cli(capsys, "freq-audit", "--pe-T", "3", "--n", "4",
                             "--dump-coefficients", str(path))
        assert code == 0
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "k,s,m,re,im"
        # the final transform spreads every frequency over every control index
        assert len(lines) == 1 + 8 * 8


class TestLowerboundAudit:
    def test_report_file(self, capsys, tmp_path):
        path = tmp_path / "audit.json"
        code, out, _ = run_cli(capsys, "lowerbound-audit", "--T", "6", "--n", "8",
                               "--epsilon", "auto", "--report", str(path))
        assert code == 0
        assert out == ""
        doc = json.loads(path.read_text())
        assert doc["results"]["all_passed"] is True
        assert doc["results"]["grid_size"] == 2

    def test_premise_failure_exit_code(self, capsys):
        code, out, _ = run_cli(capsys, "lowerbound-audit", "--T", "6", "--n", "8",
                               "--epsilon", "0.01")
        assert code == 2
        doc = json.loads(out)
        assert doc["results"]["premise_ok"] is False


class TestCliPlumbing:
    def test_unknown_subcommand(self, capsys):
        code, _, err = run_cli(capsys, "not-a-command")
        assert code == 1
        assert "usage" in err

    def test_unknown_flag(self, capsys):
        code, _, err = run_cli(capsys, "discretize", "--bogus", "1")
        assert code == 1
        assert "usage" in err

    def test_missing_required(self, capsys):
        code, _, err = run_cli(capsys, "discretize", "--n", "2")
        assert code == 1
        assert "--q" in err

    def test_config_file_defaults_and_override(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"q": "const:0", "n": 2, "format": "json"}))
        _, out1, _ = run_cli(capsys, "discretize", "--config", str(cfg))
        assert json.loads(out1)["results"]["diag"] == [18, 18]
        _, out2, _ = run_cli(capsys, "discretize", "--config", str(cfg), "--n", "3")
        assert len(json.loads(out2)["results"]["diag"]) == 3

    def test_output_file(self, capsys, tmp_path):
        path = tmp_path / "out.json"
        code, out, _ = run_cli(capsys, "discretize", "--q", "const:0", "--n", "2",
                               "--output", str(path))
        assert code == 0 and out == ""
        assert json.loads(path.read_text())["results"]["offdiag"] == -9

    def test_unwritable_output_exits_3(self, capsys):
        code, _, err = run_cli(capsys, "discretize", "--q", "const:0", "--n", "2",
                               "--output", "/nonexistent-dir/out.json")
        assert code == 3
        assert "i/o" in err

    @pytest.mark.parametrize("argv, message", [
        (["lowerbound-audit", "--T", "11", "--n", "1", "--format", "csv"], "no CSV form"),
        (["phase-estimate", "--q", "const:0.5", "--n", "128", "--T", "14",
          "--epsilon", "1e-3", "--output", "/nonexistent-dir/out.json"], "[Errno 2]"),
        (["lowerbound-audit", "--T", "11", "--n", "1",
          "--report", "/nonexistent-dir/audit.json"], "[Errno 2]"),
        (["lowerbound-audit", "--T", "4", "--n", "2", "--epsilon", "nan"],
         "--epsilon must be 'auto' or a finite number, got 'nan'"),
        (["phase-estimate", "--q", "const:0.5", "--n", "8", "--T", "4", "--epsilon", "nan"],
         "--epsilon must be a finite number, got 'nan'"),
        (["phase-estimate", "--q", "const:0.5", "--n", "8", "--T", "4", "--epsilon", "inf"],
         "--epsilon must be a finite number, got 'inf'"),
        (["eigensolve", "--q", "const:0", "--n", "3", "--tol", "nan"],
         "--tol must be a finite number, got 'nan'"),
        (["phase-estimate", "--q", "const:0.5", "--n", "8", "--T", "4", "--epsilon", "0.5",
          "--samples", "-3"], "--samples must be an integer >= 0, got '-3'"),
        (["error-sweep", "--T-range", "3:3", "--n", "4", "--grid", "0"],
         "--grid must be an integer >= 1, got '0'"),
        (["freq-audit", "--powers", "1,,2"],
         "--powers must be a comma-separated list of integers with no empty items"),
    ])
    def test_format_and_output_refused_before_the_work(self, argv, message, capsys,
                                                       monkeypatch):
        def no_work(*_):
            raise AssertionError("the handler ran")
        monkeypatch.setattr(cli._COMMANDS[argv[0]], "handler", no_work)
        code, out, err = run_cli(capsys, *argv)
        assert code == (3 if "Errno" in message else 1) and out == ""
        assert message in err
        assert len(err.splitlines()) == 1

    def test_config_format_refused_before_the_work(self, capsys, monkeypatch, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"q": "const:0", "n": 2, "format": "xml"}))
        monkeypatch.setattr(cli._COMMANDS["discretize"], "handler", None)
        code, out, err = run_cli(capsys, "discretize", "--config", str(cfg))
        assert code == 1 and out == ""
        assert "unknown output format 'xml'" in err

    @pytest.mark.parametrize("entries, message", [
        ({"n": 3.7}, "--n must be an integer, got 3.7"),
        ({"vectors": "false"}, "--vectors must be true or false, got 'false'"),
        ({"potential": "const:0"}, "unknown config key 'potential'"),
        ({"Tee": 30}, "unknown config key 'Tee'"),
    ])
    def test_config_values_typed_like_flags(self, entries, message, capsys, monkeypatch,
                                            tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"q": "const:0", "n": 2, **entries}))
        monkeypatch.setattr(cli._COMMANDS["eigensolve"], "handler", None)
        code, out, err = run_cli(capsys, "eigensolve", "--config", str(cfg))
        assert code == 1 and out == ""
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert message in err
        if "unknown" in message:
            assert "known keys: T, T_range, config," in err

    def test_config_keys_of_other_subcommands_allowed(self, capsys, tmp_path):
        cfg = tmp_path / "shared.json"
        cfg.write_text(json.dumps({"q": "const:0", "n": 3, "T": 10, "pe-T": 4, "grid": 8,
                                   "vectors": True}))
        code, out, _ = run_cli(capsys, "eigensolve", "--config", str(cfg))
        assert code == 0
        _, expected, _ = run_cli(capsys, "eigensolve", "--q", "const:0", "--n", "3", "--vectors")
        assert out == expected

    def test_payload_determinism_in_process(self):
        argv = ["freq-audit", "--powers", "1,3,9", "--format", "json"]
        a = parse_and_dispatch(argv).payload("json")
        b = parse_and_dispatch(argv).payload("json")
        assert a == b

    def test_stdout_reserved_for_payload(self, capsys):
        _, out, err = run_cli(capsys, "error-sweep", "--T-range", "4:4", "--n", "8",
                              "--grid", "4")
        assert out.startswith("T,")
        assert "progress" in err or "timing" in err


class TestRendering:
    def test_json_round_trip(self):
        report = RunReport(command="x", config={"a": 1},
                           results={"v": 0.1 + 0.2, "w": [1.5, None, True]})
        doc = json.loads(report.payload("json"))
        assert doc["results"]["v"] == 0.1 + 0.2
        assert doc["results"]["w"] == [1.5, None, True]

    def test_seventeen_significant_digits(self):
        text = render_json({"x": 2.0 / 3.0})
        assert "0.66666666666666663" in text

    def test_csv_floats(self):
        text = render_csv(Table(["a", "b"], [[1], [1.0 / 3.0]]))
        assert text == "a,b\n1,0.33333333333333331\n"

    @pytest.mark.parametrize("value", [
        math.nan, math.inf, -math.inf, np.float64("nan"), complex(1.0, math.inf),
        [0.5, math.nan], Table(["x"], [[0.25, math.inf]]),
    ], ids=repr)
    def test_non_finite_refused(self, value):
        with pytest.raises(NumericalError, match="NaN or infinity|no JSON form"):
            render_json({"results": {"x": value}})


class TestNoFullWidthState:
    """No CLI run builds the (2^T, n) state: `run_schedule` is for library callers."""

    @pytest.mark.parametrize("argv", [
        *CLI_EXAMPLES,
        ["lowerbound-audit", "--T", "6", "--n", "8", "--epsilon", "auto"],
        ["lowerbound-audit", "--T", "6", "--n", "8", "--epsilon", "0.01"],
        ["freq-audit", "--pe-T", "5", "--n", "4", "--dump-coefficients", "DUMP"],
    ], ids=lambda a: " ".join(a)[:48])
    def test_cli_never_calls_run_schedule(self, argv, capsys, monkeypatch, tmp_path):
        original = quantum.run_schedule

        def refuse(*_):
            raise AssertionError("run_schedule called on a CLI path")
        for name, module in list(sys.modules.items()):
            if name == "powerquery" or name.startswith("powerquery."):
                for attr, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, attr, refuse)
        assert powerquery.run_schedule is refuse
        argv = [str(tmp_path / "dump.csv") if a == "DUMP" else a for a in argv]
        assert main(argv) in (0, 2)
        capsys.readouterr()
