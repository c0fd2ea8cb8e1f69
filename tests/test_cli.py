import csv
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import condclt
from condclt import cli, limit_theory, mc_engine, monotone, simulators


def run_cli(*argv):
    return cli.main(list(argv))


class TestAnalyticSubcommands:
    def test_transfer_passes(self, capsys):
        assert run_cli("transfer", "--lam", "2.0", "--K", "60") == cli.EXIT_OK
        out = capsys.readouterr().out
        assert "transfer: PASS" in out

    def test_monotone_passes(self, capsys):
        assert run_cli("monotone", "--n", "5", "--max-m", "8") == cli.EXIT_OK
        assert "monotone: PASS (32/32 checks passed, wall = " in capsys.readouterr().out

    def test_failing_check_fails_the_run(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(monotone, "check_stochastic_dominance",
                            lambda d1, d2: (False, 0.0))
        out = tmp_path / "report.json"
        code = run_cli("monotone", "--n", "2", "--max-m", "1", "--out", str(out))
        assert code == cli.EXIT_GATE_FAILURE
        assert ("monotone: FAIL (0/1 checks passed, first failure: "
                "empty boxes n=2: m=1 <=st m=0, wall = ") in capsys.readouterr().out
        report = cli.parse_report(str(out))
        assert report.checks == [{"name": "empty boxes n=2: m=1 <=st m=0", "value": 0.0,
                                  "bound": None, "passed": False}]
        assert report.entries == [] and not report.passed

    def test_cwold_passes(self, capsys):
        assert run_cli("cwold") == cli.EXIT_OK
        assert "cwold: PASS" in capsys.readouterr().out

    @pytest.mark.parametrize("argv", [("cwold",), ("monotone", "--n", "3", "--max-m", "4")],
                             ids=["cwold", "monotone"])
    def test_table_holds_one_row_per_check(self, argv, tmp_path):
        out, table = tmp_path / "report.json", tmp_path / "table.csv"
        assert run_cli(*argv, "--out", str(out), "--table", str(table)) == cli.EXIT_OK
        checks = cli.parse_report(str(out)).checks
        with open(table, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == cli.CHECK_TABLE_HEADER
        assert len(checks) == len(rows) - 1 > 1
        for row, check in zip(rows[1:], checks):
            value = "" if check["value"] is None else repr(check["value"])
            bound = "" if check["bound"] is None else repr(check["bound"])
            assert row == [argv[0], check["name"], value, bound, "True"]


class TestSamplingSubcommands:
    def test_gnm_small_run(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        table = tmp_path / "table.csv"
        code = run_cli("gnm", "--n", "400", "--m", "400", "--max-k", "5",
                       "--reps", "600", "--seed", "3",
                       "--out", str(out), "--table", str(table))
        assert code == cli.EXIT_OK
        assert ", KS skipped: R = 600 < 1000, wall = " in capsys.readouterr().out

        report = cli.parse_report(str(out))
        assert report.experiment == "gnm"
        assert report.passed
        assert report.params["n"] == 400

        with open(table, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == cli.TABLE_HEADER
        # 6 means + 21 upper-triangle covariance entries
        assert len(rows) == 1 + 6 + 21
        assert all(row[0] == "gnm" for row in rows[1:])

    def test_alloc_with_dump(self, tmp_path):
        dump = tmp_path / "counts.bin"
        code = run_cli("alloc", "--n", "200", "--m", "200", "--max-k", "4",
                       "--reps", "300", "--dump", str(dump))
        assert code == cli.EXIT_OK
        mat = simulators.load_count_matrix(str(dump), 5)
        assert mat.shape == (300, 5)
        assert mat.min() >= 0

    def test_json_roundtrip_structure(self, tmp_path):
        out = tmp_path / "report.json"
        run_cli("spacings", "--n", "2000", "--a", "1.0", "--reps", "400",
                "--out", str(out))
        with open(out) as fh:
            doc = json.load(fh)
        assert set(doc) >= {"experiment", "params", "entries", "passed", "seed"}
        report = cli.parse_report(str(out))
        assert report.entries[0].kind in ("mean", "cov")

    def test_gate_failure_exit_code(self, capsys):
        code = run_cli("alloc", "--n", "100", "--m", "100", "--max-k", "3",
                       "--reps", "500", "--z-gate", "1e-9")
        assert code == cli.EXIT_GATE_FAILURE
        assert "alloc: FAIL" in capsys.readouterr().out

    @pytest.mark.parametrize("argv,verdict", [
        (("spacings", "--n", "2000"), "PASS"),
        # every z gate passes; the k = 0 marginal fails the KS gate
        (("alloc", "--n", "1000", "--m", "1000", "--max-k", "3"), "FAIL"),
    ])
    def test_summary_names_the_ks_gate(self, argv, verdict, capsys):
        code = run_cli(*argv, "--reps", "1000")
        assert code == (cli.EXIT_OK if verdict == "PASS" else cli.EXIT_GATE_FAILURE)
        line = capsys.readouterr().out
        found = re.match(rf"{argv[0]}: {verdict} \(max \|z\| = (\S+), "
                         r"max KS = (\S+) \(index \d\), wall = ", line)
        assert found, line
        assert float(found[1]) <= mc_engine.DEFAULT_Z_GATE
        assert (float(found[2]) <= mc_engine.DEFAULT_KS_GATE) == (verdict == "PASS")

    def test_report_is_verify_of_the_run(self, tmp_path):
        out = tmp_path / "report.json"
        params = {"n": 2000, "m": 2000, "max_k": 4}
        run_cli("alloc", "--n", "2000", "--m", "2000", "--max-k", "4", "--reps", "1000",
                "--out", str(out))
        with open(out) as fh:
            doc = json.load(fh)
        theory = limit_theory.theory_cov_matrix(limit_theory.ALLOC, 1.0, 4).matrix
        run = mc_engine.run_experiment("alloc", params, reps=1000, seed=0)
        expected = mc_engine.verify(run, np.zeros(5), theory).to_dict()
        for key in ("entries", "normality", "skipped", "passed"):
            assert doc[key] == expected[key]
        assert doc["checks"] == []

    def test_skipped_ks_gate_is_recorded(self, tmp_path):
        out = tmp_path / "report.json"
        run_cli("alloc", "--n", "200", "--m", "200", "--max-k", "3",
                "--reps", "500", "--out", str(out))
        with open(out) as fh:
            doc = json.load(fh)
        assert doc["skipped"] == [{"gate": "ks", "reason": "R = 500 < 1000"}]
        assert doc["normality"] == []

    def test_ks_gate_runs_from_ks_min_reps(self, tmp_path):
        out = tmp_path / "report.json"
        run_cli("alloc", "--n", "200", "--m", "200", "--max-k", "3",
                "--reps", str(mc_engine.KS_MIN_REPS), "--out", str(out))
        report = cli.parse_report(str(out))
        assert report.skipped == []
        assert [e["index"] for e in report.normality] == [0, 1, 2, 3]

    def test_worker_flag_does_not_change_report(self, tmp_path):
        outs = []
        for workers, name in [("1", "a.json"), ("2", "b.json")]:
            path = tmp_path / name
            run_cli("alloc", "--n", "50", "--m", "50", "--max-k", "3",
                    "--reps", "240", "--workers", workers, "--out", str(path))
            with open(path) as fh:
                doc = json.load(fh)
            # the wall time, phase timings and provenance describe the run, not its result
            doc.pop("wall_time")
            doc.pop("timings")
            assert doc.pop("provenance")["workers"] == int(workers)
            outs.append(doc)
        assert outs[0] == outs[1]

    def test_report_carries_timings_and_provenance(self, tmp_path):
        out = tmp_path / "report.json"
        argv = ["gnm", "--n", "100", "--m", "100", "--max-k", "3", "--reps", "200",
                "--seed", "4", "--out", str(out)]
        assert run_cli(*argv) == cli.EXIT_OK
        with open(out) as fh:
            doc = json.load(fh)
        assert set(doc["timings"]) == {"streams_s", "sampling_s", "standardize_s",
                                       "accumulate_s", "dump_s"}
        assert all(t >= 0.0 for t in doc["timings"].values())
        assert math.isclose(sum(doc["timings"].values()), doc["wall_time"], rel_tol=1e-9)
        assert doc["provenance"] == {
            "condclt": condclt.__version__, "numpy": np.__version__,
            "python": sys.version.split()[0], "seed": 4, "workers": 1, "argv": argv}
        report = cli.parse_report(str(out))
        assert report.timings == doc["timings"]
        assert report.provenance == doc["provenance"]

    def test_analytic_report_carries_provenance(self, tmp_path):
        out = tmp_path / "report.json"
        assert run_cli("transfer", "--out", str(out)) == cli.EXIT_OK
        report = cli.parse_report(str(out))
        assert report.timings == {}
        assert report.provenance["argv"] == ["transfer", "--out", str(out)]
        assert report.provenance["workers"] == 1


class TestImports:
    def test_runs_load_no_scipy(self):
        """Every subcommand runs without scipy, and importing the CLI loads no
        multiprocessing module."""
        script = "\n".join([
            "import json, sys",
            "from condclt import cli",
            "loaded = set(sys.modules)",
            "for argv in (['alloc', '--n', '200', '--m', '200', '--reps', '1000'],",
            "             ['transfer'], ['monotone'], ['cwold']):",
            "    cli.main(argv)",
            "print(json.dumps({'import': sorted(loaded), 'runs': sorted(sys.modules)}))",
        ])
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True, timeout=300, check=True)
        modules = json.loads(proc.stdout.splitlines()[-1])
        assert "numpy" in modules["runs"]
        assert [m for m in modules["runs"] if m.split(".")[0] == "scipy"] == []
        assert [m for m in modules["import"] if m.split(".")[0] == "multiprocessing"] == []


class TestConfigFile:
    def test_file_value_applies(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("max_k=2\nreps=300\n")
        out = tmp_path / "report.json"
        code = run_cli("--config", str(cfg), "alloc", "--n", "100", "--m", "100",
                       "--out", str(out))
        assert code == cli.EXIT_OK
        report = cli.parse_report(str(out))
        assert report.params["max_k"] == 2

    def test_flag_overrides_file(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("max_k=2\nreps=300\n")
        out = tmp_path / "report.json"
        code = run_cli("--config", str(cfg), "alloc", "--n", "100", "--m", "100",
                       "--max-k", "3", "--out", str(out))
        assert code == cli.EXIT_OK
        assert cli.parse_report(str(out)).params["max_k"] == 3

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("lamda=2\n")
        code = run_cli("--config", str(cfg), "transfer")
        assert code == cli.EXIT_CONFIG_ERROR
        assert "lamda" in capsys.readouterr().err

    def test_malformed_line_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("just-a-token\n")
        assert run_cli("--config", str(cfg), "transfer") == cli.EXIT_CONFIG_ERROR

    def test_missing_file_rejected(self, tmp_path):
        code = run_cli("--config", str(tmp_path / "nope.cfg"), "transfer")
        assert code == cli.EXIT_CONFIG_ERROR

    def test_comments_and_blanks_ignored(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("# comment\n\nlam=4.0\n")
        assert run_cli("--config", str(cfg), "transfer") == cli.EXIT_OK


class TestArgumentErrors:
    def test_missing_required_flag(self):
        assert run_cli("alloc", "--m", "10") == cli.EXIT_CONFIG_ERROR

    def test_unknown_subcommand(self):
        assert run_cli("frobnicate") == cli.EXIT_CONFIG_ERROR

    def test_too_many_edges_is_config_error(self, capsys):
        # m exceeding C(n,2) is rejected before any replicate, not a traceback.
        code = run_cli("gnm", "--n", "4", "--m", "100", "--reps", "200")
        assert code == cli.EXIT_CONFIG_ERROR
        assert "exceeds C(n,2)" in capsys.readouterr().err

    @pytest.mark.parametrize("argv,message", [
        (("alloc", "--n", "0", "--m", "10"), "n must be >= 1"),
        (("alloc", "--n", "10", "--m", "-1"), "m must be >= 0"),
        (("gnp", "--n", "100", "--p", "2"), "p must be in [0, 1]"),
        (("spacings", "--n", "100", "--a", "0"), "a must be positive"),
        (("alloc", "--n", "100", "--m", "100", "--max-k", "-1"), "max_k must be >= 0"),
        (("alloc", "--n", "100", "--m", "100", "--seed", "-1"), "seed must be >= 0"),
        (("alloc", "--n", "10", "--m", "0"), "need lambda_n > 0"),
        (("gnm", "--n", "10", "--m", "0"), "need lambda_n > 0"),
        (("gnp", "--n", "10", "--p", "0"), "need lambda_n > 0"),
        (("spacings", "--n", "100", "--a", "800"), "positive residual variance"),
        (("spacings", "--n", "100", "--a", "inf"), "positive residual variance"),
    ], ids=["n-zero", "m-negative", "p-above-one", "a-zero", "max-k-negative",
            "seed-negative", "alloc-no-balls", "gnm-no-edges", "gnp-p-zero",
            "a-underflows", "a-infinite"])
    def test_bad_parameter_is_config_error(self, argv, message, capsys):
        code = run_cli(*argv, "--reps", "200")
        assert code == cli.EXIT_CONFIG_ERROR
        captured = capsys.readouterr()
        assert message in captured.err
        assert "PASS" not in captured.out and "Traceback" not in captured.err

    @pytest.mark.parametrize("workers", [0, -1, (os.cpu_count() or 1) + 1])
    def test_workers_out_of_range_is_config_error(self, workers, capsys, monkeypatch):
        # rejected before any pool starts: a pool would fail this test
        monkeypatch.setattr(mc_engine, "run_experiment", None)
        code = run_cli("alloc", "--n", "100", "--m", "100", "--reps", "200",
                       "--workers", str(workers))
        assert code == cli.EXIT_CONFIG_ERROR
        captured = capsys.readouterr()
        assert f"workers must be in [1, {os.cpu_count() or 1}]" in captured.err
        assert "Traceback" not in captured.err

    def test_workers_environment_variable_is_ignored(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CONDCLT_THREADS", "abc")
        out = tmp_path / "report.json"
        assert run_cli("alloc", "--n", "100", "--m", "100", "--reps", "200",
                       "--out", str(out)) == cli.EXIT_OK
        assert cli.parse_report(str(out)).provenance["workers"] == 1

    @pytest.mark.parametrize("argv,message", [
        (("cwold", "--grid", "0"), "grid and T must be positive"),
        (("cwold", "--T", "-1"), "grid and T must be positive"),
        (("cwold", "--T", "inf"), "grid and T must be positive and finite"),
        (("cwold", "--grid", "inf"), "grid and T must be positive and finite"),
        (("cwold", "--T", "1e308"), "at most 2001 points per axis"),
        (("cwold", "--grid", "1e-300"), "at most 2001 points per axis"),
        (("transfer", "--lam", "0"), "lam must be positive"),
        (("transfer", "--K", "3"), "K must be >= 18"),
        (("monotone", "--n", "9"), "n must be in [2, 8]"),
        (("monotone", "--n", "1"), "n must be in [2, 8]"),
        (("monotone", "--max-m", "0"), "max_m must be in [1, 12]"),
        (("alloc", "--n", "100", "--m", "100", "--reps", "1"), "reps must be >= 100"),
        (("alloc", "--n", "100", "--m", "100", "--reps", "50"), "reps must be >= 100"),
        *[(("alloc", "--n", "100", "--m", "100", flag, value),
           f"{flag[2:].replace('-', '_')} must be positive and finite")
          for flag in ("--z-gate", "--ks-gate") for value in ("nan", "inf", "0", "-1")],
        *[(("alloc", "--n", "100", "--m", "100", "--ks-gate", value),
           "ks_gate must be positive and finite and below 1")
          for value in ("1", "2")],
    ], ids=["grid-zero", "T-negative", "T-infinite", "grid-infinite", "T-huge", "grid-tiny",
            "lam-zero", "K-below-truncation", "monotone-n-nine",
            "monotone-n-one", "max-m-zero", "reps-one", "reps-fifty",
            *[f"{gate}-{value}" for gate in ("z-gate", "ks-gate")
              for value in ("nan", "inf", "zero", "negative")],
            "ks-gate-one", "ks-gate-two"])
    def test_bad_argument_is_config_error(self, argv, message, capsys):
        code = run_cli(*argv)
        assert code == cli.EXIT_CONFIG_ERROR
        captured = capsys.readouterr()
        assert message in captured.err
        assert "PASS" not in captured.out and "Traceback" not in captured.err
