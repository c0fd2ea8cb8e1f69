import csv
import json
import math
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import condclt
from condclt import cli, limit_theory, mc_engine, monotone, simulators
from condclt.errors import CondCltError
from exact_laws import LAWS


def run_cli(*argv):
    return cli.main(list(argv))


class TestAnalyticSubcommands:
    def test_transfer_passes(self, capsys):
        assert run_cli("transfer", "--lam", "2.0", "--K", "60") == cli.EXIT_OK
        out = capsys.readouterr().out
        assert "transfer: PASS" in out

    @pytest.mark.parametrize("lam", ["1e-4", "1e-8", "1e-300"])
    def test_transfer_at_small_lambda(self, lam, capsys):
        # the conditioned trace is about lam^2 / 2, below the rounding debris
        # of the lam-sized G(n, p) matrix; the PSD floor is relative to the latter,
        # and its (0, 0) entry pi_0 (1 - pi_0) keeps its O(lam) value
        assert run_cli("transfer", "--lam", lam) == cli.EXIT_OK
        assert "transfer: PASS" in capsys.readouterr().out

    def test_monotone_passes(self, capsys):
        assert run_cli("monotone", "--n", "5", "--max-m", "8") == cli.EXIT_OK
        assert "monotone: PASS (107/107 checks passed, wall = " in capsys.readouterr().out

    def test_monotone_at_its_caps_is_quick(self, capsys):
        # the degree chain stops at MONOTONE_MAX_GRAPH_N = 6 vertices: G(8, m)
        # would pass the enumeration cap, and the run would exit 3
        start = time.perf_counter()
        assert run_cli("monotone", "--n", "8", "--max-m", "12") == cli.EXIT_OK
        assert time.perf_counter() - start < 2.0
        assert "monotone: PASS (241/241 checks passed, wall = " in capsys.readouterr().out

    def test_failing_check_fails_the_run(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(monotone, "check_stochastic_dominance",
                            lambda d1, d2: (False, 0.0))
        out = tmp_path / "report.json"
        code = run_cli("monotone", "--n", "2", "--max-m", "1", "--out", str(out))
        assert code == cli.EXIT_GATE_FAILURE
        assert ("monotone: FAIL (0/3 checks passed, first failure: "
                "empty boxes n=2: m=1 <=st m=0, wall = ") in capsys.readouterr().out
        report = cli.parse_report(str(out))
        assert report.checks[0] == {"name": "empty boxes n=2: m=1 <=st m=0", "value": 0.0,
                                    "bound": None, "passed": False}
        assert not any(c["passed"] for c in report.checks)
        assert report.entries == [] and not report.passed

    @pytest.mark.parametrize("fault", ["crossing-coupling", "no-dominance"])
    def test_failing_degree_record_fails_the_run(self, fault, tmp_path, capsys, monkeypatch):
        real_coupling, real_law = monotone.quantile_coupling, monotone.gnm_count_law

        def crossing(d1, d2):
            # the vertices of degree 0 in G(2, 1) and G(2, 0): point masses at 0 and 2
            atoms = real_coupling(d1, d2)
            swap = (d1.support, d2.support) == ((0.0,), (2.0,))
            return [(x2, x1, p) for x1, x2, p in atoms] if swap else atoms

        if fault == "crossing-coupling":        # dominance holds, but an atom has x1 > x2
            monkeypatch.setattr(monotone, "quantile_coupling", crossing)
        else:                                   # G(v, C(v, 2) - m) in place of G(v, m)
            monkeypatch.setattr(monotone, "gnm_count_law",
                                lambda v, m: real_law(v, math.comb(v, 2) - m))
        out = tmp_path / "report.json"
        code = run_cli("monotone", "--n", "2", "--max-m", "1", "--out", str(out))
        assert code == cli.EXIT_GATE_FAILURE
        name = "vertices of degree <= 0, n=2: m=1 <=st m=0"
        assert f"FAIL (2/3 checks passed, first failure: {name}, wall = " in capsys.readouterr().out
        witness = [2.0, 0.0] if fault == "crossing-coupling" else 0.0
        assert [c for c in cli.parse_report(str(out)).checks if not c["passed"]] == [
            {"name": name, "value": witness, "bound": None, "passed": False}]

    def test_cwold_passes(self, capsys):
        assert run_cli("cwold") == cli.EXIT_OK
        assert "cwold: PASS" in capsys.readouterr().out

    def test_cwold_report_holds_exact_values(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert run_cli("cwold", "--out", str(out)) == cli.EXIT_OK
        assert re.fullmatch(r"cwold: PASS \(3/3 checks passed, wall = \S+s\)\n",
                            capsys.readouterr().out)
        report = cli.parse_report(str(out))
        assert [(c["value"], c["bound"]) for c in report.checks] == [
            ("0", "0"), ("1/5", "1/5"), ("1", "0")]
        assert report.checks[2]["name"].endswith("at (1, -1)) > bound")
        assert report.params == {} and report.seed is None

    def test_module_entry_point(self, tmp_path):
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, "-m", "condclt.cli", "cwold"], cwd=tmp_path,
                              env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == cli.EXIT_OK, proc.stderr
        assert proc.stdout.startswith("cwold: PASS (3/3 checks passed, wall = ")

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
            value = "" if check["value"] is None else str(check["value"])
            bound = "" if check["bound"] is None else str(check["bound"])
            assert row == [argv[0], check["name"], value, bound, "True"]


    @pytest.mark.parametrize("argv", [("transfer",), ("monotone", "--n", "3", "--max-m", "4"),
                                      ("cwold",)], ids=["transfer", "monotone", "cwold"])
    def test_report_claims_no_gate(self, argv, tmp_path):
        out = tmp_path / "report.json"
        assert run_cli(*argv, "--out", str(out)) == cli.EXIT_OK
        with open(out) as fh:
            doc = json.load(fh)
        assert list(doc)[3:5] == ["z_gate", "ks_gate"]
        assert doc["z_gate"] is None and doc["ks_gate"] is None


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
        assert report.seed is None and report.provenance["seed"] is None


class TestReadmeExamples:
    """The README's two sampling examples exit 1 with the figures it states
    next to them, so a change to a random stream updates the README too."""

    @pytest.mark.parametrize("argv,ks,max_z", [
        (("alloc", "--n", "10000", "--m", "10000", "--max-k", "5", "--reps", "2000"),
         {4: "0.0549"}, "2.618"),
        (("gnm", "--n", "2000", "--m", "2000", "--reps", "5000", "--workers", "2"),
         {6: "0.0633", 7: "0.1072", 8: "0.2133"}, "3.063"),
    ], ids=["alloc", "gnm"])
    def test_stated_figures(self, argv, ks, max_z, tmp_path):
        out = tmp_path / "report.json"
        assert run_cli(*argv, "--out", str(out)) == cli.EXIT_GATE_FAILURE
        report = cli.parse_report(str(out))
        distances = {e["index"]: f"{e['distance']:.4f}" for e in report.normality}
        assert {k: distances[k] for k in ks} == ks
        assert f"{report.max_abs_z():.3f}" == max_z


class TestImports:
    def test_runs_load_no_scipy(self):
        """Every subcommand runs without scipy, and importing the CLI loads no
        multiprocessing or dataclasses module."""
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
        assert "dataclasses" not in modules["import"]


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

    # n and m are required flags of alloc; the file alone may set them
    @pytest.mark.parametrize("flags,n", [((), 100), (("--n", "120"), 120)])
    def test_file_sets_required_options(self, flags, n, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("n=100\nm=100\nreps=300\nmax_k=2\n")
        out = tmp_path / "report.json"
        code = run_cli("--config", str(cfg), "alloc", *flags, "--out", str(out))
        assert code == cli.EXIT_OK
        params = cli.parse_report(str(out)).params
        assert (params["n"], params["m"]) == (n, 100)

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("lamda=2\n")
        code = run_cli("--config", str(cfg), "transfer")
        assert code == cli.EXIT_CONFIG_ERROR
        assert "lamda" in capsys.readouterr().err

    # keys that only other subcommands define
    @pytest.mark.parametrize("experiment,key", [("transfer", "seed=3"), ("transfer", "reps=500"),
                                                ("cwold", "n=5"), ("cwold", "seed=3")])
    def test_key_of_another_subcommand_rejected(self, experiment, key, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"{key}\n")
        assert run_cli("--config", str(cfg), experiment) == cli.EXIT_CONFIG_ERROR
        assert key.partition("=")[0] in capsys.readouterr().err

    def test_key_set_twice_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("lam=4.0\nK=60\nlam = 2.0\n")
        assert run_cli("--config", str(cfg), "transfer") == cli.EXIT_CONFIG_ERROR
        assert f"{cfg}: lam is set on lines 1 and 3" in capsys.readouterr().err

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

    def test_out_of_memory_exits_3(self, capsys, monkeypatch):
        def run_experiment(*args, **kwargs):
            raise MemoryError("Unable to allocate 728. TiB")
        monkeypatch.setattr(mc_engine, "run_experiment", run_experiment)
        code = run_cli("alloc", "--n", "100", "--m", "100", "--reps", "200")
        assert code == cli.EXIT_NUMERIC_ERROR
        captured = capsys.readouterr()
        assert "condclt: out of memory: Unable to allocate" in captured.err
        assert "Traceback" not in captured.err

    def test_array_too_big_exits_3(self, capsys):
        # numpy refuses the (reps, max_k + 1) sample matrix with a ValueError
        code = run_cli("alloc", "--n", "100", "--m", "100", "--reps", str(2**62))
        assert code == cli.EXIT_NUMERIC_ERROR
        captured = capsys.readouterr()
        assert "condclt: numeric/IO error: array is too big" in captured.err
        assert "Traceback" not in captured.err

    def test_condclt_error_before_the_run_is_config_error(self, capsys, monkeypatch):
        # the phase, not the exception class, sets the exit code
        def check_args(args):
            raise CondCltError("no truncation index")
        monkeypatch.setattr(cli, "check_args", check_args)
        assert run_cli("transfer") == cli.EXIT_CONFIG_ERROR
        assert "condclt: config error: no truncation index" in capsys.readouterr().err

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
        # e^-a underflows to 0: the residual variance would be 0 as well
        (("spacings", "--n", "100", "--a", "800"), "got 0 and 100"),
        (("spacings", "--n", "100", "--a", "inf"), "got 0 and 100"),
        # n e^-a or n (1 - e^-a) below 1: (nearly) every count is 0 or n
        (("spacings", "--n", "100", "--a", "20"), "got 2.06e-07 and 100"),
        (("spacings", "--n", "100", "--a", "700"), "got 9.86e-303 and 100"),
        (("spacings", "--n", "100", "--a", "1e-10"), "got 100 and 1e-08"),
        # past the truncation index a marginal reads only 0; 1e5 has no index
        (("alloc", "--n", "1000", "--m", "1000", "--max-k", "20"),
         "max_k must be at most 14, the truncation index of Poisson(1), got 20"),
        (("alloc", "--n", "10", "--m", "10", "--max-k", "100000"), "max_k must be at most 14"),
        (("gnm", "--n", "2000", "--m", "2000", "--max-k", "19"), "max_k must be at most 18"),
        (("gnp", "--n", "2000", "--p", "0.000001"), "max_k must be at most 3"),
        (("alloc", "--n", "10", "--m", "1000000"), "no truncation index below 10000"),
        # R n pi_k below 20: that marginal reads 0 in (nearly) every replicate
        (("alloc", "--n", "1000", "--m", "1000", "--max-k", "14"),
         "k = 14 expects R n pi_k(lambda_n) = 8.4397e-07 counts over all replicates, "
         "below 20"),
        (("gnm", "--n", "1000", "--m", "1000", "--max-k", "18"), "k = 18 expects"),
        (("alloc", "--n", "1370", "--m", "1370", "--max-k", "7"),
         "R n pi_k(lambda_n) = 19.9998"),
        # the finite-n count is a point mass: its sample variance is 0
        (("gnp", "--n", "3", "--p", "0.5", "--max-k", "3"), "k = 3: the count takes one value"),
        (("gnm", "--n", "6", "--m", "4", "--max-k", "5"), "k = 5: the count takes one value"),
        (("gnm", "--n", "2", "--m", "1", "--max-k", "1"), "k = 0: the count takes one value"),
        (("gnm", "--n", "3", "--m", "2", "--max-k", "2"), "k = 0: the count takes one value"),
        (("gnp", "--n", "1", "--p", "0.5", "--max-k", "1"), "k = 0: the count takes one value"),
        (("alloc", "--n", "2", "--m", "1", "--max-k", "1"), "k = 0: the count takes one value"),
        # C(n,2) or (2n-1)^2 past int64
        (("gnm", "--n", "10000000000", "--m", "2", "--max-k", "1"),
         "n must be at most 1518500250"),
        (("gnp", "--n", "1518500251", "--p", "1e-9", "--max-k", "1"),
         "n must be at most 1518500250"),
        # n or m past int64: no float, division or numpy draw can hold them
        (("alloc", "--n", str(10**400), "--m", str(10**400)), "n must be >= 1 and below 2**63"),
        (("alloc", "--n", "1", "--m", str(10**400)), "m must be >= 0 and below 2**63"),
        (("spacings", "--n", str(10**400)), "n must be >= 1 and below 2**63"),
        (("alloc", "--n", str(10**19), "--m", str(10**19)), "n must be >= 1 and below 2**63"),
        # 1 - e^-a rounds to 0 (or to a few ulps) at tiny a; expm1 keeps it
        (("spacings", "--n", "1000", "--a", "1e-17"), "got 1e+03 and 1e-14"),
        (("spacings", "--n", "1000", "--a", "1e-150"), "got 1e+03 and 1e-147"),
    ], ids=["n-zero", "m-negative", "p-above-one", "a-zero", "max-k-negative",
            "seed-negative", "alloc-no-balls", "gnm-no-edges", "gnp-p-zero",
            "a-underflows", "a-infinite", "a-no-exceedances", "a-huge", "a-tiny",
            "max-k-past-index", "max-k-huge", "gnm-max-k-past-index", "gnp-tiny-lambda",
            "lambda-no-index", "max-k-never-counted", "gnm-max-k-never-counted",
            "max-k-below-count-bound", "gnp-degree-past-n", "gnm-degree-past-m",
            "gnm-one-edge", "gnm-complete-less-one", "gnp-one-vertex", "alloc-one-ball",
            "gnm-n-huge", "gnp-n-past-int64", "alloc-n-m-past-int64", "alloc-m-past-int64",
            "spacings-n-past-int64", "alloc-n-m-1e19", "a-1e-17", "a-1e-150"])
    def test_bad_parameter_is_config_error(self, argv, message, capsys, monkeypatch):
        # rejected before anything is allocated or run
        monkeypatch.setattr(mc_engine, "run_experiment", None)
        code = run_cli(*argv, "--reps", "200")
        assert code == cli.EXIT_CONFIG_ERROR
        captured = capsys.readouterr()
        assert message in captured.err
        assert "PASS" not in captured.out and "Traceback" not in captured.err

    @pytest.mark.parametrize("model,sizes", [
        ("alloc", [(n, m) for n in range(1, 5) for m in range(1, 7)]),
        ("gnm", [(n, m) for n in range(2, 7) for m in range(1, n * (n - 1) // 2 + 1)]),
    ], ids=["alloc", "gnm"])
    def test_point_mass_rule_matches_enumeration(self, model, sizes):
        # the rule flags k exactly where entry k of the count vector takes one
        # value over every outcome of the exact law
        for n, m in sizes:
            counts = np.array(list(LAWS[model](n, m)))
            fixed = [k for k in range(counts.shape[1]) if np.all(counts[:, k] == counts[0, k])]
            params = {"n": n, "m": m, "max_k": counts.shape[1] - 1}
            assert cli._point_mass_ks(model, params) == fixed, (n, m)

    @pytest.mark.parametrize("argv", [
        # the truncation index, at an n where R n pi_k is far above 20
        ("alloc", "--n", "1000000000000", "--m", "1000000000000", "--max-k", "14"),
        # the largest graph n and the truncation index 3 of lambda_n ~ 2e-3,
        # where R n pi_3 ~ 400
        ("gnm", "--n", "1518500250", "--m", "1518500", "--max-k", "3"),
        ("gnp", "--n", "1518500250", "--p", "1.3e-12", "--max-k", "3"),
        ("spacings", "--n", "100", "--a", "4.6"),       # n e^-a = 1.005
        ("spacings", "--n", "100", "--a", "0.0101"),    # n (1 - e^-a) = 1.005
        ("alloc", "--n", "1371", "--m", "1371", "--max-k", "7"),  # R n pi_7 = 20.01
    ])
    def test_parameter_at_its_bound_is_accepted(self, argv):
        cli.check_args(cli.build_parser().parse_args([*argv, "--reps", "200"]))

    def test_admitted_spacings_thresholds_have_a_positive_residual(self):
        # the expected-count rule admits a in [-log1p(-1/n), log n], widest at
        # the largest n; check_args computes no residual variance, so it must be
        # positive wherever the rule admits a
        n = 2**63 - 1
        lo, hi = -math.log1p(-1 / n), math.log(n)
        for a, admitted in ((lo, True), (hi, True), (math.nextafter(lo, 0), False),
                            (math.nextafter(hi, math.inf), False)):
            args = cli.build_parser().parse_args(["spacings", "--n", str(n), "--a", repr(a),
                                                  "--reps", "200"])
            if admitted:
                cli.check_args(args)
            else:
                with pytest.raises(ValueError, match="expected counts"):
                    cli.check_args(args)
        for a in [lo, *np.geomspace(lo, hi, 10_001), hi]:
            assert limit_theory.spacings_limit_constants(float(a)).residual > 0.0, a

    @pytest.mark.parametrize("experiment", ["alloc", "gnp", "gnm", "spacings", "transfer",
                                            "monotone"])
    def test_extreme_values_raise_only_config_errors(self, experiment):
        # main maps a ValueError or CondCltError from check_args to exit 2; any
        # other exception would be a traceback.  Each option takes its usual
        # value or, at random, an extreme one of its type; nothing runs
        options = {"alloc": ("--n", "--m", "--max-k"), "gnp": ("--n", "--p", "--max-k"),
                   "gnm": ("--n", "--m", "--max-k"), "spacings": ("--n", "--a"),
                   "transfer": ("--lam", "--K"), "monotone": ("--n", "--max-m")}[experiment]
        usual = {"--n": "100", "--m": "100", "--p": "0.02", "--max-k": "3", "--a": "1.0",
                 "--lam": "2.0", "--K": "60", "--max-m": "4", "--seed": "0",
                 "--reps": "200", "--z-gate": "4", "--ks-gate": "0.05", "--workers": "1"}
        ints = ["0", "-1", str(2**63), str(10**400)]
        floats = [*ints, "nan", "inf", "-inf", "5e-324", "1e-17"]
        if experiment in mc_engine.EXPERIMENT_MODELS:
            options += ("--seed", "--reps", "--z-gate", "--ks-gate", "--workers")
        parser, rng = cli.build_parser(), np.random.default_rng(22)
        for _ in range(400):
            argv = [experiment]
            for option in options:
                pool = floats if option in ("--p", "--a", "--lam", "--z-gate",
                                            "--ks-gate") else ints
                value = usual[option] if rng.random() < 0.5 else pool[rng.integers(len(pool))]
                argv.append(f"{option}={value}")       # "-inf" is not taken for a flag
            try:
                cli.check_args(parser.parse_args(argv))
            except (ValueError, CondCltError):
                pass

    @pytest.mark.parametrize("workers", [0, -1, 2, (os.cpu_count() or 1) + 1])
    def test_workers_out_of_range_is_config_error(self, workers, capsys, monkeypatch):
        # rejected before any pool starts: a pool would fail this test.  The
        # bound is the CPUs the process may run on: here one, as under taskset -c 0
        monkeypatch.setattr(mc_engine, "run_experiment", None)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        code = run_cli("alloc", "--n", "100", "--m", "100", "--reps", "200",
                       "--workers", str(workers))
        assert code == cli.EXIT_CONFIG_ERROR
        captured = capsys.readouterr()
        assert f"workers must be in [1, 1], got {workers}" in captured.err
        assert "Traceback" not in captured.err

    def test_workers_environment_variable_is_ignored(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CONDCLT_THREADS", "abc")
        out = tmp_path / "report.json"
        assert run_cli("alloc", "--n", "100", "--m", "100", "--reps", "200",
                       "--out", str(out)) == cli.EXIT_OK
        assert cli.parse_report(str(out)).provenance["workers"] == 1

    @pytest.mark.parametrize("case,message", [
        ("directory", "is a directory"),
        ("missing-directory", "its directory does not exist"),
        ("empty", "must name a file, got ''"),
        ("trailing-separator", "its directory does not exist"),
    ], ids=["directory", "missing-directory", "empty", "trailing-separator"])
    @pytest.mark.parametrize("argv,flag", [
        (("alloc", "--n", "100", "--m", "100", "--reps", "200"), "--out"),
        (("alloc", "--n", "100", "--m", "100", "--reps", "200"), "--table"),
        (("alloc", "--n", "100", "--m", "100", "--reps", "200"), "--dump"),
        (("transfer",), "--table"),
    ], ids=["out", "table", "dump", "transfer-table"])
    def test_unwritable_output_path_is_config_error(self, argv, flag, case, message,
                                                     tmp_path, capsys, monkeypatch):
        # the paths are written only after the run: rejected before anything runs
        monkeypatch.setattr(mc_engine, "run_experiment", None)
        monkeypatch.setattr(cli, "_transfer_checks", None)
        path = {"directory": str(tmp_path), "missing-directory": str(tmp_path / "no" / "x"),
                "empty": "", "trailing-separator": str(tmp_path / "x") + os.sep}[case]
        assert run_cli(*argv, flag, path) == cli.EXIT_CONFIG_ERROR
        captured = capsys.readouterr()
        assert captured.err.startswith(f"condclt: config error: {flag}")
        assert message in captured.err and captured.err.count("\n") == 1
        assert captured.out == "" and list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("flags,named", [
        (("--out", "r", "--table", "r"), "--out and --table"),
        (("--dump", "p", "--out", "./p"), "--out and --dump"),
    ], ids=["out-table", "dump-out"])
    def test_two_outputs_naming_one_file_is_config_error(self, flags, named, tmp_path, capsys,
                                                         monkeypatch):
        # the later write would replace the earlier, and the run would lose a report
        monkeypatch.setattr(mc_engine, "run_experiment", None)
        monkeypatch.chdir(tmp_path)
        assert run_cli("alloc", "--n", "100", "--m", "100", "--reps", "200",
                       *flags) == cli.EXIT_CONFIG_ERROR
        real = os.path.realpath(flags[1])
        assert capsys.readouterr().err == f"condclt: config error: {named} both name {real}\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("config,argv", [
        ("reps=200\nmax_k=3\n", ("alloc", "--n", "100", "--m", "100", "--out", "exp.cfg")),
        ("reps=200\nmax_k=3\n", ("alloc", "--n", "100", "--m", "100", "--dump", "./exp.cfg")),
        ("lam=2.0\n", ("transfer", "--table", "exp.cfg")),
    ], ids=["out", "dump", "transfer-table"])
    def test_output_naming_the_config_file_is_config_error(self, config, argv, tmp_path, capsys,
                                                           monkeypatch):
        # the report would replace the config file it was run from
        monkeypatch.setattr(mc_engine, "run_experiment", None)
        monkeypatch.setattr(cli, "_transfer_checks", None)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "exp.cfg").write_text(config)
        assert run_cli("--config", "exp.cfg", *argv) == cli.EXIT_CONFIG_ERROR
        real = os.path.realpath("exp.cfg")
        assert capsys.readouterr().err == (f"condclt: config error: --config and {argv[-2]} "
                                           f"both name {real}\n")
        assert (tmp_path / "exp.cfg").read_bytes() == config.encode()

    @pytest.mark.parametrize("argv,message", [
        # the exact decision has no grid: the old scan flags are unknown
        (("cwold", "--grid", "0"), "unrecognized arguments: --grid 0"),
        (("cwold", "--T", "-1"), "unrecognized arguments: --T -1"),
        (("cwold", "--T", "inf"), "unrecognized arguments: --T inf"),
        (("cwold", "--grid", "inf"), "unrecognized arguments: --grid inf"),
        (("cwold", "--T", "1e308"), "unrecognized arguments: --T 1e308"),
        (("cwold", "--grid", "1e-300"), "unrecognized arguments: --grid 1e-300"),
        (("transfer", "--lam", "0"), "lam must be positive"),
        (("transfer", "--lam", "5e-324"), "at least 2.2e-308, got 5e-324"),
        (("transfer", "--K", "3"), "K must be >= 18"),
        # at K = 0 the edge statistic is 0: the bound is 1, not the index 0
        (("transfer", "--lam", "1e-13", "--K", "0"), "K must be >= 1, the larger of 1"),
        (("transfer", "--K", "10000000"), "and at most 2000; got 10000000"),
        (("transfer", "--seed", "1"), "unrecognized arguments: --seed 1"),
        (("monotone", "--n", "9"), "n must be in [2, 8]"),
        (("monotone", "--n", "1"), "n must be in [2, 8]"),
        (("monotone", "--max-m", "0"), "max_m must be in [1, 12]"),
        (("alloc", "--n", "100", "--m", "100", "--reps", "1"), "reps must be >= 100"),
        (("alloc", "--n", "100", "--m", "100", "--reps", "50"), "reps must be >= 100"),
        *[((model, "--n", "100", other, value, "--reps", str(10**400)),
           "reps must be >= 100 and below 2**63")
          for model, other, value in (("alloc", "--m", "100"), ("gnp", "--p", "0.02"),
                                      ("gnm", "--m", "100"))],
        *[(("alloc", "--n", "100", "--m", "100", flag, value),
           f"{flag[2:].replace('-', '_')} must be positive and finite")
          for flag in ("--z-gate", "--ks-gate") for value in ("nan", "inf", "0", "-1")],
        *[(("alloc", "--n", "100", "--m", "100", "--ks-gate", value),
           "ks_gate must be positive and finite and below 1")
          for value in ("1", "2")],
    ], ids=["grid-zero", "T-negative", "T-infinite", "grid-infinite", "T-huge", "grid-tiny",
            "lam-zero", "lam-subnormal", "K-below-truncation", "K-zero", "K-huge",
            "transfer-seed", "monotone-n-nine", "monotone-n-one", "max-m-zero", "reps-one",
            "reps-fifty",
            *[f"{model}-reps-past-int64" for model in ("alloc", "gnp", "gnm")],
            *[f"{gate}-{value}" for gate in ("z-gate", "ks-gate")
              for value in ("nan", "inf", "zero", "negative")],
            "ks-gate-one", "ks-gate-two"])
    def test_bad_argument_is_config_error(self, argv, message, capsys):
        code = run_cli(*argv)
        assert code == cli.EXIT_CONFIG_ERROR
        captured = capsys.readouterr()
        assert message in captured.err
        assert "PASS" not in captured.out and "Traceback" not in captured.err
