import json
import math
import os
import platform
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.special import ndtr

from condclt import cli
from condclt import limit_theory as lt
from condclt import mc_engine as mc
from condclt import monotone, simulators
from condclt.errors import CondCltError
from exact_laws import law_moments


class TestStandardize:
    def test_alloc_example(self):
        # n=100, m=100: the empty-box count 40 standardizes to
        # (40 - 100/e)/10.
        spec = mc.standardization_for("alloc", {"n": 100, "m": 100, "max_k": 0})
        out = mc.standardize([40.0], spec)
        assert out[0] == pytest.approx((40 - 100 * math.exp(-1)) / 10, abs=1e-12)
        assert out[0] == pytest.approx(0.3212056, abs=1e-6)

    def test_spacings_centering(self):
        spec = mc.standardization_for("spacings", {"n": 10_000, "a": 1.0})
        assert spec.b_n[0] == pytest.approx(10_000 * math.exp(-1), abs=1e-9)
        assert spec.a_n == 100.0

    def test_gnp_centering_uses_np(self):
        spec = mc.standardization_for("gnp", {"n": 1000, "p": 0.002, "max_k": 3})
        expect = 1000 * np.array([lt.poisson_pmf(2.0, k) for k in range(4)])
        assert spec.b_n == pytest.approx(expect, abs=1e-9)

    def test_gnm_centering_uses_2m_over_n(self):
        spec = mc.standardization_for("gnm", {"n": 1000, "m": 1500, "max_k": 2})
        expect = 1000 * np.array([lt.poisson_pmf(3.0, k) for k in range(3)])
        assert spec.b_n == pytest.approx(expect, abs=1e-9)

    def test_shape_mismatch(self):
        spec = mc.standardization_for("alloc", {"n": 100, "m": 100, "max_k": 2})
        with pytest.raises(CondCltError, match="does not end in b_n shape"):
            mc.standardize([1.0], spec)

    def test_matrix_equals_rows(self):
        spec = mc.standardization_for("alloc", {"n": 100, "m": 100, "max_k": 2})
        raw = np.array([[37, 36, 19], [40, 30, 21], [35, 38, 18]], dtype=np.int64)
        out = mc.standardize(raw, spec)
        for row, expect in zip(raw, out):
            assert mc.standardize(row, spec).tobytes() == expect.tobytes()

    def test_matrix_shape_mismatch(self):
        spec = mc.standardization_for("alloc", {"n": 100, "m": 100, "max_k": 2})
        with pytest.raises(CondCltError, match="does not end in b_n shape"):
            mc.standardize(np.zeros((4, 2)), spec)
        with pytest.raises(CondCltError, match="does not end in b_n shape"):
            mc.standardize(np.zeros((2, 4, 3)), spec)

    @pytest.mark.parametrize("a_n", [0.0, -1.0, float("nan")])
    def test_spec_rejects_nonpositive_scale(self, a_n):
        with pytest.raises(ValueError, match="a_n"):
            mc.standardize(np.zeros(1), mc.StandardizationSpec(a_n=a_n, b_n=[1.0]))

    def test_spec_holds_only_affine_map(self):
        assert mc.StandardizationSpec._fields == ("a_n", "b_n")


class TestMomentAccumulator:
    def _fill(self, data):
        acc = mc.MomentAccumulator(data.shape[1])
        for row in data:
            acc.update(row)
        return acc

    def test_matches_numpy(self):
        rng = np.random.default_rng(0)
        data = rng.standard_normal((500, 3)) * [1.0, 2.0, 0.5] + [0.0, 1.0, -3.0]
        acc = self._fill(data)
        assert acc.mean == pytest.approx(data.mean(axis=0), abs=1e-12)
        assert acc.covariance() == pytest.approx(np.cov(data.T), abs=1e-10)

    def test_insufficient_for_covariance(self):
        acc = mc.MomentAccumulator(2)
        acc.update([1.0, 2.0])
        with pytest.raises(CondCltError, match="need at least 2 samples"):
            acc.covariance()

    def test_wrong_dim_update(self):
        with pytest.raises(CondCltError, match="sample shape"):
            mc.MomentAccumulator(2).update([1.0])


def _assert_rel_close(got, want, rtol=1e-12):
    """Agreement relative to the largest entry of want."""
    assert np.abs(got - want).max() <= rtol * np.abs(want).max()


class TestModelLambda:
    def test_rejects_unknown_model(self):
        with pytest.raises(ValueError, match="no lambda_n for model 'spacings'"):
            mc.model_lambda_n("spacings", {"n": 10, "a": 1.0})


class TestFromBlock:
    # Skewed rows on the scale of standardized counts, so every co-moment is
    # far from 0.
    DATA = np.random.default_rng(3).exponential(size=(700, 4)) * [1.0, 0.3, 2.0, 0.05]

    def _fill(self, data):
        acc = mc.MomentAccumulator(data.shape[1])
        for row in data:
            acc.update(row)
        return acc

    def test_matches_sequential_update(self):
        block, seq = mc.MomentAccumulator.from_block(self.DATA), self._fill(self.DATA)
        assert block.count == seq.count == len(self.DATA)
        for name in ("mean", "comoment"):
            _assert_rel_close(getattr(block, name), getattr(seq, name))

    def test_constant_column_has_zero_comoment(self):
        # a standardized count that never varies: its co-moments are exactly 0,
        # not float residue, so its mean SE is 0 and its mean z is infinite
        rows = np.random.default_rng(5).normal(size=(300, 3))
        rows[:, 1] = -0.1 * math.sqrt(3) / 0.7
        acc = mc.MomentAccumulator.from_block(rows)
        assert acc.mean[1] == rows[0, 1]
        assert not acc.comoment[1].any() and not acc.comoment[:, 1].any()
        run = mc.ExperimentRun(model="alloc", params={"n": 4, "m": 3, "max_k": 2},
                               reps=300, seed=0, acc=acc, samples=rows)
        for theory, z in ((0.0, -math.inf), (-1.0, math.inf)):
            report = mc.compare_to_theory(run, [0.0, theory, 0.0], np.eye(3))
            entry = next(e for e in report.entries if e.kind == "mean" and e.i == 1)
            assert entry.stderr == 0.0 and entry.z == z

    def test_empty_block(self):
        acc = mc.MomentAccumulator.from_block(np.empty((0, 3)))
        assert acc.count == 0 and acc.dim == 3

    def test_rejects_vector(self):
        with pytest.raises(CondCltError, match="block shape"):
            mc.MomentAccumulator.from_block(np.zeros(3))


class TestRunExperiment:
    def test_deterministic_same_seed(self):
        p = {"n": 50, "m": 50, "max_k": 3}
        a = mc.run_experiment("alloc", p, reps=200, seed=7)
        b = mc.run_experiment("alloc", p, reps=200, seed=7)
        assert np.array_equal(a.samples, b.samples)

    def test_seed_changes_output(self):
        p = {"n": 50, "m": 50, "max_k": 3}
        a = mc.run_experiment("alloc", p, reps=100, seed=7)
        b = mc.run_experiment("alloc", p, reps=100, seed=8)
        assert not np.array_equal(a.samples, b.samples)

    def test_worker_count_invariance(self):
        p = {"n": 30, "m": 40, "max_k": 3}
        a = mc.run_experiment("alloc", p, reps=240, seed=3, workers=1)
        b = mc.run_experiment("alloc", p, reps=240, seed=3, workers=2)
        assert a.samples.tobytes() == b.samples.tobytes()
        assert a.acc.mean.tobytes() == b.acc.mean.tobytes()

    def test_pool_holds_no_more_workers_than_chunks(self, monkeypatch):
        import concurrent.futures

        class InlinePool:   # runs each chunk in this process, records the pool size
            sizes = []

            def __init__(self, max_workers):
                self.sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                fut = concurrent.futures.Future()
                fut.set_result(fn(*args))
                return fut

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
        params = {"n": 20, "m": 20, "max_k": 3}
        run = mc.run_experiment("alloc", params, reps=3, seed=5, workers=64)
        assert InlinePool.sizes == [3]
        serial = mc.run_experiment("alloc", params, reps=3, seed=5)
        assert run.samples.tobytes() == serial.samples.tobytes()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_numpy_integer_reps(self, workers):
        # a numpy reps becomes a chunk bound, past STREAM_BLOCK twice
        params, reps = {"n": 30, "m": 40, "max_k": 3}, 2 * mc.STREAM_BLOCK + 5
        a = mc.run_experiment("alloc", params, reps=np.int64(reps), seed=9, workers=workers)
        b = mc.run_experiment("alloc", params, reps=reps, seed=9, workers=workers)
        assert a.samples.tobytes() == b.samples.tobytes()

    def test_too_few_reps(self):
        with pytest.raises(CondCltError, match="reps must be >= 2"):
            mc.run_experiment("alloc", {"n": 5, "m": 5, "max_k": 1}, reps=1, seed=0)

    def test_dump_reconstructs_counts(self, tmp_path):
        from condclt import simulators

        p = {"n": 20, "m": 25, "max_k": 4}
        path = tmp_path / "counts.bin"
        run = mc.run_experiment("alloc", p, reps=50, seed=5, dump_path=path)
        mat = simulators.load_count_matrix(path, 5)
        spec = mc.standardization_for("alloc", p)
        recon = mc.standardize(mat[0].astype(float), spec)
        assert recon == pytest.approx(run.samples[0], abs=1e-12)
        assert mat.min() >= 0 and mat.sum(axis=1).max() <= 20

    def test_dump_is_the_raw_count_matrix(self, tmp_path):
        p = {"n": 20, "m": 25, "max_k": 4}
        path = tmp_path / "counts.bin"
        run = mc.run_experiment("alloc", p, reps=50, seed=5, dump_path=path)
        spec = mc.standardization_for("alloc", p)
        recon = np.rint(run.samples * spec.a_n + spec.b_n).astype("<i8")
        assert path.read_bytes() == recon.tobytes()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_phase_timings(self, workers):
        run = mc.run_experiment("alloc", {"n": 50, "m": 50, "max_k": 3}, reps=300,
                                seed=4, workers=workers)
        assert set(run.timings) == {"streams_s", "sampling_s", "standardize_s",
                                    "accumulate_s", "dump_s"}
        assert all(v >= 0.0 for v in run.timings.values())
        assert sum(run.timings.values()) <= run.wall_time

    def test_moments_match_numpy_over_the_sample_matrix(self):
        # 110 rows: the batch slices hold 5 or 6 rows each
        run = mc.run_experiment("alloc", {"n": 10, "m": 10, "max_k": 2}, reps=110, seed=1)
        report = mc.compare_to_theory(run, np.zeros(3), np.eye(3))
        cov = np.cov(run.samples.T)
        bounds = np.linspace(0, 110, mc.DEFAULT_N_BATCHES + 1).astype(int)
        batch_covs = np.array([np.cov(run.samples[lo:hi].T)
                               for lo, hi in zip(bounds[:-1], bounds[1:])])
        upper = np.triu_indices(3)
        want = {"mean": (run.samples.mean(axis=0), np.sqrt(np.diag(cov) / 110)),
                "cov": (cov[upper], batch_covs.std(axis=0, ddof=1)[upper]
                        / math.sqrt(mc.DEFAULT_N_BATCHES))}
        for kind, (estimate, stderr) in want.items():
            got = [e for e in report.entries if e.kind == kind]
            _assert_rel_close(np.array([e.estimate for e in got]), estimate)
            _assert_rel_close(np.array([e.stderr for e in got]), stderr)

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc heap thresholds")
    def test_replicates_reuse_heap_pages(self):
        """Replicates with megabyte-sized arrays reuse the pages of the one
        before, so a second experiment takes next to no minor page faults
        (about 160 a replicate while glibc trimmed its heap after each one)."""
        script = "\n".join([
            "import resource",
            "from condclt import mc_engine",
            "params = {'n': 20000, 'm': 20000, 'max_k': 8}",
            "mc_engine.run_experiment('gnm', params, 100, 2)",
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt",
            "mc_engine.run_experiment('gnm', params, 100, 2)",
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)",
        ])
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True, timeout=120, check=True)
        assert int(proc.stdout.splitlines()[-1]) < 500


class TestCompareToTheory:
    def test_desk_scale_pass(self):
        # n=4, m=3 allocation: compare standardized sample moments to the
        # exact finite-n moments.
        p = {"n": 4, "m": 3, "max_k": 3}
        run = mc.run_experiment("alloc", p, reps=20_000, seed=11)
        mean, cov = law_moments(monotone.allocation_count_law(4, 3))
        spec = mc.standardization_for("alloc", p)
        theory_mean = (mean - spec.b_n) / spec.a_n
        theory_cov = cov / 4.0
        report = mc.compare_to_theory(run, theory_mean, theory_cov)
        assert report.passed, report.max_abs_z()
        assert report.max_abs_z() < 4.0

    def test_corrupted_variance_fails(self):
        p = {"n": 4, "m": 3, "max_k": 3}
        run = mc.run_experiment("alloc", p, reps=20_000, seed=11)
        mean, cov = law_moments(monotone.allocation_count_law(4, 3))
        spec = mc.standardization_for("alloc", p)
        theory_mean = (mean - spec.b_n) / spec.a_n
        report = mc.compare_to_theory(run, theory_mean, 2.0 * cov / 4.0)
        assert not report.passed

    def test_requires_100_reps(self):
        run = mc.run_experiment("alloc", {"n": 4, "m": 3, "max_k": 1},
                                reps=50, seed=0)
        with pytest.raises(CondCltError, match="need >= 100 replicates"):
            mc.compare_to_theory(run, np.zeros(2), np.eye(2))

    @staticmethod
    def _zero_stderr_report():
        # Constant integer rows: every batch covariance is exactly 0, so each
        # batch-means SE is 0 and only a zero difference may read z = 0.
        rows = np.tile(np.array([3, 1, 0]), (200, 1))
        run = mc.ExperimentRun(model="alloc", params={"n": 4, "m": 3, "max_k": 2},
                               reps=200, seed=0, acc=mc.MomentAccumulator.from_block(rows),
                               samples=rows.astype(float))
        return mc.compare_to_theory(run, run.acc.mean, np.eye(3))

    def test_zero_stderr_covariance_fails(self):
        report = self._zero_stderr_report()
        cov = {(e.i, e.j): e for e in report.entries if e.kind == "cov"}
        assert all(e.stderr == 0.0 for e in cov.values())
        # the estimate 0 falls short of the theory 1, so every z is -inf
        assert all(cov[i, i].z == -math.inf for i in range(3))
        assert cov[0, 1].z == 0.0 and cov[1, 2].z == 0.0
        assert not report.passed

    def test_infinite_z_is_written_as_strict_json(self, tmp_path):
        def reject(token):
            raise ValueError(f"{token} is not JSON")

        report = self._zero_stderr_report()
        report.entries.append(report.entries[-1]._replace(z=math.inf))
        out = tmp_path / "report.json"
        cli.emit_report(report, str(out))
        doc = json.loads(out.read_text(), parse_constant=reject)
        assert [e["z"] for e in doc["entries"] if isinstance(e["z"], str)] == [
            "-inf", "-inf", "-inf", "inf"]
        back = cli.parse_report(str(out))
        assert [e.z for e in back.entries] == [e.z for e in report.entries]

    def test_report_roundtrip(self):
        run = mc.run_experiment("alloc", {"n": 4, "m": 3, "max_k": 1},
                                reps=500, seed=0)
        report = mc.compare_to_theory(run, run.acc.mean, run.acc.covariance())
        report.skipped.append({"gate": "ks", "reason": "R = 500 < 1000"})
        report.checks.append({"name": "c", "value": None, "bound": None, "passed": True})
        back = mc.VerificationReport.from_dict(report.to_dict())
        assert back.skipped == report.skipped
        assert back.checks == report.checks
        assert back.experiment == report.experiment
        assert back.passed == report.passed
        assert len(back.entries) == len(report.entries)
        assert back.entries[0].z == report.entries[0].z
        older = report.to_dict()        # written before reports carried checks
        del older["checks"]
        assert mc.VerificationReport.from_dict(older).checks == []
        # built positionally, as the bench's analytic workload builds its rows
        entry = mc.ComparisonEntry("octant_max", 3, -1, 0.0, 1.5, 0.0, 0.0)
        assert (entry.kind, entry.i, entry.j, entry.estimate) == ("octant_max", 3, -1, 1.5)
        report.entries.append(entry)
        out = report.to_dict()
        assert list(out) == ["experiment", "params", "seed", "z_gate", "ks_gate", "entries",
                             "normality", "skipped", "checks", "passed", "wall_time",
                             "timings", "provenance"]
        assert list(out["entries"][-1]) == ["kind", "i", "j", "theory", "estimate",
                                            "stderr", "z"]
        back = mc.VerificationReport.from_dict(out)
        assert back.entries[-1] == entry
        assert back.to_dict() == out
        # each report built without them gets its own empty containers
        a, b = (mc.VerificationReport("alloc", {}, 0, 4.0, 0.05) for _ in range(2))
        for name in ("entries", "normality", "skipped", "checks", "timings", "provenance"):
            assert not getattr(a, name)
            assert getattr(a, name) is not getattr(b, name)
        a.skipped.append({"gate": "ks"})
        a.timings["streams_s"] = 0.0
        assert b.skipped == [] and b.timings == {}


def _ndtr_normality_distance(samples, mu, sigma2):
    """The KS distance over all sorted rows, with scipy's Gaussian CDF."""
    samples = np.sort(np.asarray(samples, dtype=float))
    n = len(samples)
    cdf = ndtr((samples - mu) / math.sqrt(sigma2))
    upper = np.arange(1, n + 1) / n - cdf
    lower = cdf - np.arange(0, n) / n
    return float(max(upper.max(), lower.max()))


class TestNormalityDistance:
    def test_gaussian_sample_close(self):
        rng = np.random.default_rng(42)
        x = rng.standard_normal(10_000)
        assert mc.normality_distance(x, 0.0, 1.0) < 0.025

    def test_shifted_scale(self):
        rng = np.random.default_rng(43)
        x = 3.0 + 2.0 * rng.standard_normal(10_000)
        assert mc.normality_distance(x, 3.0, 4.0) < 0.025

    def test_constant_samples_far(self):
        x = np.zeros(2000)
        assert mc.normality_distance(x, 0.0, 1.0) >= 0.5

    def test_degenerate_variance(self):
        # nan > gate is False, so a NaN distance would pass every KS gate
        for mu, sigma2 in [(0.0, 0.0), (0.0, math.nan), (0.0, math.inf), (math.nan, 1.0)]:
            with pytest.raises(CondCltError, match="need a finite mu and 0 < sigma2 < inf"):
                mc.normality_distance(np.zeros(2000), mu, sigma2)

    def test_needs_1000(self):
        with pytest.raises(CondCltError, match="need >= 1000 samples"):
            mc.normality_distance(np.zeros(mc.KS_MIN_REPS - 1), 0.0, 1.0)
        assert mc.normality_distance(np.zeros(mc.KS_MIN_REPS), 0.0, 1.0) == 0.5

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_all_rows_formula(self, seed):
        rng = np.random.default_rng(seed)
        continuous = 0.3 + 1.5 * rng.standard_normal(5000)
        # standardized occupancy counts: a few dozen distinct values, many ties
        lattice = (rng.poisson(31.0, size=10_000) - 31.0) / 100.0
        for x, mu, sigma2 in [(continuous, 0.3, 2.25), (continuous, 0.0, 1.0),
                              (lattice, 0.0, 0.0031), (lattice, 0.01, 0.005)]:
            assert abs(mc.normality_distance(x, mu, sigma2)
                       - _ndtr_normality_distance(x, mu, sigma2)) <= 1e-15


class TestGateSoundness:
    def test_pass_rate_across_seeds(self):
        # With correct theory the 4-sigma gate should essentially always pass.
        mean, cov = law_moments(monotone.allocation_count_law(4, 3))
        p = {"n": 4, "m": 3, "max_k": 3}
        spec = mc.standardization_for("alloc", p)
        theory_mean = (mean - spec.b_n) / spec.a_n
        theory_cov = cov / 4.0
        passes = 0
        for seed in range(10):
            run = mc.run_experiment("alloc", p, reps=4000, seed=seed)
            report = mc.compare_to_theory(run, theory_mean, theory_cov)
            passes += int(report.passed)
        assert passes >= 9


class TestVerify:
    P = {"n": 4, "m": 3, "max_k": 3}

    def test_ks_failure_alone_fails_the_run(self):
        # theory = the sample moments, so every z is 0; four boxes put each
        # standardized count on a lattice far from any Gaussian
        run = mc.run_experiment("alloc", self.P, reps=mc.KS_MIN_REPS, seed=0)
        theory = (run.acc.mean, run.acc.covariance())
        assert mc.compare_to_theory(run, *theory).passed
        report = mc.verify(run, *theory)
        assert [e["index"] for e in report.normality] == [0, 1, 2, 3]
        top = max(e["distance"] for e in report.normality)
        assert top > report.ks_gate and not report.passed
        assert mc.verify(run, *theory, ks_gate=top).passed
        # a KS gate of nan or past 1, or a z gate of inf, would pass this run
        for gates in ({"ks_gate": math.nan}, {"ks_gate": 1.0}, {"z_gate": math.inf}):
            with pytest.raises(CondCltError, match="must be positive and finite"):
                mc.verify(run, *theory, **gates)
        with pytest.raises(CondCltError, match="z_gate must be positive and finite, got inf"):
            mc.compare_to_theory(run, *theory, z_gate=math.inf)

    def test_zero_variance_marginal_is_skipped(self):
        run = mc.run_experiment("alloc", {**self.P, "max_k": 4}, reps=mc.KS_MIN_REPS, seed=0)
        cov = run.acc.covariance()
        cov[4, :] = cov[:, 4] = 0.0
        report = mc.verify(run, run.acc.mean, cov)
        assert report.skipped == [{"gate": "ks", "index": 4,
                                   "reason": "theory variance 0 <= 0"}]
        assert [e["index"] for e in report.normality] == [0, 1, 2, 3]

    @pytest.mark.parametrize("entry", ["mean", "cov"])
    def test_nan_theory_raises(self, entry):
        # this run passes against the finite ALLOC theory; a NaN used to give
        # z = nan or KS = nan, which no gate fails
        run = mc.run_experiment("alloc", {"n": 5000, "m": 5000, "max_k": 3}, reps=2000, seed=0)
        mean, cov = np.zeros(4), lt.theory_cov_matrix(lt.ALLOC, 1.0, 3).matrix
        assert mc.verify(run, mean, cov).passed
        if entry == "mean":
            mean[1] = np.nan
        else:
            cov[2, 2] = np.nan
        with pytest.raises(CondCltError, match="must be finite"):
            mc.verify(run, mean, cov)

    def test_theory_of_the_wrong_shape_raises(self):
        run = mc.run_experiment("alloc", self.P, reps=200, seed=0)
        with pytest.raises(CondCltError, match=r"are not \(4,\) and \(4, 4\)"):
            mc.verify(run, np.zeros(3), np.eye(4))
        with pytest.raises(CondCltError, match=r"are not \(4,\) and \(4, 4\)"):
            mc.verify(run, np.zeros(4), np.eye(5))

    def test_few_replicates_skip_the_ks_gate(self):
        reps = mc.KS_MIN_REPS - 1
        run = mc.run_experiment("alloc", self.P, reps=reps, seed=0)
        report = mc.verify(run, run.acc.mean, run.acc.covariance(), ks_gate=1e-9)
        assert report.skipped == [{"gate": "ks",
                                   "reason": f"R = {reps} < {mc.KS_MIN_REPS}"}]
        assert report.normality == [] and report.passed


def _reference_samples(model, params, reps, seed):
    """The per-replicate harness: a fresh default_rng(SeedSequence([seed, i]))
    per replicate, the model's sampler (for gnp a binomial edge count first),
    its counts up to max_k, then standardize on each row."""
    spec = mc.standardization_for(model, params)
    dim = mc.replicate_dim(model, params)
    n = params["n"]
    rows = []
    for i in range(reps):
        rng = np.random.default_rng(np.random.SeedSequence([seed, i]))
        if model == "spacings":
            raw = np.array([simulators.spacing_exceedances(n, params["a"], rng)])
        else:
            if model == "gnp":
                m = int(rng.binomial(n * (n - 1) // 2, params["p"]))
            else:
                m = params["m"]
            loads = (simulators.allocation_loads(n, m, rng) if model == "alloc"
                     else simulators.degree_loads(n, m, rng))
            raw = np.bincount(loads, minlength=dim)[:dim]
        rows.append(mc.standardize(raw, spec))
    return np.array(rows)


# A run crosses a stream block boundary at replicate mc.STREAM_BLOCK.
HARNESS_CASES = {
    "alloc": ("alloc", {"n": 30, "m": 40, "max_k": 3}, 1100),
    "gnm-sparse": ("gnm", {"n": 200, "m": 300, "max_k": 5}, 60),
    "gnm-dense": ("gnm", {"n": 8, "m": 25, "max_k": 7}, 60),
    "gnp": ("gnp", {"n": 2000, "p": 0.001, "max_k": 8}, 40),
    "spacings": ("spacings", {"n": 500, "a": 1.0}, 60),
    "gnp-mostly-empty": ("gnp", {"n": 50, "p": 1e-4, "max_k": 3}, 60),
    "gnp-one-vertex": ("gnp", {"n": 1, "p": 0.5, "max_k": 2}, 60),
    "alloc-no-balls": ("alloc", {"n": 7, "m": 0, "max_k": 3}, 60),
    "alloc-tail-heavy": ("alloc", {"n": 5, "m": 200, "max_k": 2}, 60),
    "gnm-max-k-0": ("gnm", {"n": 30, "m": 40, "max_k": 0}, 60),
}


class TestHarnessEquivalence:
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("case", list(HARNESS_CASES))
    def test_samples_match_per_replicate_reference(self, case, workers):
        model, params, reps = HARNESS_CASES[case]
        run = mc.run_experiment(model, params, reps, seed=9, workers=workers)
        ref = _reference_samples(model, params, reps, seed=9)
        assert run.samples.dtype == ref.dtype
        assert run.samples.tobytes() == ref.tobytes()


STREAM_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 + 3, 2**128 + 1]


class TestStreamDerivation:
    # Seeds of up to five 32-bit words and indices of one and two words: with
    # five or more entropy words SeedSequence mixes the words beyond its pool
    # of four in a second loop.  Each range reuses one Generator twice.
    @pytest.mark.parametrize("seed", STREAM_SEEDS)
    @pytest.mark.parametrize("lo", [0, 1023, 2**32 - 1])
    def test_matches_default_rng(self, seed, lo):
        for i, rng in zip(range(lo, lo + 2), mc._replicate_rngs(seed, lo, lo + 2)):
            ref = np.random.default_rng(np.random.SeedSequence([seed, i]))
            assert rng.bit_generator.state == ref.bit_generator.state
            assert np.array_equal(rng.integers(0, 1000, size=64),
                                  ref.integers(0, 1000, size=64))
            assert rng.binomial(10**6, 0.3) == ref.binomial(10**6, 0.3)

    def test_range_across_blocks(self):
        lo, hi = 2 * mc.STREAM_BLOCK - 3, 2 * mc.STREAM_BLOCK + 3
        got = [rng.integers(0, 2**32, size=3) for rng in mc._replicate_rngs(7, lo, hi)]
        want = [np.random.default_rng(np.random.SeedSequence([7, i])).integers(0, 2**32, size=3)
                for i in range(lo, hi)]
        assert np.array_equal(got, want)

    def test_passes_stay_within_a_block_and_a_word_count(self, monkeypatch):
        shapes, generate_state = [], mc._generate_state

        def recording(entropy):
            shapes.append(entropy.shape)
            return generate_state(entropy)

        monkeypatch.setattr(mc, "_generate_state", recording)
        lo, hi = 2**32 - mc.STREAM_BLOCK - 3, 2**32 + mc.STREAM_BLOCK + 3
        start = lo
        for i, rng in zip(range(lo, hi), mc._replicate_rngs(7, lo, hi), strict=True):
            ref = np.random.default_rng(np.random.SeedSequence([7, i]))
            assert rng.bit_generator.state == ref.bit_generator.state
        # seed 7 is one word; indices below 2**32 are one more, from it two
        for rows, cols in shapes:
            assert rows <= mc.STREAM_BLOCK
            assert cols == (2 if start < 2**32 else 3) == (2 if start + rows <= 2**32 else 3)
            start += rows
        assert start == hi

    def test_negative_seed_raises(self):
        with pytest.raises(ValueError):
            next(mc._replicate_rngs(-1, 0, 1))


class TestCheckParams:
    @pytest.mark.parametrize("model,params,seed", [
        ("alloc", {"n": 0, "m": 10, "max_k": 3}, 0),
        ("alloc", {"n": 10, "m": -1, "max_k": 3}, 0),
        ("gnm", {"n": 4, "m": 7, "max_k": 3}, 0),
        ("gnm", {"n": 4, "m": -1, "max_k": 3}, 0),
        ("gnp", {"n": 10, "p": 1.5, "max_k": 3}, 0),
        ("gnp", {"n": 10, "p": -0.1, "max_k": 3}, 0),
        ("gnp", {"n": 10, "p": float("nan"), "max_k": 3}, 0),
        ("spacings", {"n": 10, "a": 0.0}, 0),
        ("alloc", {"n": 10, "m": 10, "max_k": -1}, 0),
        ("alloc", {"n": 10, "m": 10, "max_k": 3}, -1),
        ("poisson", {"n": 10}, 0),
        ("poisson", {"n": 10, "m": 10, "max_k": 3}, 0),
        ("gnp", {"n": 100, "m": 50, "max_k": 3}, 0),
        ("alloc", {"n": 10, "m": 10}, 0),
        ("spacings", {"n": 1000, "a": 1.0, "max_k": 4}, 0),
    ])
    def test_rejects(self, model, params, seed):
        with pytest.raises(ValueError):
            mc.check_params(model, params, seed)
        with pytest.raises(ValueError):
            mc.run_experiment(model, params, reps=10, seed=seed)

    @pytest.mark.parametrize("model,params", [
        ("alloc", {"n": 1, "m": 0, "max_k": 0}),
        ("gnm", {"n": 4, "m": 6, "max_k": 3}),
        ("gnp", {"n": 10, "p": 1.0, "max_k": 3}),
        ("spacings", {"n": 10, "a": 1e-9}),
    ])
    def test_accepts_boundary_values(self, model, params):
        mc.check_params(model, params, 0)

    @pytest.mark.parametrize("model,params,message", [
        ("gnp", {"n": 100, "m": 50, "max_k": 3}, "gnp params: missing ['p'], unexpected ['m']"),
        ("spacings", {"n": 1000, "a": 1.0, "max_k": 4},
         "spacings params: missing [], unexpected ['max_k']"),
        ("alloc", {"n": 10, "m": 10}, "alloc params: missing ['max_k'], unexpected []"),
    ])
    def test_names_missing_and_unexpected_keys(self, model, params, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            mc.check_params(model, params, 0)

    @pytest.mark.parametrize("helper", [
        lambda model, params: mc.check_params(model, params, 0),
        mc.model_lambda_n, mc.standardization_for, mc.replicate_dim,
        lambda model, params: mc.run_experiment(model, params, reps=200, seed=0),
    ], ids=["check_params", "model_lambda_n", "standardization_for", "replicate_dim",
            "run_experiment"])
    def test_every_helper_rejects_an_unknown_model(self, helper):
        message = ("unknown model 'poisson'; expected one of "
                   "('alloc', 'gnp', 'gnm', 'spacings')")
        with pytest.raises(ValueError, match=re.escape(message)):
            helper("poisson", {"n": 3, "max_k": 2})
