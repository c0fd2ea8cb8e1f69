"""condclt benchmark: time to a gated verdict, with a traced per-layer breakdown.

Usage, from the root of a checkout:

    python3 bench/run.py --workload alloc-1e4 --seed 1 --seconds 20 --trace 0

Workloads: alloc-1e4, gnm-2e3, gnm-1e5 and analytic (see bench/README.md).
One process runs a closed loop, one experiment at a time with workers=1,
until --seconds have passed.  Every experiment's outputs are checked; the
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics
are the end-to-end metrics of BENCHMARK.json; with ``--trace 1`` untraced and
traced experiments alternate and the metrics are its per-layer metrics.
Scratch reports and the span files go to .bench_build/bench/ in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# numpy, condclt and the other bench modules are imported inside functions:
# a set-up probe must import them itself, inside its timed region.

# One experiment at a time on one core: a BLAS helper thread would spin on the
# second core, and any other load there would slow the analytic workload's
# small LAPACK calls by up to threefold.  Must be set before numpy is imported.
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".bench_build" / "bench"
SETUP_PROBES = 15           # fresh interpreters per run; setup_s is their median
MIN_EXPERIMENTS = 3         # timed experiments per run, even past --seconds
MIN_TRACED = 2              # traced experiments per run, so counts can be compared


def use_checkout_source() -> None:
    """Import condclt from this checkout's src/ and nowhere else."""
    if not (SRC / "condclt" / "__init__.py").is_file():
        sys.exit(f"bench: no condclt source at {SRC.relative_to(ROOT)}/condclt")
    sys.path[:0] = [str(SRC)]
    import condclt
    if Path(condclt.__file__).resolve().parent != SRC / "condclt":
        sys.exit(f"bench: condclt imported from {condclt.__file__}, not from the checkout")


def probe_setup(name: str) -> None:
    """Child mode: time import plus workload set-up in this fresh interpreter."""
    start = time.perf_counter()
    import workloads
    workloads.setup(workloads.WORKLOADS[name])
    print(repr(time.perf_counter() - start))


def measure_setup(name: str) -> float:
    """setup_s of one fresh interpreter, which this process waits for."""
    proc = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                           "--probe-setup", name],
                          capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def fingerprint(seed: int, argv: list[str]) -> dict:
    import numpy
    import scipy
    cpu = next((line.split(":", 1)[1].strip() for line in
                Path("/proc/cpuinfo").read_text().splitlines()
                if line.startswith("model name")), platform.processor())
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level = (index / "level").read_text().strip()
        kind = (index / "type").read_text().strip()
        if kind != "Instruction":
            caches[f"L{level}"] = (index / "size").read_text().strip()
    commit = None
    if (ROOT / ".git").exists():
        commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                capture_output=True, text=True).stdout.strip() or None
    source = hashlib.sha256()
    for path in sorted((SRC / "condclt").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"cpu": cpu, "nproc": os.cpu_count(), "caches_per_core": caches,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "condclt_commit": commit,
            "condclt_source_sha256": source.hexdigest(), "seed": seed, "argv": argv}


class Bench:
    """One run of one workload: timed experiments, their checks, the metrics."""

    def __init__(self, name: str, seed: int):
        import workloads
        self.wl = workloads
        self.w = workloads.WORKLOADS[name]
        self.seed = seed
        self.experiment_seed = workloads.condclt_seed(self.w, seed)
        self.theory = None if self.w.model == "analytic" else workloads.setup(self.w)[0]
        WORK_DIR.mkdir(parents=True, exist_ok=True)
        self.scratch = WORK_DIR / f"{name}-{os.getpid()}"
        self.scratch.mkdir(exist_ok=True)
        self.paths = {"json": self.scratch / "report.json", "csv": self.scratch / "table.csv",
                      "dump": self.scratch / "counts.bin"}
        self.attempted = self.failed = 0
        self.first_digest = None
        self.gate = None

    def close(self) -> None:
        shutil.rmtree(self.scratch, ignore_errors=True)

    def timed(self):
        """Run one experiment; return its wall time and its outputs."""
        start = time.perf_counter_ns()
        if self.w.model == "analytic":
            out = self.wl.analytic_verdict(self.experiment_seed, self.paths)
        else:
            out = self.wl.sampling_verdict(self.w, self.theory, self.experiment_seed,
                                           self.paths)
        return (time.perf_counter_ns() - start) / 1e9, out

    def check(self, out) -> dict:
        """Output checks of one experiment (untimed); records the gate verdict."""
        import numpy as np
        import checks
        report_json = self.paths["json"].read_bytes()
        report_csv = self.paths["csv"].read_bytes()
        info = {"report_bytes": len(report_json) + len(report_csv), "ks_skipped": 0}
        if self.w.model == "analytic":
            report, res = out
            errors = checks.check_analytic(res)
            digest = checks.digest(report_json + report_csv)
            gate = {"passed": report.passed, **res}
        else:
            run, report, info["ks_skipped"] = out
            w = self.w
            raw = np.fromfile(self.paths["dump"], dtype="<i8")
            errors = checks.check_raw_counts(raw, w.reps, w.dim, w.params["n"], w.unit_cap)
            digest = checks.digest(run.samples.tobytes())
            gate = {"passed": report.passed, "max_abs_z": report.max_abs_z(),
                    "z_gate": report.z_gate,
                    "failed_entries": [f"{e.kind}({e.i},{e.j}) z={e.z:.2f}"
                                       for e in report.entries if abs(e.z) > report.z_gate],
                    "ks": {e["index"]: e["distance"] for e in report.normality},
                    "ks_gate": report.ks_gate,
                    "ks_skipped": (f"{info['ks_skipped']} marginals: R = {w.reps} < "
                                   f"{self.wl.KS_MIN_REPS}" if info["ks_skipped"] else None)}
        errors += checks.check_report_files(report_json, report_csv, len(report.entries),
                                            report.passed)
        if self.first_digest is None:
            self.first_digest, self.gate = digest, gate
        errors += checks.check_same_digest(self.first_digest, digest)
        # The next experiment writes fresh files: on ext4, truncating a file
        # that was just written forces its data to disk, which would time the
        # disk instead of condclt.
        for path in self.paths.values():
            path.unlink(missing_ok=True)
        return {"errors": errors, **info}

    def attempt(self, tracer=None) -> dict | None:
        """One attempted experiment; counts it, and a failure, toward the ratio.
        With a tracer, the experiment runs traced and the result holds its spans."""
        self.attempted += 1
        try:
            if tracer is not None:
                tracer.reset()
                tracer.install()
                try:
                    verdict_s, out = self.timed()
                finally:
                    tracer.uninstall()
                snap = tracer.snapshot()
            else:
                verdict_s, out = self.timed()
            result = self.check(out)
        except Exception:
            traceback.print_exc()
            self.failed += 1
            return None
        if tracer is not None:
            result["trace"] = snap
        if result["errors"]:
            print(f"bench: check failed: {result['errors']}", file=sys.stderr)
            self.failed += 1
            return None
        result["verdict_s"] = verdict_s
        return result

    def check_workers(self) -> None:
        """workers=1 vs workers=2 on a reduced-R copy, outside the timed region;
        counted as one attempted experiment."""
        import checks
        self.attempted += 1
        try:
            one, two = self.wl.worker_pair(self.w, self.experiment_seed)
            errors = (checks.check_workers(one.samples.tobytes(), two.samples.tobytes())
                      + checks.check_workers(one.acc.comoment.tobytes(),
                                             two.acc.comoment.tobytes()))
        except Exception:
            traceback.print_exc()
            errors = ["worker pair raised"]
        if errors:
            print(f"bench: check failed: {errors}", file=sys.stderr)
            self.failed += 1


def run_untraced(bench: Bench, seconds: int) -> dict:
    """Experiments for --seconds, with the set-up probes spread evenly between
    them so that setup_s samples the same stretch of time as verdict_s."""
    results, setup = [], []
    busy = 0.0
    while busy < seconds or len(results) < MIN_EXPERIMENTS:
        while len(setup) < SETUP_PROBES * min(busy / seconds, 1.0):
            setup.append(measure_setup(bench.w.name))
        start = time.perf_counter()
        results.append(bench.attempt())
        busy += time.perf_counter() - start
    while len(setup) < SETUP_PROBES:
        setup.append(measure_setup(bench.w.name))
    times = [r["verdict_s"] for r in results if r]
    if len(times) < 2:
        sys.exit(f"bench: only {len(times)} of {len(results)} experiments passed their checks")
    print(f"verdict_s: median of {len(times)} timed experiments, quartiles "
          f"{[round(q, 6) for q in statistics.quantiles(times, n=4)]}")
    print(f"setup_s: median of {len(setup)} fresh interpreters, {[round(t, 4) for t in setup]}")
    return {"verdict_s": statistics.median(times), "setup_s": statistics.median(setup)}


def run_traced(bench: Bench, seconds: int) -> dict:
    from tracer import Tracer
    import numpy as np
    tracer = Tracer(bench.wl.LAYERS)
    plain, traced = [], []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or len(traced) < MIN_TRACED:
        plain.append(bench.attempt())
        traced.append(bench.attempt(tracer))
    plain = [r for r in plain if r]
    traced = [r for r in traced if r]
    if not plain or not traced:
        sys.exit("bench: no traced or no untraced experiment passed its checks")
    for r in traced[1:]:
        if r["trace"]["counts"] != traced[0]["trace"]["counts"]:
            print("bench: trace counts differ between two traced experiments",
                  file=sys.stderr)
            bench.failed += 1
    mid = sorted(traced, key=lambda r: r["verdict_s"])[(len(traced) - 1) // 2]
    metrics = tracer.layer_metrics(mid["trace"], mid["verdict_s"])
    metrics["mc_engine.ks_skipped"] = mid["ks_skipped"]
    metrics["cli.report_bytes"] = mid["report_bytes"]
    metrics["trace_overhead"] = (statistics.median(r["verdict_s"] for r in traced)
                                 / statistics.median(r["verdict_s"] for r in plain) - 1.0)
    spans = [np.column_stack([np.full(len(r["trace"]["spans"]), i), r["trace"]["spans"]])
             for i, r in enumerate(traced)]
    np.savez_compressed(
        WORK_DIR / f"trace-{bench.w.name}-seed{bench.seed}.npz",
        sites=np.array([f"{layer}:{name}" for layer, name in tracer.sites]),
        spans=np.concatenate(spans), verdict_s=np.array([r["verdict_s"] for r in traced]))
    print(f"traced: {len(traced)} traced and {len(plain)} untraced experiments; "
          f"per-layer metrics from the median traced experiment "
          f"(verdict_s {mid['verdict_s']:.6f} s); counts "
          f"{json.dumps({k: v for k, v in mid['trace']['counts'].items() if v})}")
    return metrics


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    use_checkout_source()
    if args.probe_setup:
        probe_setup(args.probe_setup)
        return 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names or args.seconds < 1:
        parser.error(f"--workload must be one of {names} and --seconds >= 1")

    import checks
    accepted = checks.anti_check()
    if accepted:
        print(f"bench: the output checks accept corrupted results: {accepted}",
              file=sys.stderr)
        return 3

    bench = Bench(args.workload, args.seed)
    try:
        if bench.w.model != "analytic":
            bench.check_workers()
        if args.trace:
            values = run_traced(bench, args.seconds)
            listed = spec["per_layer"]
        else:
            values = run_untraced(bench, args.seconds)
            values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            values["ok_ratio"] = (bench.attempted - bench.failed) / bench.attempted
            listed = spec["end_to_end"]
    finally:
        bench.close()

    w = bench.w
    print(f"workload {w.name}: model {w.model}, params {w.params}, R = {w.reps}, "
          f"condclt seed {bench.experiment_seed}")
    print("provenance " + json.dumps(fingerprint(args.seed, [sys.argv[0], *argv])))
    print("gate " + json.dumps(bench.gate))
    print(f"fail_ratio = {bench.failed}/{bench.attempted}")
    metrics = {}
    for m in listed:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"{m['name']} = {values[m['name']]!r} {m['unit']}")
    print(json.dumps({"correct": bench.failed == 0, "attempted": bench.attempted,
                      "failed": bench.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
