"""The library names the benchmark in bench/ reads: one traced analytic verdict
and one traced gnm-2e3 sampling verdict, each reduced to its per-layer metrics
as ``bench/run.py --trace 1`` reduces them."""

import dataclasses
import json
import sys
import time
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parents[1] / "bench"
if str(BENCH) not in sys.path:
    sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

# per-layer metrics that bench/run.py adds to those of Tracer.layer_metrics
RUN_METRICS = {"mc_engine.ks_skipped", "cli.report_bytes", "trace_overhead"}


def traced(tr, fn, *args):
    """fn(*args) with the tracer installed: its result, spans and wall time."""
    tr.reset()
    tr.install()
    start = time.perf_counter()
    try:
        out = fn(*args)
    finally:
        tr.uninstall()
    return out, tr.snapshot(), time.perf_counter() - start


def test_traced_verdicts_give_every_per_layer_metric(tmp_path):
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    expected = {m["name"] for m in spec["per_layer"]} - RUN_METRICS
    paths = {"json": tmp_path / "report.json", "csv": tmp_path / "table.csv",
             "dump": tmp_path / "counts.bin"}
    tr = tracer.Tracer(workloads.LAYERS)

    (report, res), snap, verdict_s = traced(tr, workloads.analytic_verdict, 1, paths)
    assert report.passed and checks.check_analytic(res) == []
    metrics = tr.layer_metrics(snap, verdict_s)
    assert set(metrics) >= expected
    assert metrics["limit_theory.pmf_calls"] > 0 and metrics["cwold.grid_points"] > 0
    assert metrics["monotone.outcomes_enumerated"] > 0 and metrics["gauss_cond.calls"] > 0

    w = dataclasses.replace(workloads.WORKLOADS["gnm-2e3"], reps=1000)
    theory = workloads.setup(w)[0]
    (run, report, ks_skipped), snap, verdict_s = traced(
        tr, workloads.sampling_verdict, w, theory, 1, paths)
    assert ks_skipped == 0 and len(report.normality) == w.dim
    raw = np.fromfile(paths["dump"], dtype="<i8")
    assert checks.check_raw_counts(raw, w.reps, w.dim, w.params["n"], w.unit_cap) == []
    metrics = tr.layer_metrics(snap, verdict_s)
    assert set(metrics) >= expected
    assert metrics["simulators.self_s"] > 0 and metrics["mc_engine.update_calls"] == 0
