"""The four benchmark workloads and the one gated experiment each of them times.

Sampling workloads follow the CLI's path: ``mc_engine.run_experiment`` ->
``mc_engine.compare_to_theory`` / ``mc_engine.normality_distance`` ->
``cli.emit_report``.  The analytic workload runs acceptance criteria 1, 2, 7
and 9 by calling ``limit_theory``, ``gauss_cond``, ``monotone`` and ``cwold``
directly, then writes its report through ``cli.emit_report`` as well.
Importing this module imports condclt; that import is part of ``setup_s``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

import checks
from condclt import cli, cwold, gauss_cond, limit_theory, mc_engine, monotone, simulators

LAYERS = {"simulators": simulators, "mc_engine": mc_engine, "limit_theory": limit_theory,
          "gauss_cond": gauss_cond, "monotone": monotone, "cwold": cwold, "cli": cli}

KS_MIN_REPS = 1000          # the CLI runs the KS gate only from 1000 replicates on
LAMBDAS = (0.5, 1.0, 2.0, 4.0)
TRANSFER_K = 60


@dataclass(frozen=True)
class Workload:
    name: str
    model: str              # "alloc", "gnm" or "analytic"
    params: dict
    reps: int = 0

    @property
    def dim(self) -> int:
        return self.params["max_k"] + 1

    @property
    def unit_cap(self) -> int:
        """Upper bound on sum_k k*N_k: balls for alloc, degree units for gnm."""
        return self.params["m"] * (1 if self.model == "alloc" else 2)


WORKLOADS = {w.name: w for w in (
    Workload("alloc-1e4", "alloc", {"n": 10_000, "m": 10_000, "max_k": 5}, 10_000),
    Workload("gnm-2e3", "gnm", {"n": 2000, "m": 2000, "max_k": 8}, 5000),
    Workload("gnm-1e5", "gnm", {"n": 100_000, "m": 100_000, "max_k": 8}, 100),
    Workload("analytic", "analytic", {"lambdas": list(LAMBDAS), "K": TRANSFER_K}),
)}


def setup(w: Workload):
    """Theory matrix and StandardizationSpec of a sampling workload (as the CLI
    builds them); None for the analytic workload."""
    if w.model == "analytic":
        return None
    lam = mc_engine.model_lambda_n(w.model, w.params)
    theory_model = {"alloc": limit_theory.ALLOC, "gnm": limit_theory.GNM}[w.model]
    theory = limit_theory.theory_cov_matrix(theory_model, lam, w.params["max_k"]).matrix
    return theory, mc_engine.standardization_for(w.model, w.params)


def condclt_seed(w: Workload, seed: int) -> int:
    """The experiment seed condclt receives, derived from the benchmark seed."""
    index = list(WORKLOADS).index(w.name)
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def worker_pair(w: Workload, seed: int):
    """The same reduced-R experiment with workers=1 and workers=2."""
    reps = max(8, w.reps // 10)
    return [mc_engine.run_experiment(w.model, w.params, reps, seed, workers=workers)
            for workers in (1, 2)]


def sampling_verdict(w: Workload, theory: np.ndarray, seed: int, paths: dict):
    """One gated experiment: sample, dump the raw counts, gate, and write the
    JSON+CSV report, as the CLI does with --dump, --out and --table.

    Returns the run, the report and the number of marginals whose KS gate was
    skipped (all of them below KS_MIN_REPS replicates).
    """
    run = mc_engine.run_experiment(w.model, w.params, w.reps, seed, workers=1,
                                   dump_path=paths["dump"])
    report = mc_engine.compare_to_theory(run, np.zeros(w.dim), theory)
    ks_skipped = w.dim
    if run.reps >= KS_MIN_REPS:
        ks_skipped = 0
        for i in range(w.dim):
            if theory[i, i] <= 0:
                ks_skipped += 1
                continue
            dist = mc_engine.normality_distance(run.samples[:, i], 0.0, theory[i, i])
            report.normality.append({"index": i, "distance": dist,
                                     "gate": report.ks_gate})
        if any(e["distance"] > report.ks_gate for e in report.normality):
            report.passed = False
    cli.emit_report(report, paths["json"], paths["csv"])
    return run, report, ks_skipped


def _monotone_suite() -> bool:
    """Criterion 7: exact stochastic monotonicity of empty boxes in the ball
    count and of cumulative degree counts in the edge count."""
    ok = True
    for n in range(2, 6):
        for m in range(8):
            larger = monotone.exact_empty_box_law(n, m)
            smaller = monotone.exact_empty_box_law(n, m + 1)
            holds, _ = monotone.check_stochastic_dominance(smaller, larger)
            coupling = monotone.quantile_coupling(smaller, larger)
            ok = ok and holds and all(x1 <= x2 for x1, x2, _ in coupling)
    laws = {m: monotone.gnm_count_law(4, m) for m in range(7)}
    for j in range(4):
        def stat(counts, j=j):
            return counts[: j + 1].sum()
        for m in range(6):
            larger = monotone.functional_law(laws[m], stat)
            smaller = monotone.functional_law(laws[m + 1], stat)
            holds, _ = monotone.check_stochastic_dominance(smaller, larger)
            coupling = monotone.quantile_coupling(smaller, larger)
            ok = ok and holds and all(x1 <= x2 for x1, x2, _ in coupling)
    return ok


def analytic_verdict(seed: int, paths: dict):
    """One pass of criteria 1, 2, 7 and 9; returns the report and the values
    the output checks judge."""
    res = {"transfer_dev": 0.0}
    for lam in LAMBDAS:
        conditioned = limit_theory.gnm_cov_via_conditioning(lam, TRANSFER_K)
        target = limit_theory.theory_cov_matrix(limit_theory.GNM, lam, TRANSFER_K).matrix
        res["transfer_dev"] = max(res["transfer_dev"],
                                  float(np.abs(conditioned - target).max()))
    res["coincide"] = all(limit_theory.alloc_cov(lam, i, j)
                          == limit_theory.gnm_degree_cov(lam, i, j)
                          for lam in LAMBDAS
                          for i in range(TRANSFER_K + 1) for j in range(TRANSFER_K + 1))
    res["monotone_ok"] = _monotone_suite()
    cf_x, cf_y = cwold.canonical_pair()
    res["octant_max"], _ = cwold.octant_equality_scan(cf_x, cf_y, h=cwold.DEFAULT_GRID_STEP,
                                                      extent=cwold.DEFAULT_GRID_EXTENT)
    point = (np.array([-0.6]), np.array([0.6]))
    res["point_diff"] = abs(float(cwold.eval_cf(cf_x, point)[0]
                                  - cwold.eval_cf(cf_y, point)[0]))
    res["contrast"] = cwold.marginal_difference_along(cf_x, cf_y, (1.0, -1.0))
    res["agree"] = cwold.marginal_difference_along(cf_x, cf_y, (1.0, 1.0))

    report = mc_engine.VerificationReport(
        experiment="analytic", params=WORKLOADS["analytic"].params, seed=seed,
        z_gate=0.0, ks_gate=0.0)
    for i, (name, value) in enumerate(res.items()):
        report.entries.append(mc_engine.ComparisonEntry(name, i, -1, 0.0, float(value),
                                                        0.0, 0.0))
    report.passed = not checks.check_analytic(res)
    cli.emit_report(report, paths["json"], paths["csv"])
    return report, res
