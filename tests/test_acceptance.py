"""End-to-end acceptance suite.

Each test covers one numbered criterion and prints a single
"criterion N: PASS/FAIL" line (run with -s to see them inline).  The
sampling criteria share session-scoped experiment runs at fixed seeds, so
the whole suite is deterministic.
"""

import argparse
import math
import time

import numpy as np
import pytest
from scipy.stats import binom

from condclt import cli, limit_theory as lt, mc_engine as mc
from exact_laws import LAWS, g_test_pvalue, sampled_rows

LAMBDAS = [0.5, 1.0, 2.0, 4.0]


def report(num: int, ok: bool, detail: str = "") -> bool:
    tag = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {num}: {tag}{suffix}")
    return ok


def theory(run):
    """The limit mean and covariance that condclt gates the run against."""
    return cli._theory_for(run.model, run.params)


@pytest.fixture(scope="module")
def alloc_run():
    # n = m = 1e4 (lambda_n = 1), occupancy counts 0..5.
    params = {"n": 10_000, "m": 10_000, "max_k": 5}
    return mc.run_experiment("alloc", params, reps=10_000, seed=1)


@pytest.fixture(scope="module")
def gnm_run():
    params = {"n": 2000, "m": 2000, "max_k": 8}
    return mc.run_experiment("gnm", params, reps=5000, seed=2)


@pytest.fixture(scope="module")
def gnp_run():
    params = {"n": 2000, "p": 0.001, "max_k": 8}
    return mc.run_experiment("gnp", params, reps=5000, seed=2)


@pytest.fixture(scope="module")
def spacings_run():
    return mc.run_experiment("spacings", {"n": 100_000, "a": 1.0}, reps=4000, seed=8)


def test_criterion_1_transfer_identity():
    # the records of condclt transfer: one max deviation per lambda, below 1e-10
    start = time.perf_counter()
    records = [record for lam in LAMBDAS
               for record in cli._transfer_checks(argparse.Namespace(lam=lam, K=60))]
    elapsed = time.perf_counter() - start
    worst = max(value for _, value, _, _ in records)
    ok = all(passed and bound == 1e-10 for _, _, bound, passed in records) and elapsed < 1.0
    assert report(1, ok, f"max dev {worst:.2e}, {elapsed:.2f}s")


def test_criterion_2_allocation_graph_coincidence():
    start = time.perf_counter()
    ok = all(
        lt.alloc_cov(lam, i, j) == lt.gnm_degree_cov(lam, i, j)
        for lam in LAMBDAS
        for i in range(61)
        for j in range(61)
    )
    elapsed = time.perf_counter() - start
    assert report(2, ok and elapsed < 1.0, f"exact equality, {elapsed:.2f}s")


def test_criterion_3_weiss_variance(alloc_run):
    target = lt.weiss_variance(1.0)
    rep = mc.compare_to_theory(alloc_run, *theory(alloc_run))
    mean0 = next(e for e in rep.entries if e.kind == "mean" and e.i == 0)
    var0 = next(e for e in rep.entries if e.kind == "cov" and e.i == 0 and e.j == 0)
    ok = abs(mean0.z) <= 4.0 and abs(var0.z) <= 4.0
    assert report(3, ok, f"var {var0.estimate:.6f} vs {target:.6f}, "
                         f"|z| mean {abs(mean0.z):.2f} var {abs(var0.z):.2f}")


def test_criterion_4_multivariate_allocation(alloc_run):
    rep = mc.verify(alloc_run, *theory(alloc_run))
    ks = [e["distance"] for e in rep.normality]
    report(4, rep.passed, f"max |z| {rep.max_abs_z():.2f}, max KS {max(ks):.4f}")
    # Covariance gates and the KS gates for the well-populated marginals must
    # hold; the sparsest marginal (k = 5, ~31 expected boxes) sits on a lattice
    # coarse enough that its distance from the continuous Gaussian is ~0.05
    # regardless of replication, so its KS value is reported but the 0.05 gate
    # is genuinely not attainable at this scale.
    assert rep.max_abs_z() <= rep.z_gate
    assert len(ks) == 6 and max(ks[:5]) <= rep.ks_gate
    if not rep.passed:
        pytest.fail(f"KS gate unattainable for k=5 marginal: {ks[5]:.4f} > 0.05")


def test_criterion_5_degree_covariances(gnp_run, gnm_run):
    rep_p = mc.compare_to_theory(gnp_run, *theory(gnp_run))
    rep_m = mc.compare_to_theory(gnm_run, *theory(gnm_run))
    p01 = next(e for e in rep_p.entries if e.kind == "cov" and (e.i, e.j) == (0, 1))
    m01 = next(e for e in rep_m.entries if e.kind == "cov" and (e.i, e.j) == (0, 1))
    # Sign contrast: the (0,1) entry is consistent with 0 under G(n,p) but
    # significantly negative (and consistent with -4e^-4) under G(n,m).
    contrast = (abs(p01.estimate) <= 4.0 * p01.stderr
                and m01.estimate < -4.0 * m01.stderr)
    ok = rep_p.passed and rep_m.passed and contrast
    assert report(5, ok, f"max |z| gnp {rep_p.max_abs_z():.2f} "
                         f"gnm {rep_m.max_abs_z():.2f}, "
                         f"(0,1) gnp {p01.estimate:.5f} gnm {m01.estimate:.5f}")


def test_criterion_6_exact_small_instance_oracle(tmp_path):
    # The samplers every experiment runs (run_experiment -> degree_loads,
    # allocation_loads) against the exact laws, by multinomial weights over
    # compositions and by graph enumeration: a G-test of the count rows,
    # or, where the law has a single outcome and the G-test no degree of
    # freedom, equality of every row with that outcome.
    start = time.perf_counter()
    pvalues, equal = {}, True
    for model, n, sizes in [("gnm", 4, range(7)), ("alloc", 3, range(5))]:
        for m in sizes:
            law = LAWS[model](n, m)
            params = {"n": n, "m": m, "max_k": len(next(iter(law))) - 1}
            observed = sampled_rows(model, params, 20_000, 6, tmp_path / "counts.bin")
            if len(law) == 1:
                equal = equal and observed.keys() == law.keys()
            else:
                pvalues[f"{model} m={m}"] = g_test_pvalue(observed, law)
    elapsed = time.perf_counter() - start
    ok = equal and min(pvalues.values()) >= 1e-4 and elapsed < 60.0
    shown = ", ".join(f"{key} p={p:.3f}" for key, p in pvalues.items())
    assert report(6, ok, f"R=2e4, {shown}, single-outcome rows "
                         f"{'equal' if equal else 'unequal'}, {elapsed:.1f}s")


def test_criterion_7_monotonicity_suite():
    # the records of condclt monotone --n 5 --max-m 8, decided exactly: the
    # empty boxes for n = 2..5, m = 1..8 and the vertices of degree <= j in
    # G(v, m) for v = 2..5, j < v, m <= min(8, C(v, 2)) fall stochastically in
    # m, and every atom of each quantile coupling has x1 <= x2
    records = cli._monotone_checks(argparse.Namespace(n=5, max_m=8))
    ok = len(records) == 107 and all(passed for *_, passed in records)
    assert report(7, ok, "exact, tolerance 0")


def test_criterion_8_spacings(spacings_run):
    mean, cov = theory(spacings_run)
    rep = mc.verify(spacings_run, mean, cov)
    ks = rep.normality[0]["distance"]
    assert report(8, rep.passed, f"var target {cov[0, 0]:.6f}, max |z| "
                                 f"{rep.max_abs_z():.2f}, KS {ks:.4f}")


def test_criterion_9_cramer_wold_bench():
    # the records of condclt cwold, decided exactly: |phi_X - phi_Y| is 0 on the
    # closed quadrant, 1/5 at (-3/5, 3/5), and 1 at its largest off the
    # quadrant, at (1, -1)
    start = time.perf_counter()
    records = cli._cwold_checks(argparse.Namespace())
    elapsed = time.perf_counter() - start
    quadrant, point, off = (value for _, value, _, _ in records)
    ok = (all(passed for *_, passed in records) and (quadrant, point, off) == ("0", "1/5", "1")
          and "(at (1, -1))" in records[2][0] and elapsed < 1.0)
    assert report(9, ok, f"exact: quadrant {quadrant}, point {point}, "
                         f"off-quadrant max {off} at (1, -1), {elapsed:.2f}s")


def test_criterion_10_moment_convergence(gnm_run):
    rep = mc.compare_to_theory(gnm_run, *theory(gnm_run))
    # first and second moments: the means and the variance diagonal
    max_z = max(abs(e.z) for e in rep.entries if e.kind == "mean" or e.i == e.j)
    assert report(10, max_z <= rep.z_gate, f"max |z| {max_z:.2f}")


def exact_mean_max_z(run, exact_mean) -> float:
    """Largest |z| of the run's standardized means against the exact finite-n
    means, with the same standard errors as the limit gate."""
    spec = mc.standardization_for(run.model, run.params)
    target = (np.asarray(exact_mean, dtype=float) - spec.b_n) / spec.a_n
    rep = mc.compare_to_theory(run, target, np.zeros((len(target), len(target))))
    return max(abs(e.z) for e in rep.entries if e.kind == "mean")


# The limit gates of criteria 5 and 10 cannot tell the finite-n bias (a z shift
# of -3.02 for the G(n,m) k = 0 mean at these sizes) from a sampler bug; the
# exact means can.
def test_gnm_means_match_exact_finite_n(gnm_run):
    # a vertex meets k of its n - 1 pairs and m - k of the other C(n,2) - (n - 1)
    n, m = gnm_run.params["n"], gnm_run.params["m"]
    c = math.comb(n, 2)
    exact = [n * math.comb(n - 1, k) * math.comb(c - n + 1, m - k) / math.comb(c, m)
             for k in range(gnm_run.params["max_k"] + 1)]
    max_z = exact_mean_max_z(gnm_run, exact)
    print(f"gnm exact finite-n means: max |z| {max_z:.2f}")
    assert max_z <= mc.DEFAULT_Z_GATE


def test_gnp_means_match_exact_finite_n(gnp_run):
    # a vertex meets each of its n - 1 pairs with probability p
    n, p = gnp_run.params["n"], gnp_run.params["p"]
    exact = [n * binom.pmf(k, n - 1, p) for k in range(gnp_run.params["max_k"] + 1)]
    max_z = exact_mean_max_z(gnp_run, exact)
    print(f"gnp exact finite-n means: max |z| {max_z:.2f}")
    assert max_z <= mc.DEFAULT_Z_GATE


def test_spacings_mean_matches_exact_finite_n(spacings_run):
    # the number of n circular spacings above a/n has mean n (1 - a/n)^(n-1)
    n, a = spacings_run.params["n"], spacings_run.params["a"]
    max_z = exact_mean_max_z(spacings_run, [n * (1 - a / n) ** (n - 1)])
    print(f"spacings exact finite-n mean: |z| {max_z:.2f}")
    assert max_z <= mc.DEFAULT_Z_GATE


def test_criterion_11_engineering_gates(alloc_run):
    # Determinism: worker count must not change a single byte of the estimates.
    p = {"n": 200, "m": 200, "max_k": 4}
    a = mc.run_experiment("alloc", p, reps=400, seed=11, workers=1)
    b = mc.run_experiment("alloc", p, reps=400, seed=11, workers=2)
    deterministic = (a.samples.tobytes() == b.samples.tobytes()
                     and a.acc.mean.tobytes() == b.acc.mean.tobytes()
                     and a.acc.comoment.tobytes() == b.acc.comoment.tobytes())

    # Anti-gate: a 50%-corrupted theory entry must flip the criterion-4 run
    # to FAIL.
    mean, cov = theory(alloc_run)
    clean = mc.compare_to_theory(alloc_run, mean, cov)
    corrupted = cov.copy()
    corrupted[0, 0] *= 1.5
    dirty = mc.compare_to_theory(alloc_run, mean, corrupted)
    anti_gate = clean.passed and not dirty.passed

    ok = deterministic and anti_gate
    assert report(11, ok, f"deterministic={deterministic}, anti_gate={anti_gate}")
