"""Batch experiment runner.

One experiment per invocation; reports are written as a JSON document
(structured format) and optionally as a flat CSV table.  Exit codes:
0 = all gates passed, 1 = a gate failed, 2 = configuration error (a ValueError
or CondCltError before the run), 3 = the same raised while the experiment
runs, an I/O failure or out of memory.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import time
from fractions import Fraction

import numpy as np

from . import __version__, cwold, limit_theory, mc_engine, monotone
from .errors import CondCltError

EXIT_OK = 0
EXIT_GATE_FAILURE = 1
EXIT_CONFIG_ERROR = 2
EXIT_NUMERIC_ERROR = 3

TABLE_HEADER = ["experiment", "entry_i", "entry_j", "theory", "estimate", "stderr", "z"]
CHECK_TABLE_HEADER = ["experiment", "name", "value", "bound", "passed"]
MIN_TOTAL_COUNT = 20        # fewest expected counts of a marginal over all replicates
# transfer builds (K+1)^2 matrices and conditions them in O(K^3): K = 2000 takes
# about 2.3 s and 220 MiB on one BLAS thread of a 2-core host, and covers the
# truncation index of every lam up to ~1700
MAX_TRANSFER_K = 2000
MONOTONE_MAX_N, MONOTONE_MAX_M = 8, 12      # monotone's caps, which bound its run time
# the degree chain stops at 6 vertices: G(7, m) enumerates up to C(21, 10) = 352,716
# graphs (about 10 s), and G(8, m) passes enumerate_gnm_degree_counts' 2M-graph cap
MONOTONE_MAX_GRAPH_N = 6


def _read_config_file(path: str) -> dict:
    values = {}
    try:
        with open(path) as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
                key, val = (part.strip() for part in line.split("=", 1))
                if key in values:
                    raise ValueError(f"{path}: {key} is set on lines {values[key][0]} and {lineno}")
                values[key] = lineno, val
    except OSError as exc:
        raise ValueError(f"cannot read config file {path}: {exc}")
    return {key: val for key, (_, val) in values.items()}


def _config_path(argv: list[str]):
    pre = argparse.ArgumentParser(add_help=False)
    pre.add_argument("--config")
    return pre.parse_known_args(argv)[0].config


def build_parser(config: dict | None = None) -> argparse.ArgumentParser:
    """The condclt parser.  ``config`` maps option dests to strings from a
    config file; each becomes the default of the option with that dest, which
    argparse type-converts and no longer requires, so explicit flags override
    file values."""
    config = config or {}
    parser = argparse.ArgumentParser(
        prog="condclt",
        description="Run one conditional-limit verification experiment.",
    )
    parser.add_argument("--config", help="key=value config file; flags override it")
    sub = parser.add_subparsers(dest="experiment", required=True)

    def arg(p, *flags, **kwargs):
        action = p.add_argument(*flags, **kwargs)
        if action.dest in config:
            p.set_defaults(**{action.dest: config[action.dest]})
            action.required = False

    def common(p, sampling=True):
        arg(p, "--out", help="JSON report path")
        arg(p, "--table", help="CSV comparison table path")
        if sampling:
            arg(p, "--seed", type=int, default=0, help="master RNG seed (default 0)")
            arg(p, "--reps", type=int, default=1000,
                help="Monte Carlo replicates (default 1000)")
            arg(p, "--z-gate", type=float, default=mc_engine.DEFAULT_Z_GATE,
                help="max |z| accepted (default 4)")
            arg(p, "--ks-gate", type=float, default=mc_engine.DEFAULT_KS_GATE,
                help="max KS distance accepted (default 0.05)")
            arg(p, "--workers", type=int, default=1,
                help="worker processes, at most the usable CPUs (does not affect results)")
            arg(p, "--dump", help="binary dump path for raw count vectors")

    p = sub.add_parser("alloc", help="balls-into-boxes occupancy counts")
    arg(p, "--n", type=int, required=True, help="number of boxes")
    arg(p, "--m", type=int, required=True, help="number of balls")
    arg(p, "--max-k", type=int, default=5, help="largest tracked count index")
    common(p)

    p = sub.add_parser("gnp", help="G(n,p) degree counts")
    arg(p, "--n", type=int, required=True)
    arg(p, "--p", type=float, required=True)
    arg(p, "--max-k", type=int, default=8)
    common(p)

    p = sub.add_parser("gnm", help="G(n,m) degree counts")
    arg(p, "--n", type=int, required=True)
    arg(p, "--m", type=int, required=True)
    arg(p, "--max-k", type=int, default=8)
    common(p)

    p = sub.add_parser("spacings", help="uniform spacings exceedance counts")
    arg(p, "--n", type=int, required=True)
    arg(p, "--a", type=float, default=1.0, help="threshold multiple of 1/n")
    common(p)

    p = sub.add_parser("transfer", help="analytic G(n,p) -> G(n,m) covariance transfer")
    arg(p, "--lam", type=float, default=2.0)
    arg(p, "--K", type=int, default=60, help="truncation index")
    common(p, sampling=False)

    p = sub.add_parser("monotone", help="exact stochastic-monotonicity suite")
    arg(p, "--n", type=int, default=5, help="max box count checked")
    arg(p, "--max-m", type=int, default=8)
    common(p, sampling=False)

    p = sub.add_parser("cwold", help="exact characteristic-function quadrant decision")
    common(p, sampling=False)
    return parser


def _theory_for(model: str, params: dict) -> tuple[np.ndarray, np.ndarray]:
    if model == "spacings":
        residual = limit_theory.spacings_limit_constants(params["a"]).residual
        return np.zeros(1), np.array([[residual]])
    lam = mc_engine.model_lambda_n(model, params)
    mat = limit_theory.theory_cov_matrix(model, lam, params["max_k"]).matrix
    return np.zeros(params["max_k"] + 1), mat


def _params(args) -> dict:
    """The report's params: the experiment's own options, by dest."""
    names = {"alloc": ("n", "m", "max_k"), "gnm": ("n", "m", "max_k"),
             "gnp": ("n", "p", "max_k"), "spacings": ("n", "a"), "transfer": ("lam", "K"),
             "monotone": ("n", "max_m"), "cwold": ()}[args.experiment]
    return {name: getattr(args, name) for name in names}


def _point_mass_ks(model: str, params: dict) -> list[int]:
    """The k <= max_k whose count takes one value in every outcome of the
    finite-n model: every k for one box, one ball, one vertex, the complete
    graph or one edge short of it, and a k no box load or vertex degree reaches
    (a vertex meets at least m - C(n-1,2) edges: at most C(n-1,2) miss it)."""
    n, m = params["n"], params.get("m")
    if model == "alloc":
        fixed = n == 1 or m == 1
        low, high = 0, m
    elif model == "gnp":
        fixed = n == 1 or params["p"] == 1.0
        low, high = 0, n - 1
    else:
        fixed = m == 1 or m >= n * (n - 1) // 2 - 1
        low, high = m - (n - 1) * (n - 2) // 2, min(n - 1, m)
    return [k for k in range(params["max_k"] + 1) if fixed or not low <= k <= high]


def check_args(args) -> None:
    """Reject, with a ValueError (a CondCltError for a gate or a lambda_n with no
    truncation index), arguments the chosen experiment cannot run with, and
    output paths it could not write, before anything runs or is allocated."""
    if args.experiment in mc_engine.EXPERIMENT_MODELS:
        params = _params(args)
        mc_engine.check_params(args.experiment, params, args.seed)
        if not mc_engine.MIN_REPS <= args.reps < mc_engine.INT64_END:
            raise ValueError(f"reps must be >= {mc_engine.MIN_REPS} and below 2**63, "
                             f"got {args.reps}")
        if args.experiment == "spacings":
            # below one expected exceedance (or non-exceedance) nearly every
            # count is 0 (or n), and the sample variance is 0
            above = args.n * math.exp(-args.a)
            below = -args.n * math.expm1(-args.a)
            if min(above, below) < 1.0:
                raise ValueError(f"the expected counts n e^-a and n (1 - e^-a) must both be "
                                 f"at least 1, got {above:.3g} and {below:.3g}")
        else:
            lam = mc_engine.model_lambda_n(args.experiment, params)
            if not lam > 0:
                raise ValueError("the limit laws need lambda_n > 0 (m > 0 or p > 0)")
            # past the truncation index the limit mass is below TAIL_MASS_GATE, so
            # a marginal there reads only 0 and its z is inf
            k_max = limit_theory.truncation_index(lam)
            if args.max_k > k_max:
                raise ValueError(f"max_k must be at most {k_max}, the truncation index of "
                                 f"Poisson({lam:g}), got {args.max_k}")
            # a count that takes one value has sample variance 0 and z inf
            fixed = _point_mass_ks(args.experiment, params)
            if fixed:
                raise ValueError(f"k = {fixed[0]}: the count takes one value at these "
                                 f"parameters, so its z is inf; lower max_k or change n, m "
                                 f"or p")
            # a marginal expected fewer than MIN_TOTAL_COUNT times over all the
            # replicates together reads 0 in every one of them with probability
            # at least e^-MIN_TOTAL_COUNT; its sample variance is then 0 and its z inf
            total, k = min((args.reps * args.n * limit_theory.poisson_pmf(lam, k), k)
                           for k in range(args.max_k + 1))
            if total < MIN_TOTAL_COUNT:
                raise ValueError(f"k = {k} expects R n pi_k(lambda_n) = {total:.6g} counts over "
                                 f"all replicates, below {MIN_TOTAL_COUNT}; lower max_k or "
                                 f"raise n or reps")
        mc_engine.check_gates(args.z_gate, args.ks_gate)
        cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                else os.cpu_count() or 1)
        if not 1 <= args.workers <= cpus:
            raise ValueError(f"workers must be in [1, {cpus}], got {args.workers}")
    elif args.experiment == "transfer":
        # at a subnormal lam the O(lam) entries lose precision: at 5e-324 Var(V) is 0
        if not sys.float_info.min <= args.lam < math.inf:
            raise ValueError(f"lam must be positive and finite, at least "
                             f"{sys.float_info.min:.1e}, got {args.lam}")
        # at K = 0 the edge statistic (1/2) sum_k k U_k is 0, with Var 0
        k_min = max(1, limit_theory.truncation_index(args.lam))
        if not k_min <= args.K <= MAX_TRANSFER_K:
            raise ValueError(f"K must be >= {k_min}, the larger of 1 and the index where "
                             f"the Poisson({args.lam}) tail mass falls below "
                             f"{limit_theory.TAIL_MASS_GATE:g}, and at most "
                             f"{MAX_TRANSFER_K}; got {args.K}")
    elif args.experiment == "monotone":
        if not 2 <= args.n <= MONOTONE_MAX_N:
            raise ValueError(f"n must be in [2, {MONOTONE_MAX_N}], got {args.n}")
        if not 1 <= args.max_m <= MONOTONE_MAX_M:
            raise ValueError(f"max_m must be in [1, {MONOTONE_MAX_M}], got {args.max_m}")
    # the reports and the dump are written only after the run: a path that
    # cannot be written, or that two of them or the config file share, would
    # lose the whole run or the config
    written = {os.path.realpath(args.config): "config"} if args.config else {}
    for flag in ("out", "table", "dump"):
        path = getattr(args, flag, None)
        if path is None:
            continue
        if not path:
            raise ValueError(f"--{flag} must name a file, got ''")
        if os.path.isdir(path):
            raise ValueError(f"--{flag} {path!r} is a directory")
        if not os.path.isdir(os.path.dirname(path) or "."):
            raise ValueError(f"--{flag} {path!r}: its directory does not exist")
        real = os.path.realpath(path)
        if real in written:
            raise ValueError(f"--{written[real]} and --{flag} both name {real}")
        written[real] = flag


def _run_sampling_experiment(args, params: dict) -> mc_engine.VerificationReport:
    run = mc_engine.run_experiment(args.experiment, params, args.reps, args.seed,
                                   workers=args.workers, dump_path=args.dump)
    theory_mean, theory_cov = _theory_for(args.experiment, params)
    return mc_engine.verify(run, theory_mean, theory_cov, z_gate=args.z_gate,
                            ks_gate=args.ks_gate)


def _transfer_checks(args) -> list[tuple]:
    conditioned = limit_theory.gnm_cov_via_conditioning(args.lam, args.K)
    target = limit_theory.theory_cov_matrix(limit_theory.GNM, args.lam, args.K).matrix
    max_dev = float(np.abs(conditioned - target).max())
    return [("max |conditioned - G(n,m) cov| < bound", max_dev, 1e-10, max_dev < 1e-10)]


def _monotone_checks(args) -> list[tuple]:
    """Acceptance criterion 7: for every m up to --max-m, the empty boxes after
    m throws into 2 <= n <= --n boxes, and the vertices of degree <= j < v in
    G(v, m) for 2 <= v <= min(--n, MONOTONE_MAX_GRAPH_N) and m <= C(v, 2), are
    stochastically at most those at m - 1.  A check passes when dominance holds
    and every atom (x1, x2, mass) of the quantile coupling has x1 <= x2; its
    value is the first point where the CDFs cross the wrong way, else the
    first atom [x1, x2] with x1 > x2, else None."""
    def check(name, smaller, larger):
        holds, witness = monotone.check_stochastic_dominance(smaller, larger)
        if holds:
            atoms = monotone.quantile_coupling(smaller, larger)
            witness = next(([x1, x2] for x1, x2, _ in atoms if x1 > x2), None)
        return name, witness, None, witness is None

    checks = []
    for n in range(2, args.n + 1):
        laws = [monotone.exact_empty_box_law(n, m) for m in range(args.max_m + 1)]
        checks += [check(f"empty boxes n={n}: m={m} <=st m={m - 1}", laws[m], laws[m - 1])
                   for m in range(1, len(laws))]
    for v in range(2, min(args.n, MONOTONE_MAX_GRAPH_N) + 1):
        graphs = [monotone.gnm_count_law(v, m)
                  for m in range(min(args.max_m, math.comb(v, 2)) + 1)]
        for j in range(v):
            laws = [monotone.functional_law(g, lambda c: c[: j + 1].sum()) for g in graphs]
            checks += [check(f"vertices of degree <= {j}, n={v}: m={m} <=st m={m - 1}",
                             laws[m], laws[m - 1]) for m in range(1, len(laws))]
    return checks


def _cwold_checks(args) -> list[tuple]:
    """The canonical pair, decided exactly: equal on the closed quadrant,
    |phi_X - phi_Y| = 1/5 at (-3/5, 3/5), and unequal off the quadrant.  Values
    and bounds are exact fractions, written as strings."""
    cf_x, cf_y = cwold.canonical_pair()
    quadrant, off = cwold.quadrant_decision(cf_x, cf_y)
    point = abs(cwold.exact_difference(cf_x, cf_y, Fraction(-3, 5), Fraction(3, 5)))
    inside, outside = (abs(w[1]) if w else Fraction(0) for w in (quadrant, off))
    at = f" (at ({off[0][0]}, {off[0][1]}))" if off else ""
    return [("|phi_X - phi_Y| on the closed quadrant = bound", str(inside), "0", inside == 0),
            ("|phi_X - phi_Y|(-3/5, 3/5) = bound", str(point), "1/5", point == Fraction(1, 5)),
            (f"max |phi_X - phi_Y| off the quadrant{at} > bound", str(outside), "0",
             outside > 0)]


def _run_analytic(args, params: dict, checks_for) -> mc_engine.VerificationReport:
    """Time checks_for(args), whose (name, value, bound, passed) tuples become
    the report's check records; the report passes when every check does."""
    start = time.perf_counter()
    checks = [{"name": name, "value": value, "bound": bound, "passed": bool(passed)}
              for name, value, bound, passed in checks_for(args)]
    return mc_engine.VerificationReport(
        experiment=args.experiment, params=params, seed=None, checks=checks,
        passed=all(c["passed"] for c in checks), wall_time=time.perf_counter() - start)


def _summary(report: mc_engine.VerificationReport) -> str:
    """What decided the verdict: the check tally and first failing check of an
    analytic run, or max |z| and the largest KS distance (or why KS was
    skipped) of a sampling run."""
    if report.checks:
        failed = [c["name"] for c in report.checks if not c["passed"]]
        first = f", first failure: {failed[0]}" if failed else ""
        return (f"{len(report.checks) - len(failed)}/{len(report.checks)} "
                f"checks passed{first}")
    ks = max(report.normality, key=lambda e: e["distance"], default=None)
    ks_text = (f"max KS = {ks['distance']:.4f} (index {ks['index']})" if ks else
               f"KS skipped: {report.skipped[0]['reason']}")
    return f"max |z| = {report.max_abs_z():.3f}, {ks_text}"


def emit_report(report: mc_engine.VerificationReport, out_path=None, table_path=None):
    """Write the structured report as strict JSON (no NaN or Infinity token)
    and the flat CSV table: one row per check record when the report carries
    checks (an empty cell for a None value or bound), else one row per
    comparison entry."""
    if out_path:
        with open(out_path, "w") as fh:
            json.dump(report.to_dict(), fh, indent=2, allow_nan=False)
            fh.write("\n")
    if table_path:
        with open(table_path, "w", newline="") as fh:
            writer = csv.writer(fh)
            if report.checks:
                writer.writerow(CHECK_TABLE_HEADER)
                for c in report.checks:
                    writer.writerow([report.experiment, c["name"], c["value"], c["bound"],
                                     c["passed"]])
            else:
                writer.writerow(TABLE_HEADER)
                for e in report.entries:
                    writer.writerow([report.experiment, e.i, e.j,
                                     repr(e.theory), repr(e.estimate),
                                     repr(e.stderr), repr(e.z)])


def parse_report(path: str) -> mc_engine.VerificationReport:
    with open(path) as fh:
        return mc_engine.VerificationReport.from_dict(json.load(fh))


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        path = _config_path(argv)
        config = _read_config_file(path) if path else {}
        args = build_parser(config).parse_args(argv)
        # a key is known when the chosen subcommand defines its option
        unknown = sorted(config.keys() - (vars(args).keys() - {"config", "experiment"}))
        if unknown:
            raise ValueError(f"{args.experiment} takes no config key {', '.join(unknown)}")
        check_args(args)
    except SystemExit as exc:
        return EXIT_CONFIG_ERROR if exc.code not in (0, None) else 0
    except (ValueError, CondCltError) as exc:
        print(f"condclt: config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR

    try:
        if args.experiment in mc_engine.EXPERIMENT_MODELS:
            report = _run_sampling_experiment(args, _params(args))
        else:
            checks_for = {"transfer": _transfer_checks, "monotone": _monotone_checks,
                          "cwold": _cwold_checks}[args.experiment]
            report = _run_analytic(args, _params(args), checks_for)
        report.provenance = {"condclt": __version__, "numpy": np.__version__,
                             "python": sys.version.split()[0], "seed": report.seed,
                             "workers": getattr(args, "workers", 1), "argv": argv}
        emit_report(report, args.out, args.table)
    except (CondCltError, OSError, ValueError) as exc:
        print(f"condclt: numeric/IO error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC_ERROR
    except MemoryError as exc:
        print(f"condclt: out of memory: {exc}", file=sys.stderr)
        return EXIT_NUMERIC_ERROR

    status = "PASS" if report.passed else "FAIL"
    seed = "" if report.seed is None else f", seed = {report.seed}"
    print(f"{args.experiment}: {status} ({_summary(report)}, "
          f"wall = {report.wall_time:.2f}s{seed})")
    return EXIT_OK if report.passed else EXIT_GATE_FAILURE


if __name__ == "__main__":
    sys.exit(main())
