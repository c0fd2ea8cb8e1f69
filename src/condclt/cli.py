"""Batch experiment runner.

One experiment per invocation; reports are written as a JSON document
(structured format) and optionally as a flat CSV table.  Exit codes:
0 = all gates passed, 1 = a gate failed, 2 = configuration error,
3 = internal numeric error or I/O failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import time

import numpy as np

from . import __version__, cwold, limit_theory, mc_engine, monotone
from .errors import CondCltError, TruncationError

EXIT_OK = 0
EXIT_GATE_FAILURE = 1
EXIT_CONFIG_ERROR = 2
EXIT_NUMERIC_ERROR = 3

TABLE_HEADER = ["experiment", "entry_i", "entry_j", "theory", "estimate", "stderr", "z"]
CHECK_TABLE_HEADER = ["experiment", "name", "value", "bound", "passed"]


class ConfigError(Exception):
    pass


def _read_config_file(path: str) -> dict:
    values = {}
    try:
        with open(path) as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
                key, _, val = line.partition("=")
                values[key.strip()] = val.strip()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}")
    return values


def _config_path(argv: list[str]):
    pre = argparse.ArgumentParser(add_help=False)
    pre.add_argument("--config")
    return pre.parse_known_args(argv)[0].config


def build_parser(config: dict | None = None) -> argparse.ArgumentParser:
    """The condclt parser.  ``config`` maps option dests to strings from a
    config file; each becomes the default of the option with that dest, which
    argparse type-converts, so explicit flags override file values.  A key that
    no subcommand defines raises ConfigError."""
    config = config or {}
    dests = set()
    parser = argparse.ArgumentParser(
        prog="condclt",
        description="Run one conditional-limit verification experiment.",
    )
    parser.add_argument("--config", help="key=value config file; flags override it")
    sub = parser.add_subparsers(dest="experiment", required=True)

    def arg(p, *flags, **kwargs):
        dest = p.add_argument(*flags, **kwargs).dest
        dests.add(dest)
        if dest in config:
            p.set_defaults(**{dest: config[dest]})

    def common(p, sampling=True):
        arg(p, "--seed", type=int, default=0, help="master RNG seed (default 0)")
        arg(p, "--out", help="JSON report path")
        arg(p, "--table", help="CSV comparison table path")
        if sampling:
            arg(p, "--reps", type=int, default=1000,
                help="Monte Carlo replicates (default 1000)")
            arg(p, "--z-gate", type=float, default=mc_engine.DEFAULT_Z_GATE,
                help="max |z| accepted (default 4)")
            arg(p, "--ks-gate", type=float, default=mc_engine.DEFAULT_KS_GATE,
                help="max KS distance accepted (default 0.05)")
            arg(p, "--workers", type=int, default=1,
                help="worker processes, at most the CPU count (does not affect results)")
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

    p = sub.add_parser("cwold", help="characteristic-function octant scan")
    arg(p, "--grid", type=float, default=cwold.DEFAULT_GRID_STEP)
    arg(p, "--T", type=float, default=cwold.DEFAULT_GRID_EXTENT)
    common(p, sampling=False)

    for key in config:
        if key not in dests:
            raise ConfigError(f"unknown config key {key!r}")
    return parser


def _theory_for(model: str, args) -> tuple[np.ndarray, np.ndarray]:
    if model == "spacings":
        residual = limit_theory.spacings_limit_constants(args.a).residual
        return np.zeros(1), np.array([[residual]])
    lam = mc_engine.model_lambda_n(model, vars(args))
    theory_model = {"alloc": limit_theory.ALLOC, "gnp": limit_theory.GNP,
                    "gnm": limit_theory.GNM}[model]
    mat = limit_theory.theory_cov_matrix(theory_model, lam, args.max_k).matrix
    return np.zeros(args.max_k + 1), mat


def _sampling_params(args) -> dict:
    model = args.experiment
    params = {"n": args.n}
    if model == "alloc" or model == "gnm":
        params["m"] = args.m
        params["max_k"] = args.max_k
    elif model == "gnp":
        params["p"] = args.p
        params["max_k"] = args.max_k
    else:
        params["a"] = args.a
    return params


def check_args(args) -> None:
    """Reject, with a ValueError, arguments the chosen experiment cannot run
    with, before anything runs."""
    if args.experiment in mc_engine.EXPERIMENT_MODELS:
        params = _sampling_params(args)
        mc_engine.check_params(args.experiment, params, args.seed)
        if args.experiment == "spacings":
            # e^-a underflows to 0 for a >= 746 (and rounds to 1 for tiny a): the
            # residual variance is then 0, and every z would compare 0 with 0
            if not (args.a < math.inf
                    and limit_theory.spacings_limit_constants(args.a).residual > 0.0):
                raise ValueError(f"the limit law needs a finite a with a positive "
                                 f"residual variance, got a = {args.a}")
        elif not mc_engine.model_lambda_n(args.experiment, params) > 0:
            raise ValueError("the limit laws need lambda_n > 0 (m > 0 or p > 0)")
        if args.reps < mc_engine.MIN_REPS:
            raise ValueError(f"reps must be >= {mc_engine.MIN_REPS}, got {args.reps}")
        # a KS distance is at most 1, so a ks_gate of 1 or more fails nothing
        for name, gate, top, bound in (("z_gate", args.z_gate, math.inf, ""),
                                       ("ks_gate", args.ks_gate, 1.0, " and below 1")):
            if not 0.0 < gate < top:
                raise ValueError(f"{name} must be positive and finite{bound}, got {gate}")
        cpus = os.cpu_count() or 1
        if not 1 <= args.workers <= cpus:
            raise ValueError(f"workers must be in [1, {cpus}], got {args.workers}")
    elif args.experiment == "transfer":
        if not 0.0 < args.lam < math.inf:
            raise ValueError(f"lam must be positive and finite, got {args.lam}")
        k_min = limit_theory.truncation_index(args.lam)
        if args.K < k_min:
            raise ValueError(f"K must be >= {k_min}, where the Poisson({args.lam}) tail "
                             f"mass falls below {limit_theory.TAIL_MASS_GATE:g}; got {args.K}")
    elif args.experiment == "monotone":
        if not 2 <= args.n <= monotone.DESK_MAX_N:
            raise ValueError(f"n must be in [2, {monotone.DESK_MAX_N}], got {args.n}")
        if not 1 <= args.max_m <= monotone.DESK_MAX_M:
            raise ValueError(f"max_m must be in [1, {monotone.DESK_MAX_M}], got {args.max_m}")
    elif not (0.0 < args.grid < math.inf and 0.0 < args.T < math.inf):
        raise ValueError(f"grid and T must be positive and finite, got grid={args.grid}, "
                         f"T={args.T}")
    elif 2.0 * args.T / args.grid + 1.0 > cwold.MAX_GRID_POINTS:
        raise ValueError(f"the scan may have at most {cwold.MAX_GRID_POINTS} points per axis "
                         f"(2T/grid + 1), got grid={args.grid}, T={args.T}")


def _run_sampling_experiment(args, params: dict) -> mc_engine.VerificationReport:
    run = mc_engine.run_experiment(args.experiment, params, args.reps, args.seed,
                                   workers=args.workers, dump_path=args.dump)
    theory_mean, theory_cov = _theory_for(args.experiment, args)
    return mc_engine.verify(run, theory_mean, theory_cov, z_gate=args.z_gate,
                            ks_gate=args.ks_gate)


def _transfer_checks(args) -> list[tuple]:
    conditioned = limit_theory.gnm_cov_via_conditioning(args.lam, args.K)
    target = limit_theory.theory_cov_matrix(limit_theory.GNM, args.lam, args.K).matrix
    max_dev = float(np.abs(conditioned - target).max())
    return [("max |conditioned - G(n,m) cov| < bound", max_dev, 1e-10, max_dev < 1e-10)]


def _monotone_checks(args) -> list[tuple]:
    """Empty boxes after m throws are stochastically at most those after m - 1,
    for every n and m; the value is the first point where the CDFs cross the
    wrong way (None when dominance holds)."""
    checks = []
    for n in range(2, args.n + 1):
        prev = monotone.exact_empty_box_law(n, 0)
        for m in range(1, args.max_m + 1):
            law = monotone.exact_empty_box_law(n, m)
            holds, witness = monotone.check_stochastic_dominance(law, prev)
            checks.append((f"empty boxes n={n}: m={m} <=st m={m - 1}", witness, None,
                           holds and bool(monotone.quantile_coupling(law, prev))))
            prev = law
    return checks


def _cwold_checks(args) -> list[tuple]:
    cf_x, cf_y = cwold.canonical_pair()
    octant_max, _ = cwold.octant_equality_scan(cf_x, cf_y, h=args.grid, extent=args.T)
    point_diff = abs(cwold.eval_cf(cf_x, (-0.6, 0.6)) - cwold.eval_cf(cf_y, (-0.6, 0.6)))
    point_err = abs(float(point_diff) - 0.2)
    _, witness_diff = cwold.counterexample_witness(cf_x, cf_y, h=args.grid, extent=args.T)
    return [("octant max |phi_X - phi_Y| < bound", octant_max, 1e-12, octant_max < 1e-12),
            ("| |phi_X - phi_Y|(-0.6, 0.6) - 0.2 | < bound", point_err, 1e-12,
             point_err < 1e-12),
            ("off-octant max |phi_X - phi_Y| >= bound", witness_diff, 0.19,
             witness_diff >= 0.19)]


def _run_analytic(args, params: dict, checks_for) -> mc_engine.VerificationReport:
    """Time checks_for(args), whose (name, value, bound, passed) tuples become
    the report's check records; the report passes when every check does."""
    start = time.perf_counter()
    checks = [{"name": name, "value": value, "bound": bound, "passed": bool(passed)}
              for name, value, bound, passed in checks_for(args)]
    return mc_engine.VerificationReport(
        experiment=args.experiment, params=params, seed=args.seed, z_gate=0.0,
        ks_gate=0.0, checks=checks, passed=all(c["passed"] for c in checks),
        wall_time=time.perf_counter() - start)


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
    """Write the structured (JSON) report and the flat CSV table: one row per
    check record when the report carries checks (an empty cell for a None
    value or bound), else one row per comparison entry."""
    if out_path:
        with open(out_path, "w") as fh:
            json.dump(report.to_dict(), fh, indent=2)
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
        parser = build_parser(_read_config_file(path) if path else None)
    except ConfigError as exc:
        print(f"condclt: config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG_ERROR if exc.code not in (0, None) else 0

    try:
        check_args(args)
    except (ValueError, TruncationError) as exc:
        print(f"condclt: config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR

    try:
        if args.experiment in mc_engine.EXPERIMENT_MODELS:
            report = _run_sampling_experiment(args, _sampling_params(args))
        elif args.experiment == "transfer":
            report = _run_analytic(args, {"lam": args.lam, "K": args.K}, _transfer_checks)
        elif args.experiment == "monotone":
            report = _run_analytic(args, {"n": args.n, "max_m": args.max_m},
                                   _monotone_checks)
        else:
            report = _run_analytic(args, {"grid": args.grid, "T": args.T}, _cwold_checks)
        report.provenance = {"condclt": __version__, "numpy": np.__version__,
                             "python": sys.version.split()[0], "seed": args.seed,
                             "workers": getattr(args, "workers", 1), "argv": argv}
        emit_report(report, args.out, args.table)
    except (CondCltError, OSError) as exc:
        print(f"condclt: numeric/IO error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC_ERROR

    status = "PASS" if report.passed else "FAIL"
    print(f"{args.experiment}: {status} ({_summary(report)}, "
          f"wall = {report.wall_time:.2f}s, seed = {report.seed})")
    return EXIT_OK if report.passed else EXIT_GATE_FAILURE


if __name__ == "__main__":
    sys.exit(main())
