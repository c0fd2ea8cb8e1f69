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
        if args.experiment != "spacings" and not mc_engine.model_lambda_n(
                args.experiment, params) > 0:
            raise ValueError("the limit laws need lambda_n > 0 (m > 0 or p > 0)")
        if args.reps < mc_engine.MIN_REPS:
            raise ValueError(f"reps must be >= {mc_engine.MIN_REPS}, got {args.reps}")
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
    elif not (args.grid > 0.0 and args.T > 0.0):
        raise ValueError(f"grid and T must be positive, got grid={args.grid}, T={args.T}")


def _run_sampling_experiment(args, params: dict) -> mc_engine.VerificationReport:
    model = args.experiment
    run = mc_engine.run_experiment(model, params, args.reps, args.seed,
                                   workers=args.workers, dump_path=args.dump)
    theory_mean, theory_cov = _theory_for(model, args)
    report = mc_engine.compare_to_theory(run, theory_mean, theory_cov,
                                         z_gate=args.z_gate)
    report.ks_gate = args.ks_gate
    if run.reps < mc_engine.KS_MIN_REPS:
        report.skipped.append({"gate": "ks",
                               "reason": f"R = {run.reps} < {mc_engine.KS_MIN_REPS}"})
    else:
        for i in range(run.samples.shape[1]):
            sigma2 = theory_cov[i, i]
            if sigma2 <= 0:
                report.skipped.append({"gate": "ks", "index": i,
                                       "reason": f"theory variance {sigma2:.3g} <= 0"})
                continue
            dist = mc_engine.normality_distance(run.samples[:, i], 0.0, sigma2)
            report.normality.append({"index": i, "distance": dist, "gate": args.ks_gate})
        if any(e["distance"] > args.ks_gate for e in report.normality):
            report.passed = False
    return report


def _run_transfer(args) -> mc_engine.VerificationReport:
    start = time.perf_counter()
    conditioned = limit_theory.gnm_cov_via_conditioning(args.lam, args.K)
    target = limit_theory.theory_cov_matrix(limit_theory.GNM, args.lam, args.K).matrix
    max_dev = float(np.abs(conditioned - target).max())
    report = mc_engine.VerificationReport(
        experiment="transfer", params={"lam": args.lam, "K": args.K},
        seed=args.seed, z_gate=0.0, ks_gate=0.0,
    )
    report.entries.append(mc_engine.ComparisonEntry(
        "cov", -1, -1, 0.0, max_dev, 1e-10, max_dev / 1e-10))
    report.passed = max_dev < 1e-10
    report.wall_time = time.perf_counter() - start
    return report


def _run_monotone(args) -> mc_engine.VerificationReport:
    start = time.perf_counter()
    report = mc_engine.VerificationReport(
        experiment="monotone", params={"n": args.n, "max_m": args.max_m},
        seed=args.seed, z_gate=0.0, ks_gate=0.0,
    )
    ok = True
    for n in range(2, args.n + 1):
        prev = None
        for m in range(args.max_m + 1):
            law = monotone.exact_empty_box_law(n, m)
            if prev is not None:
                holds, _ = monotone.check_stochastic_dominance(law, prev)
                coupled = bool(monotone.quantile_coupling(law, prev))
                ok = ok and holds and coupled
                report.entries.append(mc_engine.ComparisonEntry(
                    "mean", n, m, 1.0, 1.0 if (holds and coupled) else 0.0, 0.0,
                    0.0 if (holds and coupled) else math.inf))
            prev = law
    report.passed = ok
    report.wall_time = time.perf_counter() - start
    return report


def _run_cwold(args) -> mc_engine.VerificationReport:
    start = time.perf_counter()
    cf_x, cf_y = cwold.canonical_pair()
    octant_max, _ = cwold.octant_equality_scan(cf_x, cf_y, h=args.grid, extent=args.T)
    point_diff = abs(cwold.eval_cf(cf_x, (-0.6, 0.6)) - cwold.eval_cf(cf_y, (-0.6, 0.6)))
    _, witness_diff = cwold.counterexample_witness(cf_x, cf_y, h=args.grid, extent=args.T)
    report = mc_engine.VerificationReport(
        experiment="cwold", params={"grid": args.grid, "T": args.T},
        seed=args.seed, z_gate=0.0, ks_gate=0.0,
    )
    report.entries.append(mc_engine.ComparisonEntry(
        "cov", 0, 0, 0.0, octant_max, 1e-12, octant_max / 1e-12))
    report.entries.append(mc_engine.ComparisonEntry(
        "cov", 0, 1, 0.2, float(point_diff), 1e-12, (float(point_diff) - 0.2) / 1e-12))
    report.entries.append(mc_engine.ComparisonEntry(
        "cov", 1, 1, witness_diff, witness_diff, 0.0, 0.0))
    report.passed = (octant_max < 1e-12 and abs(point_diff - 0.2) < 1e-12
                     and witness_diff >= 0.19)
    report.wall_time = time.perf_counter() - start
    return report


def emit_report(report: mc_engine.VerificationReport, out_path=None, table_path=None):
    """Write the structured (JSON) report and the flat CSV comparison table."""
    if out_path:
        with open(out_path, "w") as fh:
            json.dump(report.to_dict(), fh, indent=2)
            fh.write("\n")
    if table_path:
        with open(table_path, "w", newline="") as fh:
            writer = csv.writer(fh)
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
            report = _run_transfer(args)
        elif args.experiment == "monotone":
            report = _run_monotone(args)
        else:
            report = _run_cwold(args)
        report.provenance = {"condclt": __version__, "numpy": np.__version__,
                             "python": sys.version.split()[0], "seed": args.seed,
                             "workers": getattr(args, "workers", 1), "argv": argv}
        emit_report(report, args.out, args.table)
    except (CondCltError, OSError) as exc:
        print(f"condclt: numeric/IO error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC_ERROR

    status = "PASS" if report.passed else "FAIL"
    print(f"{args.experiment}: {status} (max |z| = {report.max_abs_z():.3f}, "
          f"wall = {report.wall_time:.2f}s, seed = {report.seed})")
    return EXIT_OK if report.passed else EXIT_GATE_FAILURE


if __name__ == "__main__":
    sys.exit(main())
