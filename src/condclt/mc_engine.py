"""Replicated Monte Carlo harness.

Each replicate counts the box loads or vertex degrees that its model's load
kernel in ``simulators`` draws up to max_k (spacings: the one count of
``spacing_exceedances``), straight into one raw count matrix.  The matrix is
standardized by the centering/scaling sequences of the model; the run's
moments, and those of each batch that the covariance standard errors need,
come from that one sample matrix by one two-pass formula.
Replicate i draws from ``default_rng(SeedSequence([seed, i]))``, so the
estimates do not depend on the worker count or on how replicates are chunked.
"""

from __future__ import annotations

import math
import time
from typing import NamedTuple

import numpy as np

from . import limit_theory, simulators
from .errors import CondCltError

EXPERIMENT_MODELS = ("alloc", "gnp", "gnm", "spacings")
DEFAULT_Z_GATE = 4.0
DEFAULT_KS_GATE = 0.05
DEFAULT_N_BATCHES = 20
MIN_REPS = 100              # fewest replicates compare_to_theory accepts
KS_MIN_REPS = 1000          # fewest samples normality_distance accepts
STREAM_BLOCK = 1024         # replicate streams derived together
MAX_GRAPH_N = 1_518_500_250     # largest n with (2n-1)^2 < 2**63; C(n,2) is smaller
INT64_END = 1 << 63             # n, m and reps stay below it: numpy draws and sizes in int64
# glibc gives the top of its heap back to the kernel once more than twice its
# mmap threshold lies free there, so each replicate with megabyte-sized arrays
# faulted its pages in anew (798 minor faults per gnm replicate at
# n = m = 1e5).  Freeing one mmapped block raises both thresholds to the
# block's size (mallopt(3), M_MMAP_THRESHOLD), which glibc caps at 32 MiB; the
# block is never written to, so it costs no resident memory.  64 bytes per
# item is four times the largest replicate array, gnm's (2, m) int64 endpoint
# array, and over twice the 24 bytes per edge a gnm replicate holds at its peak.
_HEAP_BLOCK_PER_ITEM = 64
_HEAP_BLOCK_MAX = 16 << 20

# SeedSequence and PCG64 seeding constants (numpy/random/bit_generator.pyx and
# pcg64.h).  numpy keeps both algorithms stream-stable across versions.
_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1
_HASH_INIT_A, _HASH_MULT_A = 0x43B0D7E5, 0x931E8875
_HASH_INIT_B, _HASH_MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


class StandardizationSpec:
    """Affine standardization (x - b_n)/a_n of a count vector."""

    def __init__(self, a_n: float, b_n):
        if not a_n > 0:
            raise ValueError(f"a_n must be positive, got {a_n}")
        self.a_n = a_n
        self.b_n = np.asarray(b_n, dtype=float)


def standardize(x, spec: StandardizationSpec) -> np.ndarray:
    """(x - b_n)/a_n for one count vector or an (R, dim) matrix of count rows."""
    shape = np.shape(x)
    if len(shape) not in (1, 2) or shape[-1:] != spec.b_n.shape:
        raise CondCltError(f"x shape {shape} does not end in b_n shape {spec.b_n.shape}")
    out = np.subtract(x, spec.b_n, dtype=float)
    out /= spec.a_n
    return out


class MomentAccumulator:
    """Count, mean and co-moment matrix (sum of outer products of deviations)
    of vector samples.  ``from_block`` is the one moment formula of a sampling
    run; ``update`` adds one row and is the reference the tests check it against."""

    def __init__(self, dim: int):
        self.dim = dim
        self.count = 0
        self.mean = np.zeros(dim)
        self.comoment = np.zeros((dim, dim))

    @classmethod
    def from_block(cls, rows) -> "MomentAccumulator":
        """The accumulator of a (count, dim) block of rows, in one vectorized
        two-pass step instead of count calls to update."""
        rows = np.asarray(rows, dtype=float)
        if rows.ndim != 2:
            raise CondCltError(f"block shape {rows.shape}, expected (count, dim)")
        out = cls(rows.shape[1])
        if len(rows) == 0:
            return out
        out.count = len(rows)
        out.mean = rows.mean(axis=0)
        dev = rows - out.mean
        out.comoment = dev.T @ dev
        return out

    def update(self, x) -> None:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dim,):
            raise CondCltError(f"sample shape {x.shape}, expected ({self.dim},)")
        self.count += 1
        delta = x - self.mean
        self.mean += delta / self.count
        self.comoment += np.outer(delta, x - self.mean)

    def covariance(self) -> np.ndarray:
        if self.count < 2:
            raise CondCltError("need at least 2 samples for a covariance")
        cov = self.comoment / (self.count - 1)
        return 0.5 * (cov + cov.T)


def model_lambda_n(model: str, params: dict) -> float:
    """Finite-n centering parameter: m/n for allocations, n p or 2m/n for graphs."""
    if model == "alloc":
        return params["m"] / params["n"]
    if model == "gnp":
        return params["n"] * params["p"]
    if model == "gnm":
        return 2 * params["m"] / params["n"]
    raise ValueError(f"no lambda_n for model {model!r}")


def standardization_for(model: str, params: dict) -> StandardizationSpec:
    """Centering/scaling sequences for the implemented experiments."""
    n = params["n"]
    if model == "spacings":
        b = np.array([n * math.exp(-params["a"])])
    else:
        lam_n = model_lambda_n(model, params)
        b = n * np.array([limit_theory.poisson_pmf(lam_n, k) if lam_n > 0
                          else float(k == 0)    # Po(0) is the point mass at 0
                          for k in range(params["max_k"] + 1)])
    return StandardizationSpec(a_n=math.sqrt(n), b_n=b)


def check_params(model: str, params: dict, seed: int) -> None:
    """Raise ValueError for parameters that no experiment can be run with."""
    if model not in EXPERIMENT_MODELS:
        raise ValueError(f"unknown model {model!r}; expected one of {EXPERIMENT_MODELS}")
    n = params["n"]
    if not 1 <= n < INT64_END:
        raise ValueError(f"n must be >= 1 and below 2**63, got {n}")
    if model in ("alloc", "gnm") and not 0 <= params["m"] < INT64_END:
        raise ValueError(f"m must be >= 0 and below 2**63, got {params['m']}")
    if model == "gnm" and params["m"] > n * (n - 1) // 2:
        raise ValueError(f"m = {params['m']} exceeds C(n,2) = {n * (n - 1) // 2}")
    # the edge draw and its decode hold C(n,2) and (2n-1)^2 in int64
    if model in ("gnm", "gnp") and n > MAX_GRAPH_N:
        raise ValueError(f"n must be at most {MAX_GRAPH_N}, where (2n-1)^2 still fits in "
                         f"int64, got {n}")
    if model == "gnp" and not 0.0 <= params["p"] <= 1.0:
        raise ValueError(f"p must be in [0, 1], got {params['p']}")
    if model == "spacings" and not params["a"] > 0.0:
        raise ValueError(f"a must be positive, got {params['a']}")
    if model != "spacings" and params["max_k"] < 0:
        raise ValueError(f"max_k must be >= 0, got {params['max_k']}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")


def replicate_dim(model: str, params: dict) -> int:
    return 1 if model == "spacings" else params["max_k"] + 1


def _uint32_words(x: int) -> list[int]:
    """The little-endian 32-bit words SeedSequence splits a non-negative int into."""
    if x < 0:
        raise ValueError(f"seed entropy must be >= 0, got {x}")
    words = [x & _MASK32]
    while x := x >> 32:
        words.append(x & _MASK32)
    return words


def _generate_state(entropy: np.ndarray) -> list[np.ndarray]:
    """SeedSequence(entropy).generate_state(4, uint64) for each row of a
    (B, L) uint32 entropy matrix, as four (B,) uint64 columns.

    numpy's mix_entropy and generate_state run one hash per step with a
    constant that depends only on the step number, so every row follows the
    same schedule and the whole block is hashed column by column."""
    const = _HASH_INIT_A

    def hashmix(value):
        nonlocal const
        value = value ^ const
        const = const * _HASH_MULT_A & _MASK32
        value = value * const
        return value ^ (value >> 16)

    def mix(x, y):
        r = x * _MIX_MULT_L - y * _MIX_MULT_R
        return r ^ (r >> 16)

    n_words = entropy.shape[1]
    zero = np.zeros(len(entropy), dtype=np.uint32)
    pool = [hashmix(entropy[:, i] if i < n_words else zero) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for src in range(_POOL_SIZE, n_words):
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(entropy[:, src]))

    const = _HASH_INIT_B
    halves = []
    for k in range(8):
        value = pool[k % _POOL_SIZE] ^ const
        const = const * _HASH_MULT_B & _MASK32
        value = value * const
        halves.append((value ^ (value >> 16)).astype(np.uint64))
    return [halves[2 * k] | halves[2 * k + 1] << 32 for k in range(4)]


def _stream_states(seed: int, lo: int, hi: int) -> list[tuple[int, int]]:
    """PCG64 (state, inc) of default_rng(SeedSequence([seed, i])) for each
    lo <= i < hi, derived for the whole range at once."""
    words = _uint32_words(seed)
    states = []
    while lo < hi:
        # indices with the same word count share one entropy matrix
        n_index_words = max(1, (lo.bit_length() + 31) // 32)
        end = min(hi, 1 << (32 * n_index_words))
        idx = np.arange(lo, end, dtype=np.uint64)
        entropy = np.empty((end - lo, len(words) + n_index_words), dtype=np.uint32)
        entropy[:, :len(words)] = words
        for k in range(n_index_words):
            entropy[:, len(words) + k] = idx >> np.uint64(32 * k) & _MASK32
        s_hi, s_lo, q_hi, q_lo = (w.astype(object) for w in _generate_state(entropy))
        # pcg_setseq_128_srandom_r in exact 128-bit integers
        inc = (q_hi << 65 | q_lo << 1 | 1) & _MASK128
        state = ((inc + (s_hi << 64 | s_lo)) * _PCG_MULT + inc) & _MASK128
        states += zip(state.tolist(), inc.tolist())
        lo = end
    return states


def _replicate_rngs(seed: int, lo: int, hi: int):
    """Yield, for each lo <= i < hi, a Generator in the state of
    default_rng(SeedSequence([seed, i])).

    One Generator is reloaded each time (its 32-bit buffer cleared), so a
    yielded Generator is valid only until the next one is drawn."""
    bitgen = np.random.PCG64()
    rng = np.random.Generator(bitgen)
    state = {"bit_generator": "PCG64", "has_uint32": 0, "uinteger": 0}
    for block_lo in range(lo, hi, STREAM_BLOCK):
        for s, inc in _stream_states(seed, block_lo, min(block_lo + STREAM_BLOCK, hi)):
            state["state"] = {"state": s, "inc": inc}
            bitgen.state = state
            yield rng


def _compute_chunk(model: str, params: dict, seed: int, lo: int, hi: int):
    """Raw count rows lo..hi-1, each drawn from its own stream by the model's
    load kernel and counted up to max_k (for spacings, one spacing_exceedances
    count); returns the rows, the stream-derivation time and the total time."""
    start = time.perf_counter()
    dim = replicate_dim(model, params)
    n = params["n"]
    if model == "spacings":
        def draw(rng):
            return simulators.spacing_exceedances(n, params["a"], rng)
    else:
        kernel = simulators.allocation_loads if model == "alloc" else simulators.degree_loads
        c = n * (n - 1) // 2

        # G(n,p) is a Bin(C(n,2), p) edge count, then a uniform edge subset of
        # that size: the same law as independent edges
        def draw(rng):
            m = int(rng.binomial(c, params["p"])) if model == "gnp" else params["m"]
            return np.bincount(kernel(n, m, rng), minlength=dim)[:dim]

    np.empty(min(_HEAP_BLOCK_PER_ITEM * max(n, params.get("m", 0)), _HEAP_BLOCK_MAX),
             dtype=np.uint8)
    out = np.empty((hi - lo, dim), dtype=np.int64)
    sampling_s = 0.0
    for row, rng in enumerate(_replicate_rngs(seed, lo, hi)):
        t = time.perf_counter()
        out[row] = draw(rng)
        sampling_s += time.perf_counter() - t
    elapsed = time.perf_counter() - start
    return out, elapsed - sampling_s, elapsed


class ExperimentRun:
    """Replicated experiment output: the standardized sample matrix
    (reps x dim), its moments and the wall time of each phase."""

    def __init__(self, model: str, params: dict, reps: int, seed: int,
                 acc: MomentAccumulator, samples: np.ndarray, wall_time: float = 0.0,
                 timings: dict | None = None):
        self.model = model
        self.params = params
        self.reps = reps
        self.seed = seed
        self.acc = acc
        self.samples = samples
        self.wall_time = wall_time
        self.timings = {} if timings is None else timings


def run_experiment(model: str, params: dict, reps: int, seed: int, workers: int = 1,
                   dump_path=None) -> ExperimentRun:
    """Run reps independent replicates, deterministically in (seed, index).

    The worker count only affects scheduling; samples are placed by replicate
    index and ``acc`` holds the moments of the whole matrix, so results are
    identical for any number of workers.  ``timings`` splits the wall time into
    streams_s, sampling_s, standardize_s, accumulate_s and dump_s; the first
    two share the sampling phase in the ratio the workers measured.
    """
    check_params(model, params, seed)
    if reps < 2:
        raise CondCltError(f"reps must be >= 2, got {reps}")
    clock = time.perf_counter
    start = clock()
    if workers <= 1:
        chunks = [_compute_chunk(model, params, seed, 0, reps)]
    else:
        from concurrent.futures import ProcessPoolExecutor  # only a pool needs multiprocessing

        n_chunks = min(4 * workers, reps)
        bounds = np.linspace(0, reps, n_chunks + 1, dtype=int)
        with ProcessPoolExecutor(max_workers=min(workers, n_chunks)) as pool:
            futures = [pool.submit(_compute_chunk, model, params, seed, int(lo), int(hi))
                       for lo, hi in zip(bounds[:-1], bounds[1:])]
            chunks = [fut.result() for fut in futures]
    raw = chunks[0][0] if len(chunks) == 1 else np.concatenate([c[0] for c in chunks])
    sampled = clock()
    # The workers' stream share of the sampling phase, as a reading between
    # start and sampled: every timing is then a difference of two readings, so
    # the timings add up to wall_time exactly.
    split = start + (sampled - start) * (sum(chunk[1] for chunk in chunks)
                                         / sum(chunk[2] for chunk in chunks))
    samples = standardize(raw, standardization_for(model, params))
    standardized = clock()
    acc = MomentAccumulator.from_block(samples)
    accumulated = clock()
    if dump_path is not None:
        simulators.dump_count_matrix(dump_path, raw)
    end = clock()
    timings = {"streams_s": split - start, "sampling_s": sampled - split,
               "standardize_s": standardized - sampled,
               "accumulate_s": accumulated - standardized, "dump_s": end - accumulated}
    return ExperimentRun(model=model, params=dict(params), reps=reps, seed=seed,
                         acc=acc, samples=samples,
                         wall_time=end - start, timings=timings)


class ComparisonEntry(NamedTuple):
    kind: str                   # "mean" or "cov"
    i: int
    j: int
    theory: float
    estimate: float
    stderr: float
    z: float


class VerificationReport:
    """A run's verdict, with its provenance (versions, seed, workers, argv).

    Every container a caller leaves out starts empty and belongs to this report
    alone; a gate left out is None, as in an analytic report, which gates
    nothing.  vars(report) keeps the argument order, which is the key order of
    to_dict and of the JSON report."""

    def __init__(self, experiment: str, params: dict, seed: int, z_gate: float | None = None,
                 ks_gate: float | None = None, entries: list[ComparisonEntry] | None = None,
                 normality: list[dict] | None = None, skipped: list[dict] | None = None,
                 checks: list[dict] | None = None, passed: bool = False,
                 wall_time: float = 0.0, timings: dict | None = None,
                 provenance: dict | None = None):
        self.experiment = experiment
        self.params = params
        self.seed = seed
        self.z_gate = z_gate
        self.ks_gate = ks_gate
        self.entries = [] if entries is None else entries
        self.normality = [] if normality is None else normality
        self.skipped = [] if skipped is None else skipped   # gates not run, with why
        self.checks = [] if checks is None else checks      # analytic name/value/bound/passed
        self.passed = passed
        self.wall_time = wall_time
        self.timings = {} if timings is None else timings   # ExperimentRun.timings
        self.provenance = {} if provenance is None else provenance

    def max_abs_z(self) -> float:
        return max((abs(e.z) for e in self.entries), default=0.0)

    def to_dict(self) -> dict:
        """The report as JSON-ready values; a non-finite z, which JSON has no
        token for, is written as its repr ("inf" or "-inf"), as in the CSV."""
        return {**vars(self), "entries": [
            {**e._asdict(), "z": e.z if math.isfinite(e.z) else repr(e.z)}
            for e in self.entries]}

    @staticmethod
    def from_dict(d: dict) -> "VerificationReport":
        """Inverse of to_dict; a key the report lacks takes its default."""
        return VerificationReport(**{**d, "entries": [
            ComparisonEntry(**{**e, "z": float(e["z"])}) for e in d["entries"]]})


def _entries(kind: str, index, theory, estimate, stderr) -> list[ComparisonEntry]:
    """One ComparisonEntry per (i, j) of index, from the matching theory,
    estimate and standard-error values; a zero SE gives z = 0 for a zero
    difference and otherwise an infinite z with the sign of the difference."""
    out = []
    for (i, j), t, e, se in zip(index, theory.tolist(), estimate.tolist(), stderr.tolist()):
        diff = e - t
        z = diff / se if se > 0 else (0.0 if diff == 0.0 else math.copysign(math.inf, diff))
        out.append(ComparisonEntry(kind, i, j, t, e, se, z))
    return out


def check_gates(z_gate: float, ks_gate: float = DEFAULT_KS_GATE) -> None:
    """Reject a z gate outside (0, inf) and a KS gate outside (0, 1): no KS distance exceeds 1."""
    if not 0.0 < z_gate < math.inf:
        raise CondCltError(f"z_gate must be positive and finite, got {z_gate}")
    if not 0.0 < ks_gate < 1.0:
        raise CondCltError(f"ks_gate must be positive and finite and below 1, got {ks_gate}")


def compare_to_theory(run: ExperimentRun, theory_mean, theory_cov,
                      z_gate: float = DEFAULT_Z_GATE) -> VerificationReport:
    """Gate sample means and covariances against closed-form predictions.

    Mean entries use sqrt(var/count) standard errors; covariance entries
    (upper triangle, row by row) use batch-means standard errors across the
    covariances of DEFAULT_N_BATCHES equal row slices of the sample matrix.
    The theory must be finite and of shapes (dim,) and (dim, dim).
    """
    check_gates(z_gate)
    if run.acc.count < MIN_REPS:
        raise CondCltError(f"need >= {MIN_REPS} replicates, got {run.acc.count}")
    theory_mean = np.asarray(theory_mean, dtype=float)
    theory_cov = np.asarray(theory_cov, dtype=float)
    dim = run.acc.dim
    if theory_mean.shape != (dim,) or theory_cov.shape != (dim, dim):
        raise CondCltError(f"theory shapes {theory_mean.shape} and {theory_cov.shape} "
                           f"are not ({dim},) and ({dim}, {dim})")
    if not (np.isfinite(theory_mean).all() and np.isfinite(theory_cov).all()):
        raise CondCltError("theory mean and covariance must be finite")
    report = VerificationReport(
        experiment=run.model, params=run.params, seed=run.seed,
        z_gate=z_gate, ks_gate=DEFAULT_KS_GATE, wall_time=run.wall_time,
        timings=dict(run.timings),
    )
    cov = run.acc.covariance()
    mean_se = np.sqrt(np.maximum(np.diag(cov), 0.0) / run.acc.count)
    bounds = np.linspace(0, run.acc.count, DEFAULT_N_BATCHES + 1, dtype=int)
    batch_covs = np.array([MomentAccumulator.from_block(run.samples[lo:hi]).covariance()
                           for lo, hi in zip(bounds[:-1], bounds[1:])])
    cov_se = batch_covs.std(axis=0, ddof=1) / math.sqrt(DEFAULT_N_BATCHES)
    upper = np.triu_indices(dim)
    report.entries = (
        _entries("mean", [(i, -1) for i in range(dim)], theory_mean, run.acc.mean, mean_se)
        + _entries("cov", np.transpose(upper).tolist(), theory_cov[upper], cov[upper],
                   cov_se[upper]))
    report.passed = report.max_abs_z() <= z_gate
    return report


def normality_distance(samples, mu: float, sigma2: float) -> float:
    """Kolmogorov-Smirnov sup distance between the empirical CDF and
    N(mu, sigma2).

    The Gaussian CDF is evaluated once per distinct sample value: within a run
    of ties i/n - F peaks at the run's last index and F - (i-1)/n at its first,
    so the sup is the one over all samples.
    """
    samples = np.sort(np.asarray(samples, dtype=float))
    if not (math.isfinite(mu) and 0.0 < sigma2 < math.inf):
        raise CondCltError(f"need a finite mu and 0 < sigma2 < inf, got {mu} and {sigma2}")
    n = len(samples)
    if n < KS_MIN_REPS:
        raise CondCltError(f"need >= {KS_MIN_REPS} samples, got {n}")
    first = np.flatnonzero(np.r_[True, samples[1:] != samples[:-1]])
    end = np.r_[first[1:], n]
    z = (samples[first] - mu) / math.sqrt(sigma2)
    cdf = np.array([0.5 * math.erfc(-v / math.sqrt(2.0)) for v in z.tolist()])
    upper = end / n - cdf
    lower = cdf - first / n
    return float(max(upper.max(), lower.max()))


def verify(run: ExperimentRun, theory_mean, theory_cov, z_gate: float = DEFAULT_Z_GATE,
           ks_gate: float = DEFAULT_KS_GATE) -> VerificationReport:
    """Gate a run's z-scores (compare_to_theory) and, from KS_MIN_REPS
    replicates on, the KS distance of each marginal from its limit Gaussian.

    A marginal whose theory variance is not positive, or every marginal below
    KS_MIN_REPS replicates, is listed under ``skipped`` with the reason.  The
    report passes only when the z gates and every KS gate that ran pass.
    """
    check_gates(z_gate, ks_gate)
    report = compare_to_theory(run, theory_mean, theory_cov, z_gate=z_gate)
    report.ks_gate = ks_gate
    if run.reps < KS_MIN_REPS:
        report.skipped.append({"gate": "ks", "reason": f"R = {run.reps} < {KS_MIN_REPS}"})
    else:
        for i, sigma2 in enumerate(np.diagonal(theory_cov)):
            if sigma2 <= 0:
                report.skipped.append({"gate": "ks", "index": i,
                                       "reason": f"theory variance {sigma2:.3g} <= 0"})
                continue
            dist = normality_distance(run.samples[:, i], theory_mean[i], sigma2)
            report.normality.append({"index": i, "distance": dist, "gate": ks_gate})
        if any(e["distance"] > ks_gate for e in report.normality):
            report.passed = False
    return report
