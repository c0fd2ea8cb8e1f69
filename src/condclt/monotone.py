"""Exact small-instance verification of stochastic monotonicity.

Exact laws (big-integer counting, normalized at the end) for the empty-box
count and for desk-scale allocation/graph count statistics, a first-order
stochastic dominance checker and the inverse-CDF (quantile) coupling.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import NotComparable, OutOfDeskRange

CDF_TOL = 1e-12
DESK_MAX_N = 8              # exact_empty_box_law's range: n <= 8, m <= 12
DESK_MAX_M = 12


@dataclass(frozen=True)
class FiniteDistribution:
    """Finitely supported distribution with strictly increasing support."""

    support: np.ndarray
    probs: np.ndarray

    def __post_init__(self):
        support = np.asarray(self.support, dtype=float)
        probs = np.asarray(self.probs, dtype=float)
        if not (support.ndim == probs.ndim == 1 and len(support) == len(probs)):
            raise ValueError("support and probs must be 1-D arrays of equal length")
        if not np.all(np.diff(support) > 0):
            raise ValueError("support must be strictly increasing")
        if not np.all(probs >= 0):
            raise ValueError("probs must be non-negative")
        if not abs(probs.sum() - 1.0) <= CDF_TOL:
            raise ValueError(f"probs sum to {probs.sum()!r}, not 1")
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "probs", probs)

    def cdf_at(self, xs: np.ndarray) -> np.ndarray:
        cum = np.concatenate(([0.0], np.cumsum(self.probs)))
        return cum[np.searchsorted(self.support, xs, side="right")]


def from_weights(pairs: dict[float, Fraction]) -> FiniteDistribution:
    """Normalize an exact value -> weight map into a FiniteDistribution."""
    total = sum(pairs.values())
    support = sorted(x for x, w in pairs.items() if w > 0)
    probs = [float(pairs[x] / total) for x in support]
    return FiniteDistribution(np.array(support, dtype=float), np.array(probs))


def surjection_count(m: int, b: int) -> int:
    """Number of surjections from an m-set onto a b-set (inclusion-exclusion)."""
    if b == 0:
        return 1 if m == 0 else 0
    return sum((-1) ** i * math.comb(b, i) * (b - i) ** m for i in range(b + 1))


def exact_empty_box_law(n: int, m: int) -> FiniteDistribution:
    """Exact law of the number of empty boxes after m uniform throws into n boxes."""
    if not (1 <= n <= DESK_MAX_N) or not (0 <= m <= DESK_MAX_M):
        raise OutOfDeskRange(f"(n={n}, m={m}) outside the exact-enumeration range")
    weights = {}
    for z in range(n + 1):
        w = Fraction(math.comb(n, z) * surjection_count(m, n - z), n**m)
        if w > 0:
            weights[float(z)] = w
    return from_weights(weights)


def check_stochastic_dominance(d1: FiniteDistribution, d2: FiniteDistribution):
    """First-order check: does d2 dominate d1 (d1 stochastically smaller)?

    True iff CDF1(x) >= CDF2(x) - tol at every union support point; on failure
    the witnessing x is returned.
    """
    xs = np.union1d(d1.support, d2.support)
    c1 = d1.cdf_at(xs)
    c2 = d2.cdf_at(xs)
    bad = np.flatnonzero(c1 < c2 - CDF_TOL)
    if len(bad):
        return False, float(xs[bad[0]])
    return True, None


def quantile_coupling(d1: FiniteDistribution, d2: FiniteDistribution):
    """Inverse-CDF coupling of d1 (smaller) and d2 (larger).

    Returns atoms (x1, x2, prob) with x1 <= x2 on every atom; both marginals
    reproduce the inputs exactly up to float accumulation.
    """
    ok, witness = check_stochastic_dominance(d1, d2)
    if not ok:
        raise NotComparable(f"dominance fails at x = {witness}")
    atoms = []
    i = j = 0
    u = 0.0                     # probability mass already coupled
    r1 = d1.probs[0]
    r2 = d2.probs[0]
    while i < len(d1.support) and j < len(d2.support):
        p = min(r1, r2)
        if p > CDF_TOL:
            atoms.append((float(d1.support[i]), float(d2.support[j]), p))
            u += p
        r1 -= p
        r2 -= p
        if r1 <= CDF_TOL:
            i += 1
            r1 = d1.probs[i] if i < len(d1.probs) else 0.0
        if r2 <= CDF_TOL:
            j += 1
            r2 = d2.probs[j] if j < len(d2.probs) else 0.0
    return atoms


# -- desk-scale exhaustive enumeration oracles ---------------------------------

def enumerate_allocation_counts(n: int, m: int):
    """All n^m equiprobable throws; returns the (n^m, m+1) matrix of occupancy
    count vectors (counts[j] = boxes with exactly j balls)."""
    if n**m > 2_000_000:
        raise OutOfDeskRange(f"n^m = {n**m} too large to enumerate")
    rows = []
    for balls in itertools.product(range(n), repeat=m):
        occ = np.bincount(np.array(balls, dtype=np.int64), minlength=n)
        rows.append(np.bincount(occ, minlength=m + 1)[: m + 1])
    return np.array(rows, dtype=np.int64)


def enumerate_gnm_degree_counts(n: int, m: int):
    """All C(C(n,2), m) equiprobable m-edge graphs; returns the (#graphs, n)
    matrix of degree count vectors."""
    pairs = list(itertools.combinations(range(n), 2))
    if math.comb(len(pairs), m) > 2_000_000:
        raise OutOfDeskRange("too many graphs to enumerate")
    rows = []
    for subset in itertools.combinations(pairs, m):
        deg = np.zeros(n, dtype=np.int64)
        for u, v in subset:
            deg[u] += 1
            deg[v] += 1
        rows.append(np.bincount(deg, minlength=n)[:n])
    return np.array(rows, dtype=np.int64)


def _compositions(total: int, parts: int):
    """All orderings of total balls into parts boxes (weak compositions)."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def allocation_count_law(n: int, m: int) -> dict[tuple, Fraction]:
    """Exact law of the occupancy count vector (counts[j] = boxes with j balls)
    via multinomial weights over compositions; scales far beyond n^m."""
    if math.comb(m + n - 1, n - 1) > 200_000:
        raise OutOfDeskRange("too many compositions to enumerate")
    law: dict[tuple, Fraction] = {}
    denom = n**m
    m_fact = math.factorial(m)
    for occ in _compositions(m, n):
        weight = Fraction(m_fact, denom)
        for c in occ:
            weight /= math.factorial(c)
        key = tuple(np.bincount(np.array(occ, dtype=np.int64), minlength=m + 1)[: m + 1])
        law[key] = law.get(key, Fraction(0)) + weight
    return law


def gnm_count_law(n: int, m: int) -> dict[tuple, Fraction]:
    """Exact law of the degree count vector of a uniform m-edge graph."""
    rows = enumerate_gnm_degree_counts(n, m)
    total = len(rows)
    law: dict[tuple, Fraction] = {}
    for row in rows:
        key = tuple(int(v) for v in row)
        law[key] = law.get(key, Fraction(0)) + Fraction(1, total)
    return law


def functional_law(law: dict[tuple, Fraction], fn) -> FiniteDistribution:
    """Exact law of a scalar functional of the count vector."""
    weights: dict[float, Fraction] = {}
    for key, w in law.items():
        v = float(fn(np.array(key)))
        weights[v] = weights.get(v, Fraction(0)) + w
    return from_weights(weights)


def scalar_law(values: np.ndarray) -> FiniteDistribution:
    """Exact law of a scalar statistic evaluated over equiprobable outcomes."""
    values = np.asarray(values)
    weights = {}
    for v in values:
        weights[float(v)] = weights.get(float(v), 0) + 1
    return from_weights({v: Fraction(c, len(values)) for v, c in weights.items()})


def exact_moments(count_matrix: np.ndarray):
    """Exact mean vector and covariance matrix over equiprobable outcomes."""
    x = count_matrix.astype(float)
    mean = x.mean(axis=0)
    dev = x - mean
    cov = dev.T @ dev / len(x)
    return mean, cov
