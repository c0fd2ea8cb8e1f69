"""Exact small-instance verification of stochastic monotonicity.

Exact laws (big-integer counting) for the empty-box count and for desk-scale
allocation/graph count statistics, a first-order stochastic dominance
checker and the inverse-CDF (quantile) coupling.  Every law carries its
masses as integers over their sum, so dominance and the coupling are decided
in integer arithmetic, with no tolerance.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np

from .errors import CondCltError

CDF_TOL = 1e-12             # how far float probs may sum from 1
DESK_MAX_N = 8              # exact_empty_box_law's range: n <= 8, m <= 12
DESK_MAX_M = 12


class FiniteDistribution:
    """Finitely supported distribution with strictly increasing support.

    ``weights`` are the exact masses, integers over their sum ``total``.
    Without them they are the exact binary values of ``probs`` over a common
    power of two; given, ``probs`` must be their correctly rounded ratios.
    """

    def __init__(self, support, probs, weights: tuple[int, ...] | None = None):
        support = np.asarray(support, dtype=float)
        probs = np.asarray(probs, dtype=float)
        if not (support.ndim == probs.ndim == 1 and len(support) == len(probs)):
            raise ValueError("support and probs must be 1-D arrays of equal length")
        if not np.all(np.diff(support) > 0):
            raise ValueError("support must be strictly increasing")
        if not np.all(probs >= 0):
            raise ValueError("probs must be non-negative")
        if not abs(probs.sum() - 1.0) <= CDF_TOL:
            raise ValueError(f"probs sum to {probs.sum()!r}, not 1")
        if weights is None:
            ratios = [p.as_integer_ratio() for p in probs.tolist()]
            scale = max(d for _, d in ratios)
            weights = tuple(n * (scale // d) for n, d in ratios)
        else:
            weights = tuple(weights)
            if not all(type(w) is int and w >= 0 for w in weights) or not any(weights):
                raise ValueError("weights must be non-negative ints, not all 0")
            total = sum(weights)
            if probs.tolist() != [w / total for w in weights]:
                raise ValueError("probs are not the float values of weights / sum(weights)")
        self.support = support
        self.probs = probs
        self.weights = weights

    @property
    def total(self) -> int:
        return sum(self.weights)


def from_weights(pairs: dict[float, int | Fraction]) -> FiniteDistribution:
    """The law of an exact value -> weight map (ints or Fractions, on any
    common scale), with the weights as integers over their common denominator."""
    support = sorted(x for x, w in pairs.items() if w > 0)
    scale = math.lcm(*(pairs[x].denominator for x in support))
    weights = [pairs[x].numerator * (scale // pairs[x].denominator) for x in support]
    total = sum(weights)
    return FiniteDistribution(np.array(support, dtype=float),
                              np.array([w / total for w in weights]), tuple(weights))


def surjection_count(m: int, b: int) -> int:
    """Number of surjections from an m-set onto a b-set (inclusion-exclusion)."""
    if b == 0:
        return 1 if m == 0 else 0
    return sum((-1) ** i * math.comb(b, i) * (b - i) ** m for i in range(b + 1))


def exact_empty_box_law(n: int, m: int) -> FiniteDistribution:
    """Exact law of the number of empty boxes after m uniform throws into n
    boxes: C(n, z) surj(m, n - z) of the n^m throws leave z boxes empty."""
    if not (1 <= n <= DESK_MAX_N) or not (0 <= m <= DESK_MAX_M):
        raise CondCltError(f"(n={n}, m={m}) outside the exact-enumeration range")
    return from_weights({float(z): math.comb(n, z) * surjection_count(m, n - z)
                         for z in range(n + 1)})


def check_stochastic_dominance(d1: FiniteDistribution, d2: FiniteDistribution):
    """First-order check: does d2 dominate d1 (d1 stochastically smaller)?

    True iff CDF1(x) >= CDF2(x) at every union support point, compared
    exactly as W1(x) * total2 >= W2(x) * total1 with W the integer weight at
    or below x; on failure the first witnessing x is returned.
    """
    t1, t2 = d1.total, d2.total
    w1 = dict(zip(d1.support.tolist(), d1.weights))
    w2 = dict(zip(d2.support.tolist(), d2.weights))
    c1 = c2 = 0
    for x in sorted(w1.keys() | w2.keys()):
        c1 += w1.get(x, 0)
        c2 += w2.get(x, 0)
        if c1 * t2 < c2 * t1:
            return False, x
    return True, None


def quantile_coupling(d1: FiniteDistribution, d2: FiniteDistribution):
    """Inverse-CDF coupling of d1 (smaller) and d2 (larger).

    Returns atoms (x1, x2, mass) with x1 <= x2 on every atom and exact
    Fraction masses, whose marginals are exactly the two laws.
    """
    ok, witness = check_stochastic_dominance(d1, d2)
    if not ok:
        raise CondCltError(f"dominance fails at x = {witness}")
    t1, t2 = d1.total, d2.total
    # both laws on the common scale t1 * t2, so every mass is an integer
    w1 = [w * t2 for w in d1.weights]
    w2 = [w * t1 for w in d2.weights]
    xs1, xs2 = d1.support.tolist(), d2.support.tolist()
    atoms = []
    i = j = 0
    r1, r2 = w1[0], w2[0]
    while i < len(w1) and j < len(w2):
        p = min(r1, r2)
        if p:
            atoms.append((xs1[i], xs2[j], Fraction(p, t1 * t2)))
        r1 -= p
        r2 -= p
        if not r1:
            i += 1
            r1 = w1[i] if i < len(w1) else 0
        if not r2:
            j += 1
            r2 = w2[j] if j < len(w2) else 0
    return atoms


# -- desk-scale exhaustive enumeration oracles ---------------------------------

def enumerate_allocation_counts(n: int, m: int):
    """All n^m equiprobable throws; returns the (n^m, m+1) matrix of occupancy
    count vectors (counts[j] = boxes with exactly j balls)."""
    if n**m > 2_000_000:
        raise CondCltError(f"n^m = {n**m} too large to enumerate")
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
        raise CondCltError("too many graphs to enumerate")
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
        raise CondCltError("too many compositions to enumerate")
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


def exact_moments(count_matrix: np.ndarray):
    """Exact mean vector and covariance matrix over equiprobable outcomes."""
    x = count_matrix.astype(float)
    mean = x.mean(axis=0)
    dev = x - mean
    cov = dev.T @ dev / len(x)
    return mean, cov
