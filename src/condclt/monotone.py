"""Exact verification of stochastic monotonicity.

Exact laws, by big-integer counting, of the occupancy counts N_k (empty
boxes: N_0) at any n and m and of desk-scale allocation/graph count vectors;
a first-order stochastic dominance checker and the quantile coupling.  Every
law carries its masses as integers over their sum, so dominance and the
coupling are decided in integer arithmetic, with no tolerance.
"""

from __future__ import annotations

import bisect
import itertools
import math
from collections import Counter
from fractions import Fraction

import numpy as np

from .errors import CondCltError


class FiniteDistribution:
    """Finitely supported law: a strictly increasing support and non-negative
    integer weights, not all 0; the mass at ``support[i]`` is
    ``weights[i] / total``."""

    def __init__(self, support, weights):
        self.support = tuple(float(x) for x in support)
        self.weights = tuple(weights)
        if len(self.support) != len(self.weights):
            raise ValueError("support and weights must have equal length")
        if not all(a < b for a, b in zip(self.support, self.support[1:])):
            raise ValueError("support must be strictly increasing")
        if not all(type(w) is int and w >= 0 for w in self.weights) or not any(self.weights):
            raise ValueError("weights must be non-negative ints, not all 0")
        self.total = sum(self.weights)


def from_weights(pairs: dict[float, int]) -> FiniteDistribution:
    """The law of a value -> integer weight map, without its zero weights."""
    support = sorted(x for x, w in pairs.items() if w)
    return FiniteDistribution(support, [pairs[x] for x in support])


def occupancy_count_law(n: int, m: int, k: int) -> dict[int, int]:
    """How many of the n^m throws of m balls into n boxes leave exactly j boxes
    with k balls, for each j, by inclusion-exclusion over the sets of r boxes
    that m! / (k!^r (m - rk)!) (n - r)^(m - rk) throws fill with k balls each."""
    if n < 1 or m < 0 or k < 0:
        raise CondCltError(f"need n >= 1, m >= 0 and k >= 0, got n={n}, m={m}, k={k}")
    filled = [math.comb(n, r) * math.perm(m, r * k) // math.factorial(k)**r * (n - r)**(m - r * k)
              for r in range((min(n, m // k) if k else n) + 1)]
    return {j: sum((-1) ** (r - j) * math.comb(r, j) * filled[r] for r in range(j, len(filled)))
            for j in range(len(filled))}


def exact_empty_box_law(n: int, m: int) -> FiniteDistribution:
    """Exact law of the number of empty boxes: occupancy_count_law at k = 0."""
    return from_weights(occupancy_count_law(n, m, 0))


def check_stochastic_dominance(d1: FiniteDistribution, d2: FiniteDistribution):
    """First-order check: does d2 dominate d1 (d1 stochastically smaller)?

    True iff CDF1(x) >= CDF2(x) at every union support point, compared
    exactly as W1(x) * total2 >= W2(x) * total1 with W the integer weight at
    or below x; on failure the first witnessing x is returned.
    """
    t1, t2 = d1.total, d2.total
    w1 = dict(zip(d1.support, d1.weights))
    w2 = dict(zip(d2.support, d2.weights))
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
    # the CDFs on the common scale t1 * t2, where every mass is an integer; an
    # atom for each step between consecutive values either CDF takes
    scale = d1.total * d2.total
    cdf1 = list(itertools.accumulate(w * d2.total for w in d1.weights))
    cdf2 = list(itertools.accumulate(w * d1.total for w in d2.weights))
    cuts = sorted((set(cdf1) | set(cdf2)) - {0})
    return [(d1.support[bisect.bisect_left(cdf1, b)], d2.support[bisect.bisect_left(cdf2, b)],
             Fraction(b - a, scale)) for a, b in zip([0] + cuts, cuts)]


# -- desk-scale exact laws of count vectors ------------------------------------

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


def allocation_count_law(n: int, m: int) -> dict[tuple, int]:
    """Exact law of the occupancy count vector (counts[j] = boxes with j balls):
    how many of the n^m throws give each vector, as multinomial weights summed
    over compositions; scales far beyond n^m."""
    if math.comb(m + n - 1, n - 1) > 200_000:
        raise CondCltError("too many compositions to enumerate")
    law = Counter()
    for bars in itertools.combinations(range(m + n - 1), n - 1):   # stars and bars
        occ = [b - a - 1 for a, b in zip((-1, *bars), (*bars, m + n - 1))]
        weight = math.factorial(m)
        for c in occ:
            weight //= math.factorial(c)    # every partial quotient is an integer
        law[tuple(map(occ.count, range(m + 1)))] += weight
    return law


def gnm_count_law(n: int, m: int) -> dict[tuple, int]:
    """Exact law of the degree count vector of a uniform m-edge graph: how many
    of the C(C(n,2), m) graphs give each vector."""
    return Counter(map(tuple, enumerate_gnm_degree_counts(n, m).tolist()))


def functional_law(law: dict[tuple, int], fn) -> FiniteDistribution:
    """Exact law of a scalar functional of the count vector."""
    weights = Counter()
    for key, w in law.items():
        weights[float(fn(np.array(key)))] += w
    return from_weights(weights)

