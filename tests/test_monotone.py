import itertools
import math
import os
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from condclt import monotone as mono
from condclt.errors import CondCltError


def point_mass(x):
    return mono.FiniteDistribution([x], [1])


class TestFiniteDistribution:
    @pytest.mark.parametrize("support,weights", [
        ([0.0, 1.0], [1]),
        ([1.0, 0.0], [1, 1]),
        ([0.0, 1.0], [3, -1]),
        ([0.0, 1.0], [0, 0]),
    ], ids=["length", "order", "negative", "mass"])
    def test_rejects_bad_input(self, support, weights):
        with pytest.raises(ValueError):
            mono.FiniteDistribution(support, weights)

    def test_checks_survive_optimize_flag(self):
        src = os.path.dirname(os.path.dirname(mono.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        code = ("from condclt.monotone import FiniteDistribution\n"
                "try:\n"
                "    FiniteDistribution([1.0, 0.0], [1, 1])\n"
                "except ValueError:\n"
                "    raise SystemExit(0)\n"
                "raise SystemExit(1)\n")
        out = subprocess.run([sys.executable, "-O", "-c", code], env=env, timeout=120)
        assert out.returncode == 0


class TestExactEmptyBoxLaw:
    def test_one_ball_two_boxes(self):
        law = mono.exact_empty_box_law(2, 1)
        assert law.support == (1.0,)
        assert law.weights == (2,)

    def test_two_balls_two_boxes(self):
        law = mono.exact_empty_box_law(2, 2)
        assert law.support == (0.0, 1.0)
        assert law.weights == (2, 2)

    def test_two_balls_three_boxes(self):
        law = mono.exact_empty_box_law(3, 2)
        assert law.support == (1.0, 2.0)
        assert law.weights == (6, 3)

    def test_against_brute_force_enumeration(self):
        # the empty-box marginal of the occupancy-vector law (brute-force checked by
        # test_allocation_law_matches_enumeration), also past the old cap n <= 8
        for n, m in [*itertools.product([2, 3], range(5)), (9, 0), (9, 5), (10, 4)]:
            law = mono.exact_empty_box_law(n, m)
            vectors = mono.functional_law(mono.allocation_count_law(n, m), lambda c: c[0])
            assert (law.support, law.weights) == (vectors.support, vectors.weights)

    def test_out_of_range(self):
        # the law's domain, its only bound on n and m; k = 0 through the empty-box law
        for n, m, k in [(0, 3, 0), (-1, 3, 1), (3, -1, 0), (3, 2, -1)]:
            with pytest.raises(CondCltError, match=f"m >= 0 and k >= 0, got n={n}, m={m}, k={k}"):
                mono.occupancy_count_law(n, m, k) if k else mono.exact_empty_box_law(n, m)


class TestStochasticDominance:
    def test_equal_distributions(self):
        law = mono.exact_empty_box_law(4, 3)
        ok, witness = mono.check_stochastic_dominance(law, law)
        assert ok and witness is None

    def test_point_masses(self):
        ok, _ = mono.check_stochastic_dominance(point_mass(0), point_mass(1))
        assert ok
        ok, witness = mono.check_stochastic_dominance(point_mass(1), point_mass(0))
        assert not ok and witness == 0.0

    def test_transitivity_on_chain(self):
        d1 = mono.exact_empty_box_law(4, 6)
        d2 = mono.exact_empty_box_law(4, 3)
        d3 = mono.exact_empty_box_law(4, 0)
        assert mono.check_stochastic_dominance(d1, d2)[0]
        assert mono.check_stochastic_dominance(d2, d3)[0]
        assert mono.check_stochastic_dominance(d1, d3)[0]


class TestQuantileCoupling:
    def _check_marginals(self, atoms, d1, d2):
        m1, m2 = {}, {}
        for x1, x2, p in atoms:
            assert x1 <= x2
            m1[x1] = m1.get(x1, 0) + p
            m2[x2] = m2.get(x2, 0) + p
        assert m1 == masses(d1) and m2 == masses(d2)

    def test_identical_is_diagonal(self):
        law = mono.exact_empty_box_law(4, 2)
        atoms = mono.quantile_coupling(law, law)
        assert all(x1 == x2 for x1, x2, _ in atoms)
        self._check_marginals(atoms, law, law)

    def test_point_masses(self):
        atoms = mono.quantile_coupling(point_mass(0), point_mass(1))
        assert atoms == [(0.0, 1.0, 1.0)]

    def test_empty_box_pair(self):
        d_small = mono.exact_empty_box_law(4, 3)
        d_large = mono.exact_empty_box_law(4, 2)
        atoms = mono.quantile_coupling(d_small, d_large)
        self._check_marginals(atoms, d_small, d_large)

    def test_not_comparable(self):
        with pytest.raises(CondCltError, match="dominance fails at x = 0.0"):
            mono.quantile_coupling(point_mass(1), point_mass(0))


class TestMonotoneStatisticChains:
    def test_cumulative_occupancy_decreasing_in_m(self):
        # Boxes with at most j balls: stochastically decreasing in the number
        # of balls, exactly, for n <= 5 and j <= 4.
        for n in range(2, 6):
            laws = {m: mono.allocation_count_law(n, m) for m in range(9)}
            for j in range(5):
                def stat(counts, j=j):
                    return counts[: j + 1].sum()
                for m in range(8):
                    larger = mono.functional_law(laws[m], stat)
                    smaller = mono.functional_law(laws[m + 1], stat)
                    ok, _ = mono.check_stochastic_dominance(smaller, larger)
                    assert ok, (n, m, j)

    def test_increasing_coefficient_sums_increasing_in_m(self):
        # Sums with increasing coefficients over degree counts grow
        # stochastically with the edge count (desk-scale check at n = 4).
        laws = {m: mono.gnm_count_law(4, m) for m in range(7)}
        coeffs = np.array([0.0, 1.0, 3.0, 7.0])

        def stat(counts):
            return float(coeffs @ counts)

        for m in range(6):
            smaller = mono.functional_law(laws[m], stat)
            larger = mono.functional_law(laws[m + 1], stat)
            ok, _ = mono.check_stochastic_dominance(smaller, larger)
            assert ok, m


class TestExactLaws:
    def test_allocation_law_total_mass(self):
        law = mono.allocation_count_law(5, 8)
        assert sum(law.values()) == 5**8

    # covers every (n, m) at which criterion 6, the sampler G-tests, the
    # point-mass rule, the empty-box law test and the desk-scale gate tests
    # read the law
    @pytest.mark.parametrize("n,m", [(n, m) for n in range(1, 5) for m in range(7)])
    def test_allocation_law_matches_enumeration(self, n, m):
        # brute force over all n^m throws
        brute = Counter(tuple(np.bincount(np.bincount(balls, minlength=n),
                                          minlength=m + 1).tolist())
                        for balls in itertools.product(range(n), repeat=m))
        assert mono.allocation_count_law(n, m) == brute

    def test_gnm_law_total_mass(self):
        for m in range(7):
            assert sum(mono.gnm_count_law(4, m).values()) == math.comb(6, m)

    def test_enumeration_caps_raise_before_enumerating(self):
        # C(28, 12) = 30,421,755 graphs pass the 2,000,000-graph cap that keeps
        # the CLI's degree chain at MONOTONE_MAX_GRAPH_N vertices, and
        # C(29, 9) = 10,015,005 compositions pass the 200,000 cap
        start = time.perf_counter()
        with pytest.raises(CondCltError, match="too many graphs to enumerate"):
            mono.gnm_count_law(8, 12)
        with pytest.raises(CondCltError, match="too many compositions to enumerate"):
            mono.allocation_count_law(10, 20)
        assert time.perf_counter() - start < 1.0


def criterion_7_pairs():
    """(smaller, larger) for the empty boxes at n = 2..5, m <= 8 and the vertices
    of degree <= j in G(4, m): pairs that acceptance criterion 7 checks."""
    pairs = [(mono.exact_empty_box_law(n, m + 1), mono.exact_empty_box_law(n, m))
             for n in range(2, 6) for m in range(8)]
    laws = {m: mono.gnm_count_law(4, m) for m in range(7)}
    for j in range(4):
        def stat(counts, j=j):
            return counts[: j + 1].sum()
        pairs += [(mono.functional_law(laws[m + 1], stat), mono.functional_law(laws[m], stat))
                  for m in range(6)]
    return pairs


def masses(d):
    return {x: Fraction(w, d.total) for x, w in zip(d.support, d.weights)}


class TestExactDominance:
    def test_two_to_the_minus_52_crossing_is_caught(self):
        # the CDFs cross the wrong way by 2.2e-16
        d1 = mono.FiniteDistribution([0.0, 1.0], [1, 1])
        d2 = mono.FiniteDistribution([0.0, 1.0], [2**51 + 1, 2**51 - 1])
        assert mono.check_stochastic_dominance(d1, d2) == (False, 0.0)
        with pytest.raises(CondCltError, match="dominance fails at x = 0.0"):
            mono.quantile_coupling(d1, d2)
        assert mono.check_stochastic_dominance(d2, d1) == (True, None)

    def test_exact_laws_carry_their_integer_counts(self):
        law = mono.exact_empty_box_law(4, 3)      # 4 * 3!, C(4, 2) * (2^3 - 2) and 4 throws
        assert law.total == 4**3
        assert (law.support, law.weights) == ((1.0, 2.0, 3.0), (24, 36, 4))

    @pytest.mark.parametrize("weights", [(-1, 2, 2), (0, 0, 0), (1.0, 1, 1)],
                             ids=["negative", "all-zero", "float"])
    def test_rejects_bad_weights(self, weights):
        with pytest.raises(ValueError):
            mono.FiniteDistribution([0.0, 1.0, 2.0], weights)

    def test_coupling_marginals_are_exact_on_criterion_7(self):
        for smaller, larger in criterion_7_pairs():
            atoms = mono.quantile_coupling(smaller, larger)
            m1, m2 = {}, {}
            for x1, x2, p in atoms:
                assert x1 <= x2 and type(p) is Fraction and p > 0
                m1[x1] = m1.get(x1, 0) + p
                m2[x2] = m2.get(x2, 0) + p
            assert m1 == masses(smaller) and m2 == masses(larger)
