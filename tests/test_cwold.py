import itertools
import math
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import polygamma

from condclt import cwold
from condclt.errors import CondCltError


class TestBaseCfs:
    def test_triangular_values(self):
        tri = cwold.triangular()
        assert cwold.eval_cf(tri, [0.5]) == 0.5
        assert cwold.eval_cf(tri, [1.7]) == 0.0
        assert cwold.eval_cf(tri, [0.0]) == 1.0

    def test_periodic_values(self):
        per = cwold.periodic_triangular()
        assert cwold.eval_cf(per, [1.2]) == pytest.approx(0.2, abs=1e-14)
        assert cwold.eval_cf(per, [2.0]) == pytest.approx(1.0, abs=1e-14)
        assert cwold.eval_cf(per, [1.0]) == pytest.approx(0.0, abs=1e-14)

    def test_scaled_triangular(self):
        tri = cwold.triangular(scale=2.0)
        assert cwold.eval_cf(tri, [1.0]) == 0.5
        assert cwold.eval_cf(tri, [2.5]) == 0.0

    @pytest.mark.parametrize("scale", [0.0, -1.0, math.inf, math.nan])
    def test_scale_must_be_positive_and_finite(self, scale):
        with pytest.raises(CondCltError, match="scale must be positive and finite"):
            cwold.triangular(scale)

    @given(st.floats(-50, 50))
    @settings(max_examples=200, deadline=None)
    def test_cf_validity_invariants(self, t):
        for expr in (cwold.triangular(), cwold.triangular(0.3),
                     cwold.periodic_triangular()):
            v = cwold.eval_cf(expr, [t])
            w = cwold.eval_cf(expr, [-t])
            assert v == pytest.approx(w, abs=1e-9)   # real even cf
            assert 0.0 <= v <= 1.0
        assert cwold.eval_cf(expr, [0.0]) == 1.0

    def test_periodicity(self):
        per = cwold.periodic_triangular()
        ts = np.linspace(-4, 4, 101)
        for t in ts:
            assert cwold.eval_cf(per, [t]) == pytest.approx(
                cwold.eval_cf(per, [t + 2.0]), abs=1e-12)

    def test_agree_on_unit_interval(self):
        tri, per = cwold.triangular(), cwold.periodic_triangular()
        for t in np.linspace(-1, 1, 201):
            assert cwold.eval_cf(tri, [t]) == pytest.approx(
                cwold.eval_cf(per, [t]), abs=1e-14)


class TestPairComposition:
    def test_pair_point_evaluation(self):
        x = cwold.pair(cwold.triangular(), cwold.triangular())
        assert cwold.eval_cf(x, (0.25, 0.25)) == pytest.approx(0.5, abs=1e-14)

    def test_arity_errors(self):
        x, _ = cwold.canonical_pair()
        with pytest.raises(CondCltError, match="PAIR composes two scalar base cfs"):
            cwold.pair(x, cwold.triangular())
        with pytest.raises(CondCltError, match="base cf takes one argument"):
            cwold.eval_cf(cwold.triangular(), [1.0, 2.0])

    def test_unknown_base_kind(self):
        # pair() refuses a nested PAIR; a node built by hand reaches the evaluator
        x, _ = cwold.canonical_pair()
        with pytest.raises(CondCltError, match="PAIR is not a scalar base"):
            cwold.eval_cf(cwold.CharFnExpr(kind="PAIR", u=x, v=x), ([0.0], [0.0]))
        with pytest.raises(CondCltError, match="UNIFORM is not a scalar base"):
            cwold.eval_cf(cwold.CharFnExpr(kind="UNIFORM"), [0.0])

    def test_pair_vectorized(self):
        x, y = cwold.canonical_pair()
        t1 = np.linspace(-2, 2, 9)
        t2 = np.linspace(-2, 2, 9)
        out = cwold.eval_cf(x, (t1, t2))
        assert out.shape == (9,)
        assert np.all((0.0 <= out) & (out <= 1.0))
        assert cwold.eval_cf(y, (np.zeros(1), np.zeros(1)))[0] == 1.0


class TestQuadrantAgreement:
    def test_canonical_pair_agrees_on_quadrant(self):
        x, y = cwold.canonical_pair()
        max_diff, argmax = cwold.octant_equality_scan(x, y)
        assert max_diff < 1e-12, argmax

    def test_identical_cfs_scan_to_zero(self):
        x, _ = cwold.canonical_pair()
        max_diff, _ = cwold.octant_equality_scan(x, x)
        assert max_diff == 0.0

    def test_detectably_different_pair(self):
        # Replacing one factor with a rescaled triangle breaks agreement even
        # on the first quadrant.
        x = cwold.pair(cwold.triangular(), cwold.triangular())
        z = cwold.pair(cwold.triangular(), cwold.triangular(scale=2.0))
        max_diff, _ = cwold.octant_equality_scan(x, z)
        assert max_diff > 0.1

    def test_random_nonnegative_points_agree(self):
        x, y = cwold.canonical_pair()
        rng = np.random.default_rng(6)
        pts = rng.uniform(0.0, 6.0, size=(100, 2))
        diff = np.abs(cwold.eval_cf(x, (pts[:, 0], pts[:, 1]))
                      - cwold.eval_cf(y, (pts[:, 0], pts[:, 1])))
        assert diff.max() < 1e-14


class TestCounterexampleWitness:
    def test_canonical_witness(self):
        x, y = cwold.canonical_pair()
        quadrant, ((t1, t2), diff) = cwold.quadrant_decision(x, y)
        assert quadrant is None
        assert ((t1, t2), diff) == ((1, -1), -1)
        assert cwold.eval_cf(x, (1.0, -1.0)) - cwold.eval_cf(y, (1.0, -1.0)) == -1.0

    def test_specific_point_value(self):
        x, y = cwold.canonical_pair()
        fx = cwold.eval_cf(x, (np.array([-0.6]), np.array([0.6])))[0]
        fy = cwold.eval_cf(y, (np.array([-0.6]), np.array([0.6])))[0]
        assert abs(fx - fy) == pytest.approx(0.2, abs=1e-12)

    def test_diff_symmetry_under_negation(self):
        x, y = cwold.canonical_pair()
        a = cwold.eval_cf(y, (np.array([-0.6]), np.array([0.6])))[0]
        b = cwold.eval_cf(y, (np.array([0.6]), np.array([-0.6])))[0]
        assert a == pytest.approx(b, abs=1e-12)

    def test_identical_pair_is_equal_everywhere(self):
        x, _ = cwold.canonical_pair()
        assert cwold.quadrant_decision(x, x) == (None, None)


class TestMarginalDirections:
    def test_difference_direction(self):
        x, y = cwold.canonical_pair()
        assert cwold.marginal_difference_along(x, y, (1.0, -1.0)) >= 0.19

    def test_sum_direction_agrees(self):
        x, y = cwold.canonical_pair()
        assert cwold.marginal_difference_along(x, y, (1.0, 1.0)) < 1e-14

    def test_axis_direction_nonnegative_side(self):
        # One-sided projections (s >= 0 along an axis) agree exactly.
        x, y = cwold.canonical_pair()
        s = np.linspace(0.0, 5.0, 501)
        diff = np.abs(cwold.eval_cf(x, (s, np.zeros_like(s)))
                      - cwold.eval_cf(y, (s, np.zeros_like(s))))
        assert diff.max() < 1e-14

    def test_zero_direction_rejected(self):
        x, y = cwold.canonical_pair()
        with pytest.raises(ValueError):
            cwold.marginal_difference_along(x, y, (0.0, 0.0))


class TestLatticeMass:
    def test_total_mass_is_one(self):
        # 1/2 at 0 and 4/(pi^2 (2k+1)^2) on the pair +-(2k+1) pi: a truncated
        # series plus its exact tail (4/pi^2) sum_{k >= K} 1/(2k+1)^2
        # = psi_1(K + 1/2) / pi^2
        k_cut = 100_000
        ks = np.arange(k_cut, dtype=float)
        partial = 0.5 + (4.0 / np.pi**2) * np.sum(1.0 / (2.0 * ks + 1.0) ** 2)
        tail = float(polygamma(1, k_cut + 0.5)) / np.pi**2
        assert abs(partial + tail - 1.0) < 1e-12

    def test_partial_sum_without_tail_falls_short(self):
        ks = np.arange(100, dtype=float)
        partial = 0.5 + (4.0 / np.pi**2) * np.sum(1.0 / (2.0 * ks + 1.0) ** 2)
        assert partial < 1.0 - 1e-4


class TestScanTable:
    def test_grid_validation(self):
        x, y = cwold.canonical_pair()
        with pytest.raises(ValueError):
            cwold.octant_equality_scan(x, y, h=0.0)
        with pytest.raises(ValueError):
            cwold.octant_equality_scan(x, y, extent=-1.0)


# (X, Y, equal on the quadrant): the canonical pair, a rescaled difference
# factor, and pairs with other sum-factor scales; at scale 1e9 the decision
# runs in constant time, since past the difference scales it needs only one
# period of the periodic factor
TRI, PER = cwold.triangular, cwold.periodic_triangular
PAIRS = [
    (*cwold.canonical_pair(), True),
    (cwold.pair(TRI(), TRI()), cwold.pair(TRI(), TRI(scale=2.0)), False),
    (cwold.pair(TRI(2.0), TRI()), cwold.pair(TRI(2.0), PER()), False),
    (cwold.pair(TRI(0.5), TRI()), cwold.pair(TRI(0.5), PER()), True),
    (cwold.pair(TRI(0.25), TRI(3.0)), cwold.pair(TRI(0.5), TRI(3.0)), False),
    (cwold.pair(TRI(1e9), TRI()), cwold.pair(TRI(1e9), PER()), False),
]


class TestExactDecision:
    def test_canonical_pair(self):
        x, y = cwold.canonical_pair()
        assert cwold.exact_difference(x, y, Fraction(-3, 5), Fraction(3, 5)) == Fraction(-1, 5)
        # the float scan along t1 = -t2 reaches the exact off-quadrant maximum, 1
        assert cwold.marginal_difference_along(x, y, (1.0, -1.0)) == pytest.approx(1.0,
                                                                                    abs=1e-9)

    @pytest.mark.parametrize("x,y,equal", PAIRS)
    def test_agrees_with_float_scans(self, x, y, equal):
        quadrant, off = cwold.quadrant_decision(x, y)
        octant_max, _ = cwold.octant_equality_scan(x, y)
        assert (quadrant is None) == equal == (octant_max < 1e-12)
        for point, diff in filter(None, (quadrant, off)):
            t = tuple(map(float, point))
            assert cwold.eval_cf(x, t) - cwold.eval_cf(y, t) == pytest.approx(float(diff),
                                                                              abs=1e-15)
        assert (quadrant is None or min(quadrant[0]) >= 0) and min(off[0]) < 0
        if equal:
            # off the quadrant no float scan exceeds the exact maximum
            along = max(cwold.marginal_difference_along(x, y, c)
                        for c in [(1.0, -1.0), (1.0, -0.5), (-0.3, 1.0)])
            assert along <= abs(off[1]) + 1e-12

    def test_rejects_periodic_sum_factor(self):
        x = cwold.pair(PER(), TRI())
        with pytest.raises(CondCltError, match="triangular sum factors"):
            cwold.quadrant_decision(x, x)

    def test_witness_short_of_the_next_breakpoint(self):
        # with the sum scale 5/4 the pair differs on the quadrant only where
        # 1 < |d| < s < 5/4, short of the midpoint 3/2 of the difference
        # factors' breakpoints 1 and 2
        x = cwold.pair(TRI(1.25), TRI())
        y = cwold.pair(TRI(1.25), PER())
        (t1, t2), diff = cwold.quadrant_decision(x, y)[0]
        assert min(t1, t2) >= 0 and 1 < t1 - t2 < 1.25
        assert diff == cwold.exact_difference(x, y, t1, t2) != 0

    def test_rejects_pair_sharing_no_factor(self):
        x = cwold.pair(TRI(), TRI())
        y = cwold.pair(TRI(2.0), PER())
        with pytest.raises(CondCltError, match="share a factor"):
            cwold.quadrant_decision(x, y)

    @pytest.mark.parametrize("scale", [10**4, 10**9])
    def test_cost_does_not_grow_with_the_scales(self, scale):
        # a periodic factor is probed only within one period of 0 and of each
        # triangular scale, so a difference scale of 1e9 costs what 1 does
        x, y = cwold.pair(TRI(), TRI(scale)), cwold.pair(TRI(), PER())
        start = time.perf_counter()
        quadrant, off = cwold.quadrant_decision(x, y)
        assert time.perf_counter() - start < 0.1
        assert quadrant == ((Fraction(1, 2), 0), Fraction(scale - 1, 4 * scale))
        assert off == ((Fraction(scale, 2) + 1, -Fraction(scale, 2) - 1), -1)

    def test_matches_a_scan_in_eighths(self):
        # shared sum factor of scale a, difference factors TRI(d) and PER: g is
        # linear between multiples of 1/4, so every multiple of 1/8 in
        # [0, max(a, d) + 3] decides where it vanishes and its largest |g|;
        # d = 1 and a <= 1 give the pairs equal on the quadrant
        quarters = [Fraction(k, 4) for k in range(1, 25)]
        for a, d in itertools.product(quarters, quarters[::3]):
            x, y = cwold.pair(TRI(float(a)), TRI(float(d))), cwold.pair(TRI(float(a)), PER())
            xs = [Fraction(k, 8) for k in range(1, int(8 * (max(a, d) + 3)) + 1)]
            quadrant, off = cwold.quadrant_decision(x, y)
            zero_inside = all(cwold.exact_difference(x, y, t, 0) == 0
                              for t in [Fraction(0), *xs] if t < a)
            assert (quadrant is None) == zero_inside
            assert abs(off[1]) == max(abs(cwold.exact_difference(x, y, t / 2, -t / 2))
                                      for t in xs)


TRIANGLES = st.fractions(Fraction(1, 6), 4, max_denominator=6).map(lambda a: TRI(float(a)))
BASES = st.one_of(TRIANGLES, st.just(PER()))


@st.composite
def shared_factor_pairs(draw):
    """Two PAIR cfs with triangular sum factors that share the sum factor or
    the difference factor; the free slots take any base."""
    if draw(st.booleans()):
        u = draw(TRIANGLES)
        return cwold.pair(u, draw(BASES)), cwold.pair(u, draw(BASES))
    v = draw(BASES)
    return cwold.pair(draw(TRIANGLES), v), cwold.pair(draw(TRIANGLES), v)


@given(shared_factor_pairs(), st.randoms(use_true_random=False))
@settings(max_examples=200, deadline=None)
def test_decision_holds_at_random_rational_points(xy, rnd):
    # 60 coordinate pairs in twelfths of [-6, 6]; each gives the quadrant
    # point (|t1|, |t2|) and the off-quadrant point (t1, -|t2| - 1/12), and f
    # is symmetric in t1, t2
    x, y = xy
    coords = [(Fraction(rnd.randint(-72, 72), 12), Fraction(rnd.randint(-72, 72), 12))
              for _ in range(60)]
    quadrant, off = cwold.quadrant_decision(x, y)
    for (t1, t2), f in filter(None, (quadrant, off)):
        assert all(isinstance(v, Fraction) for v in (t1, t2, f))
        assert f != 0 and cwold.exact_difference(x, y, t1, t2) == f
    assert quadrant is None or min(quadrant[0]) >= 0
    assert off is None or min(off[0]) < 0
    bound = abs(off[1]) if off else 0
    for t1, t2 in coords:
        if quadrant is None:
            assert cwold.exact_difference(x, y, abs(t1), abs(t2)) == 0
        assert abs(cwold.exact_difference(x, y, t1, -abs(t2) - Fraction(1, 12))) <= bound
