import ast
import math
import tracemalloc
from collections import Counter
from fractions import Fraction
from itertools import combinations, product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chi2

from condclt import mc_engine, monotone, simulators as sim
from condclt.errors import CondCltError
from exact_laws import LAWS, g_test_pvalue, sampled_rows


def rng_for(seed=0):
    return np.random.default_rng(seed)


class IntegersSpy:
    """A Generator that counts its integers calls."""

    def __init__(self, rng):
        self.rng, self.calls = rng, 0

    def integers(self, *args, **kwargs):
        self.calls += 1
        return self.rng.integers(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self.rng, name)


def count_row(loads, max_k):
    """The counts 0..max_k of a load array, as the harness counts a replicate."""
    return np.bincount(loads, minlength=max_k + 1)[: max_k + 1]


def assert_conserved(loads, n, units, max_k):
    """n loads adding up to units; the counts up to max_k and the loads past
    max_k account for every item and every unit."""
    counts = count_row(loads, max_k)
    tail = loads[loads > max_k]
    assert len(loads) == n and loads.sum() == units
    assert counts.sum() + len(tail) == n
    assert (np.arange(max_k + 1) * counts).sum() + tail.sum() == units


def gnp_loads(n, p, rng):
    """The G(n,p) replicate: a Bin(C(n,2), p) edge count, then degree_loads."""
    m = int(rng.binomial(n * (n - 1) // 2, p))
    return m, sim.degree_loads(n, m, rng)


class TestSampleAllocation:
    def test_no_balls(self):
        loads = sim.allocation_loads(5, 0, rng_for())
        assert_conserved(loads, 5, 0, 3)
        assert count_row(loads, 3).tolist() == [5, 0, 0, 0]

    def test_single_box(self):
        loads = sim.allocation_loads(1, 7, rng_for())
        assert loads.tolist() == [7]
        assert count_row(loads, 8)[7] == 1

    def test_single_box_tail(self):
        # a box past max_k is in no count of the row
        loads = sim.allocation_loads(1, 50, rng_for())
        assert_conserved(loads, 1, 50, 40)
        assert count_row(loads, 40).sum() == 0

    def test_conservation_every_draw(self):
        rng = rng_for(5)
        for _ in range(50):
            n = int(rng.integers(1, 50))
            m = int(rng.integers(0, 200))
            assert_conserved(sim.allocation_loads(n, m, rng), n, m, 3)


class TestSampleGnp:
    def test_empty_graph(self):
        m, deg = gnp_loads(10, 0.0, rng_for())
        assert m == 0
        assert_conserved(deg, 10, 0, 3)

    def test_complete_graph(self):
        m, deg = gnp_loads(4, 1.0, rng_for())
        assert m == 6 and deg.tolist() == [3, 3, 3, 3]

    def test_triangle_probability(self):
        # n=3, p=1/2: the triangle (N2 = 3) has probability 1/8.
        rng = rng_for(17)
        reps = 50_000
        hits = sum(gnp_loads(3, 0.5, rng)[1].tolist() == [2, 2, 2] for _ in range(reps))
        se = math.sqrt(0.125 * 0.875 / reps)
        assert abs(hits / reps - 0.125) < 4 * se

    def test_conditioning_bridge(self):
        # G(n,p) draws conditioned on their edge count match the exact G(n,m)
        # law, here at n=4, m=3 on the isolated-vertex indicator.
        law = monotone.gnm_count_law(4, 3)
        p_exact = sum(w for key, w in law.items() if key[0] >= 1) / sum(law.values())
        rng = rng_for(23)
        hits, total = 0, 0
        for _ in range(80_000):
            m, deg = gnp_loads(4, 0.5, rng)
            if m == 3:
                total += 1
                hits += int((deg == 0).any())
        se = math.sqrt(p_exact * (1 - p_exact) / total)
        assert total > 10_000
        assert abs(hits / total - p_exact) < 4 * se


class TestSampleGnm:
    def test_forced_triangle(self):
        assert sim.degree_loads(3, 3, rng_for()).tolist() == [2, 2, 2]

    def test_zero_edges(self):
        assert sim.degree_loads(8, 0, rng_for()).tolist() == [0] * 8

    def test_too_many_edges(self):
        with pytest.raises(CondCltError, match=r"m = 4 exceeds C\(n,2\) = 3"):
            sim.degree_loads(3, 4, rng_for())

    def test_edge_conservation_exact(self):
        rng = rng_for(2)
        for _ in range(30):
            n = int(rng.integers(2, 40))
            m = int(rng.integers(0, n * (n - 1) // 2 + 1))
            assert_conserved(sim.degree_loads(n, m, rng), n, 2 * m, 2)

    def test_dense_regime(self):
        # 14 of the 15 edges of K6: one pair of vertices misses one edge each
        deg = sim.degree_loads(6, 14, rng_for(4))
        assert_conserved(deg, 6, 28, 5)
        assert sorted(deg.tolist()) == [4, 4, 5, 5, 5, 5]


def _reference_edge_indices(n, m, rng):
    """The np.unique formulation of the edge draw: the rejection branch of
    sim._sample_edge_indices must reproduce it byte for byte, rng state
    included.  Returns the indices and the number of pool passes."""
    c = n * (n - 1) // 2
    if m == 0:
        return np.empty(0, dtype=np.int64), 0
    if m > 0.6 * c:
        return rng.permutation(c)[:m].astype(np.int64), 0
    slack = 16 + m * m // c
    pool = np.empty(0, dtype=np.int64)
    passes = 0
    while pool.size < m:
        draw = rng.integers(0, c, size=m - pool.size + slack)
        pool = np.unique(np.concatenate([pool, draw]))
        passes += 1
    if pool.size > m:
        pool = np.delete(pool, rng.choice(pool.size, pool.size - m, replace=False))
    return pool, passes


def _row_start(n, i):
    return i * (2 * n - i - 1) // 2


def _reference_decode_pairs(n, idx):
    """The allocating pair decode (disc, root, i, start and j each a fresh
    array): sim._decode_pairs must give the same endpoints."""
    b = 2 * n - 1
    root = np.sqrt(idx * -8 + b * b)
    i = ((b - root) / 2).astype(np.int64)
    start = (b - i) * i >> 1
    high = start > idx
    if high.any():
        i -= high
        start = (b - i) * i >> 1
    j = idx - start + i + 1
    low = j >= n
    if low.any():
        i += low
        j = idx - ((b - i) * i >> 1) + i + 1
    return i, j


def _reference_degree_loads(n, idx):
    """Decode, concatenate and bincount, as the degree path did before it
    decoded into one endpoint buffer."""
    return np.bincount(np.concatenate(_reference_decode_pairs(n, idx)), minlength=n)


def _boundary_indices(n):
    """Edge indices around the row starts, at both ends of the range, plus
    100 000 uniform ones."""
    c = n * (n - 1) // 2
    rows = np.array([1, 2, n // 2 - 1, n // 2, n // 2 + 1, n - 3, n - 2],
                    dtype=np.int64)
    starts = _row_start(n, rows)
    edges = np.concatenate([starts - 1, starts, starts + 1, [0, 1, c - 2]])
    edges = edges[edges < c]    # row n-2 holds the single index c-1
    return np.concatenate([edges, rng_for(n).integers(0, c, size=100_000)])


class TestEdgeDraw:
    @pytest.mark.parametrize("n,m", [(2000, 2000), (50, 700), (6, 14), (2, 1)])
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 7])
    def test_matches_reference(self, n, m, seed):
        rng, ref_rng = rng_for(seed), rng_for(seed)
        idx = sim._sample_edge_indices(n, m, rng)
        ref, _ = _reference_edge_indices(n, m, ref_rng)
        assert idx.dtype == ref.dtype
        assert idx.tobytes() == ref.tobytes()
        assert rng.integers(0, 2**62) == ref_rng.integers(0, 2**62)

    # At n = 10, m = 27 = 0.6 C(10,2), the first pass of m + slack = 59 draws
    # yields fewer than 27 distinct indices only rarely; these seeds are such
    # draws.
    @pytest.mark.parametrize("seed", [252, 1138, 1325])
    def test_matches_reference_over_several_passes(self, seed):
        rng, ref_rng = rng_for(seed), rng_for(seed)
        idx = sim._sample_edge_indices(10, 27, rng)
        ref, passes = _reference_edge_indices(10, 27, ref_rng)
        assert passes >= 2
        assert idx.tobytes() == ref.tobytes()
        assert rng.integers(0, 2**62) == ref_rng.integers(0, 2**62)

    # C(92682, 2) = 4294930221 <= 2**32 draws uint32 indices; C(92683, 2) does not.
    @pytest.mark.parametrize("n", [92682, 92683])
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 7])
    def test_matches_reference_at_32_bit_switch(self, n, seed):
        rng, ref_rng = rng_for(seed), rng_for(seed)
        idx = sim._sample_edge_indices(n, 50, rng)
        ref, _ = _reference_edge_indices(n, 50, ref_rng)
        assert idx.dtype == ref.dtype
        assert idx.tobytes() == ref.tobytes()
        assert rng.integers(0, 2**62) == ref_rng.integers(0, 2**62)

    def test_refilled_draws_are_uniform_subsets(self):
        # At (n, m) = (30, 261), m = 0.6 C(n,2) still takes the pool path, and
        # about 1.6 % of the draws call integers again to refill the pool.
        # Whether a draw refills depends only on how many distinct indices its
        # first pass holds, so the refilled draws are still uniform m-subsets:
        # each edge is in one with probability p = m / c, and the inclusion
        # counts O_e of K draws give sum (O_e - Kp)^2 (c-1) / (c K p (1-p)),
        # asymptotically chi-squared with c - 1 degrees of freedom.  The first
        # and last index, where an off-by-one in the draw's range lands, are
        # also z-tested on their own: 1200 draws catch a refill that draws from
        # [0, c - 1), whose last index reads z = -6.0 here (600 draws read -3.6).
        n, m, want = 30, 261, 1200
        c = n * (n - 1) // 2
        spy = IntegersSpy(rng_for(29))
        counts, kept = np.zeros(c, dtype=np.int64), 0
        for _ in range(200_000):
            spy.calls = 0
            idx = sim._sample_edge_indices(n, m, spy)
            if spy.calls > 1:
                assert len(idx) == m and idx[0] >= 0 and idx[-1] < c
                assert (np.diff(idx) > 0).all()         # sorted and distinct
                counts[idx] += 1
                kept += 1
                if kept == want:
                    break
        assert kept == want
        p = m / c
        z = (counts - want * p) / math.sqrt(want * p * (1 - p))
        assert chi2.sf((z ** 2).sum() * (c - 1) / c, c - 1) >= 1e-4
        assert abs(z[0]) < 3.9 and abs(z[-1]) < 3.9      # two-sided p >= 1e-4

    def test_draw_is_a_subset(self):
        idx = sim._sample_edge_indices(2000, 2000, rng_for(5))
        assert np.unique(idx).size == 2000
        assert idx.min() >= 0 and idx.max() < 2000 * 1999 // 2


class TestDecodePairs:
    @pytest.mark.parametrize("n", list(range(1, 61)) + [2000])
    def test_matches_triu_indices(self, n):
        i, j = sim._decode_pairs(n, np.arange(n * (n - 1) // 2, dtype=np.int64))
        ti, tj = np.triu_indices(n, 1)
        assert np.array_equal(i, ti) and np.array_equal(j, tj)

    # Up to n = 47,453,133 the discriminant (2n-1)^2 - 8 idx stays below 2**53
    # and the float decode is exact with no fix-up; from n = 47,453,134 on it
    # can round in float64 and the guarded fix-up runs: at n = 1e9 the row
    # before each row start decodes one row too high before it.  No idx
    # decodes one row too low, up to the largest graph n.
    @pytest.mark.parametrize("n", [10**6, 3 * 10**6, 47_453_133, 47_453_134, 10**9,
                                   mc_engine.MAX_GRAPH_N])
    def test_round_trip_large_n(self, n):
        idx = _boundary_indices(n)
        ends = sim._decode_pairs(n, idx)
        assert ends.dtype == np.int64 and ends.shape == (2, len(idx))
        i, j = ends
        assert np.all((0 <= i) & (i < j) & (j < n))
        assert np.array_equal(_row_start(n, i) + (j - i - 1), idx)
        assert ends.tobytes() == np.concatenate(_reference_decode_pairs(n, idx)).tobytes()


def _assert_same_next_draws(rng, ref_rng):
    """A 32-bit draw, which takes a buffered half output first, then a 64-bit
    one, which ignores the buffer."""
    assert rng.integers(0, 7, size=3).tolist() == ref_rng.integers(0, 7, size=3).tolist()
    assert rng.integers(0, 2**62) == ref_rng.integers(0, 2**62)


def _assert_same_loads(deg, rng, ref, ref_rng):
    assert deg.dtype == ref.dtype
    assert deg.tobytes() == ref.tobytes()
    _assert_same_next_draws(rng, ref_rng)


class TestDegreePath:
    """degree_loads for G(n,m), and after a binomial edge count for G(n,p),
    against the reference edge draw followed by the reference decode and
    count, rng state included."""

    @staticmethod
    def check_gnm(n, m, seed):
        rng, ref_rng = rng_for(seed), rng_for(seed)
        deg = sim.degree_loads(n, m, rng)
        idx, passes = _reference_edge_indices(n, m, ref_rng)
        _assert_same_loads(deg, rng, _reference_degree_loads(n, idx), ref_rng)
        return passes

    @staticmethod
    def check_gnp(n, p, seed):
        rng, ref_rng = rng_for(seed), rng_for(seed)
        _, deg = gnp_loads(n, p, rng)
        m = int(ref_rng.binomial(n * (n - 1) // 2, p))
        idx, _ = _reference_edge_indices(n, m, ref_rng)
        _assert_same_loads(deg, rng, _reference_degree_loads(n, idx), ref_rng)

    @pytest.mark.parametrize("n,m", [(2000, 2000), (50, 700), (6, 14), (2, 1),
                                     (92682, 50), (92683, 50)])
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 7])
    def test_matches_reference(self, n, m, seed):
        self.check_gnm(n, m, seed)
        self.check_gnp(n, m / (n * (n - 1) // 2), seed)

    @pytest.mark.parametrize("seed", [252, 1138, 1325])
    def test_matches_reference_over_several_passes(self, seed):
        assert self.check_gnm(10, 27, seed) >= 2

    def test_matches_reference_at_1e5(self):
        self.check_gnm(10**5, 10**5, 11)
        self.check_gnp(10**5, 2e-5, 11)


def _pcg_state(rng):
    """What decides the next PCG64 draws: the buffered half output counts
    only while has_uint32 is set."""
    state = rng.bit_generator.state
    return state["state"], state["has_uint32"], state["uinteger"] if state["has_uint32"] else None


def _rng_with_first_word(word):
    """A PCG64 Generator whose next output has low half `word`: the state one
    step before a state whose XSL-RR output, rotr(hi ^ lo, hi >> 58), is
    (an arbitrary high half, word)."""
    out = 0x9E3779B9 << 32 | word
    hi = 5 << 58 | 0x1234567
    rot = hi >> 58
    lo = hi ^ (out << rot | out >> (64 - rot)) & (1 << 64) - 1
    inc = np.random.PCG64(0).state["state"]["inc"]
    prev = ((hi << 64 | lo) - inc) * pow(mc_engine._PCG_MULT, -1, 1 << 128) % (1 << 128)
    bitgen = np.random.PCG64()
    bitgen.state = {"bit_generator": "PCG64", "state": {"state": prev, "inc": inc},
                    "has_uint32": 0, "uinteger": 0}
    return np.random.Generator(bitgen)


class _Spy:
    """A Generator stand-in for _uniform_below that records whether the draw
    fell back to rng.integers."""

    def __init__(self, rng):
        self.rng, self.bit_generator, self.fell_back = rng, rng.bit_generator, False

    def integers(self, *args, **kwargs):
        self.fell_back = True
        return self.rng.integers(*args, **kwargs)


def _check_uniform_below(high, size, rng, ref_rng):
    """_uniform_below against rng.integers on a twin generator: values, dtype,
    PCG64 state and the next draws; returns whether it fell back."""
    spy = _Spy(rng)
    got = sim._uniform_below(high, size, spy)
    want = ref_rng.integers(0, high, size=size)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    if isinstance(rng.bit_generator, np.random.PCG64):
        assert _pcg_state(rng) == _pcg_state(ref_rng)
    _assert_same_next_draws(rng, ref_rng)
    return spy.fell_back


class TestUniformBelow:
    """The allocation draw against rng.integers, word for word.  High =
    2**31 + 1 rejects about half the words, so the size-th value often ends
    on a low half and leaves the high half in the buffer."""

    @pytest.mark.parametrize("high", [2, 3, 10**4, 1_999_000, 2**31 + 1, 2**31 + 12345,
                                      2**32 - 1, 2**32])
    @pytest.mark.parametrize("size", [1, 2, 3, 7, 1001, 2018, 10**4])
    def test_matches_integers(self, high, size):
        for seed in range(8):
            assert not _check_uniform_below(high, size, rng_for(seed), rng_for(seed))

    @given(st.integers(2, 2**32), st.integers(0, 3000), st.integers(0, 2**32))
    @settings(max_examples=300, deadline=None)
    def test_matches_integers_property(self, high, size, seed):
        assert _check_uniform_below(high, size, rng_for(seed), rng_for(seed)) == (size == 0)

    @pytest.mark.parametrize("high", [3, 10_001, 2**31 + 1])
    @pytest.mark.parametrize("offset", [0, -1])
    def test_rejection_boundary(self, high, offset):
        # a first word whose low product word w high mod 2**32 is 2**32 mod
        # high, which numpy keeps, or one less, which it draws again for;
        # random words hit either with probability 2**-32
        word = ((1 << 32) % high + offset) * pow(high, -1, 1 << 32) % (1 << 32)
        assert _rng_with_first_word(word).bit_generator.random_raw() & 0xFFFFFFFF == word
        for size in (1, 2, 3):
            assert not _check_uniform_below(high, size, _rng_with_first_word(word),
                                            _rng_with_first_word(word))

    @pytest.mark.parametrize("high,size", [(np.int32(7), np.int64(1001)),
                                           (np.uint64(2**31 + 1), np.int32(7))])
    def test_numpy_integer_arguments(self, high, size):
        assert not _check_uniform_below(high, size, rng_for(9), rng_for(9))

    # high = 1 draws nothing in numpy
    @pytest.mark.parametrize("high,size", [(1, 5), (2**32 + 1, 9), (2**40, 4), (10, 0)])
    def test_falls_back_outside_the_32_bit_range(self, high, size):
        assert _check_uniform_below(high, size, rng_for(4), rng_for(4))

    def test_falls_back_with_a_buffered_word(self):
        rng, ref_rng = rng_for(5), rng_for(5)
        for g in (rng, ref_rng):                # an odd 32-bit draw buffers a high half
            g.integers(0, 10, size=3)
        assert rng.bit_generator.state["has_uint32"]
        assert _check_uniform_below(10**4, 1001, rng, ref_rng)

    @pytest.mark.parametrize("bitgen", [np.random.MT19937, np.random.Philox, np.random.SFC64])
    def test_falls_back_for_other_bit_generators(self, bitgen):
        rng, ref_rng = (np.random.Generator(bitgen(6)) for _ in range(2))
        assert _check_uniform_below(10**4, 1001, rng, ref_rng)


class TestLoadKernels:
    """The load kernels against a draw and a count written out longhand, rng
    state included."""

    @pytest.mark.parametrize("n,m", [(10_000, 10_000), (5, 200), (7, 0), (1, 9),
                                     (5, 201), (10_000, 9_999)])
    def test_allocation_loads(self, n, m):
        rng, ref_rng = rng_for(3), rng_for(3)
        loads = sim.allocation_loads(n, m, rng)
        ref = np.zeros(n, dtype=np.int64)
        for box in ref_rng.integers(0, n, size=m).tolist():
            ref[box] += 1
        _assert_same_loads(loads, rng, ref, ref_rng)

    @pytest.mark.parametrize("n,m", [(30, 60), (8, 25), (2000, 2000), (4, 0)])
    def test_recount_oracle(self, n, m):
        rng, ref_rng = rng_for(13), rng_for(13)
        deg = sim.degree_loads(n, m, rng)
        idx, _ = _reference_edge_indices(n, m, ref_rng)
        ref = np.zeros(n, dtype=np.int64)
        for u, v in zip(*(ends.tolist() for ends in _reference_decode_pairs(n, idx))):
            ref[u] += 1
            ref[v] += 1
        assert deg.dtype == ref.dtype and deg.tobytes() == ref.tobytes()
        assert rng.integers(0, 2**62) == ref_rng.integers(0, 2**62)


class TestPublicSamplers:
    """allocation_loads and degree_loads, the G(n,p) replicate included, at
    the edge cases of the harness (no balls, one vertex, max_k = 0, loads past
    max_k) against the reference draw: loads, next draw, and the conservation
    of the count row the harness keeps."""

    @staticmethod
    def check(loads, rng, ref, ref_rng, units, max_k):
        _assert_same_loads(loads, rng, ref, ref_rng)
        assert_conserved(loads, len(ref), units, max_k)

    @pytest.mark.parametrize("n,m,max_k", [(10_000, 10_000, 5), (5, 200, 2), (7, 0, 3),
                                           (1, 50, 40), (30, 40, 0), (5, 201, 2),
                                           (10_000, 9_999, 5)])
    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_allocation(self, n, m, max_k, seed):
        rng, ref_rng = rng_for(seed), rng_for(seed)
        loads = sim.allocation_loads(n, m, rng)
        ref = np.bincount(ref_rng.integers(0, n, size=m), minlength=n)
        self.check(loads, rng, ref, ref_rng, m, max_k)

    # TestDegreePath covers most sizes; these are the edge cases.
    @pytest.mark.parametrize("n,m,max_k", [(200, 300, 0), (30, 100, 2), (4, 0, 3)])
    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_gnm(self, n, m, max_k, seed):
        rng, ref_rng = rng_for(seed), rng_for(seed)
        deg = sim.degree_loads(n, m, rng)
        idx, _ = _reference_edge_indices(n, m, ref_rng)
        self.check(deg, rng, _reference_degree_loads(n, idx), ref_rng, 2 * m, max_k)

    @pytest.mark.parametrize("n,p,max_k", [(50, 1e-4, 3), (1, 0.5, 2), (30, 0.2, 2)])
    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_gnp(self, n, p, max_k, seed):
        rng, ref_rng = rng_for(seed), rng_for(seed)
        m, deg = gnp_loads(n, p, rng)
        c = n * (n - 1) // 2
        assert m == (int(ref_rng.binomial(c, p)) if c > 0 else 0)
        idx, _ = _reference_edge_indices(n, m, ref_rng)
        self.check(deg, rng, _reference_degree_loads(n, idx), ref_rng, 2 * m, max_k)


# both sides of the 0.6 C(n,2) switch between the rejection draw and the permutation
GNM_SIZES = [(5, 3), (5, 8), (6, 5), (6, 12)]


def spacing_exceedance_law(n: int, a: Fraction) -> dict:
    """Exact law of the number of n circular uniform spacings above a/n, as
    integer weights over (nq)^(n-1) for a = p/q, keyed by the one-entry count
    row (k,): P(N = k) is
    sum_{j>=k} (-1)^(j-k) C(j,k) C(n,j) (1 - ja/n)_+^(n-1) by inclusion-exclusion
    over the sets of gaps above a/n."""
    p, q = a.numerator, a.denominator
    return {(k,): sum((-1) ** (j - k) * math.comb(j, k) * math.comb(n, j)
                      * max(0, n * q - j * p) ** (n - 1) for j in range(k, n + 1))
            for k in range(n + 1)}


class TestLawsAgainstEnumeration:
    """The production samplers, at one fixed seed, against exact laws: the
    count vectors of run_experiment against their laws by multinomial weights
    over compositions (allocations) and by graph enumeration (G(n,m); for
    G(n,p), those laws weighted by the binomial edge count), the allocation
    counts N_k at n = m = 200 and the spacings exceedance counts against their
    inclusion-exclusion laws, and the degrees of the first and last vertex
    against the hypergeometric law."""

    REPS = 10_000
    SEED = 5

    # n = 7: C(21, 8) = 203,490 graphs; m = 8 takes the rejection draw, m = 14
    # the permutation (0.6 C(7,2) = 12.6)
    @pytest.mark.parametrize("model,n,m",
                             [("gnm", n, m) for n, m in GNM_SIZES + [(7, 8), (7, 14)]]
                             + [("alloc", 3, 4), ("alloc", 4, 5)])
    def test_count_vectors(self, model, n, m, tmp_path):
        law = LAWS[model](n, m)
        params = {"n": n, "m": m, "max_k": len(next(iter(law))) - 1}
        observed = sampled_rows(model, params, self.REPS, self.SEED, tmp_path / "counts.bin")
        assert g_test_pvalue(observed, law) >= 1e-4

    @pytest.mark.parametrize("n,m", [(3, 4), (4, 5)])
    def test_occupancy_count_law_matches_enumeration(self, n, m):
        # brute force over all n^m throws, for every k
        loads = [np.bincount(balls, minlength=n) for balls in product(range(n), repeat=m)]
        for k in range(m + 1):
            law = monotone.occupancy_count_law(n, m, k)
            assert sum(law.values()) == n**m and min(law.values()) >= 0
            brute = Counter(int((occ == k).sum()) for occ in loads)
            assert {j: w for j, w in law.items() if w} == brute, k

    def test_occupancy_counts_at_200(self, tmp_path):
        # each count N_k, k <= 4, of the count rows against its exact law
        n = m = 200
        rows = sampled_rows("alloc", {"n": n, "m": m, "max_k": 4}, self.REPS, self.SEED,
                            tmp_path / "counts.bin")
        for k in range(5):
            column = Counter()
            for row, count in rows.items():
                column[row[k]] += count
            assert g_test_pvalue(column, monotone.occupancy_count_law(n, m, k)) >= 1e-4, k

    @pytest.mark.parametrize("p", [Fraction(1, 2), Fraction(1, 4)])
    def test_gnp_count_vectors(self, p, tmp_path):
        # G(n,p) weighs each m-edge graph by p^m (1-p)^(C(n,2)-m), in integers
        # as num^m (den-num)^(C(n,2)-m) for p = num/den
        n, c = 5, 10
        law = Counter()
        for m in range(c + 1):
            weight = p.numerator ** m * (p.denominator - p.numerator) ** (c - m)
            for key, graphs in monotone.gnm_count_law(n, m).items():
                law[key] += graphs * weight
        observed = sampled_rows("gnp", {"n": n, "p": float(p), "max_k": n - 1}, self.REPS,
                                self.SEED, tmp_path / "counts.bin")
        assert g_test_pvalue(observed, law) >= 1e-4

    @pytest.mark.parametrize("n,a", [(4, Fraction(3, 2)), (5, Fraction(1)),
                                     (6, Fraction(1, 2))])
    def test_spacing_exceedances(self, n, a, tmp_path):
        observed = sampled_rows("spacings", {"n": n, "a": float(a)}, self.REPS, self.SEED,
                                tmp_path / "counts.bin")
        assert g_test_pvalue(observed, spacing_exceedance_law(n, a)) >= 1e-4

    @pytest.mark.parametrize("n,m", GNM_SIZES)
    def test_end_vertex_degrees(self, n, m):
        # a vertex meets k of its n - 1 pairs and m - k of the other C(n,2) - (n - 1)
        others = n * (n - 1) // 2 - (n - 1)
        law = {k: math.comb(n - 1, k) * math.comb(others, m - k)
               for k in range(min(n - 1, m) + 1)}
        rng = rng_for(self.SEED)
        ends = np.array([sim.degree_loads(n, m, rng)[[0, n - 1]] for _ in range(self.REPS)])
        for degrees in ends.T:
            assert g_test_pvalue(Counter(degrees.tolist()), law) >= 1e-4

    # G(5, m) with m on both sides of the switch, the rejection draw and the
    # permutation, and 4 balls in 3 boxes (15 multinomial cells)
    @pytest.mark.parametrize("model,n,m", [pytest.param("gnm", 5, 3, id="3"),
                                           pytest.param("gnm", 5, 8, id="8"),
                                           pytest.param("alloc", 3, 4, id="alloc-3-4")])
    def test_labelled_degree_sequences(self, model, n, m):
        # the law of the whole labelled load vector catches a vertex or box
        # bias that the count vectors average away
        outcomes = (combinations(combinations(range(n), 2), m) if model == "gnm"
                    else product(range(n), repeat=m))
        law = Counter(tuple(np.bincount(np.ravel(o), minlength=n).tolist()) for o in outcomes)
        draw = sim.degree_loads if model == "gnm" else sim.allocation_loads
        rng = rng_for(self.SEED)
        observed = Counter(tuple(draw(n, m, rng).tolist()) for _ in range(self.REPS))
        assert g_test_pvalue(observed, law) >= 1e-4


class TestTransientMemory:
    def test_gnm_peak_stays_near_the_edge_draw(self):
        # C(n,2) > 2**32, so the edge draw holds int64 indices.  The peak of
        # the whole call (the indices and their (2, m) endpoints, 3.00 times
        # 8m bytes) stays below 3.25 times m + 2 int64.
        n = m = 10**5
        sim.degree_loads(n, m, rng_for(0))      # warm-up
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            sim.degree_loads(n, m, rng_for(1))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 3.25 * (8 * m + 16), peak


class TestValidate:
    def test_checks_survive_optimize_flag(self):
        # python -O strips assert statements, so the library raises instead
        src = Path(sim.__file__).parent
        asserts = [f"{path.name}:{node.lineno}" for path in sorted(src.glob("*.py"))
                   for node in ast.walk(ast.parse(path.read_text()))
                   if isinstance(node, ast.Assert)]
        assert asserts == []


class TestSpacings:
    def test_exceedance_extremes(self):
        rng = rng_for(1)
        assert sim.spacing_exceedances(10, 10.5, rng) == 0
        assert sim.spacing_exceedances(10, 1e-12, rng) == 10
        # the one gap of a single point is the whole circle
        assert sim.spacing_exceedances(1, 0.5, rng) == 1
        assert sim.spacing_exceedances(1, 1.0, rng) == 0

    def test_exceedance_mean(self):
        # Exact finite-n mean: E N_a = n (1 - a/n)^(n-1) on the circle.
        rng = rng_for(29)
        n, reps, a = 1000, 2000, 1.0
        vals = [sim.spacing_exceedances(n, a, rng) / n for _ in range(reps)]
        target = (1 - a / n) ** (n - 1)
        se = np.std(vals, ddof=1) / math.sqrt(reps)
        assert abs(np.mean(vals) - target) < 4 * se


class TestDeterminism:
    def test_same_seed_same_output(self):
        a = sim.degree_loads(100, 150, rng_for(42))
        b = sim.degree_loads(100, 150, rng_for(42))
        assert np.array_equal(a, b)
        a = sim.allocation_loads(50, 120, rng_for(42))
        b = sim.allocation_loads(50, 120, rng_for(42))
        assert np.array_equal(a, b)


class TestBinaryDump:
    def test_roundtrip(self, tmp_path):
        mat = np.arange(24, dtype=np.int64).reshape(4, 6)
        path = tmp_path / "counts.bin"
        sim.dump_count_matrix(path, mat)
        out = sim.load_count_matrix(path, 6)
        assert np.array_equal(out, mat)
        assert path.stat().st_size == 24 * 8

    def test_bad_shape(self, tmp_path):
        path = tmp_path / "counts.bin"
        sim.dump_count_matrix(path, np.arange(10, dtype=np.int64).reshape(2, 5))
        with pytest.raises(ValueError):
            sim.load_count_matrix(path, 4)
