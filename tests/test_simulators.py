import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from condclt import monotone, simulators as sim
from condclt.errors import TooManyEdges


def rng_for(seed=0):
    return np.random.default_rng(seed)


class TestSampleAllocation:
    def test_no_balls(self):
        prof = sim.sample_allocation(5, 0, rng_for())
        prof.validate()
        assert prof.counts[0] == 5 and prof.counts[1:].sum() == 0

    def test_single_box(self):
        prof = sim.sample_allocation(1, 7, rng_for())
        prof.validate()
        assert prof.counts[7] == 1

    def test_single_box_tail(self):
        prof = sim.sample_allocation(1, 50, rng_for(), max_k=40)
        prof.validate()
        assert prof.tail_boxes == 1 and prof.tail_balls == 50

    def test_exact_collision_probability(self):
        # n=3, m=2: both balls in one box with probability 1/3.
        reps = 200_000
        counts = sim.sample_allocation_batch(3, 2, reps, rng_for(11))
        p_hat = (counts[:, 0] == 2).mean()
        se = math.sqrt((1 / 3) * (2 / 3) / reps)
        assert abs(p_hat - 1 / 3) < 4 * se

    def test_conservation_every_draw(self):
        rng = rng_for(5)
        for _ in range(50):
            n = int(rng.integers(1, 50))
            m = int(rng.integers(0, 200))
            sim.sample_allocation(n, m, rng, max_k=3).validate()


class TestPoissonizedAllocation:
    def test_total_mean(self):
        rng = rng_for(3)
        totals = [sim.sample_poissonized_allocation(100, 2.0, rng)[1]
                  for _ in range(10_000)]
        mean = np.mean(totals)
        se = math.sqrt(200 / 10_000)
        assert abs(mean - 200.0) < 4 * se

    def test_conditional_matches_fixed_count(self):
        # Among poissonized draws with M = 2 at n = 3, the empty-box count has
        # the fixed-count law P(Z0=2) = 1/3.
        rng = rng_for(9)
        hits = []
        for _ in range(200_000):
            prof, m = sim.sample_poissonized_allocation(3, 0.7, rng, max_k=10)
            if m == 2:
                hits.append(prof.counts[0] == 2)
        p_hat = np.mean(hits)
        se = math.sqrt((1 / 3) * (2 / 3) / len(hits))
        assert len(hits) > 10_000
        assert abs(p_hat - 1 / 3) < 4 * se

    def test_tiny_lambda(self):
        prof, m = sim.sample_poissonized_allocation(10, 1e-12, rng_for())
        assert m == 0
        assert prof.counts[0] == 10


class TestSampleGnp:
    def test_empty_graph(self):
        dc = sim.sample_gnp(10, 0.0, rng_for())
        dc.validate()
        assert dc.counts[0] == 10 and dc.m == 0

    def test_complete_graph(self):
        dc = sim.sample_gnp(4, 1.0, rng_for())
        dc.validate()
        assert dc.counts[3] == 4 and dc.m == 6

    def test_triangle_probability(self):
        # n=3, p=1/2: the triangle (N2 = 3) has probability 1/8.
        rng = rng_for(17)
        reps = 50_000
        hits = sum(sim.sample_gnp(3, 0.5, rng).counts[2] == 3 for _ in range(reps))
        se = math.sqrt(0.125 * 0.875 / reps)
        assert abs(hits / reps - 0.125) < 4 * se

    def test_conditioning_bridge(self):
        # G(n,p) draws conditioned on their edge count match the exact G(n,m)
        # law, here at n=4, m=3 on the isolated-vertex indicator.
        law = monotone.gnm_count_law(4, 3)
        p_exact = float(sum(w for key, w in law.items() if key[0] >= 1))
        rng = rng_for(23)
        hits, total = 0, 0
        for _ in range(80_000):
            dc = sim.sample_gnp(4, 0.5, rng)
            if dc.m == 3:
                total += 1
                hits += int(dc.counts[0] >= 1)
        se = math.sqrt(p_exact * (1 - p_exact) / total)
        assert total > 10_000
        assert abs(hits / total - p_exact) < 4 * se


class TestSampleGnm:
    def test_forced_triangle(self):
        dc = sim.sample_gnm(3, 3, rng_for())
        dc.validate()
        assert dc.counts[2] == 3

    def test_zero_edges(self):
        dc = sim.sample_gnm(8, 0, rng_for())
        assert dc.counts[0] == 8

    def test_too_many_edges(self):
        with pytest.raises(TooManyEdges):
            sim.sample_gnm(3, 4, rng_for())

    def test_exact_means_against_enumeration(self):
        counts = monotone.enumerate_gnm_degree_counts(4, 3)
        exact_mean, _ = monotone.exact_moments(counts)
        reps = 200_000
        sampled = sim.sample_gnm_batch(4, 3, reps, rng_for(31))
        for k in range(4):
            se = sampled[:, k].std(ddof=1) / math.sqrt(reps)
            assert abs(sampled[:, k].mean() - exact_mean[k]) < 4 * se

    def test_edge_conservation_exact(self):
        rng = rng_for(2)
        for _ in range(30):
            n = int(rng.integers(2, 40))
            m = int(rng.integers(0, n * (n - 1) // 2 + 1))
            dc = sim.sample_gnm(n, m, rng, max_k=2)
            dc.validate()
            ks = np.arange(len(dc.counts))
            assert (ks * dc.counts).sum() + dc.tail_degree_sum == 2 * m

    def test_dense_regime(self):
        dc = sim.sample_gnm(6, 14, rng_for(4))
        dc.validate()


def _reference_edge_indices(n, m, rng):
    """The np.unique formulation of the edge draw: the rejection branch of
    sim._sample_edge_indices must reproduce it byte for byte, rng state
    included.  Returns the indices and the number of pool passes."""
    c = n * (n - 1) // 2
    if m > 0.6 * c:
        return rng.permutation(c)[:m].astype(np.int64), 0
    pool = np.empty(0, dtype=np.int64)
    passes = 0
    while pool.size < m:
        draw = rng.integers(0, c, size=max(2 * (m - pool.size) + 16, 64))
        pool = np.unique(np.concatenate([pool, draw]))
        passes += 1
    return pool[rng.permutation(pool.size)[:m]], passes


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


def _reference_degree_counts(n, m, idx, max_k):
    """Decode, concatenate, bincount and bucket, as the degree path did before
    it decoded into one endpoint buffer; returns the three DegreeCounts
    fields it must reproduce."""
    i, j = _reference_decode_pairs(n, idx)
    deg = np.bincount(np.concatenate([i, j]), minlength=n)
    counts_full = np.bincount(deg, minlength=max_k + 1)
    counts = counts_full[: max_k + 1]
    tail_degree_sum = 2 * m - int((np.arange(max_k + 1) * counts).sum())
    return counts, int(counts_full[max_k + 1:].sum()), tail_degree_sum


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

    # At n = 10, m = 27 = 0.6 C(10,2), the first pass of 70 draws yields fewer
    # than 27 distinct indices only rarely; these seeds are such draws.
    @pytest.mark.parametrize("seed", [43539, 219043, 865137])
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
    # before each row start decodes one row too high before it.
    @pytest.mark.parametrize("n", [10**6, 3 * 10**6, 47_453_133, 47_453_134, 10**9])
    def test_round_trip_large_n(self, n):
        idx = _boundary_indices(n)
        ends = sim._decode_pairs(n, idx)
        assert ends.dtype == np.int64 and ends.shape == (2, len(idx))
        i, j = ends
        assert np.all((0 <= i) & (i < j) & (j < n))
        assert np.array_equal(_row_start(n, i) + (j - i - 1), idx)
        assert ends.tobytes() == np.concatenate(_reference_decode_pairs(n, idx)).tobytes()


def _assert_same_degree_path(dc, rng, ref, ref_rng):
    counts, tail_vertices, tail_degree_sum = ref
    assert dc.counts.dtype == counts.dtype
    assert dc.counts.tobytes() == counts.tobytes()
    assert (dc.tail_vertices, dc.tail_degree_sum) == (tail_vertices, tail_degree_sum)
    assert rng.integers(0, 2**62) == ref_rng.integers(0, 2**62)


class TestDegreePath:
    """sample_gnm and sample_gnp against the reference edge draw followed by
    the reference degree path, rng state included."""

    @staticmethod
    def check_gnm(n, m, seed, max_k=3):
        rng, ref_rng = rng_for(seed), rng_for(seed)
        dc = sim.sample_gnm(n, m, rng, max_k=max_k)
        idx, passes = _reference_edge_indices(n, m, ref_rng)
        _assert_same_degree_path(dc, rng, _reference_degree_counts(n, m, idx, max_k),
                                 ref_rng)
        return passes

    @staticmethod
    def check_gnp(n, p, seed, max_k=3):
        rng, ref_rng = rng_for(seed), rng_for(seed)
        dc = sim.sample_gnp(n, p, rng, max_k=max_k)
        m = int(ref_rng.binomial(n * (n - 1) // 2, p))
        idx, _ = _reference_edge_indices(n, m, ref_rng)
        assert dc.m == m
        _assert_same_degree_path(dc, rng, _reference_degree_counts(n, m, idx, max_k),
                                 ref_rng)

    @pytest.mark.parametrize("n,m", [(2000, 2000), (50, 700), (6, 14), (2, 1),
                                     (92682, 50), (92683, 50)])
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 7])
    def test_matches_reference(self, n, m, seed):
        self.check_gnm(n, m, seed)
        self.check_gnp(n, m / (n * (n - 1) // 2), seed)

    @pytest.mark.parametrize("seed", [43539, 219043, 865137])
    def test_matches_reference_over_several_passes(self, seed):
        assert self.check_gnm(10, 27, seed) >= 2

    def test_matches_reference_at_1e5(self):
        self.check_gnm(10**5, 10**5, 11)
        self.check_gnp(10**5, 2e-5, 11)


def _reference_bucket(values, total_units, max_k):
    """Counts 0..max_k of a per-item value array, the items beyond max_k and
    the units they hold: the public samplers' profile fields."""
    counts_full = np.bincount(values, minlength=max_k + 1)
    counts = counts_full[: max_k + 1].copy()
    tail_units = total_units - int((np.arange(max_k + 1) * counts).sum())
    return counts, int(counts_full[max_k + 1:].sum()), tail_units


class TestLoadKernels:
    """The load kernels against a draw and a count written out longhand, rng
    state included."""

    @pytest.mark.parametrize("n,m", [(10_000, 10_000), (5, 200), (7, 0), (1, 9)])
    def test_allocation_loads(self, n, m):
        rng, ref_rng = rng_for(3), rng_for(3)
        loads = sim.allocation_loads(n, m, rng)
        ref = np.zeros(n, dtype=np.int64)
        for box in ref_rng.integers(0, n, size=m).tolist():
            ref[box] += 1
        assert loads.dtype == ref.dtype and loads.tobytes() == ref.tobytes()
        assert rng.integers(0, 2**62) == ref_rng.integers(0, 2**62)

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
    """sample_allocation, sample_gnm and sample_gnp against the reference draw
    followed by the reference bucketing: counts, tail fields and next draw."""

    @staticmethod
    def check(profile, tail_fields, rng, ref, ref_rng):
        counts, tail_items, tail_units = ref
        assert profile.counts.dtype == counts.dtype
        assert profile.counts.tobytes() == counts.tobytes()
        assert tail_fields == (tail_items, tail_units)
        assert rng.integers(0, 2**62) == ref_rng.integers(0, 2**62)
        profile.validate()

    @pytest.mark.parametrize("n,m,max_k", [(10_000, 10_000, 5), (5, 200, 2), (7, 0, 3),
                                           (1, 50, 40), (30, 40, 0)])
    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_allocation(self, n, m, max_k, seed):
        rng, ref_rng = rng_for(seed), rng_for(seed)
        prof = sim.sample_allocation(n, m, rng, max_k=max_k)
        occ = np.bincount(ref_rng.integers(0, n, size=m), minlength=n)
        self.check(prof, (prof.tail_boxes, prof.tail_balls), rng,
                   _reference_bucket(occ, m, max_k), ref_rng)

    # TestDegreePath covers max_k = 3 on most sizes; these are the edge cases.
    @pytest.mark.parametrize("n,m,max_k", [(200, 300, 0), (30, 100, 2), (4, 0, 3)])
    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_gnm(self, n, m, max_k, seed):
        rng, ref_rng = rng_for(seed), rng_for(seed)
        dc = sim.sample_gnm(n, m, rng, max_k=max_k)
        idx, _ = _reference_edge_indices(n, m, ref_rng)
        self.check(dc, (dc.tail_vertices, dc.tail_degree_sum), rng,
                   _reference_degree_counts(n, m, idx, max_k), ref_rng)

    @pytest.mark.parametrize("n,p,max_k", [(50, 1e-4, 3), (1, 0.5, 2), (30, 0.2, 2)])
    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_gnp(self, n, p, max_k, seed):
        rng, ref_rng = rng_for(seed), rng_for(seed)
        dc = sim.sample_gnp(n, p, rng, max_k=max_k)
        c = n * (n - 1) // 2
        m = int(ref_rng.binomial(c, p)) if c > 0 else 0
        assert dc.m == m
        idx, _ = _reference_edge_indices(n, m, ref_rng)
        self.check(dc, (dc.tail_vertices, dc.tail_degree_sum), rng,
                   _reference_degree_counts(n, m, idx, max_k), ref_rng)


class TestTransientMemory:
    def test_gnm_peak_stays_near_the_edge_draw(self):
        # The rejection pass draws 2m + 16 int64 indices (C(n,2) > 2**32); the
        # peak of the whole call, that draw included, stays below 2.75 times it.
        n = m = 10**5
        sim.sample_gnm(n, m, rng_for(0))        # warm-up
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            sim.sample_gnm(n, m, rng_for(1))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2.75 * (16 * m + 128), peak


class TestValidate:
    def test_checks_survive_optimize_flag(self):
        src = os.path.dirname(os.path.dirname(sim.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        code = ("import numpy as np\n"
                "from condclt.simulators import (DegreeCounts, OccupancyProfile,\n"
                "                                SpacingsSample)\n"
                "bad = [OccupancyProfile(5, 2, np.array([3, 2]), 1, 0),\n"
                "       OccupancyProfile(5, 3, np.array([3, 2]), 0, 0),\n"
                "       DegreeCounts(4, 1, np.array([2, 2]), 1, 0),\n"
                "       DegreeCounts(4, 2, np.array([2, 2]), 0, 0),\n"
                "       SpacingsSample(2, np.array([1.0, 0.0])),\n"
                "       SpacingsSample(2, np.array([0.5, 0.6]))]\n"
                "for sample in bad:\n"
                "    try:\n"
                "        sample.validate()\n"
                "    except ValueError:\n"
                "        continue\n"
                "    raise SystemExit(1)\n")
        out = subprocess.run([sys.executable, "-O", "-c", code], env=env, timeout=120)
        assert out.returncode == 0

    def test_occupancy_box_count(self):
        prof = sim.OccupancyProfile(n=5, m=2, counts=np.array([3, 2]),
                                    tail_boxes=1, tail_balls=0)
        with pytest.raises(ValueError, match="tail_boxes"):
            prof.validate()

    def test_occupancy_ball_count(self):
        prof = sim.OccupancyProfile(n=5, m=3, counts=np.array([3, 2]),
                                    tail_boxes=0, tail_balls=0)
        with pytest.raises(ValueError, match="tail_balls"):
            prof.validate()

    def test_degree_vertex_count(self):
        dc = sim.DegreeCounts(n=4, m=1, counts=np.array([2, 2]),
                              tail_vertices=1, tail_degree_sum=0)
        with pytest.raises(ValueError, match="tail_vertices"):
            dc.validate()

    def test_degree_sum(self):
        dc = sim.DegreeCounts(n=4, m=2, counts=np.array([2, 2]),
                              tail_vertices=0, tail_degree_sum=0)
        with pytest.raises(ValueError, match="2m"):
            dc.validate()

    def test_spacings_nonpositive(self):
        with pytest.raises(ValueError, match="min"):
            sim.SpacingsSample(n=2, s=np.array([1.0, 0.0])).validate()

    def test_spacings_sum(self):
        with pytest.raises(ValueError, match="sum"):
            sim.SpacingsSample(n=2, s=np.array([0.5, 0.6])).validate()


class TestSpacings:
    def test_single_spacing(self):
        s = sim.sample_spacings(1, rng_for())
        assert s.s[0] == 1.0

    def test_sum_exact(self):
        rng = rng_for(8)
        for n in [2, 10, 1000]:
            sample = sim.sample_spacings(n, rng)
            sample.validate()

    def test_min_spacing_mean_n2(self):
        # E min(D, 1-D) = 1/4 for uniform D.
        rng = rng_for(21)
        reps = 20_000
        mins = [sim.sample_spacings(2, rng).s.min() for _ in range(reps)]
        se = np.std(mins, ddof=1) / math.sqrt(reps)
        assert abs(np.mean(mins) - 0.25) < 4 * se

    def test_exceedance_extremes(self):
        sample = sim.sample_spacings(10, rng_for(1))
        assert sim.exceedance_count(sample, 10.5) == 0
        assert sim.exceedance_count(sample, 1e-12) == 10

    def test_exceedance_mean(self):
        # Exact finite-n mean: E N_a = n (1 - a/n)^(n-1) on the circle.
        rng = rng_for(29)
        n, reps, a = 1000, 2000, 1.0
        vals = [sim.exceedance_count(sim.sample_spacings(n, rng), a) / n
                for _ in range(reps)]
        target = (1 - a / n) ** (n - 1)
        se = np.std(vals, ddof=1) / math.sqrt(reps)
        assert abs(np.mean(vals) - target) < 4 * se


class TestDeterminism:
    def test_same_seed_same_output(self):
        a = sim.sample_gnm(100, 150, rng_for(42)).counts
        b = sim.sample_gnm(100, 150, rng_for(42)).counts
        assert np.array_equal(a, b)
        a = sim.sample_allocation(50, 120, rng_for(42)).counts
        b = sim.sample_allocation(50, 120, rng_for(42)).counts
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
