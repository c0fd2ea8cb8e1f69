"""Exact finite-n samplers: balls in boxes, G(n,p), G(n,m), uniform spacings.

The graph samplers never materialize an adjacency structure; they work with
edge indices into the C(n,2) pairs and keep only the degree array, so n in
the 10^5..10^6 range stays cheap.  The load kernels ``allocation_loads`` and
``degree_loads`` draw the per-box and per-vertex loads; the samplers truncate
their count vectors at a tail bucket while tracking tail occupancy, so the
conservation identities hold exactly on every draw.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import TooManyEdges

DEFAULT_MAX_K = 40


@dataclass(frozen=True)
class OccupancyProfile:
    """Counts of boxes by exact occupancy, with a tail bucket beyond max_k."""

    n: int
    m: int
    counts: np.ndarray          # counts[j] = boxes holding exactly j balls, j=0..max_k
    tail_boxes: int             # boxes with more than max_k balls
    tail_balls: int             # balls sitting in tail boxes

    def validate(self) -> None:
        boxes = int(self.counts.sum()) + self.tail_boxes
        if boxes != self.n:
            raise ValueError(f"sum(counts) + tail_boxes = {boxes} != n = {self.n}")
        ks = np.arange(len(self.counts))
        balls = int((ks * self.counts).sum()) + self.tail_balls
        if balls != self.m:
            raise ValueError(f"sum(j * counts[j]) + tail_balls = {balls} != m = {self.m}")


@dataclass(frozen=True)
class DegreeCounts:
    """Counts of vertices by degree, with a tail bucket beyond max_k."""

    n: int
    m: int
    counts: np.ndarray          # counts[k] = vertices of degree k, k=0..max_k
    tail_vertices: int
    tail_degree_sum: int

    def validate(self) -> None:
        vertices = int(self.counts.sum()) + self.tail_vertices
        if vertices != self.n:
            raise ValueError(f"sum(counts) + tail_vertices = {vertices} != n = {self.n}")
        ks = np.arange(len(self.counts))
        degrees = int((ks * self.counts).sum()) + self.tail_degree_sum
        if degrees != 2 * self.m:
            raise ValueError(f"sum(k * counts[k]) + tail_degree_sum = {degrees} "
                             f"!= 2m = {2 * self.m}")


@dataclass(frozen=True)
class SpacingsSample:
    """The n gaps induced by uniform points on the unit circle."""

    n: int
    s: np.ndarray

    def validate(self) -> None:
        if not np.all(self.s > 0.0):
            raise ValueError(f"min(s) = {self.s.min()} is not > 0")
        err = abs(self.s.sum() - 1.0)
        if not err <= 1e-12:
            raise ValueError(f"|sum(s) - 1| = {err:.3g} > 1e-12")


def _bucket(values: np.ndarray, total_units: int, max_k: int):
    """Split a per-item value array into counts 0..max_k plus tail bookkeeping."""
    counts_full = np.bincount(values, minlength=max_k + 1)
    counts = counts_full[: max_k + 1].copy()
    tail_items = int(counts_full[max_k + 1:].sum())
    ks = np.arange(len(counts))
    tail_units = total_units - int((ks * counts).sum())
    return counts, tail_items, tail_units


def allocation_loads(n: int, m: int, rng: np.random.Generator) -> np.ndarray:
    """Box loads of m balls thrown uniformly and independently into n boxes."""
    return np.bincount(rng.integers(0, n, size=m), minlength=n)   # m = 0 draws nothing


def sample_allocation(n: int, m: int, rng: np.random.Generator,
                      max_k: int = DEFAULT_MAX_K) -> OccupancyProfile:
    """Throw m balls uniformly and independently into n boxes."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if m < 0:
        raise ValueError(f"m must be >= 0, got {m}")
    counts, tail_boxes, tail_balls = _bucket(allocation_loads(n, m, rng), m, max_k)
    return OccupancyProfile(n=n, m=m, counts=counts, tail_boxes=tail_boxes,
                            tail_balls=tail_balls)


def sample_poissonized_allocation(n: int, lam: float, rng: np.random.Generator,
                                  max_k: int = DEFAULT_MAX_K):
    """Poissonized model: i.i.d. Po(lam) balls per box; returns the profile and
    the realized total M ~ Po(lam * n)."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if lam <= 0.0:
        raise ValueError(f"lambda must be positive, got {lam}")
    occ = rng.poisson(lam, size=n)
    m = int(occ.sum())
    counts, tail_boxes, tail_balls = _bucket(occ, m, max_k)
    return OccupancyProfile(n=n, m=m, counts=counts, tail_boxes=tail_boxes,
                            tail_balls=tail_balls), m


def _column(b: int, idx: np.ndarray, i: np.ndarray, j: np.ndarray) -> None:
    """j = idx - row_start(i) + i + 1 = idx - (b-2-i)i/2 + 1, in place."""
    np.subtract(b - 2, i, out=j)
    np.multiply(j, i, out=j)
    np.right_shift(j, 1, out=j)
    np.subtract(idx, j, out=j)
    np.add(j, 1, out=j)


def _decode_pairs(n: int, idx: np.ndarray) -> np.ndarray:
    """Invert the lexicographic enumeration of the C(n,2) vertex pairs.

    With b = 2n-1, row i (pairs (i, i+1..n-1)) starts at row_start(i) =
    i(b-i)/2, so the row of idx is i = floor(b/2 - sqrt(b^2/4 - 2 idx)).  While
    b^2 < 2**53, that is n <= 47,453,133, the float64 evaluation is exact:
    - idx, -2 idx, b^2/4 and their sum, the quarter discriminant, are
      multiples of 1/4 below 2**51, so each is exact;
    - at a row start the discriminant is the perfect square (b/2 - i)^2, whose
      correctly rounded root b/2 - i is exact, so the row start decodes to i;
    - b/2 - sqrt(b^2/4 - 2x) rises by at least 2/b per unit of x, so every
      other idx lies at least 2/b > 2**-25.5 from an integer.  The rounding
      of the root and of the subtraction is at most 2**-28 while the root is
      at least b/4 (the subtraction is then exact), and 1.5 * 2**-28 below
      that, where the gap is about 4/b: more than 5x short of the gap.
    Truncation of the non-negative result is then its floor.  Above the bound
    the discriminant is rounded once from its exact int64 value, and two
    integer passes move i by one row either way where it is off.  Returns the
    (2, len(idx)) int64 endpoint array with rows i and j; the float scratch
    and the row starts live in row j."""
    b = 2 * n - 1
    exact = b * b < 1 << 53
    ends = np.empty((2, len(idx)), dtype=np.int64)
    i, j = ends
    root = j.view(np.float64)              # the quarter discriminant, then its root
    if exact:
        root[...] = idx
        root *= -2.0
        root += b * b / 4
    else:
        np.multiply(idx, -8, out=j)
        j += b * b
        root[...] = j
        root *= 0.25
    np.sqrt(root, out=root)
    np.subtract(b / 2, root, out=root)
    i[...] = root
    _column(b, idx, i, j)
    if not exact:
        off = j <= i                        # row_start(i) > idx: one row too high
        if off.any():
            i -= off
            _column(b, idx, i, j)
        np.greater_equal(j, n, out=off)     # idx >= row_start(i + 1): one row too low
        if off.any():
            i += off
            _column(b, idx, i, j)
    return ends


def _sample_edge_indices(n: int, m: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform m-subset of the C(n,2) edge indices."""
    c = n * (n - 1) // 2
    if m > c:
        raise TooManyEdges(f"m = {m} exceeds C(n,2) = {c}")
    if m == 0:
        return np.empty(0, dtype=np.int64)
    if m > 0.6 * c:
        return rng.permutation(c)[:m].astype(np.int64)
    # Rejection: grow a unique pool, then pick m of it at random.  The whole
    # procedure is equivariant under index permutations, so the result is a
    # uniform m-subset.  Below 2**32 numpy draws int64 and uint32 through the
    # same 32-bit path, so uint32 keeps the stream and halves the sort.
    # shuffle makes the same calls as permutation(pool.size), and is fastest
    # on 8-byte items.  Each pass sorts in place and keeps the first of each run.
    dtype = np.uint32 if c <= 1 << 32 else np.int64
    draw = rng.integers(0, c, size=max(2 * m + 16, 64), dtype=dtype)
    while True:
        draw.sort()
        first = np.empty(draw.size, dtype=bool)
        first[0] = True
        np.not_equal(draw[1:], draw[:-1], out=first[1:])
        pool = draw[first]
        del draw, first                     # freed before the next pass or the widening
        if pool.size >= m:
            break
        draw = np.concatenate([pool, rng.integers(
            0, c, size=max(2 * (m - pool.size) + 16, 64), dtype=dtype)])
    pool = pool.astype(np.int64, copy=False)
    rng.shuffle(pool)
    pool.resize(m, refcheck=False)          # frees the unused tail in place
    return pool


def degree_loads(n: int, m: int, rng: np.random.Generator) -> np.ndarray:
    """Vertex degrees of a uniformly random graph with m edges on n vertices."""
    return np.bincount(_decode_pairs(n, _sample_edge_indices(n, m, rng)).ravel(),
                       minlength=n)


def _degree_counts(n: int, m: int, deg: np.ndarray, max_k: int) -> DegreeCounts:
    counts, tail_vertices, tail_degree_sum = _bucket(deg, 2 * m, max_k)
    return DegreeCounts(n=n, m=m, counts=counts, tail_vertices=tail_vertices,
                        tail_degree_sum=tail_degree_sum)


def sample_gnp(n: int, p: float, rng: np.random.Generator,
               max_k: int = DEFAULT_MAX_K) -> DegreeCounts:
    """G(n, p): each of the C(n,2) edges present independently with probability p.

    Implemented as a binomial edge count followed by a uniform edge subset,
    which is the same law.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must be in [0,1], got {p}")
    m = int(rng.binomial(n * (n - 1) // 2, p))     # no draw when C(n,2) = 0
    return _degree_counts(n, m, degree_loads(n, m, rng), max_k)


def sample_gnm(n: int, m: int, rng: np.random.Generator,
               max_k: int = DEFAULT_MAX_K) -> DegreeCounts:
    """G(n, m): a uniformly random graph with exactly m edges."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if m < 0:
        raise ValueError(f"m must be >= 0, got {m}")
    return _degree_counts(n, m, degree_loads(n, m, rng), max_k)


def sample_spacings(n: int, rng: np.random.Generator) -> SpacingsSample:
    """Spacings of n uniform points on a circle of circumference 1."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if n == 1:
        return SpacingsSample(n=1, s=np.ones(1))
    pts = np.sort(rng.random(n))
    s = np.diff(pts, append=pts[0] + 1.0)
    return SpacingsSample(n=n, s=s)


def exceedance_count(sample: SpacingsSample, a: float) -> int:
    """Number of spacings greater than a/n."""
    if a <= 0.0:
        raise ValueError(f"a must be positive, got {a}")
    return int((sample.s > a / sample.n).sum())


# -- vectorized batch samplers (desk-scale n; used by enumeration-vs-sampler
#    checks where the replicate count is large) --------------------------------

def sample_allocation_batch(n: int, m: int, reps: int, rng: np.random.Generator,
                            max_k: int | None = None) -> np.ndarray:
    """reps independent allocations; returns the (reps, max_k+1) count matrix.

    max_k defaults to m, which makes the rows exhaustive (no tail)."""
    if max_k is None:
        max_k = m
    out = np.empty((reps, max_k + 1), dtype=np.int64)
    chunk = max(1, int(2e7) // max(m, 1))
    for lo in range(0, reps, chunk):
        hi = min(lo + chunk, reps)
        r = hi - lo
        if m == 0:
            occ = np.zeros((r, n), dtype=np.int64)
        else:
            boxes = rng.integers(0, n, size=(r, m))
            offsets = (np.arange(r) * n)[:, None]
            occ = np.bincount((boxes + offsets).ravel(), minlength=r * n).reshape(r, n)
        occ = np.clip(occ, 0, max_k)
        offsets = (np.arange(r) * (max_k + 1))[:, None]
        out[lo:hi] = np.bincount(
            (occ + offsets).ravel(), minlength=r * (max_k + 1)
        ).reshape(r, max_k + 1)
    return out


def sample_gnm_batch(n: int, m: int, reps: int, rng: np.random.Generator) -> np.ndarray:
    """reps independent G(n, m) draws; returns the (reps, n) degree-count matrix.

    Intended for small n (the key matrix is reps x C(n,2))."""
    c = n * (n - 1) // 2
    if m > c:
        raise TooManyEdges(f"m = {m} exceeds C(n,2) = {c}")
    i_all, j_all = _decode_pairs(n, np.arange(c, dtype=np.int64))
    out = np.empty((reps, n), dtype=np.int64)
    chunk = max(1, int(2e7) // max(c, 1))
    for lo in range(0, reps, chunk):
        hi = min(lo + chunk, reps)
        r = hi - lo
        if m == 0:
            deg = np.zeros((r, n), dtype=np.int64)
        else:
            keys = rng.random((r, c))
            chosen = np.argpartition(keys, m - 1, axis=1)[:, :m]
            ends = np.concatenate([i_all[chosen], j_all[chosen]], axis=1)
            offsets = (np.arange(r) * n)[:, None]
            deg = np.bincount((ends + offsets).ravel(), minlength=r * n).reshape(r, n)
        offsets = (np.arange(r) * n)[:, None]
        out[lo:hi] = np.bincount(
            (np.clip(deg, 0, n - 1) + offsets).ravel(), minlength=r * n
        ).reshape(r, n)
    return out


def dump_count_matrix(path, matrix: np.ndarray) -> None:
    """Flat little-endian int64 dump, one row per replicate."""
    np.ascontiguousarray(matrix, dtype="<i8").tofile(path)


def load_count_matrix(path, ncols: int) -> np.ndarray:
    flat = np.fromfile(path, dtype="<i8")
    if ncols <= 0 or flat.size % ncols:
        raise ValueError(f"file size {flat.size} not divisible by ncols={ncols}")
    return flat.reshape(-1, ncols)
