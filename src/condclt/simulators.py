"""Exact finite-n samplers: balls in boxes, G(n,p), G(n,m), uniform spacings.

The graph samplers never materialize an adjacency structure; they work with
edge indices into the C(n,2) pairs and keep only the degree array, so n in
the 10^5..10^6 range stays cheap.  One sampler per model draws a replicate:
the load kernels ``allocation_loads`` and ``degree_loads`` return the n box
loads or vertex degrees, which sum to m or 2m on every draw, and
``spacing_exceedances`` counts the circular uniform spacings above a/n.
``mc_engine.check_params`` checks their parameters for every experiment; the
edge draw also rejects m > C(n,2) from a direct caller.

The allocation boxes come from ``_uniform_below``, a vectorized form of the
Lemire draw behind ``rng.integers(0, n, size=m)`` that reproduces it word for
word, the generator's buffered 32-bit half included.  It falls back to
``rng.integers`` for a bit generator other than PCG64, a generator that holds
a buffered word, n outside (1, 2**32] and m = 0.  The edge draw keeps
``rng.integers``: 2**32 mod C(n,2) is large for edge ranges (1,115,296 at
n = 2000), so about 41 % of the n = m = 2000 draws reject a word and pay for
a second round, which made that draw slower, not faster.
"""

from __future__ import annotations

import numpy as np

from .errors import CondCltError


def _uniform_below(high: int, size: int, rng: np.random.Generator) -> np.ndarray:
    """rng.integers(0, high, size=size), value for value and state for state.

    For 1 < high <= 2**32 numpy's int64 draw is Lemire's multiply-shift on
    32-bit words (Lemire 2019): a PCG64 output gives its low half, then its
    high half, which the bit generator buffers; word w maps to w high >> 32,
    and numpy draws again while the low product word w high mod 2**32 is
    below 2**32 mod high.  This is the same map, vectorized over words from
    random_raw, with the buffer set when one high half is left unread.  Other
    bit generators, a generator that holds a buffered word, high outside
    (1, 2**32] and size 0 take rng.integers itself."""
    bitgen = rng.bit_generator
    if (not 1 < high <= 1 << 32 or size <= 0 or type(bitgen) is not np.random.PCG64
            or bitgen.state["has_uint32"]):
        return rng.integers(0, high, size=size)
    threshold = (1 << 32) % int(high)              # 2**32 overflows a numpy int32 high
    parts, need = [], size
    while True:
        # every value takes at least one word, so numpy reads all the words of
        # ceil(need / 2) outputs but perhaps the last; the little-endian views
        # put each low half first on any host
        words = bitgen.random_raw((need + 1) // 2).astype("<u8", copy=False).view("<u4")
        ok = None
        if threshold:
            low = words * np.uint32(high)           # w high mod 2**32
            if low.min() < threshold:
                ok = low >= threshold
        prod = (words if ok is None else words[ok]).astype(np.uint64)
        prod *= np.uint64(high)
        prod >>= np.uint64(32)
        if len(prod) < need:
            parts.append(prod)
            need -= len(prod)
            continue
        # with need odd and no word but perhaps the last rejected, the need-th
        # value is the last low half, and numpy leaves its high half buffered
        if need % 2 and (ok is None or ok[:-1].all()):
            state = bitgen.state
            state.update(has_uint32=1, uinteger=int(words[-1]))
            bitgen.state = state
        parts.append(prod[:need])
        return (parts[0] if len(parts) == 1 else np.concatenate(parts)).view(np.int64)


def allocation_loads(n: int, m: int, rng: np.random.Generator) -> np.ndarray:
    """Box loads of m balls thrown uniformly and independently into n boxes."""
    return np.bincount(_uniform_below(n, m, rng), minlength=n)   # m = 0 draws nothing


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
    the discriminant is rounded once from its exact int64 value, and one
    integer pass moves i down a row where it is one row too high.  It is never
    too low: at a row start the float root of (b - 2i)^2 / 4 is still exactly
    (b - 2i) / 2, since (b - 2i)^2 rounds by at most 2**-53 relative, which
    moves its root by less than half a unit in the last place of (b - 2i) / 2;
    and every later step (int to float, times 1/4, sqrt, subtraction,
    truncation) is monotone, so an idx past a row start decodes to that row
    or above.  Returns the (2, len(idx)) int64 endpoint array with rows i and
    j; the float scratch and the row starts live in row j."""
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
    return ends


def _sample_edge_indices(n: int, m: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform m-subset of the C(n,2) edge indices.

    Dense (m > 0.6 C(n,2)): the first m of a random permutation.  Otherwise
    grow a pool of at least m distinct indices from uniform draws, then drop
    a uniform random subset of its ranks.  Given its size, the pool is a
    uniform subset of the C(n,2) indices, since the procedure is equivariant
    under index permutations; dropping a uniform subset of its ranks with
    fresh randomness therefore leaves a uniform m-subset.  The kept indices
    come out sorted."""
    c = n * (n - 1) // 2
    if m > c:
        raise CondCltError(f"m = {m} exceeds C(n,2) = {c}")
    if m == 0:
        return np.empty(0, dtype=np.int64)
    if m > 0.6 * c:
        return rng.permutation(c)[:m].astype(np.int64)
    # The slack is about twice the m^2/2c duplicates expected among m draws,
    # so one pass is the rule.  Below 2**32 numpy draws int64 and uint32
    # through the same 32-bit path, so uint32 keeps the stream and halves the
    # sort.  Each pass sorts in place and keeps the first of each run.
    dtype = np.uint32 if c <= 1 << 32 else np.int64
    slack = 16 + m * m // c
    draw = rng.integers(0, c, size=m + slack, dtype=dtype)
    while True:
        draw.sort()
        first = np.empty(draw.size, dtype=bool)
        first[0] = True
        np.not_equal(draw[1:], draw[:-1], out=first[1:])
        pool = draw[first]
        del draw, first                     # freed before the next pass or the drop
        if pool.size >= m:
            break
        draw = np.concatenate([pool, rng.integers(0, c, size=m - pool.size + slack,
                                                  dtype=dtype)])
    if pool.size > m:
        keep = np.ones(pool.size, dtype=bool)
        keep[rng.choice(pool.size, pool.size - m, replace=False)] = False
        pool = pool[keep]
    return pool.astype(np.int64, copy=False)


def degree_loads(n: int, m: int, rng: np.random.Generator) -> np.ndarray:
    """Vertex degrees of a uniformly random graph with m edges on n vertices."""
    return np.bincount(_decode_pairs(n, _sample_edge_indices(n, m, rng)).ravel(),
                       minlength=n)


def spacing_exceedances(n: int, a: float, rng: np.random.Generator) -> int:
    """Number of the n gaps between n uniform points on a circle of
    circumference 1 that are greater than a/n.

    The gaps are E_i / sum(E) for n iid Exp(1) variables E_i (Pyke 1965), so
    a gap exceeds a/n exactly when E_i > a sum(E)/n: no sort is needed."""
    e = rng.standard_exponential(n)
    return int(np.count_nonzero(e > a * e.sum() / n))


def dump_count_matrix(path, matrix: np.ndarray) -> None:
    """Flat little-endian int64 dump, one row per replicate."""
    np.ascontiguousarray(matrix, dtype="<i8").tofile(path)


def load_count_matrix(path, ncols: int) -> np.ndarray:
    flat = np.fromfile(path, dtype="<i8")
    if ncols <= 0 or flat.size % ncols:
        raise ValueError(f"file size {flat.size} not divisible by ncols={ncols}")
    return flat.reshape(-1, ncols)
