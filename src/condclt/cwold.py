"""Closed-form characteristic-function bench for the one-sided uniqueness question.

Two real, even base characteristic functions with elementary closed forms:
the triangular cf max(0, 1-|t|) (the Polya-type density (1-cos x)/(pi x^2),
which has no finite mean) and its period-2 extension (the lattice law with
mass 1/2 at 0 and 2/(pi^2 (2k+1)^2) at +-(2k+1) pi).  The bivariate node
PAIR(u, v) has cf (t1, t2) -> phi_u(t1+t2) * phi_v(t1-t2), realizing the
sum/difference construction whose two instances agree on the closed first
quadrant yet differ elsewhere.

The base cfs are piecewise linear with rational breakpoints, so
``quadrant_decision`` decides equality in ``Fraction`` arithmetic; the float
scans are its reference.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .errors import CondCltError

DEFAULT_GRID_STEP = 0.015
DEFAULT_GRID_EXTENT = 3.0


class CharFnExpr(NamedTuple):
    """Expression node: TRIANGULAR / PERIODIC_TRIANGULAR bases or a PAIR."""

    kind: str
    scale: float = 1.0
    u: "CharFnExpr | None" = None
    v: "CharFnExpr | None" = None


def triangular(scale: float = 1.0) -> CharFnExpr:
    if not 0.0 < scale < math.inf:
        raise CondCltError(f"triangular scale must be positive and finite, got {scale}")
    return CharFnExpr(kind="TRIANGULAR", scale=scale)


def periodic_triangular() -> CharFnExpr:
    return CharFnExpr(kind="PERIODIC_TRIANGULAR")


def pair(u: CharFnExpr, v: CharFnExpr) -> CharFnExpr:
    if "PAIR" in (u.kind, v.kind):
        raise CondCltError("PAIR composes two scalar base cfs")
    return CharFnExpr(kind="PAIR", u=u, v=v)


def canonical_pair():
    """The two laws that agree on the first quadrant but differ off it."""
    x = pair(triangular(), triangular())
    y = pair(triangular(), periodic_triangular())
    return x, y


def _eval_scalar(expr: CharFnExpr, t):
    t = np.asarray(t, dtype=float)
    if expr.kind == "TRIANGULAR":
        return np.maximum(0.0, 1.0 - np.abs(t / expr.scale))
    if expr.kind == "PERIODIC_TRIANGULAR":
        r = np.mod(t + 1.0, 2.0) - 1.0     # reduce to [-1, 1)
        return 1.0 - np.abs(r)
    raise CondCltError(f"{expr.kind} is not a scalar base")


def eval_cf(expr: CharFnExpr, t):
    """Evaluate the cf at t (length-1 array/scalar for bases, length-2 for PAIR).

    Vectorized: for PAIR, t may be a pair of equal-shaped arrays (t1, t2).
    """
    if expr.kind == "PAIR":
        t1, t2 = t
        return _eval_scalar(expr.u, np.asarray(t1, dtype=float) + t2) * \
            _eval_scalar(expr.v, np.asarray(t1, dtype=float) - t2)
    t = np.atleast_1d(np.asarray(t, dtype=float))
    if t.shape == (1,):
        return float(_eval_scalar(expr, t[0]))
    raise CondCltError(f"base cf takes one argument, got shape {t.shape}")


def octant_equality_scan(cf_x: CharFnExpr, cf_y: CharFnExpr,
                         h: float = DEFAULT_GRID_STEP,
                         extent: float = DEFAULT_GRID_EXTENT):
    """Max |phi_X - phi_Y| over a grid on the closed first quadrant [0, T]^2."""
    if h <= 0 or extent <= 0:
        raise ValueError("grid step and extent must be positive")
    ts = np.arange(0.0, extent + h / 2, h)
    t1, t2 = np.meshgrid(ts, ts, indexing="ij")
    diff = np.abs(eval_cf(cf_x, (t1, t2)) - eval_cf(cf_y, (t1, t2)))
    flat = int(np.argmax(diff))
    i, j = np.unravel_index(flat, diff.shape)
    return float(diff[i, j]), (float(ts[i]), float(ts[j]))


def marginal_difference_along(cf_x: CharFnExpr, cf_y: CharFnExpr, direction) -> float:
    """Max |phi_X - phi_Y| along s -> s * direction, on a step-0.01 grid of s in [-5, 5]."""
    c1, c2 = float(direction[0]), float(direction[1])
    if c1 == 0.0 and c2 == 0.0:
        raise ValueError("direction must be nonzero")
    s = np.arange(-5.0, 5.0 + 0.01 / 2, 0.01)
    diff = np.abs(eval_cf(cf_x, (s * c1, s * c2)) - eval_cf(cf_y, (s * c1, s * c2)))
    return float(diff.max())


def _exact_scalar(expr: CharFnExpr, t: Fraction) -> Fraction:
    if expr.kind == "TRIANGULAR":
        return max(Fraction(0), 1 - abs(t) / Fraction(expr.scale))
    return 1 - abs((t + 1) % 2 - 1)


def exact_difference(cf_x: CharFnExpr, cf_y: CharFnExpr, t1: Fraction,
                     t2: Fraction) -> Fraction:
    """phi_X(t1, t2) - phi_Y(t1, t2) of two PAIR cfs, exactly."""
    return (_exact_scalar(cf_x.u, t1 + t2) * _exact_scalar(cf_x.v, t1 - t2)
            - _exact_scalar(cf_y.u, t1 + t2) * _exact_scalar(cf_y.v, t1 - t2))


def _breaks(bases, lo: Fraction, hi: Fraction) -> list[Fraction]:
    """lo, hi, 0 and every breakpoint of the base cfs between them, sorted."""
    points = {lo, hi, Fraction(0)}
    for b in bases:
        if b.kind == "TRIANGULAR":
            points |= {-Fraction(b.scale), Fraction(b.scale)}
        else:
            points |= set(map(Fraction, range(math.floor(lo), math.ceil(hi) + 1)))
    return sorted(x for x in points if lo <= x <= hi)


def _wedge_corners(s_grid: list[Fraction], d_grid: list[Fraction]):
    """For each grid cell that meets the open wedge |d| < s, the corners of a
    sub-rectangle of that part, all in the closed wedge."""
    for s0, s1 in zip(s_grid, s_grid[1:]):
        for d0, d1 in zip(d_grid, d_grid[1:]):
            low = min(abs(d0), abs(d1))     # 0 is a breakpoint, so |d| >= low on the cell
            if low < s1:
                mid = (low + s1) / 2        # |d| <= mid <= s on the sub-rectangle
                for s in (max(s0, mid), s1):
                    for d in (max(d0, -mid), min(d1, mid)):
                        yield s, d


def quadrant_decision(cf_x: CharFnExpr, cf_y: CharFnExpr):
    """Decide phi_X = phi_Y on the closed first quadrant, exactly.

    In s = t1 + t2, d = t1 - t2, f = phi_X - phi_Y is bilinear on each cell of
    the breakpoint grid, so it vanishes on a cell's part of the quadrant
    |d| <= s iff it does at the corners of a sub-rectangle there.  The sum
    factors vanish from s = top on; off the quadrant the difference factors
    repeat with period 2 past their triangular scales.

    Returns (quadrant, off), each ((t1, t2), f) in Fractions or None: a
    quadrant point with f != 0, and the grid point off the quadrant with the
    largest |f|.  With f = 0 on the quadrant, that is max |f| over the plane.
    """
    if (cf_x.kind != "PAIR" or cf_y.kind != "PAIR"
            or "PERIODIC_TRIANGULAR" in (cf_x.u.kind, cf_y.u.kind)):
        raise CondCltError("the decision takes two PAIR cfs with triangular sum factors")
    top = max(Fraction(cf_x.u.scale), Fraction(cf_y.u.scale))
    sums, diffs = (cf_x.u, cf_y.u), (cf_x.v, cf_y.v)

    def point(s, d):
        t1, t2 = (s + d) / 2, (s - d) / 2
        return (t1, t2), exact_difference(cf_x, cf_y, t1, t2)

    # Past the largest triangular difference scale D the difference factors
    # are 0 or of period 2, so f(s, d) = f(s, d -+ 2) wherever |d| > D + 2: the
    # wedge needs |d| <= D + 2 only, and off it s < |d| <= max(s, D) + 2.
    reach = max([Fraction(b.scale) for b in diffs if b.kind == "TRIANGULAR"],
                default=Fraction(0)) + 2
    s_grid, d_grid = _breaks(sums, Fraction(0), top), _breaks(diffs, -reach, reach)
    corners = (point(s, d) for s, d in _wedge_corners(s_grid, d_grid))
    quadrant = next((c for c in corners if c[1]), None)

    def off_grid(s):
        if s <= reach - 2:
            return d_grid[::-1]
        band = _breaks(diffs, s, s + 2)
        return sorted({*band, *(-d for d in band)}, reverse=True)

    # d descending, so that of two mirror points the one with t1 > t2 comes first
    off = max((point(s, d) for s in _breaks(sums, -top, top) for d in off_grid(s)
               if abs(d) > s), key=lambda c: abs(c[1]))
    return quadrant, off if off[1] else None
