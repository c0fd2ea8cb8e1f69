"""Closed-form characteristic-function bench for the one-sided uniqueness question.

Two real, even base characteristic functions with elementary closed forms:
the triangular cf max(0, 1-|t|) (the Polya-type density (1-cos x)/(pi x^2),
which has no finite mean) and its period-2 extension (the lattice law with
mass 1/2 at 0 and 2/(pi^2 (2k+1)^2) at +-(2k+1) pi).  The bivariate node
PAIR(u, v) has cf (t1, t2) -> phi_u(t1+t2) * phi_v(t1-t2), realizing the
sum/difference construction whose two instances agree on the closed first
quadrant yet differ elsewhere.

The base cfs are piecewise linear with rational breakpoints, so
``quadrant_decision`` decides equality in ``Fraction`` arithmetic for pairs
that share a factor; the float scans are its reference.
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


def _probes(bases, hi: Fraction) -> list[Fraction]:
    """0, hi, the breakpoints of the even bases between them and the midpoints of
    neighbours, sorted: where a function linear between breakpoints is decided."""
    points = {Fraction(0), Fraction(hi)}
    for b in bases:
        if b.kind == "TRIANGULAR":
            points.add(Fraction(b.scale))
        else:
            points |= set(map(Fraction, range(math.ceil(hi) + 1)))
    grid = sorted(x for x in points if x <= hi)
    return sorted({*grid, *((p + q) / 2 for p, q in zip(grid, grid[1:]))})


def quadrant_decision(cf_x: CharFnExpr, cf_y: CharFnExpr):
    """Decide phi_X = phi_Y on the closed first quadrant, exactly, for two PAIR
    cfs with triangular sum factors that share their sum or difference factor.

    In s = t1 + t2, d = t1 - t2 the quadrant is |d| <= s, and f = phi_X - phi_Y
    is the shared factor times g, the difference of the other two: an even
    function of one variable, linear between breakpoints.
    - Shared sum factor u of scale a: f = u(s) g(d).  On the quadrant u > 0
      where s < a, so f = 0 there iff g = 0 on [0, a); probe x at (t1, t2) =
      (x, 0), where s = d = x.  Off it |u| <= u(0) = 1: |f| peaks at
      (x/2, -x/2).  Past the largest triangular difference scale D, g is 0 or
      of period 2, so x <= D + 2 decides both.
    - Shared difference factor v: f = v(d) g(s) and |v| <= v(0) = 1.  The
      line d = 0 is on the quadrant for s >= 0 and off it for s < 0, so probe
      (x/2, x/2) and (-x/2, -x/2), x up to the larger scale.

    Returns (quadrant, off), each ((t1, t2), f) in Fractions or None: a
    quadrant point with f != 0, and the farthest probe off the quadrant with
    the largest |f|.  With f = 0 on the quadrant, that is max |f| over the plane.
    """
    if (cf_x.kind != "PAIR" or cf_y.kind != "PAIR"
            or "PERIODIC_TRIANGULAR" in (cf_x.u.kind, cf_y.u.kind)):
        raise CondCltError("the decision takes two PAIR cfs with triangular sum factors")

    sums, diffs = (cf_x.u, cf_y.u), (cf_x.v, cf_y.v)
    if sums[0] == sums[1]:
        a = Fraction(sums[0].scale)
        reach = 2 + max([Fraction(b.scale) for b in diffs if b.kind == "TRIANGULAR"], default=0)
        xs = _probes((sums[0], *diffs), reach)      # a is a breakpoint where a <= reach
        inside = [(x, Fraction(0)) for x in xs if x < a]
        outside = [(x / 2, -x / 2) for x in xs[1:]]
    elif diffs[0] == diffs[1]:
        xs = _probes(sums, max(Fraction(b.scale) for b in sums))
        inside = [(x / 2, x / 2) for x in xs]
        outside = [(-x / 2, -x / 2) for x in xs[1:]]
    else:
        raise CondCltError("the decision takes two PAIR cfs that share a factor")
    quadrant = next(((t, f) for t in inside if (f := exact_difference(cf_x, cf_y, *t))), None)
    off = max(((t, exact_difference(cf_x, cf_y, *t)) for t in reversed(outside)),
              key=lambda c: abs(c[1]))
    return quadrant, off if off[1] else None
