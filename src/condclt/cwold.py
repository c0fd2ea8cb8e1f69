"""Closed-form characteristic-function bench for the one-sided uniqueness question.

Two real, even base characteristic functions with elementary closed forms:
the triangular cf max(0, 1-|t|) (the Polya-type density (1-cos x)/(pi x^2),
which has no finite mean) and its period-2 extension (the lattice law with
mass 1/2 at 0 and 2/(pi^2 (2k+1)^2) at +-(2k+1) pi).  The bivariate node
PAIR(u, v) has cf (t1, t2) -> phi_u(t1+t2) * phi_v(t1-t2), realizing the
sum/difference construction whose two instances agree on the closed first
quadrant yet differ elsewhere.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import CondCltError

DEFAULT_GRID_STEP = 0.015
DEFAULT_GRID_EXTENT = 3.0
MAX_GRID_POINTS = 2001     # per axis of the [-T, T] scan: 5x the default's 401
INDISTINGUISHABLE_TOL = 1e-9


class CharFnExpr(NamedTuple):
    """Expression node: TRIANGULAR / PERIODIC_TRIANGULAR bases or a PAIR."""

    kind: str
    scale: float = 1.0
    u: "CharFnExpr | None" = None
    v: "CharFnExpr | None" = None

    @property
    def arity(self) -> int:
        return 2 if self.kind == "PAIR" else 1


def triangular(scale: float = 1.0) -> CharFnExpr:
    return CharFnExpr(kind="TRIANGULAR", scale=scale)


def periodic_triangular() -> CharFnExpr:
    return CharFnExpr(kind="PERIODIC_TRIANGULAR")


def pair(u: CharFnExpr, v: CharFnExpr) -> CharFnExpr:
    if u.arity != 1 or v.arity != 1:
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


def counterexample_witness(cf_x: CharFnExpr, cf_y: CharFnExpr,
                           h: float = DEFAULT_GRID_STEP,
                           extent: float = DEFAULT_GRID_EXTENT):
    """Point of maximal |phi_X - phi_Y| over [-T, T]^2 minus the first quadrant.

    Raises CondCltError when the scanned maximum is below 1e-9 (the two
    cfs are indistinguishable both on and off the quadrant at grid resolution).
    """
    if h <= 0 or extent <= 0:
        raise ValueError("grid step and extent must be positive")
    ts = np.arange(-extent, extent + h / 2, h)
    t1, t2 = np.meshgrid(ts, ts, indexing="ij")
    diff = np.abs(eval_cf(cf_x, (t1, t2)) - eval_cf(cf_y, (t1, t2)))
    diff[(t1 >= 0.0) & (t2 >= 0.0)] = 0.0
    flat = int(np.argmax(diff))
    i, j = np.unravel_index(flat, diff.shape)
    if diff[i, j] < INDISTINGUISHABLE_TOL:
        raise CondCltError(f"max off-quadrant difference {diff[i, j]:.3e} below "
                           f"{INDISTINGUISHABLE_TOL}")
    return (float(ts[i]), float(ts[j])), float(diff[i, j])


def marginal_difference_along(cf_x: CharFnExpr, cf_y: CharFnExpr, direction,
                              s_max: float = 5.0, h: float = 0.01) -> float:
    """Max |phi_X - phi_Y| along the line s -> s * direction, s in [-s_max, s_max]."""
    c1, c2 = float(direction[0]), float(direction[1])
    if c1 == 0.0 and c2 == 0.0:
        raise ValueError("direction must be nonzero")
    s = np.arange(-s_max, s_max + h / 2, h)
    diff = np.abs(eval_cf(cf_x, (s * c1, s * c2)) - eval_cf(cf_y, (s * c1, s * c2)))
    return float(diff.max())
