"""Exact conditioning of a Gaussian covariance on its last coordinate.

Conditioning a jointly Gaussian (X, Y), Y scalar, on Y leaves X with the
Schur complement Cov(X) - Cov(X, Y) Cov(Y, X) / Var(Y) as its covariance,
whatever value Y is fixed at.
"""

from __future__ import annotations

import numpy as np

from .errors import CondCltError

# Numerical gates on the joint and the result.
SYMMETRY_RTOL = 1e-12
PSD_EIG_FLOOR = -1e-10          # relative to the trace of Cov(X)


def schur_complement(cov) -> np.ndarray:
    """Covariance of X given Y, where Y is the last coordinate of a joint
    covariance matrix cov and X the others: Cov(X) - Cov(X, Y) Cov(Y, X) / Var(Y).

    The joint must be finite and symmetric, and Var(Y) positive.  The result
    must clear the PSD floor, relative to the trace of Cov(X), and rounding
    debris below 0 is clamped, all from one eigendecomposition.  That floor
    also rejects every joint below the same floor: with Var(Y) > 0, the
    result's smallest eigenvalue is at most the joint's whenever the joint's
    is negative (Haynsworth inertia additivity), and Cov(X) has at most the
    joint's trace.  The floor is not relative to the result's own trace,
    which cancels to far below the rounding debris of the operands (about
    lam^2 / 2 against lam for the G(n, p) -> G(n, m) transfer at small lam).
    """
    cov = np.asarray(cov, dtype=float)
    if cov.ndim != 2 or cov.shape[0] != cov.shape[1] or cov.shape[0] < 2:
        raise CondCltError(f"cov must be a square matrix of size at least 2, got {cov.shape}")
    if not np.isfinite(cov).all():
        raise CondCltError("cov must be finite")
    if np.abs(cov - cov.T).max() > SYMMETRY_RTOL * max(np.abs(cov).max(), 1.0):
        raise CondCltError(f"cov is not symmetric to within {SYMMETRY_RTOL} relative")
    var_y = cov[-1, -1]
    if not var_y > 0.0:
        raise CondCltError(f"Var(Y) = {var_y} is not positive")
    cov_x, cov_xy = cov[:-1, :-1], cov[:-1, -1]
    out = cov_x - np.outer(cov_xy, cov_xy) / var_y
    sym = 0.5 * (out + out.T)
    eigs, vecs = np.linalg.eigh(sym)
    floor = PSD_EIG_FLOOR * max(np.trace(cov_x), 1e-300)
    if eigs.min() < floor:
        raise CondCltError(f"cov has eigenvalue {eigs.min():.3e} below the PSD floor {floor:.3e}")
    if eigs.min() >= 0.0:
        return sym
    return (vecs * np.clip(eigs, 0.0, None)) @ vecs.T
