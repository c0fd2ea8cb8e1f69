"""Exact conditioning of a Gaussian covariance on its last coordinate.

Conditioning a jointly Gaussian (X, Y), Y scalar, on Y leaves X with the
Schur complement Cov(X) - Cov(X, Y) Cov(Y, X) / Var(Y) as its covariance,
whatever value Y is fixed at.
"""

from __future__ import annotations

import numpy as np

from .errors import CondCltError

# Numerical gates, shared by validation and conditioning.
SYMMETRY_RTOL = 1e-12
PSD_EIG_FLOOR = -1e-10          # relative to trace


def _check_symmetric(cov: np.ndarray, name: str = "cov") -> None:
    scale = max(np.abs(cov).max(), 1.0)
    if np.abs(cov - cov.T).max() > SYMMETRY_RTOL * scale:
        raise CondCltError(f"{name} is not symmetric to within {SYMMETRY_RTOL} relative")


def _check_psd(eigs: np.ndarray, cov: np.ndarray) -> None:
    """Raise unless cov's smallest eigenvalue (eigs holds them all) clears the
    PSD floor."""
    floor = PSD_EIG_FLOOR * max(np.trace(cov), 1e-300)
    if eigs.min() < floor:
        raise CondCltError(f"cov has eigenvalue {eigs.min():.3e} below the PSD floor {floor:.3e}")


def _clamp_psd(cov: np.ndarray) -> np.ndarray:
    """Symmetrize, check the PSD floor and clamp tiny negative eigenvalues
    (rounding debris) to 0, all from one eigendecomposition."""
    sym = 0.5 * (cov + cov.T)
    eigs, vecs = np.linalg.eigh(sym)
    _check_psd(eigs, sym)
    if eigs.min() >= 0.0:
        return sym
    return (vecs * np.clip(eigs, 0.0, None)) @ vecs.T


def schur_complement(cov) -> np.ndarray:
    """Covariance of X given Y, where Y is the last coordinate of a joint
    covariance matrix cov and X the others: Cov(X) - Cov(X, Y) Cov(Y, X) / Var(Y).

    The joint must be finite, symmetric and clear the PSD floor, and Var(Y)
    must be positive; the result is checked the same way, with rounding debris
    below 0 clamped.
    """
    cov = np.asarray(cov, dtype=float)
    if cov.ndim != 2 or cov.shape[0] != cov.shape[1] or cov.shape[0] < 2:
        raise CondCltError(f"cov must be a square matrix of size at least 2, got {cov.shape}")
    if not np.isfinite(cov).all():
        raise CondCltError("cov must be finite")
    _check_symmetric(cov)
    _check_psd(np.linalg.eigvalsh(cov), cov)
    var_y = cov[-1, -1]
    if not var_y > 0.0:
        raise CondCltError(f"Var(Y) = {var_y} is not positive")
    cov_xy = cov[:-1, -1]
    out = cov[:-1, :-1] - np.outer(cov_xy, cov_xy) / var_y
    _check_symmetric(out)
    return _clamp_psd(out)
