"""Exact conditioning of a multivariate Gaussian on a block of its coordinates.

Everything here is closed-form linear algebra: given a joint Gaussian split
into an X block (dimension q) and a Y block (dimension r), conditioning on
Y = y produces another Gaussian with regression-shifted mean and a
Schur-complement covariance.
"""

from __future__ import annotations

import numpy as np

from .errors import CondCltError

# Numerical gates, shared by validation and conditioning.
SYMMETRY_RTOL = 1e-12
PSD_EIG_FLOOR = -1e-10          # relative to trace
COND_NUMBER_GATE = 1e12


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


class JointGaussian:
    """Gaussian on R^(q+r) with the first q coordinates as X and the last r as Y."""

    def __init__(self, q: int, r: int, mean, cov):
        if q < 1 or r < 1:
            raise CondCltError("q and r must be positive")
        self.q = q
        self.r = r
        self.mean = np.asarray(mean, dtype=float)
        self.cov = np.asarray(cov, dtype=float)
        d = q + r
        if self.mean.shape != (d,):
            raise CondCltError(f"mean must have length {d}, got {self.mean.shape}")
        if self.cov.shape != (d, d):
            raise CondCltError(f"cov must be {d}x{d}, got {self.cov.shape}")
        _check_symmetric(self.cov)
        _check_psd(np.linalg.eigvalsh(self.cov), self.cov)

    @property
    def mean_x(self) -> np.ndarray:
        return self.mean[: self.q]

    @property
    def mean_y(self) -> np.ndarray:
        return self.mean[self.q:]

    @property
    def cov_xx(self) -> np.ndarray:
        return self.cov[: self.q, : self.q]

    @property
    def cov_xy(self) -> np.ndarray:
        return self.cov[: self.q, self.q:]

    @property
    def cov_yy(self) -> np.ndarray:
        return self.cov[self.q:, self.q:]


class ConditionalGaussian:
    """Law of X given Y = y: mean vector, covariance, and regression matrix gamma."""

    def __init__(self, mean, cov, gamma):
        self.mean = np.asarray(mean, dtype=float)
        cov = np.asarray(cov, dtype=float)
        _check_symmetric(cov)
        self.cov = _clamp_psd(cov)
        self.gamma = np.atleast_2d(np.asarray(gamma, dtype=float))


def condition_on_vector(jg: JointGaussian, y) -> ConditionalGaussian:
    """Condition the X block on Y = y (a scalar y is accepted when r = 1).

    The regression matrix is A = Cov(X, Y) Var(Y)^{-1}; the result has mean
    EX + A (y - EY) and covariance Cov(X) - A Cov(Y, X) (the Schur complement
    of Var(Y) in the joint covariance).
    """
    y = np.atleast_1d(np.asarray(y, dtype=float))
    if y.shape != (jg.r,):
        raise CondCltError(f"y must have length {jg.r}, got {y.shape}")
    syy = jg.cov_yy
    cond = np.linalg.cond(syy)
    if cond > COND_NUMBER_GATE:
        raise CondCltError(f"Var(Y) condition number {cond:.3e} exceeds {COND_NUMBER_GATE:.0e}")
    # A = Sxy Syy^{-1}, via a symmetric solve rather than explicit inversion.
    a = np.linalg.solve(syy, jg.cov_xy.T).T
    mean = jg.mean_x + a @ (y - jg.mean_y)
    cov = jg.cov_xx - a @ jg.cov_xy.T
    return ConditionalGaussian(mean=mean, cov=cov, gamma=a)


def residual_variance(sx2: float, sy2: float, sxy: float) -> float:
    """Variance left in X after conditioning on a correlated scalar Y.

    Returns sx2 - sxy^2/sy2, which equals (1 - rho^2) sx2 whenever sx2 > 0.
    """
    if sy2 <= 0.0:
        raise CondCltError(f"sy2 = {sy2} is not positive")
    if sx2 < 0.0:
        raise CondCltError(f"sx2 = {sx2} is negative")
    if sxy * sxy > sx2 * sy2 + 1e-12 * max(sx2 * sy2, 1.0):
        raise CondCltError(f"Cauchy-Schwarz violated: sxy^2 = {sxy * sxy} > sx2*sy2 = {sx2 * sy2}")
    out = sx2 - sxy * sxy / sy2
    if sx2 > 0.0:
        rho2 = sxy * sxy / (sx2 * sy2)
        alt = (1.0 - rho2) * sx2
        if abs(out - alt) > 1e-12 * max(abs(out), abs(alt), 1.0):
            raise CondCltError(f"residual {out!r} != (1 - rho^2) sx2 = {alt!r}")
    return max(out, 0.0)

