"""Closed-form limit means, variances and covariances for the three models.

Covers Poisson probabilities, the allocation limit covariance, the G(n,p)
and G(n,m) degree-count covariances, Weiss's empty-box variance, spacings
constants and the joint covariance of the degree counts and the edge
statistic used for the analytic G(n,p) -> G(n,m) transfer.
"""

from __future__ import annotations

import decimal
import math
from typing import NamedTuple

import numpy as np

from . import gauss_cond
from .errors import CondCltError

TAIL_MASS_GATE = 1e-12
_MAX_TRUNCATION_K = 10_000

_FACTORIALS = tuple(float(math.factorial(k)) for k in range(171))   # 171! overflows
_DIRECT_MAX_LAM = 708.0     # exp(-lam) is a normal float below lam = 708.39
_LOG_UNDERFLOW = -746.0     # e^-746 is below half the smallest subnormal float
# B_2m / (2m (2m - 1)) as (numerator, denominator), m = 1..8
_STIRLING_SERIES = ((1, 12), (-1, 360), (1, 1260), (-1, 1680), (1, 1188),
                    (-691, 360360), (1, 156), (-3617, 122400))
_TWO_PI = decimal.Decimal("6.283185307179586476925286766559005768394")

ALLOC = "alloc"     # the experiment names of mc_engine and the CLI
GNP = "gnp"
GNM = "gnm"
MODELS = (ALLOC, GNP, GNM)


def poisson_pmf(lam: float, k: int) -> float:
    """P(Po(lam) = k), to within a few units in the last place.

    Up to k = 170, while lam**k is finite and exp(-lam) is a normal float, it
    is the direct product lam**k * exp(-lam) / k!; past that range it is
    taken in decimal arithmetic and rounded once.
    """
    if lam <= 0.0:
        raise CondCltError(f"lambda must be positive, got {lam}")
    if type(k) is not int:                      # numpy integers, a whole float k
        if k != int(k):
            raise CondCltError(f"k must be a non-negative integer, got {k}")
        k = int(k)
    lam = float(lam)
    if k < 0:
        raise CondCltError(f"k must be a non-negative integer, got {k}")
    if k <= 170 and lam < _DIRECT_MAX_LAM:
        try:
            return lam**k * math.exp(-lam) / _FACTORIALS[k]
        except OverflowError:                   # lam**k is beyond the float range
            pass
    return _decimal_pmf(lam, k)


def _decimal_pmf(lam: float, k: int) -> float:
    """exp(-lam) lam^k / k! in 40-digit decimal arithmetic over the widest
    decimal exponent range, so no step overflows or underflows, rounded once
    to a float.

    Past k = 170, k! is replaced by Stirling's series
    k! = sqrt(2 pi k) (k/e)^k exp(sum_m B_2m / (2m (2m-1) k^(2m-1))), whose
    eight terms leave an error below 1e-38 there, so the cost does not grow
    with the digits of k!.
    """
    if not lam < math.inf:
        raise CondCltError(f"lambda must be positive and finite, got {lam}")
    if k * math.log(lam) - lam - math.lgamma(k + 1) < _LOG_UNDERFLOW:
        return 0.0
    with decimal.localcontext() as ctx:
        ctx.prec, ctx.Emax, ctx.Emin = 40, decimal.MAX_EMAX, decimal.MIN_EMIN
        d = decimal.Decimal(lam)
        if k < len(_FACTORIALS):
            return float((-d).exp() * d**k / math.factorial(k))
        dk = decimal.Decimal(k)
        series = sum(decimal.Decimal(num) / (den * dk**(2 * m - 1))
                     for m, (num, den) in enumerate(_STIRLING_SERIES, start=1))
        return float((dk - d - series).exp() * (d / dk)**k / (_TWO_PI * dk).sqrt())


def truncation_index(lam: float) -> int:
    """Smallest K with P(Po(lam) > K) below TAIL_MASS_GATE, in one upward pass.

    The tail is not small up to the mode floor(lam), so K is at least the
    mode.  From one pmf value just above it the terms are stepped by their
    ratio lam/j while the geometric bound term * lam / (j - lam) on the rest
    exceeds 2**-60 of the gate; the tails are then summed from the far end.
    """
    if not lam < _MAX_TRUNCATION_K:
        raise CondCltError(f"no truncation index below {_MAX_TRUNCATION_K} for lambda={lam}")
    j = math.floor(lam) + 1
    term = poisson_pmf(lam, j)
    terms = [term]
    j += 1
    while term > 0.0 and term * lam / (j - lam) > 2.0**-60 * TAIL_MASS_GATE:
        term *= lam / j
        terms.append(term)
        j += 1
    k, tail = j - 1, 0.0            # adding the pmf at k makes tail P(Po(lam) > k - 1)
    for term in reversed(terms):
        tail += term
        if not tail < TAIL_MASS_GATE:
            break
        k -= 1
    if k > _MAX_TRUNCATION_K:
        raise CondCltError(f"no truncation index below {_MAX_TRUNCATION_K} for lambda={lam}")
    return k


def check_truncation(lam: float, k: int) -> None:
    index = truncation_index(lam)
    if k < index:
        raise CondCltError(f"K={k} is below the truncation index {index} of lambda={lam}")


def alloc_cov(lam: float, i: int, j: int) -> float:
    """Limit covariance of standardized box counts (exactly j balls) after
    conditioning on the total number of balls."""
    pi_i = poisson_pmf(lam, i)
    pi_j = poisson_pmf(lam, j)
    delta = 1.0 if i == j else 0.0
    return delta * pi_i - pi_i * pi_j * (1.0 + (i - lam) * (j - lam) / lam)


def gnp_degree_cov(lam: float, j: int, k: int) -> float:
    """Limit covariance of standardized degree counts in G(n, p), p = lam/n."""
    pi_j = poisson_pmf(lam, j)
    pi_k = poisson_pmf(lam, k)
    delta = 1.0 if j == k else 0.0
    return pi_j * pi_k * ((j - lam) * (k - lam) / lam - 1.0) + pi_k * delta


def gnm_degree_cov(lam: float, j: int, k: int) -> float:
    """Limit covariance of standardized degree counts in G(n, m), 2m/n -> lam.

    The sign of the quadratic correction flips relative to G(n, p); the
    resulting expression coincides with the allocation covariance.
    """
    pi_j = poisson_pmf(lam, j)
    pi_k = poisson_pmf(lam, k)
    delta = 1.0 if j == k else 0.0
    return pi_j * pi_k * (-(j - lam) * (k - lam) / lam - 1.0) + pi_k * delta


class TheoryCovariance(NamedTuple):
    """Truncated (K+1)x(K+1) limit covariance matrix for one model."""

    matrix: np.ndarray


def theory_cov_matrix(model: str, lam: float, k_max: int) -> TheoryCovariance:
    """Limit covariance matrix for indices 0..k_max, in one formula:

        diag(pi) - pi pi^T + s u u^T / lam,   u_k = pi_k (k - lam),

    with s = +1 for G(n, p) and s = -1 for ALLOC and G(n, m): conditioning on
    the total flips the sign of the rank-one term.  The per-entry functions
    above are the independent reference for this matrix.
    """
    if model not in MODELS:
        raise ValueError(f"model must be one of {MODELS}, got {model!r}")
    pi = np.array([poisson_pmf(lam, k) for k in range(k_max + 1)])
    u = pi * (np.arange(k_max + 1) - lam)
    sign = 1.0 if model == GNP else -1.0
    mat = np.diag(pi) - np.outer(pi, pi)
    mat[0, 0] = pi[0] * -math.expm1(-lam)      # pi_0 - pi_0^2 cancels at small lam
    mat += sign * np.outer(u, u) / lam
    return TheoryCovariance(mat)


def weiss_variance(lam: float) -> float:
    """Limit variance of the standardized number of empty boxes."""
    if lam <= 0.0:
        raise CondCltError(f"lambda must be positive, got {lam}")
    return math.exp(-lam) - math.exp(-2 * lam) - lam * math.exp(-2 * lam)


class SpacingsConstants(NamedTuple):
    sx2: float
    sxy: float
    sy2: float
    residual: float


def spacings_limit_constants(a: float) -> SpacingsConstants:
    """Joint limit (co)variances for the count of spacings exceeding a/n,
    paired with the normalized total, plus the conditional residual variance."""
    if a <= 0.0:
        raise CondCltError(f"a must be positive, got {a}")
    e = math.exp(-a)
    sx2 = e * -math.expm1(-a)       # 1 - e keeps none of its value at tiny a
    sxy = a * e
    sy2 = 1.0
    residual = float(gauss_cond.schur_complement([[sx2, sxy], [sxy, sy2]])[0, 0])
    return SpacingsConstants(sx2, sxy, sy2, residual)


def gnp_edge_joint_cov(lam: float, k_max: int) -> np.ndarray:
    """Truncated limit covariance of (U_0..U_K, V) under G(n, p), where
    V = (1/2) sum_k k U_k is the standardized edge statistic: the G(n, p)
    matrix Sigma bordered by Cov(U, V) = Sigma k / 2 and Var(V) = k Sigma k / 4."""
    check_truncation(lam, k_max)
    sigma = theory_cov_matrix(GNP, lam, k_max).matrix
    ks = np.arange(k_max + 1, dtype=float)
    joint = np.empty((k_max + 2, k_max + 2))
    joint[:-1, :-1] = sigma
    joint[:-1, -1] = joint[-1, :-1] = 0.5 * sigma @ ks
    joint[-1, -1] = 0.25 * ks @ sigma @ ks
    return joint


def gnm_cov_via_conditioning(lam: float, k_max: int) -> np.ndarray:
    """Condition the G(n,p) limit covariance on the edge statistic: the Schur
    complement of gnp_edge_joint_cov on V reproduces the G(n, m) covariance
    matrix."""
    return gauss_cond.schur_complement(gnp_edge_joint_cov(lam, k_max))
