import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from condclt import gauss_cond as gc
from condclt import limit_theory as lt
from condclt.errors import CondCltError

E = math.e


def bivariate(rho, sx2=1.0, sy2=1.0):
    sxy = rho * math.sqrt(sx2 * sy2)
    return np.array([[sx2, sxy], [sxy, sy2]])


def with_independent_y(cov_x, var_y=1.0):
    """Joint covariance of (X, Y) with Cov(X) = cov_x and Y independent of X."""
    q = len(cov_x)
    joint = np.zeros((q + 1, q + 1))
    joint[:q, :q] = cov_x
    joint[q, q] = var_y
    return joint


class TestConditionOnVector:
    """Joints whose X block is a vector, and the checks on the joint."""

    def test_independent_blocks_noop(self):
        assert np.array_equal(gc.schur_complement(np.eye(2)), np.eye(1))

    def test_correlated_bivariate(self):
        assert gc.schur_complement(bivariate(0.6))[0, 0] == pytest.approx(0.64, abs=1e-14)

    def test_two_dim_x_block(self):
        cov = np.array([[1, 0, 0.5], [0, 1, 0.5], [0.5, 0.5, 1]], dtype=float)
        out = gc.schur_complement(cov)
        assert out == pytest.approx(np.array([[0.75, -0.25], [-0.25, 0.75]]), abs=1e-14)

    def test_invalid_covariance_rejected(self):
        with pytest.raises(CondCltError, match="below the PSD floor"):
            gc.schur_complement(np.array([[1.0, 2.0], [2.0, 1.0]]))
        with pytest.raises(CondCltError, match="not symmetric"):
            gc.schur_complement(np.array([[1.0, 0.5], [0.3, 1.0]]))
        with pytest.raises(CondCltError, match="square matrix"):
            gc.schur_complement(np.ones((2, 3)))
        with pytest.raises(CondCltError, match="must be finite"):
            gc.schur_complement(np.array([[1.0, np.nan], [np.nan, 1.0]]))


class TestConditionOnScalar:
    """Scalar X given scalar Y, and the G(n,p) -> G(n,m) transfer."""

    def test_zero_correlation(self):
        assert gc.schur_complement(bivariate(0.0))[0, 0] == 1.0

    def test_spacings_constants(self):
        # a = 1 constants; the conditional variance matches the closed form.
        sx2 = E**-1 * (1 - E**-1)
        out = gc.schur_complement([[sx2, E**-1], [E**-1, 1.0]])
        assert out[0, 0] == pytest.approx(E**-1 - E**-2 - E**-2, abs=1e-12)

    def test_degree_statistics_transfer(self):
        # Conditioning the G(n,p) limit covariance on the edge statistic
        # reproduces the G(n,m) covariance entrywise.
        k_max = 60
        conditioned = lt.gnm_cov_via_conditioning(2.0, k_max)
        target = lt.theory_cov_matrix(lt.GNM, 2.0, k_max).matrix
        assert np.abs(conditioned - target).max() < 1e-10

    def test_nonpositive_variance(self):
        with pytest.raises(CondCltError, match=r"Var\(Y\) = 0.0 is not positive"):
            gc.schur_complement(np.array([[1.0, 0.0], [0.0, 0.0]]))


class TestResidualVariance:
    """sx2 - sxy^2/sy2, the variance left in a scalar X."""

    def test_uncorrelated(self):
        assert gc.schur_complement(bivariate(0.0, sx2=2.0, sy2=3.0))[0, 0] == 2.0

    def test_perfect_correlation(self):
        assert gc.schur_complement(bivariate(1.0))[0, 0] == 0.0

    def test_spacings_value(self):
        out = gc.schur_complement([[E**-1 * (1 - E**-1), E**-1], [E**-1, 1.0]])
        assert out[0, 0] == pytest.approx(0.09720887469821693, abs=1e-12)

    def test_cauchy_schwarz_gate(self):
        # sxy^2 > sx2 sy2 leaves the joint below the PSD floor
        with pytest.raises(CondCltError, match="below the PSD floor"):
            gc.schur_complement(bivariate(1.1))

    @given(st.floats(0.01, 10), st.floats(0.01, 10), st.floats(-0.999, 0.999))
    @settings(max_examples=200, deadline=None)
    def test_bounds(self, sx2, sy2, rho):
        out = gc.schur_complement(bivariate(rho, sx2, sy2))[0, 0]
        assert 0.0 <= out <= sx2 + 1e-12


class TestResultPsd:
    """The result's PSD floor, relative to the trace of Cov(X), and its clamp."""

    def test_psd_cov_is_kept(self):
        cov = np.array([[2.0, 0.5], [0.5, 1.0]])
        assert np.array_equal(gc.schur_complement(with_independent_y(cov)), cov)

    def test_rounding_debris_is_clamped(self):
        v = np.array([1.0, -1.0]) / math.sqrt(2.0)
        cov = np.eye(2) - (1.0 + 1e-12) * np.outer(v, v)    # eigenvalues 1, -1e-12
        out = gc.schur_complement(with_independent_y(cov))
        assert np.linalg.eigvalsh(out).min() >= -1e-15
        assert np.abs(out - cov).max() < 1e-11

    def test_below_floor_raises(self):
        # A large Var(Y) would widen a floor relative to the joint's trace
        # past the eigenvalue -1e-3; the floor relative to Cov(X) rejects it.
        cov = np.array([[1.0, 0.0], [0.0, -1e-3]])
        with pytest.raises(CondCltError, match="below the PSD floor"):
            gc.schur_complement(with_independent_y(cov, var_y=1e8))

    def test_one_eigendecomposition(self, monkeypatch):
        calls = []
        for name in ("eigh", "eigvalsh"):
            real = getattr(np.linalg, name)
            monkeypatch.setattr(np.linalg, name,
                                lambda a, real=real, name=name: calls.append(name) or real(a))
        gc.schur_complement(np.eye(4))
        assert calls == ["eigh"]     # the result's floor and clamp


def random_psd_joint(rng, d):
    a = rng.standard_normal((d, d + 2))
    return a @ a.T / (d + 2)


class TestInvariants:
    def test_schur_complement_equivalence(self):
        rng = np.random.default_rng(2024)
        for _ in range(50):
            cov = random_psd_joint(rng, int(rng.integers(2, 6)))
            schur = cov[:-1, :-1] - cov[:-1, -1:] @ np.linalg.inv(cov[-1:, -1:]) @ cov[-1:, :-1]
            assert np.abs(gc.schur_complement(cov) - schur).max() < 1e-10

    def test_conditioning_on_independent_coordinate_is_noop(self):
        cov = np.diag([1.0, 2.0, 3.0])
        assert np.array_equal(gc.schur_complement(cov), cov[:2, :2])

    def test_sampling_consistency(self):
        # Rejection-condition a large Gaussian sample near Y = xi and compare
        # the empirical covariance to the Schur complement, at 5 SE.
        rng = np.random.default_rng(7)
        cov = np.array([[1.0, 0.3, 0.6], [0.3, 1.0, 0.4], [0.6, 0.4, 1.0]])
        target = gc.schur_complement(cov)
        draws = rng.multivariate_normal(np.zeros(3), cov, size=1_000_000,
                                        method="cholesky")
        xi, eps = 0.5, 0.02
        kept = draws[np.abs(draws[:, 2] - xi) < eps][:, :2]
        assert len(kept) >= 10_000
        n = len(kept)
        emp_cov = np.cov(kept.T)
        for i in range(2):
            for j in range(2):
                se = math.sqrt((target[i, i] * target[j, j] + target[i, j] ** 2) / n)
                assert abs(emp_cov[i, j] - target[i, j]) < 5 * se
