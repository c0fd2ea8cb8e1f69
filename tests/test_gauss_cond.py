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
    return gc.JointGaussian(1, 1, np.zeros(2), np.array([[sx2, sxy], [sxy, sy2]]))


class TestConditionOnVector:
    def test_independent_blocks_noop(self):
        jg = gc.JointGaussian(1, 1, np.zeros(2), np.eye(2))
        out = gc.condition_on_vector(jg, [5.0])
        assert out.mean[0] == 0.0
        assert out.cov[0, 0] == 1.0
        assert out.gamma[0, 0] == 0.0

    def test_correlated_bivariate(self):
        out = gc.condition_on_vector(bivariate(0.6), [1.0])
        assert out.mean[0] == pytest.approx(0.6, abs=1e-14)
        assert out.cov[0, 0] == pytest.approx(0.64, abs=1e-14)
        assert out.gamma[0, 0] == pytest.approx(0.6, abs=1e-14)

    def test_two_dim_x_block(self):
        cov = np.array([[1, 0, 0.5], [0, 1, 0.5], [0.5, 0.5, 1]], dtype=float)
        jg = gc.JointGaussian(2, 1, np.zeros(3), cov)
        out = gc.condition_on_vector(jg, [2.0])
        assert out.mean == pytest.approx([1.0, 1.0], abs=1e-14)
        assert out.cov == pytest.approx(np.array([[0.75, -0.25], [-0.25, 0.75]]), abs=1e-14)

    def test_dimension_mismatch(self):
        jg = gc.JointGaussian(1, 1, np.zeros(2), np.eye(2))
        with pytest.raises(CondCltError, match="y must have length 1"):
            gc.condition_on_vector(jg, [1.0, 2.0])

    def test_singular_y_block(self):
        cov = np.array([[1, 0, 0], [0, 1e-20, 0], [0, 0, 1]], dtype=float)
        jg = gc.JointGaussian(1, 2, np.zeros(3), cov)
        with pytest.raises(CondCltError, match=r"Var\(Y\) condition number"):
            gc.condition_on_vector(jg, [0.0, 0.0])

    def test_invalid_covariance_rejected(self):
        with pytest.raises(CondCltError, match="below the PSD floor"):
            gc.JointGaussian(1, 1, np.zeros(2), np.array([[1.0, 2.0], [2.0, 1.0]]))
        with pytest.raises(CondCltError, match="not symmetric"):
            gc.JointGaussian(1, 1, np.zeros(2), np.array([[1.0, 0.5], [0.3, 1.0]]))


class TestConditionOnScalar:
    # r = 1, with y passed as a plain float.

    def test_zero_correlation(self):
        out = gc.condition_on_vector(bivariate(0.0), 3.0)
        assert out.mean[0] == 0.0
        assert out.cov[0, 0] == 1.0

    def test_spacings_constants(self):
        # a = 1 constants; the conditional variance matches the closed form.
        sx2 = E**-1 * (1 - E**-1)
        jg = gc.JointGaussian(1, 1, np.zeros(2),
                              np.array([[sx2, E**-1], [E**-1, 1.0]]))
        out = gc.condition_on_vector(jg, 0.0)
        assert out.cov[0, 0] == pytest.approx(E**-1 - E**-2 - E**-2, abs=1e-12)

    def test_degree_statistics_transfer(self):
        # Conditioning the G(n,p) limit covariance on the edge statistic
        # reproduces the G(n,m) covariance entrywise.
        k_max = 60
        conditioned = lt.gnm_cov_via_conditioning(2.0, k_max)
        target = lt.theory_cov_matrix(lt.GNM, 2.0, k_max).matrix
        assert np.abs(conditioned - target).max() < 1e-10

    def test_nonpositive_variance(self):
        cov = np.array([[1.0, 0.0], [0.0, 0.0]])
        jg = gc.JointGaussian(1, 1, np.zeros(2), cov)
        with pytest.raises(CondCltError, match=r"Var\(Y\) condition number"):
            gc.condition_on_vector(jg, 0.0)


class TestResidualVariance:
    def test_uncorrelated(self):
        assert gc.residual_variance(1.0, 1.0, 0.0) == 1.0

    def test_perfect_correlation(self):
        assert gc.residual_variance(1.0, 1.0, 1.0) == 0.0

    def test_spacings_value(self):
        out = gc.residual_variance(E**-1 * (1 - E**-1), 1.0, E**-1)
        assert out == pytest.approx(0.09720887469821693, abs=1e-12)

    def test_cauchy_schwarz_gate(self):
        with pytest.raises(CondCltError, match="Cauchy-Schwarz violated"):
            gc.residual_variance(1.0, 1.0, 1.1)

    @given(st.floats(0.01, 10), st.floats(0.01, 10), st.floats(-0.999, 0.999))
    @settings(max_examples=200, deadline=None)
    def test_bounds(self, sx2, sy2, rho):
        sxy = rho * math.sqrt(sx2 * sy2)
        out = gc.residual_variance(sx2, sy2, sxy)
        assert 0.0 <= out <= sx2 + 1e-12


class TestConditionalGaussianPsd:
    def test_psd_cov_is_kept(self):
        cov = np.array([[2.0, 0.5], [0.5, 1.0]])
        out = gc.ConditionalGaussian(mean=np.zeros(2), cov=cov, gamma=np.zeros((2, 1)))
        assert np.array_equal(out.cov, cov)

    def test_rounding_debris_is_clamped(self):
        v = np.array([1.0, -1.0]) / math.sqrt(2.0)
        cov = np.eye(2) - (1.0 + 1e-12) * np.outer(v, v)    # eigenvalues 1, -1e-12
        out = gc.ConditionalGaussian(mean=np.zeros(2), cov=cov, gamma=np.zeros((2, 1)))
        assert np.linalg.eigvalsh(out.cov).min() >= -1e-15
        assert np.abs(out.cov - cov).max() < 1e-11

    def test_below_floor_raises(self):
        cov = np.array([[1.0, 0.0], [0.0, -1e-3]])
        with pytest.raises(CondCltError, match="below the PSD floor"):
            gc.ConditionalGaussian(mean=np.zeros(2), cov=cov, gamma=np.zeros((2, 1)))

    def test_one_eigendecomposition(self, monkeypatch):
        calls = []
        for name in ("eigh", "eigvalsh"):
            real = getattr(np.linalg, name)
            monkeypatch.setattr(np.linalg, name,
                                lambda a, real=real, name=name: calls.append(name) or real(a))
        gc.ConditionalGaussian(mean=np.zeros(3), cov=np.eye(3), gamma=np.zeros((3, 1)))
        assert calls == ["eigh"]


def random_psd_joint(rng, q, r):
    d = q + r
    a = rng.standard_normal((d, d + 2))
    cov = a @ a.T / (d + 2)
    return gc.JointGaussian(q, r, rng.standard_normal(d), cov)


class TestInvariants:
    def test_schur_complement_equivalence(self):
        rng = np.random.default_rng(2024)
        for _ in range(50):
            q = int(rng.integers(1, 4))
            r = int(rng.integers(1, 7 - q - 2)) if q < 4 else 1
            r = max(r, 1)
            jg = random_psd_joint(rng, q, r)
            y = rng.standard_normal(r)
            out = gc.condition_on_vector(jg, y)
            schur = jg.cov_xx - jg.cov_xy @ np.linalg.inv(jg.cov_yy) @ jg.cov_xy.T
            assert np.abs(out.cov - schur).max() < 1e-10

    def test_conditioning_on_independent_coordinate_is_noop(self):
        # Y independent of X: the regression coefficient vanishes.
        cov = np.diag([1.0, 2.0, 3.0])
        jg = gc.JointGaussian(2, 1, np.zeros(3), cov)
        out = gc.condition_on_vector(jg, 4.2)
        assert np.all(out.gamma == 0.0)
        assert out.cov == pytest.approx(cov[:2, :2], abs=0)

    def test_sampling_consistency(self):
        # Rejection-condition a large Gaussian sample near Y = xi and compare
        # empirical moments to the analytic conditional, at 5 SE.
        rng = np.random.default_rng(7)
        cov = np.array([[1.0, 0.3, 0.6], [0.3, 1.0, 0.4], [0.6, 0.4, 1.0]])
        jg = gc.JointGaussian(2, 1, np.zeros(3), cov)
        xi = 0.5
        target = gc.condition_on_vector(jg, xi)
        draws = rng.multivariate_normal(np.zeros(3), cov, size=1_000_000,
                                        method="cholesky")
        eps = 0.02
        kept = draws[np.abs(draws[:, 2] - xi) < eps][:, :2]
        assert len(kept) >= 10_000
        n = len(kept)
        for i in range(2):
            se = math.sqrt(target.cov[i, i] / n)
            assert abs(kept[:, i].mean() - target.mean[i]) < 5 * se
        emp_cov = np.cov(kept.T)
        for i in range(2):
            for j in range(2):
                se = math.sqrt(
                    (target.cov[i, i] * target.cov[j, j] + target.cov[i, j] ** 2) / n
                )
                assert abs(emp_cov[i, j] - target.cov[i, j]) < 5 * se
