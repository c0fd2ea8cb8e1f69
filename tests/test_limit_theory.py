import decimal
import math
import sys
import time

import numpy as np
import pytest
from scipy.special import pdtrc

from condclt import gauss_cond
from condclt import limit_theory as lt
from condclt.errors import CondCltError

E = math.e
LAMBDAS = [0.5, 1.0, 2.0, 4.0]


class TestPoissonPmf:
    def test_known_values(self):
        assert lt.poisson_pmf(1.0, 0) == pytest.approx(E**-1, abs=1e-15)
        assert lt.poisson_pmf(2.0, 1) == pytest.approx(2 * E**-2, abs=1e-15)

    def test_sums_to_one(self):
        for lam in LAMBDAS:
            k = lt.truncation_index(lam)
            total = sum(lt.poisson_pmf(lam, j) for j in range(k + 1))
            assert abs(total - 1.0) < 1e-12

    def test_probability_bound(self):
        for lam in [0.1, 1.0, 7.3, 40.0]:
            for k in range(0, 120, 7):
                assert 0.0 <= lt.poisson_pmf(lam, k) <= 1.0

    def test_log_space_continuity(self):
        # Consecutive values keep the ratio lam / k across k = 30 and 31.
        lam = 17.0
        direct = lam**30 * math.exp(-lam) / math.factorial(30)
        assert lt.poisson_pmf(lam, 31) == pytest.approx(direct * lam / 31, rel=1e-12)

    def test_invalid_lambda(self):
        with pytest.raises(CondCltError, match="lambda must be positive"):
            lt.poisson_pmf(0.0, 1)
        with pytest.raises(CondCltError, match="lambda must be positive"):
            lt.poisson_pmf(-1.0, 1)

    @pytest.mark.parametrize("lam", [math.inf, math.nan])
    def test_non_finite_lambda(self, lam):
        with pytest.raises(CondCltError, match="positive and finite"):
            lt.poisson_pmf(lam, 3)

    @pytest.mark.parametrize("k", [-1, -1.0, 2.5, np.int64(-3)])
    def test_invalid_k(self, k):
        with pytest.raises(CondCltError, match="non-negative integer"):
            lt.poisson_pmf(2.0, k)

    def test_whole_float_and_numpy_k(self):
        assert lt.poisson_pmf(2.0, 3.0) == lt.poisson_pmf(2.0, np.int64(3)) \
            == lt.poisson_pmf(2.0, 3)

    @pytest.mark.parametrize("lam", [0.1, 0.5, 1.0, 2.0, 4.0, 20.0, 200.0])
    def test_direct_product_bits_up_to_30(self, lam):
        # the form every theory matrix and standardization used before the
        # factorial table, to the bit
        for k in range(31):
            assert lt.poisson_pmf(lam, k) == lam**k * math.exp(-lam) / math.factorial(k)

    @pytest.mark.parametrize("lam", [0.1, 0.5, 1.0, 2.0, 4.0, 20.0, 200.0, 720.0])
    def test_relative_error_against_decimal_oracle(self, lam):
        # 720 puts exp(-lam) below the normal floats, so every k takes the
        # decimal route; at 200 it starts where lam**k overflows, and k = 607
        # was 8.6e-13 off in the log-space form exp(k log lam - lam - lgamma(k + 1))
        with decimal.localcontext() as ctx:
            ctx.prec = 40
            d = decimal.Decimal(lam)
            e = (-d).exp()
            for k in range(int(3 * lam) + 61):
                exact = e * d**k / math.factorial(k)
                if exact < decimal.Decimal(sys.float_info.min):
                    continue
                got = lt.poisson_pmf(lam, k)
                assert abs((decimal.Decimal(got) - exact) / exact) <= 1e-14, (lam, k)

    def test_near_the_mode_of_a_large_lambda(self):
        # k! as a 50-digit running product, independent of the Stirling series;
        # lam**k alone is beyond 10**999999 here
        lam, ks = 2e5, (199_000, 200_000, 201_000)
        with decimal.localcontext() as ctx:
            ctx.prec, ctx.Emax, ctx.Emin = 50, decimal.MAX_EMAX, decimal.MIN_EMIN
            d = decimal.Decimal(lam)
            e = (-d).exp()
            factorial, j = decimal.Decimal(1), 1
            for k in ks:
                for j in range(j, k + 1):
                    factorial *= j
                j = k + 1
                exact = e * d**k / factorial
                got = lt.poisson_pmf(lam, k)
                assert abs((decimal.Decimal(got) - exact) / exact) <= 1e-14, k

    def test_underflow_is_zero(self):
        assert lt.poisson_pmf(1e5, 10) == 0.0
        assert lt.poisson_pmf(0.5, 2000) == 0.0


class TestPoissonTail:
    """truncation_index and check_truncation against scipy's pdtrc, P(Po(lam) > k)."""

    @pytest.mark.parametrize("lam,k", [(0.5, 10), (0.5, 0), (1.0, 5), (2.0, 18),
                                       (4.0, 25), (17.0, 40)])
    def test_matches_direct_tail_sum(self, lam, k):
        direct = math.fsum(lt.poisson_pmf(lam, j) for j in range(k + 1, k + 401))
        if direct < lt.TAIL_MASS_GATE:
            lt.check_truncation(lam, k)
        else:
            with pytest.raises(CondCltError, match="below the truncation index"):
                lt.check_truncation(lam, k)

    @pytest.mark.parametrize("lam", [0.1, 0.5, 1.0, 2.0, 4.0, 10.0, 50.0, 200.0])
    def test_matches_scipy_pdtrc(self, lam):
        for k in range(int(3 * lam) + 61):
            if pdtrc(k, lam) < lt.TAIL_MASS_GATE:
                lt.check_truncation(lam, k)
            else:
                with pytest.raises(CondCltError):
                    lt.check_truncation(lam, k)

    def test_negative_k_is_whole_mass(self):
        with pytest.raises(CondCltError):
            lt.check_truncation(3.0, -1)

    def test_truncation_index_is_smallest(self):
        for lam in np.geomspace(0.1, 2000.0, 500):
            k = lt.truncation_index(lam)
            assert pdtrc(k, lam) < lt.TAIL_MASS_GATE <= pdtrc(k - 1, lam)

    def test_truncation_index_matches_linear_scan(self):
        # small lambdas, down to an index of 0
        for lam in np.geomspace(1e-14, 0.1, 40):
            k = next(k for k in range(10_001) if pdtrc(k, lam) < lt.TAIL_MASS_GATE)
            assert lt.truncation_index(lam) == k

    def test_truncation_index_cap_raises_fast(self):
        start = time.perf_counter()
        with pytest.raises(CondCltError):
            lt.truncation_index(1e5)
        assert time.perf_counter() - start < 1.0

    def test_cap_raises_where_the_tail_beyond_10000_is_not_small(self):
        for lam in np.linspace(9000.0, 10_000.0, 21):
            if pdtrc(10_000, lam) < lt.TAIL_MASS_GATE:
                assert lt.truncation_index(lam) <= 10_000
            else:
                with pytest.raises(CondCltError, match="no truncation index below 10000"):
                    lt.truncation_index(lam)


class TestAllocCov:
    def test_diag_zero_zero(self):
        assert lt.alloc_cov(2.0, 0, 0) == pytest.approx(E**-2 - 3 * E**-4, abs=1e-15)

    def test_off_diag(self):
        assert lt.alloc_cov(2.0, 0, 1) == pytest.approx(-4 * E**-4, abs=1e-15)

    def test_diag_nonnegative(self):
        for lam in LAMBDAS:
            for k in range(20):
                assert lt.alloc_cov(lam, k, k) >= 0.0

    def test_symmetry(self):
        for i in range(6):
            for j in range(6):
                assert lt.alloc_cov(1.3, i, j) == lt.alloc_cov(1.3, j, i)


class TestDegreeCovs:
    def test_gnp_values(self):
        assert lt.gnp_degree_cov(2.0, 0, 0) == pytest.approx(E**-2 + E**-4, abs=1e-15)
        assert lt.gnp_degree_cov(2.0, 0, 1) == 0.0

    def test_gnp_diagonal_form(self):
        for k in range(10):
            pi = lt.poisson_pmf(1.0, k)
            expect = pi**2 * ((k - 1.0) ** 2 / 1.0 - 1.0) + pi
            assert lt.gnp_degree_cov(1.0, k, k) == pytest.approx(expect, abs=1e-15)

    def test_gnm_values(self):
        assert lt.gnm_degree_cov(2.0, 0, 0) == pytest.approx(E**-2 - 3 * E**-4, abs=1e-15)
        assert lt.gnm_degree_cov(2.0, 0, 1) == pytest.approx(-4 * E**-4, abs=1e-15)

    def test_gnm_equals_alloc_exactly(self):
        for lam in LAMBDAS:
            for i in range(0, 61):
                for j in range(0, 61):
                    assert lt.gnm_degree_cov(lam, i, j) == lt.alloc_cov(lam, i, j)

    @pytest.mark.parametrize("model", lt.MODELS)
    def test_matrix_matches_per_entry_functions(self, model):
        entry = {lt.ALLOC: lt.alloc_cov, lt.GNP: lt.gnp_degree_cov,
                 lt.GNM: lt.gnm_degree_cov}[model]
        for lam in LAMBDAS:
            mat = lt.theory_cov_matrix(model, lam, 60).matrix
            ref = np.array([[entry(lam, i, j) for j in range(61)] for i in range(61)])
            assert np.abs(mat - ref).max() <= 1e-15

    def test_models_are_the_experiment_names(self):
        # the CLI passes its experiment name straight to theory_cov_matrix
        assert lt.MODELS == ("alloc", "gnp", "gnm")
        for lam in LAMBDAS:
            assert (lt.theory_cov_matrix("gnm", lam, 8).matrix.tobytes()
                    == lt.theory_cov_matrix(lt.GNM, lam, 8).matrix.tobytes())

    def test_rejects_unknown_model(self):
        with pytest.raises(ValueError, match="model must be one of"):
            lt.theory_cov_matrix("gnx", 1.0, 4)

    def test_rank_one_gap(self):
        # gnp - gnm is the outer product (2/lam) g g^T with g_k = pi(k)(k - lam).
        for lam in LAMBDAS:
            k_max = 60
            gnp = lt.theory_cov_matrix(lt.GNP, lam, k_max).matrix
            gnm = lt.theory_cov_matrix(lt.GNM, lam, k_max).matrix
            g = np.array([lt.poisson_pmf(lam, k) * (k - lam) for k in range(k_max + 1)])
            assert np.abs((gnp - gnm) - (2.0 / lam) * np.outer(g, g)).max() < 1e-12

    def test_theory_matrices_psd(self):
        for model in lt.MODELS:
            for lam in LAMBDAS:
                mat = lt.theory_cov_matrix(model, lam, 60).matrix
                assert np.array_equal(mat, mat.T)
                assert np.linalg.eigvalsh(mat).min() >= -1e-9

    def test_row_sum_null(self):
        # Total box count is deterministic, so covariance rows sum to zero.
        for lam in LAMBDAS:
            mat = lt.theory_cov_matrix(lt.ALLOC, lam, 60).matrix
            assert np.abs(mat.sum(axis=1)).max() < 1e-8


class TestWeissVariance:
    def test_lambda_one(self):
        assert lt.weiss_variance(1.0) == pytest.approx(E**-1 - 2 * E**-2, abs=1e-15)

    def test_matches_alloc_cov_at_zero(self):
        assert lt.weiss_variance(2.0) == pytest.approx(lt.alloc_cov(2.0, 0, 0), abs=1e-14)

    def test_decreasing_beyond_mode(self):
        values = [lt.weiss_variance(lam) for lam in np.linspace(2.0, 20.0, 50)]
        assert all(a > b for a, b in zip(values, values[1:]))
        assert values[-1] < 1e-7

    def test_invalid(self):
        with pytest.raises(CondCltError, match="lambda must be positive"):
            lt.weiss_variance(0.0)

    @pytest.mark.parametrize("lam", [0.01, 0.5, 1.0, 3.0, 20.0])
    def test_matches_conditioning_route(self, lam):
        # condition (N_0, S) on the total S
        e = math.exp(-lam)
        joint = [[e * (1.0 - e), -lam * e], [-lam * e, lam]]
        route = float(gauss_cond.schur_complement(joint)[0, 0])
        assert lt.weiss_variance(lam) == pytest.approx(route, abs=1e-14)


class TestSpacingsConstants:
    def test_a_one(self):
        out = lt.spacings_limit_constants(1.0)
        assert out.sx2 == pytest.approx(E**-1 * (1 - E**-1), abs=1e-15)
        assert out.sxy == pytest.approx(E**-1, abs=1e-15)
        assert out.sy2 == 1.0
        assert out.residual == pytest.approx(E**-1 - 2 * E**-2, abs=1e-14)

    def test_small_a_residual_vanishes(self):
        assert lt.spacings_limit_constants(1e-6).residual < 1e-5

    def test_a_log_two(self):
        assert lt.spacings_limit_constants(math.log(2)).sx2 == pytest.approx(0.25, abs=1e-15)

    def test_invalid(self):
        with pytest.raises(CondCltError, match="a must be positive"):
            lt.spacings_limit_constants(-1.0)


class TestLincombVariance:
    def test_edge_statistic_killed_under_gnm(self):
        # Conditioning on the edge count leaves no variance in the edge statistic.
        ks = np.arange(61, dtype=float)
        assert abs(ks @ lt.theory_cov_matrix(lt.GNM, 2.0, 60).matrix @ ks) / 4 < 1e-10


class TestEdgeStatMoments:
    """Cov(U, V) and Var(V), the border of gnp_edge_joint_cov."""

    def test_var_v(self):
        assert lt.gnp_edge_joint_cov(2.0, 60)[-1, -1] == pytest.approx(1.0, abs=1e-9)

    def test_cov_with_v_entry(self):
        joint = lt.gnp_edge_joint_cov(2.0, 60)
        assert joint[0, -1] == joint[-1, 0] == pytest.approx(-2 * E**-2, abs=1e-9)

    def test_bilinearity(self):
        joint = lt.gnp_edge_joint_cov(2.0, 60)
        assert float(joint[:-1, -1] @ np.arange(61)) == pytest.approx(2 * joint[-1, -1],
                                                                      abs=1e-9)

    def test_truncation_gate(self):
        with pytest.raises(CondCltError):
            lt.gnp_edge_joint_cov(4.0, 10)


class TestTransferIdentity:
    # at lam = 1e-4 the conditioned trace cancels to about lam^2 / 2, far
    # below the rounding debris of the lam-sized G(n, p) matrix
    @pytest.mark.parametrize("lam", [*LAMBDAS, 1e-4])
    def test_conditioned_gnp_matches_gnm(self, lam):
        for k_max in (lt.truncation_index(lam), 60):
            conditioned = lt.gnm_cov_via_conditioning(lam, k_max)
            target = lt.theory_cov_matrix(lt.GNM, lam, k_max).matrix
            assert np.abs(conditioned - target).max() < 1e-10
