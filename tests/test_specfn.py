"""Tests for the scalar special functions."""

import math
import warnings

import mpmath as mp
import numpy as np
import pytest
import scipy.special

from ballprolate.specfn import (
    _SERIES_CUTOFF,
    JacobiBasis,
    _bessel_forward,
    _bessel_j_family,
    _bessel_series,
    _cached_recurrence,
    _recurrence_arrays,
    bessel_j_scaled,
    clenshaw,
    jacobi_eval,
)
from ballprolate.linalg import gauss_jacobi
from ballprolate.pswf import build_matrix, solve_pswfs
from helpers import (
    BIT_IDENTITY_GRID,
    bit_identity_families,
    clenshaw_reference,
    jacobi_ab_reference,
    jacobi_coeffs,
)

BASES = [(0.0, 0.0), (0.0, 0.5), (1.0, 1.5), (-0.5, 2.0)]


class TestJacobiCoeffs:
    def test_legendre_j0(self):
        a0, b0, h0 = jacobi_coeffs(JacobiBasis(0.0, 0.0), 0)
        assert a0 == pytest.approx(1.0 / math.sqrt(3.0), rel=1e-15)
        assert b0 == 0.0
        assert h0 == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-15)

    @pytest.mark.parametrize("alpha", [0.0, 0.5, 2.0, -0.3])
    @pytest.mark.parametrize("j", [0, 1, 5, 20])
    def test_equal_exponents_give_zero_b(self, alpha, j):
        _, b, _ = jacobi_coeffs(JacobiBasis(alpha, alpha), j)
        assert b == 0.0

    def test_a0_matches_gram_schmidt_oracle(self):
        # Frozen from 50-digit Gram-Schmidt orthonormalization of {1, eta}
        # under weight (1+eta)^(1/2) on (-1, 1) with the 2^(a+b+2) norm.
        a0, b0, _ = jacobi_coeffs(JacobiBasis(0.0, 0.5), 0)
        assert a0 == pytest.approx(0.52372293656638171504, rel=1e-14)
        assert b0 == pytest.approx(0.2, rel=1e-14)

    def test_b0_uses_removable_singularity_value(self):
        # alpha + beta = 0 makes the generic b_n formula 0/0 at n = 0.
        _, b0, _ = jacobi_coeffs(JacobiBasis(0.5, -0.5), 0)
        assert b0 == pytest.approx((-0.5 - 0.5) / 2.0, rel=1e-15)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            JacobiBasis(-1.0, 0.0)
        with pytest.raises(ValueError):
            JacobiBasis(0.0, -1.5)
        with pytest.raises(ValueError):
            jacobi_coeffs(JacobiBasis(0.0, 0.0), -1)

    @pytest.mark.parametrize("alpha,beta", BASES)
    def test_positive_a_and_h(self, alpha, beta):
        basis = JacobiBasis(alpha, beta)
        for j in range(30):
            a, _, h = jacobi_coeffs(basis, j)
            assert a > 0.0 and h > 0.0


# alpha + beta = -1 and alpha + beta = 0 make the generic a_0 and b_0
# expressions 0/0; at (-0.83, 0.92) two a_j differ by one ulp, because the
# reference squares with pow and the arrays with a correctly rounded product.
PINNED_BASES = [(-0.5, -0.5), (0.5, -0.5), (0.0, 0.0), (-0.5, 0.5), (-0.83, 0.92)] + BASES


class TestRecurrenceArrays:
    @pytest.mark.parametrize("alpha,beta", PINNED_BASES)
    def test_matches_scalar_reference(self, alpha, beta):
        a, b = _recurrence_arrays(JacobiBasis(alpha, beta), 900)
        ref = np.array([jacobi_ab_reference(alpha, beta, j) for j in range(901)])
        assert np.all(np.abs(a - ref[:, 0]) <= np.spacing(ref[:, 0]))
        assert np.all(np.abs(b - ref[:, 1]) <= np.spacing(np.abs(ref[:, 1])))

    @pytest.mark.parametrize("d,alpha,n", [(1, -0.5, 0), (1, -0.5, 1), (2, 0.0, 0)])
    def test_build_matrix_finite_at_removable_singularities(self, d, alpha, n):
        tri = build_matrix(d, alpha, 3.0, n, 40)
        assert np.all(np.isfinite(tri.diag)) and np.all(np.isfinite(tri.offdiag))


class TestRecurrenceCache:
    def test_arrays_are_read_only(self):
        a, b = _recurrence_arrays(JacobiBasis(0.0, 0.5), 12)
        for array in (a, b):
            with pytest.raises(ValueError, match="read-only"):
                array[3] = 1.0
            with pytest.raises(ValueError, match="read-only"):
                array *= 2.0

    @pytest.mark.parametrize("alpha,beta", PINNED_BASES)
    def test_cold_and_warm_results_match(self, alpha, beta):
        basis = JacobiBasis(alpha, beta)
        _cached_recurrence.cache_clear()
        cold = [v.tobytes() for v in _recurrence_arrays(basis, 40)]
        misses = _cached_recurrence.cache_info().misses
        warm = [v.tobytes() for v in _recurrence_arrays(basis, 40)]
        assert _cached_recurrence.cache_info().misses == misses
        assert warm == cold

    @pytest.mark.parametrize("m", [1, 9])
    def test_signed_zero_exponent_keeps_its_own_entry(self, m):
        # JacobiBasis(0.0, -0.0) == JacobiBasis(0.0, 0.0), but b_0 is -0.0
        # for the first, and at m = 1 that is the rule's node.
        def rule_bytes(beta):
            rule = gauss_jacobi(0.0, beta, m)
            return rule.nodes.tobytes(), rule.weights.tobytes()

        cold = {}
        for beta in (0.0, -0.0):
            _cached_recurrence.cache_clear()
            cold[math.copysign(1.0, beta)] = rule_bytes(beta)
        for order in ((0.0, -0.0), (-0.0, 0.0)):
            _cached_recurrence.cache_clear()
            for beta in order:
                assert rule_bytes(beta) == cold[math.copysign(1.0, beta)]
        if m == 1:
            assert cold[1.0] != cold[-1.0]
        _, b = _recurrence_arrays(JacobiBasis(0.0, -0.0), m - 1)
        assert math.copysign(1.0, b[0]) == -1.0


class TestJacobiEval:
    def test_constant(self):
        vals = jacobi_eval(JacobiBasis(0.0, 0.0), 0, 0.37)
        assert vals[0] == pytest.approx(math.sqrt(2.0), rel=1e-15)

    def test_degree_one_at_left_endpoint(self):
        vals = jacobi_eval(JacobiBasis(0.0, 0.0), 1, -1.0)
        assert vals[1] == pytest.approx(-math.sqrt(6.0), rel=1e-15)

    def test_rodrigues_oracle_degree_five(self):
        # Frozen from a 50-digit Rodrigues evaluation of the standard
        # Legendre P_5(0.3) divided by h_5.
        vals = jacobi_eval(JacobiBasis(0.0, 0.0), 5, 0.3)
        assert vals[5] == pytest.approx(1.620005110226314996, rel=1e-14)

    def test_array_argument_shape(self):
        eta = np.linspace(-1.0, 7.0, 11)
        vals = jacobi_eval(JacobiBasis(0.5, 1.5), 6, eta)
        assert vals.shape == (7, 11)
        single = jacobi_eval(JacobiBasis(0.5, 1.5), 6, eta[3])
        np.testing.assert_allclose(vals[:, 3], single, rtol=1e-15)

    @pytest.mark.parametrize("alpha,beta", BASES)
    def test_orthonormality_by_quadrature(self, alpha, beta):
        rule = gauss_jacobi(alpha, beta, 14)
        vals = jacobi_eval(JacobiBasis(alpha, beta), 12, rule.nodes)
        gram = (vals * rule.weights) @ vals.T
        target = 2.0 ** (alpha + beta + 2.0) * np.eye(13)
        assert np.max(np.abs(gram - target)) < 1e-12

    def test_orthonormality_negative_control(self):
        alpha, beta = 1.0, 1.5
        rule = gauss_jacobi(alpha, beta, 14)
        vals = jacobi_eval(JacobiBasis(alpha, beta), 12, rule.nodes)
        vals[4] *= 1.0 + 1e-6
        gram = (vals * rule.weights) @ vals.T
        target = 2.0 ** (alpha + beta + 2.0) * np.eye(13)
        assert np.max(np.abs(gram - target)) > 1e-12

    @pytest.mark.parametrize("alpha,beta", BASES + [(1.0, -0.9)])
    @pytest.mark.parametrize("jmax", [1, 5, 18, 40])
    def test_orthonormal_on_jmax_plus_one_nodes(self, alpha, beta, jmax):
        # P~_a P~_b has degree at most 2 jmax, and jmax + 1 nodes integrate
        # every degree up to 2 jmax + 1 exactly (the Gram check's rule).
        # The worst case, (1, -0.9) at jmax = 40, reads 4.8e-14.
        rule = gauss_jacobi(alpha, beta, jmax + 1)
        vals = jacobi_eval(JacobiBasis(alpha, beta), jmax, rule.nodes)
        gram = 2.0 ** -(alpha + beta + 2.0) * (vals * rule.weights) @ vals.T
        assert np.max(np.abs(gram - np.eye(jmax + 1))) < 1e-13

    @pytest.mark.parametrize("alpha,beta", [(0.0, 0.0), (1.0, -0.9)])
    def test_jmax_nodes_lose_the_top_norm(self, alpha, beta):
        # Negative control: the jmax nodes are the zeros of P~_jmax, so its
        # discrete norm is 0 and the deviation from identity is 1.
        jmax = 10
        rule = gauss_jacobi(alpha, beta, jmax)
        vals = jacobi_eval(JacobiBasis(alpha, beta), jmax, rule.nodes)
        gram = 2.0 ** -(alpha + beta + 2.0) * (vals * rule.weights) @ vals.T
        assert np.max(np.abs(gram - np.eye(jmax + 1))) == pytest.approx(1.0, abs=1e-14)

    @pytest.mark.parametrize("alpha,beta", BASES)
    def test_leading_coefficient(self, alpha, beta):
        # kappa_n = C(2n+alpha+beta, n) / (2^n h_n) against the leading
        # coefficient accumulated through the recurrence.
        basis = JacobiBasis(alpha, beta)
        _, _, h0 = jacobi_coeffs(basis, 0)
        lead = 1.0 / h0
        for n in range(11):
            s = alpha + beta
            _, _, h_n = jacobi_coeffs(basis, n)
            kappa = math.exp(
                math.lgamma(2 * n + s + 1.0)
                - math.lgamma(n + 1.0)
                - math.lgamma(n + s + 1.0)
                - n * math.log(2.0)
            ) / h_n
            assert lead == pytest.approx(kappa, rel=1e-11)
            a_n, _, _ = jacobi_coeffs(basis, n)
            lead /= a_n


class TestNonFiniteEta:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("shape", ["scalar", "one", "many"])
    def test_clenshaw_and_jacobi_eval_name_eta(self, bad, shape):
        eta = {"scalar": bad, "one": np.array([bad]), "many": np.array([0.5, bad, -0.2])}[shape]
        basis = JacobiBasis(0.0, 0.5)
        for coeffs in ([0.5], [0.5, -0.25, 1.5]):
            with pytest.raises(ValueError, match="eta must be finite"):
                clenshaw(basis, coeffs, eta)
        for jmax in (0, 2):
            with pytest.raises(ValueError, match="eta must be finite"):
                jacobi_eval(basis, jmax, eta)


class TestClenshaw:
    def test_single_constant_term(self):
        value = clenshaw(JacobiBasis(0.0, 0.0), [1.0], 0.9)
        assert value == pytest.approx(math.sqrt(2.0), rel=1e-15)

    @pytest.mark.parametrize("k", [0, 1, 3, 9])
    def test_unit_vector_matches_jacobi_eval(self, k):
        basis = JacobiBasis(0.0, 0.5)
        coeffs = np.zeros(k + 1)
        coeffs[k] = 1.0
        for eta in (-1.0, -0.3, 0.7, 2.0, 7.0):
            direct = jacobi_eval(basis, k, eta)[k]
            assert clenshaw(basis, coeffs, eta) == pytest.approx(direct, rel=1e-14)

    def test_matches_extended_precision_forward_sum(self):
        # Oracle: naive forward summation of the recurrence at 50 digits.
        basis = JacobiBasis(0.0, 0.5)
        rng = np.random.default_rng(20240817)
        coeffs = rng.standard_normal(20)
        eta = 0.7
        mp.mp.dps = 50
        al, be = mp.mpf(0), mp.mpf("0.5")
        coeffs_mp = [mp.mpf(float(c)) for c in coeffs]

        def abh(j):
            s = al + be
            b = (be**2 - al**2) / ((2*j+s) * (2*j+s+2)) if j else (be - al) / (s + 2)
            a = mp.sqrt(4*(j+1)*(j+al+1)*(j+be+1)*(j+s+1)
                        / ((2*j+s+1)*(2*j+s+2)**2*(2*j+s+3)))
            return a, b

        h0 = mp.sqrt(mp.gamma(al+1)*mp.gamma(be+1) / (2*(al+be+1)*mp.gamma(al+be+1)))
        p_prev, p = None, 1/h0
        total = coeffs_mp[0]*p
        a_prev = None
        for j in range(len(coeffs) - 1):
            a_j, b_j = abh(j)
            p_next = ((mp.mpf(eta) - b_j)*p - (a_prev*p_prev if j else 0))/a_j
            total += coeffs_mp[j+1]*p_next
            p_prev, p, a_prev = p, p_next, a_j
        assert clenshaw(basis, coeffs, eta) == pytest.approx(float(total), rel=1e-13)

    @pytest.mark.parametrize("alpha,beta", BASES)
    def test_matches_forward_summation(self, alpha, beta):
        basis = JacobiBasis(alpha, beta)
        rng = np.random.default_rng(7)
        for trial in range(5):
            m = int(rng.integers(1, 61))
            coeffs = rng.standard_normal(m)
            eta = float(rng.uniform(-1.0, 7.0))
            forward = float(jacobi_eval(basis, m - 1, eta).T @ coeffs)
            assert clenshaw(basis, coeffs, eta) == pytest.approx(forward, rel=1e-13)

    def test_forward_agreement_negative_control(self):
        basis = JacobiBasis(0.0, 0.0)
        coeffs = np.ones(30)
        eta = 3.0
        forward = float(jacobi_eval(basis, 29, eta).T @ coeffs)
        perturbed = coeffs.copy()
        perturbed[29] *= 1.0 + 1e-6
        assert abs(clenshaw(basis, perturbed, eta) / forward - 1.0) > 1e-13

    def test_array_eta(self):
        basis = JacobiBasis(0.0, 0.0)
        coeffs = np.array([0.5, -0.25, 1.5])
        eta = np.array([-1.0, 0.0, 2.0])
        out = clenshaw(basis, coeffs, eta)
        expected = [clenshaw(basis, coeffs, e) for e in eta]
        np.testing.assert_allclose(out, expected, rtol=1e-15)

    def test_bad_coeffs(self):
        with pytest.raises(ValueError):
            clenshaw(JacobiBasis(0.0, 0.0), [], 0.0)
        with pytest.raises(ValueError):
            clenshaw(JacobiBasis(0.0, 0.0), [1.0, math.inf], 0.0)
        with pytest.raises(ValueError):
            clenshaw(JacobiBasis(0.0, 0.0), np.zeros((2, 2, 2)), 0.0)
        with pytest.raises(ValueError):
            clenshaw(JacobiBasis(0.0, 0.0), np.zeros((3, 0)), 0.0)
        with pytest.raises(ValueError, match="1-d"):
            clenshaw(JacobiBasis(0.0, 0.0), np.ones((3, 2)), 0.4)


class TestClenshawMatrix:
    @pytest.mark.parametrize("eta", [np.array([0.1]), np.array([0.1, 0.2]), [0.5]])
    def test_array_eta_raises(self, eta):
        with pytest.raises(ValueError, match="1-d"):
            clenshaw(JacobiBasis(0.0, 0.0), np.ones((3, 2)), eta)


def _bits(value):
    """Type, shape and raw bytes: equal only for bit-identical results,
    signed zeros and NaNs included."""
    return type(value), np.shape(value), np.asarray(value).tobytes()


class TestClenshawBitIdentity:
    @pytest.mark.parametrize("d,alpha,c", BIT_IDENTITY_GRID)
    def test_matches_reference(self, d, alpha, c):
        grid = np.random.default_rng(5).uniform(-1.2, 1.5, 37)
        etas = [-1.0, 0.3, np.float64(0.7), np.array(-0.2), np.array([0.1]),
                np.array([[-0.4]]), [0.9], grid]
        for family in bit_identity_families(d, alpha, c):
            for f in family:
                for eta in etas:
                    got = clenshaw(f.basis, f.coeffs, eta)
                    assert _bits(got) == _bits(clenshaw_reference(f.basis, f.coeffs, eta))

    @pytest.mark.parametrize("coeffs", [[-0.0], [0.5], [-0.0, -0.0], [0.5, -0.25, 1.5, -0.0, 2.0]])
    def test_special_arguments_match_reference(self, coeffs):
        basis = JacobiBasis(0.0, 0.5)
        for x in (math.inf, -math.inf, math.nan, -0.0, 0.0, 1e308, -1e200, 5e-324):
            for eta in (x, np.array(x), np.array([x]), np.array([x, 0.5])):
                if not math.isfinite(x):
                    # Non-finite eta is rejected before any recurrence runs.
                    with pytest.raises(ValueError, match="eta must be finite"):
                        clenshaw(basis, coeffs, eta)
                    continue
                with np.errstate(over="ignore", invalid="ignore"):
                    got = clenshaw(basis, coeffs, eta)
                    want = clenshaw_reference(basis, coeffs, eta)
                assert _bits(got) == _bits(want)

    def test_one_ulp_negative_control(self):
        f = solve_pswfs(2, 0.0, 5.0, 0, 12)[0]
        perturbed = f.coeffs.copy()
        perturbed[0] = np.nextafter(perturbed[0], np.inf)
        for eta in (0.5, np.array([0.5]), np.linspace(-1.0, 1.0, 37)):
            got = clenshaw(f.basis, perturbed, eta)
            assert _bits(got) != _bits(clenshaw_reference(f.basis, f.coeffs, eta))


class TestBesselScaled:
    def test_value_at_zero(self):
        assert bessel_j_scaled(0.0, 0.0) == pytest.approx(1.0, rel=1e-15)
        nu = 1.7
        expected = math.exp(-nu * math.log(2.0) - math.lgamma(nu + 1.0))
        assert bessel_j_scaled(nu, 0.0) == pytest.approx(expected, rel=1e-15)

    def test_half_order_closed_form(self):
        # J_{1/2}(z) = sqrt(2/(pi z)) sin z, evaluated at z = pi/2.
        z = math.pi / 2.0
        assert bessel_j_scaled(0.5, z) == pytest.approx(
            0.50794908747392775829, rel=1e-14
        )

    def test_series_oracle_j1(self):
        # Frozen from the 30-term power series at 50 digits.
        assert bessel_j_scaled(1.0, 1.0) == pytest.approx(
            0.44005058574493351596, rel=1e-14
        )

    @pytest.mark.parametrize("nu", [0.0, 0.5, 1.5, 3.7, 10.0])
    def test_branch_crossover_agreement(self, nu):
        series = _bessel_series(nu, np.array([2.0]))[0]
        above = bessel_j_scaled(nu, np.nextafter(2.0, 3.0))
        assert abs(series - above) <= 1e-13 * abs(series)

    @pytest.mark.parametrize("nu", [0.0, 0.5, 1.0, 2.5, 7.3])
    def test_against_scipy(self, nu):
        # The power-series branch (z <= 2) against scipy's J_nu; above z = 2
        # the function is scipy's, and test_against_mpmath judges it.
        z = np.linspace(0.05, 2.0, 40)
        ours = bessel_j_scaled(nu, z)
        reference = scipy.special.jv(nu, z) / z ** nu
        peak = bessel_j_scaled(nu, 0.0)
        assert np.max(np.abs(ours - reference)) < 1e-13 * peak
        np.testing.assert_allclose(ours * z ** nu, scipy.special.jv(nu, z),
                                   rtol=1e-11, atol=1e-13)

    @pytest.mark.parametrize("nu", [0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 5.0, 10.0])
    def test_against_mpmath(self, nu):
        # The scaled function is accurate in absolute terms relative to its
        # peak at z = 0; recovering J itself multiplies that error by z^nu.
        # The grid straddles the series cutoff z = 2 and, for nu > 2, the
        # point z = nu where the recurrence route of 2 nu integer orders
        # takes over from jv.
        edges = [np.nextafter(2.0, 3.0), nu, np.nextafter(nu, np.inf)]
        z = np.unique(np.concatenate([np.linspace(0.05, 2.0, 12), edges,
                                      np.linspace(2.0, 40.0, 39)[1:], np.linspace(50.0, 400.0, 36)]))
        mp.mp.dps = 30
        reference = np.array([float(mp.besselj(nu, x) / mp.mpf(x) ** nu) for x in z])
        peak = bessel_j_scaled(nu, 0.0)
        assert np.max(np.abs(bessel_j_scaled(nu, z) - reference)) <= 1e-14 * peak

    @pytest.mark.parametrize("nu", [0.0, 0.7, 1.5])
    @pytest.mark.parametrize("z", [0.5, 3.0, 12.0])
    def test_derivative_identity(self, nu, z):
        # d/dz [J_nu(z)/z^nu] = -z * J_{nu+1}(z)/z^{nu+1}
        h = 1e-5
        fd = (bessel_j_scaled(nu, z + h) - bessel_j_scaled(nu, z - h)) / (2.0 * h)
        rhs = -z * bessel_j_scaled(nu + 1.0, z)
        assert abs(fd - rhs) < 1e-8

    @pytest.mark.parametrize("z", [0.5, 3.0])
    def test_derivative_identity_negative_control(self, z):
        h = 1e-5
        fd = (bessel_j_scaled(0.0, z + h) - bessel_j_scaled(0.0, z - h)) / (2.0 * h)
        rhs = -z * bessel_j_scaled(1.0, z) * (1.0 + 1e-6)
        assert abs(fd - rhs) > 1e-8

    def test_even_extension_is_smooth_through_zero(self):
        vals = bessel_j_scaled(2.5, np.array([0.0, 1e-8, 1e-4]))
        assert np.all(np.isfinite(vals))
        assert vals[0] == pytest.approx(vals[1], rel=1e-12)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            bessel_j_scaled(-0.5, 1.0)
        with pytest.raises(ValueError):
            bessel_j_scaled(0.0, -1.0)

    @pytest.mark.parametrize("z", [math.nan, math.inf, -math.inf, [0.5, math.nan], [3.0, math.inf]])
    def test_non_finite_argument_is_loud(self, z):
        with pytest.raises(ValueError, match="argument z must be finite"):
            bessel_j_scaled(1.0, z)


class TestBesselJFamily:
    @pytest.mark.parametrize("nu", [-0.25, 0.5, 1.0, 2.5])
    def test_against_mpmath(self, nu):
        # J_(nu+2j)(z)/z^nu on both branches, relative per entry; at z = 0
        # only the j = 0 row is non-zero.
        z = np.array([0.0, 0.01, 0.5, 1.9, 2.0, 2.5, 10.0, 30.0])
        family = _bessel_j_family(nu, 20, z)
        mp.mp.dps = 30
        for j in range(21):
            for i, x in enumerate(z):
                if x == 0.0:
                    ref = float(1 / (mp.mpf(2) ** nu * mp.gamma(nu + 1))) if j == 0 else 0.0
                else:
                    ref = float(mp.besselj(nu + 2 * j, x) / mp.mpf(x) ** nu)
                assert family[j, i] == pytest.approx(ref, rel=1e-13, abs=0.0)

    def test_row_zero_is_bessel_j_scaled(self):
        z = np.array([0.0, 0.3, 2.0, 7.5])
        np.testing.assert_array_equal(_bessel_j_family(1.5, 3, z)[0], bessel_j_scaled(1.5, z))

    def test_large_index_stays_finite(self):
        # z^(2j) alone overflows here (j = 700, z = 30); the family does not.
        family = _bessel_j_family(0.5, 700, np.array([0.0, 1.0, 2.0, 30.0, 100.0]))
        assert np.all(np.isfinite(family))


class TestBesselRoutes:
    """The z > 2 routes of row 0: the seeded forward recurrence for 2 nu an
    integer at z > nu, and scipy's jv for every other order and point."""

    @pytest.mark.parametrize("nu", [0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 5.0, 10.0])
    def test_seeded_points_do_not_call_jv(self, nu, monkeypatch):
        def no_jv(*args):
            raise AssertionError("jv called on the seeded route")

        z = np.linspace(max(nu, _SERIES_CUTOFF) + 0.01, 3.0 * nu + 40.0, 50)
        expected = bessel_j_scaled(nu, z)
        monkeypatch.setattr(scipy.special, "jv", no_jv)
        np.testing.assert_array_equal(bessel_j_scaled(nu, z), expected)

    @pytest.mark.parametrize("nu,z", [
        (0.7, np.linspace(2.01, 60.0, 80)),
        (2.3, np.linspace(2.01, 60.0, 80)),
        (5.0, np.linspace(2.01, 5.0, 20)),
        (10.0, np.linspace(2.01, 10.0, 20)),
        (4.5, np.linspace(2.01, 4.5, 20)),
    ])
    def test_jv_fallback_is_bit_identical(self, nu, z):
        # Non-half-integer orders, and 2 < z <= nu for the others.
        np.testing.assert_array_equal(bessel_j_scaled(nu, z), scipy.special.jv(nu, z) / z ** nu)

    def test_rows_above_zero_stay_on_jv(self):
        z = np.array([2.5, 7.0, 30.0])
        family = _bessel_j_family(1.5, 4, z)
        orders = 1.5 + 2.0 * np.arange(1, 5)
        np.testing.assert_array_equal(family[1:], scipy.special.jv(orders[:, None], z) / z ** 1.5)

    def test_underflowing_leading_coefficient_stays_finite(self):
        # 2^-300/Gamma(301) underflows to 0; the series must still stop.
        # Above the cutoff z = 10 keeps z^300 finite.
        family = _bessel_j_family(300.0, 3, np.array([0.0, 1.0, 2.0, 2.5, 10.0]))
        assert np.all(np.isfinite(family))

    @pytest.mark.parametrize("nu,z", [
        # nu ln z > 709 at every point, so z^nu overflows.  At nu = 300 the
        # quotient is below 1/(2^300 300!) ~ 1e-705 and underflows to 0:
        # rows j >= 1 and z <= nu on jv, z > nu on the seeded recurrence.
        (300.0, [11.0, 20.0, 250.0, 299.0, 400.0, 1000.0]),
        # Subnormal quotients: row 0 on the recurrence from j0/j1 and from
        # the half-integer closed forms, rows 1-2 on jv.
        (100.0, [1300.0, 1500.0]),
        (100.5, [1500.0]),
    ])
    def test_overflowing_power_underflows_quietly(self, nu, z):
        mp.mp.dps = 30
        z = np.array(z)
        reference = [[float(mp.besselj(nu + 2 * j, x) / mp.mpf(x) ** nu) for x in z]
                     for j in range(3)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            family = _bessel_j_family(nu, 2, z)
        np.testing.assert_allclose(family, reference, rtol=0, atol=2 * 2.0 ** -1074)

    def test_swapped_seeds_miss_mpmath(self):
        # Negative control: the recurrence from (J_1, J_0) instead of
        # (J_0, J_1) must not reproduce J_3; the right seeds do.
        mp.mp.dps = 30
        z = np.linspace(3.5, 40.0, 30)
        reference = np.array([float(mp.besselj(3, mp.mpf(x))) for x in z])
        j0, j1 = scipy.special.j0(z), scipy.special.j1(z)
        good = _bessel_forward(1.0, j0, j1, 3.0, z)
        swapped = _bessel_forward(1.0, j1, j0, 3.0, z)
        assert np.max(np.abs(good - reference)) <= 1e-14
        assert np.max(np.abs(swapped - reference)) > 1e-2
