"""Tests for spherical harmonics, ball polynomials, and full evaluation."""

import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from scipy.special import eval_gegenbauer

from ballprolate.errors import IndexOutOfRange
from ballprolate.geometry import (
    ball_poly_eval,
    eval_phi,
    eval_psi_ball,
    eval_radial,
    kernel_qc,
    sph_harm_dim,
    sph_harm_eval,
)
from ballprolate.linalg import gauss_jacobi
from ballprolate.pswf import solve_pswfs
from ballprolate.specfn import JacobiBasis, jacobi_eval
from helpers import (
    ball_gram,
    ball_poly_reference,
    eval_psi_ball_reference,
    kernel_qc_quadrature,
    sph_harm_reference,
    sphere_fourier_residual,
    sphere_gram,
)


def _polar_point(theta, phi):
    """The unit vector of S^2 at polar angle theta and azimuth phi."""
    return (math.sin(theta) * math.cos(phi), math.sin(theta) * math.sin(phi), math.cos(theta))


class TestSphHarmDim:
    def test_examples(self):
        assert sph_harm_dim(3, 2) == 5
        assert sph_harm_dim(2, 0) == 1
        assert all(sph_harm_dim(2, n) == 2 for n in range(1, 6))
        assert sph_harm_dim(1, 2) == 0
        assert [sph_harm_dim(1, n) for n in (0, 1)] == [1, 1]
        assert sph_harm_dim(3, 7) == 15

    def test_validation(self):
        with pytest.raises(ValueError):
            sph_harm_dim(0, 1)
        with pytest.raises(ValueError):
            sph_harm_dim(2, -1)


class TestSphHarmEval:
    def test_three_d_constant(self):
        value = sph_harm_eval(3, 0, 1, _polar_point(0.3, 1.1))
        assert value == pytest.approx(1.0 / math.sqrt(4.0 * math.pi), rel=1e-14)

    def test_two_d_cosine_peak(self):
        value = sph_harm_eval(2, 3, 1, (1.0, 0.0))
        assert value == pytest.approx(1.0 / math.sqrt(math.pi), rel=1e-15)

    def test_three_d_zonal_oracle(self):
        # Frozen 50-digit value of the zonal degree-2 harmonic at polar
        # angle pi/3.
        value = sph_harm_eval(3, 2, 1, _polar_point(math.pi / 3.0, 0.0))
        assert value == pytest.approx(-0.078847891313130001508, rel=1e-13)

    def test_one_d(self):
        assert sph_harm_eval(1, 0, 1, (1.0,)) == pytest.approx(1 / math.sqrt(2))
        assert sph_harm_eval(1, 1, 1, (-1.0,)) == pytest.approx(-1 / math.sqrt(2))

    def test_cartesian_input(self):
        v = np.array([0.6, 0.8])
        direct = sph_harm_eval(2, 2, 2, v)
        theta = math.atan2(0.8, 0.6)
        assert direct == pytest.approx(math.sin(2 * theta) / math.sqrt(math.pi), rel=1e-14)

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    def test_orthonormal_under_surface_measure(self, d):
        # 6 Gauss-Jacobi nodes per polar coordinate and 12 on the circle
        # integrate the products of degree <= 8 exactly.
        gram = sphere_gram(d, 4, n_theta=6, n_phi=12)
        assert np.max(np.abs(gram - np.eye(gram.shape[0]))) < 1e-13

    @pytest.mark.parametrize("d", range(3, 9))
    @pytest.mark.parametrize("n", range(6))
    def test_addition_theorem(self, d, n):
        # sum_ell Y_ell(u) Y_ell(v) = dim / |S^(d-1)| C_n^(d/2-1)(u.v) / C_n^(d/2-1)(1).
        rng = np.random.default_rng(10 * d + n)
        u, v = rng.standard_normal((2, 20, d))
        u /= np.linalg.norm(u, axis=1)[:, None]
        v /= np.linalg.norm(v, axis=1)[:, None]
        dim = sph_harm_dim(d, n)
        total = sum(sph_harm_eval(d, n, ell, u) * sph_harm_eval(d, n, ell, v)
                    for ell in range(1, dim + 1))
        area = 2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0)
        cosines = np.einsum("ij,ij->i", u, v)
        zonal = eval_gegenbauer(n, d / 2.0 - 1.0, cosines) / eval_gegenbauer(n, d / 2.0 - 1.0, 1.0)
        assert np.max(np.abs(total - dim / area * zonal)) <= 1e-13 * dim / area

    @pytest.mark.parametrize("n", [2, 5, 8])
    def test_near_pole_against_mpmath(self, n):
        # 40-digit evaluation of Y_2^n = s P~_(n-1)^(1,1)(t) cos(phi) / (4 sqrt(pi))
        # at the exact direction u of each double point, where s cos(phi) = u_1
        # and P~_j^(1,1) = P_j^(1,1) sqrt(2 (2j+3) (j+2) / (j+1)).
        mp.mp.dps = 40
        z = np.array([0.99991982712903227, 0.9999999, -0.99999, 0.999999999])
        phi = np.array([0.4, 2.9, -1.3, 0.0])
        s = np.sqrt(1.0 - z * z)
        points = np.column_stack([s * np.cos(phi), s * np.sin(phi), z])
        expected = []
        for point in points:
            x, y, t = (mp.mpf(float(c)) for c in point)
            norm = mp.sqrt(x * x + y * y + t * t)
            x, y, t = x / norm, y / norm, t / norm
            jacobi = mp.jacobi(n - 1, 1, 1, t) * mp.sqrt(mp.mpf(2 * (2 * n + 1) * (n + 1)) / n)
            expected.append(float(x * jacobi / (4 * mp.sqrt(mp.pi))))
        assert _deviation(sph_harm_eval(3, n, 2, points), np.array(expected)) <= 2e-15

    def test_orthonormality_negative_control(self):
        gram = sphere_gram(3, 2)
        gram[2, :] *= 1.0 + 1e-6
        assert np.max(np.abs(gram - np.eye(gram.shape[0]))) > 1e-12

    def test_errors(self):
        with pytest.raises(IndexOutOfRange):
            sph_harm_eval(2, 1, 3, (1.0, 0.0))
        with pytest.raises(IndexOutOfRange):
            sph_harm_eval(1, 2, 1, (1.0,))
        # The constant harmonic on S^3 is 1/sqrt(|S^3|) = 1/sqrt(2 pi^2).
        assert sph_harm_eval(4, 0, 1, (1.0, 0.0, 0.0, 0.0)) == \
            pytest.approx(1.0 / math.sqrt(2.0 * math.pi ** 2), rel=1e-15)
        with pytest.raises(ValueError, match="unit vector"):
            sph_harm_eval(2, 1, 1, (0.5, 0.5))


class TestFunkHecke:
    """Fourier transform of a spherical harmonic over S^(d-1), an integral
    check of sph_harm_eval and bessel_j_scaled together in every d."""

    @staticmethod
    def _directions(d):
        xi = np.random.default_rng(d).standard_normal((2, d))
        return xi / np.linalg.norm(xi, axis=1)[:, None]

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    @pytest.mark.parametrize("n", range(4))
    def test_identity(self, d, n):
        dim = sph_harm_dim(d, n)
        for ell in sorted({1, (dim + 1) // 2, dim}):
            residual = sphere_fourier_residual([0.5, 2.5, 5.0], n, ell, d, self._directions(d))
            assert residual <= 1e-12

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_negative_control(self, d):
        args = ([0.5, 2.5, 5.0], 1, 1, d, self._directions(d))
        assert sphere_fourier_residual(*args) <= 1e-12
        assert sphere_fourier_residual(*args, y_factor=1.0 + 1e-6) > 1e-12


class TestBallPoly:
    def test_disk_constant(self):
        value = ball_poly_eval(2, 0.0, 0, 0, 1, (0.3, -0.2))
        assert value == pytest.approx(1.0 / math.sqrt(math.pi), rel=1e-14)

    def test_zero_at_origin_for_positive_degree(self):
        assert ball_poly_eval(3, 0.5, 2, 1, 3, (0.0, 0.0, 0.0)) == 0.0

    @pytest.mark.parametrize("d", [2, 3])
    def test_orthonormal_on_ball(self, d):
        # Radial Gauss-Jacobi in eta = 2r^2-1 (weight exponents (alpha, d/2-1))
        # times the surface quadrature of the harmonics.
        gram = ball_gram(d, 0.0, 6)
        assert np.max(np.abs(gram - np.eye(gram.shape[0]))) < 1e-11

    def test_ball_orthonormality_negative_control(self):
        alpha, d = 0.0, 2
        rule = gauss_jacobi(alpha, 0.0, 20)
        radii = np.sqrt(0.5 * (1.0 + rule.nodes))
        rad_w = rule.weights * 2.0 ** (-(alpha + 2.0))
        jac = jacobi_eval(JacobiBasis(alpha, 0.0), 2, rule.nodes)[2]
        norm = float((jac * jac) @ rad_w) * 1.0  # angular factor is unity for n=0
        assert abs(norm - 1.0) < 1e-12
        assert abs(norm * (1.0 + 1e-6) ** 2 - 1.0) > 1e-11


class TestEvalPhi:
    def test_zero_bandwidth_is_jacobi(self):
        f = solve_pswfs(3, 1.0, 0.0, 1, 2)[2]
        basis = JacobiBasis(1.0, 1.5)
        for eta in (-1.0, -0.5, 0.2, 1.0, 7.0):
            assert eval_phi(f, eta) == pytest.approx(
                float(jacobi_eval(basis, 2, eta)[2]), rel=1e-14
            )

    def test_disk_table_point(self):
        f = solve_pswfs(2, 0.0, 1.0, 0, 0)[0]
        assert math.sqrt(0.5) * eval_phi(f, -0.5) == pytest.approx(
            1.030440043954435, rel=1e-12
        )


class TestEvalRadial:
    def test_disk_slepian_form(self):
        f = solve_pswfs(2, 0.0, 1.0, 0, 0)[0]
        assert eval_radial(f, 0.1, form="slepian") == pytest.approx(
            4.746377794187660e-01, rel=1e-12
        )

    def test_ball_plain_form(self):
        f = solve_pswfs(3, 1.0, 1.0, 0, 0)[0]
        assert eval_radial(f, 0.5, form="plain") == pytest.approx(
            2.772954660597707, rel=1e-12
        )

    def test_extrapolation_beyond_unit_radius(self):
        # The alpha = 0 reference column uses the disk-style r^(n+1/2)
        # presentation; at r = 2 the plain form differs from it by r^(1/2).
        f = solve_pswfs(3, 0.0, 2.0, 2, 3)[3]
        value = math.sqrt(2.0) * eval_radial(f, 2.0, form="plain")
        assert value == pytest.approx(4.569351866698169e+04, rel=1e-9)

    def test_array_and_zero_radius(self):
        f = solve_pswfs(2, 0.0, 2.0, 1, 1)[1]
        r = np.array([0.0, 0.3, 1.0, 2.0])
        vals = eval_radial(f, r, form="plain")
        assert vals[0] == 0.0
        assert vals.shape == (4,)
        with pytest.raises(ValueError):
            eval_radial(f, -0.1)
        with pytest.raises(ValueError):
            eval_radial(f, 0.5, form="nope")


class TestEvalPsiBall:
    @pytest.mark.parametrize("d", [2, 3, 5])
    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    def test_parity(self, d, n):
        f = solve_pswfs(d, 0.0, 2.0, n, 1)[1]
        rng = np.random.default_rng(5 * d + n)
        for _ in range(6):
            x = rng.uniform(-0.5, 0.5, size=d)
            ell = 1 + (n > 0 and d > 1)
            plus = eval_psi_ball(f, ell, x)
            minus = eval_psi_ball(f, ell, -x)
            assert minus == pytest.approx((-1.0) ** n * plus, rel=1e-12)

    def test_parity_negative_control(self):
        f = solve_pswfs(2, 0.0, 2.0, 1, 0)[0]
        x = np.array([0.3, 0.4])
        plus = eval_psi_ball(f, 1, x)
        minus = eval_psi_ball(f, 1, -x * (1.0 + 1e-6))
        assert abs(minus + plus) > 1e-12 * abs(plus)

    def test_zero_bandwidth_equals_ball_polynomial(self):
        f = solve_pswfs(3, 0.5, 0.0, 1, 2)[2]
        rng = np.random.default_rng(2)
        for _ in range(5):
            x = rng.uniform(-0.4, 0.4, size=3)
            assert eval_psi_ball(f, 2, x) == pytest.approx(
                ball_poly_eval(3, 0.5, 1, 2, 2, x), rel=1e-13
            )

    def test_origin_cases(self):
        f0 = solve_pswfs(2, 0.0, 1.0, 0, 0)[0]
        expected = eval_phi(f0, -1.0) / math.sqrt(2.0 * math.pi)
        assert eval_psi_ball(f0, 1, (0.0, 0.0)) == pytest.approx(expected, rel=1e-14)
        f1 = solve_pswfs(2, 0.0, 1.0, 1, 0)[0]
        assert eval_psi_ball(f1, 1, (0.0, 0.0)) == 0.0

    def test_unit_norm_by_quadrature(self):
        f = solve_pswfs(2, 0.0, 10.0, 0, 0)[0]
        rule = gauss_jacobi(0.0, 0.0, 80)
        radii = np.sqrt(0.5 * (1.0 + rule.nodes))
        rad_w = rule.weights * 0.25
        m = 64
        theta = 2.0 * math.pi * np.arange(m) / m
        directions = np.column_stack([np.cos(theta), np.sin(theta)])
        vals = eval_psi_ball(f, 1, np.multiply.outer(radii, directions).reshape(-1, 2))
        weights = np.multiply.outer(rad_w, np.full(m, 2.0 * math.pi / m)).ravel()
        assert (vals * vals) @ weights == pytest.approx(1.0, abs=1e-11)

    def test_outside_ball_rejected(self):
        f = solve_pswfs(2, 0.0, 1.0, 0, 0)[0]
        with pytest.raises(ValueError):
            eval_psi_ball(f, 1, (1.2, 0.0))


def _contract_points(d):
    """Interior points, the origin, the poles (+-e_d, also at half radius),
    the points +-e_1 and random points on the boundary |x| = 1."""
    rng = np.random.default_rng(d)
    directions = rng.standard_normal((24, d))
    directions /= np.linalg.norm(directions, axis=1)[:, None]
    radii = np.concatenate([rng.uniform(0.0, 1.0, 16), np.ones(8)])
    axes = np.eye(d)[[0, -1]]
    special = np.concatenate([np.zeros((1, d)), axes, -axes, 0.5 * axes, -0.5 * axes])
    return np.concatenate([special, directions * radii[:, None]])


def _deviation(values, reference):
    """max |values - reference| in units of max |reference|."""
    return np.max(np.abs(values - reference)) / np.max(np.abs(reference))


_DEGREES = [(d, n) for d in (1, 2, 3) for n in range(4) if sph_harm_dim(d, n)]


class TestArrayContract:
    """Array evaluation against the per-point reference of tests/helpers.py."""

    @pytest.mark.parametrize("d,n", _DEGREES)
    def test_matches_per_point_reference(self, d, n):
        points = _contract_points(d)
        on_sphere = points[np.linalg.norm(points, axis=1) > 0.0]
        on_sphere = on_sphere / np.linalg.norm(on_sphere, axis=1)[:, None]
        family = solve_pswfs(d, 0.5, 7.0, n, 2)
        for ell in range(1, sph_harm_dim(d, n) + 1):
            harmonic = sph_harm_eval(d, n, ell, on_sphere)
            expected = [sph_harm_reference(d, n, ell, u) for u in on_sphere]
            assert _deviation(harmonic, expected) <= 1e-14
            for k, f in enumerate(family):
                poly = ball_poly_eval(d, 0.5, n, k, ell, points)
                expected = [ball_poly_reference(d, 0.5, n, k, ell, x) for x in points]
                assert _deviation(poly, expected) <= 1e-14
                psi = eval_psi_ball(f, ell, points)
                expected = [eval_psi_ball_reference(f, ell, x) for x in points]
                assert _deviation(psi, expected) <= 1e-14

    def test_negative_control(self):
        f = solve_pswfs(2, 0.5, 7.0, 1, 2)[2]
        points = _contract_points(2)
        expected = [eval_psi_ball_reference(f, 1, x) for x in points]
        scaled = points.copy()
        scaled[-10] *= 1.0 + 1e-6
        assert _deviation(eval_psi_ball(f, 1, scaled), expected) > 1e-14

    def test_shapes(self):
        f = solve_pswfs(3, 0.0, 2.0, 2, 0)[0]
        points = _contract_points(3)
        assert eval_psi_ball(f, 3, points).shape == (len(points),)
        assert eval_psi_ball(f, 3, points[:1]).shape == (1,)
        assert ball_poly_eval(3, 0.0, 2, 1, 3, points).shape == (len(points),)
        assert sph_harm_eval(3, 2, 3, points[1:3]).shape == (2,)
        assert type(eval_psi_ball(f, 3, points[5])) is float
        assert type(ball_poly_eval(3, 0.0, 2, 1, 3, points[5])) is float
        assert type(sph_harm_eval(3, 2, 3, points[1])) is float
        assert type(sph_harm_eval(5, 2, 3, np.eye(5)[4])) is float

    def test_batch_validation(self):
        f = solve_pswfs(2, 0.0, 2.0, 1, 0)[0]
        points = _contract_points(2)
        outside = points.copy()
        outside[-3] *= 1.0 + 1e-9
        with pytest.raises(ValueError, match="outside the closed unit ball"):
            eval_psi_ball(f, 1, outside)
        with pytest.raises(ValueError, match="outside the closed unit ball"):
            ball_poly_eval(2, 0.0, 1, 0, 1, outside)
        with pytest.raises(ValueError, match="coordinates"):
            eval_psi_ball(f, 1, np.zeros((4, 3)))
        with pytest.raises(ValueError, match="unit vector"):
            sph_harm_eval(2, 1, 1, 0.5 * np.eye(2))
        # ell is checked even when every point is the origin.
        with pytest.raises(IndexOutOfRange):
            eval_psi_ball(f, 3, np.zeros((2, 2)))
        # At d = 5 the origin takes the constant harmonic 1/sqrt(|S^4|) = 1/sqrt(8 pi^2/3).
        f5 = solve_pswfs(5, 0.0, 2.0, 0, 0)[0]
        at_origin = eval_phi(f5, -1.0) / math.sqrt(8.0 * math.pi ** 2 / 3.0)
        assert eval_psi_ball(f5, 1, np.zeros((2, 5))) == pytest.approx([at_origin] * 2, rel=1e-14)

    def test_origin_rows(self):
        f0 = solve_pswfs(3, 0.0, 1.0, 0, 1)[1]
        f1 = solve_pswfs(3, 0.0, 1.0, 1, 1)[1]
        batch = np.array([[0.0, 0.0, 0.0], [0.1, 0.2, 0.3], [0.0, 0.0, 0.0]])
        at_origin = eval_phi(f0, -1.0) / math.sqrt(4.0 * math.pi)
        assert eval_psi_ball(f0, 1, batch)[[0, 2]] == pytest.approx([at_origin] * 2, rel=1e-14)
        values = eval_psi_ball(f1, 2, batch)
        assert values[0] == 0.0 and math.copysign(1.0, values[0]) == 1.0
        assert values[2] == 0.0 and math.copysign(1.0, values[2]) == 1.0


class TestKernel:
    def test_coincidence_closed_forms(self):
        # Frozen 50-digit values of pi^(d/2) Gamma(alpha+1) / Gamma(alpha+d/2+1).
        assert kernel_qc(2, 0.0, 2.0, 0.0) == pytest.approx(math.pi, rel=1e-13)
        assert kernel_qc(3, 1.0, 2.0, 0.0) == pytest.approx(1.6755160819145563938, rel=1e-13)
        assert kernel_qc(5, -0.5, 2.0, 0.0) == pytest.approx(15.503138340149910088, rel=1e-13)
        assert kernel_qc(2, 1.5, 2.0, 0.0) == pytest.approx(1.2566370614359172954, rel=1e-13)
        # The largest alpha on the disk whose Bessel factor stays normal.
        assert kernel_qc(2, 140.0, 1.0, 0.0) == pytest.approx(math.pi / 141.0, rel=1e-13)

    def test_disk_closed_form(self):
        # 2 pi J_1(c rho)/(c rho), with the Bessel factor evaluated through
        # the scaled routine at the shifted order.
        from ballprolate.specfn import bessel_j_scaled

        c = 2.0
        rho = np.linspace(0.05, 2.0, 40)
        ours = kernel_qc(2, 0.0, c, rho)
        closed = 2.0 * math.pi * bessel_j_scaled(1.0, c * rho)
        np.testing.assert_allclose(ours, closed, rtol=1e-12)

    def test_adaptive_quadrature_oracle(self):
        # Frozen 50-digit adaptive quadrature of the kernel integral at
        # d=3, alpha=1, c=2, rho=0.9.
        assert kernel_qc(3, 1.0, 2.0, 0.9) == pytest.approx(1.3209914288876259984, rel=1e-12)

    @pytest.mark.parametrize("d,alpha,c", [(2, 0.0, 1.0), (3, 1.0, 5.0), (5, -0.5, 10.0),
                                           (2, -0.5, 30.0), (3, 2.0, 20.0)])
    def test_closed_form_matches_quadrature(self, d, alpha, c):
        rho = np.linspace(0.0, 2.0, 81)
        ours = kernel_qc(d, alpha, c, rho)
        assert np.max(np.abs(ours - kernel_qc_quadrature(d, alpha, c, rho))) <= 1e-14 * ours[0]

    @pytest.mark.parametrize("alpha", [-0.5, 0.0, 1.5])
    def test_line_against_mpmath(self, alpha):
        # On the line the kernel is int_{-1}^{1} (1-s^2)^alpha cos(c rho s) ds.
        c, rho = 3.0, 0.7
        mp.mp.dps = 30
        exact = mp.quad(lambda s: (1 - s * s) ** alpha * mp.cos(c * rho * s), [-1, 0, 1])
        assert kernel_qc(1, alpha, c, rho) == pytest.approx(float(exact), rel=1e-14)

    def test_high_order_underflows_quietly(self):
        # mu = 300 at c rho = 20, where 20^300 overflows; mpmath gives the
        # kernel as 1.15e-705, below the double range.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert kernel_qc(600, 0.0, 20.0, 1.0) == 0.0

    @pytest.mark.parametrize("d", [780, 1000])
    @pytest.mark.parametrize("alpha", [0.0, 0.5, 200.0])
    def test_overflowing_prefactor_underflows_quietly(self, d, alpha):
        # (2 pi)^(d/2) overflows from d = 780, and Gamma(alpha + 1) from
        # alpha = 171, while the kernel's peak
        # pi^(d/2) Gamma(alpha+1)/Gamma(d/2+alpha+1) is below e^-1400.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert kernel_qc(d, alpha, 20.0, 1.0) == 0.0
            assert kernel_qc(d, alpha, 20.0, 0.0) == 0.0
            np.testing.assert_array_equal(kernel_qc(d, alpha, 20.0, [0.0, 0.5, 3.0]), 0.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            kernel_qc(0, 0.0, 2.0, 0.5)
        with pytest.raises(ValueError, match="dimension"):
            kernel_qc(2.5, 0.0, 2.0, 0.5)
        with pytest.raises(ValueError):
            kernel_qc(2, 0.0, 0.0, 0.5)
        with pytest.raises(ValueError):
            kernel_qc(2, 0.0, 2.0, -0.1)

    @pytest.mark.parametrize("alpha", [150.0, 170.0, 171.0, 1e6, math.inf])
    def test_subnormal_bessel_factor_is_loud(self, alpha):
        # J_mu(z)/z^mu <= 1/(2^mu Gamma(mu+1)) is subnormal at every rho
        # from mu = 149.9, while the kernel's peak pi/(alpha+1) is not, so
        # no separation could be computed to full precision.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="alpha"):
                kernel_qc(2, alpha, 1.0, 0.5)

    @pytest.mark.parametrize("rho", [math.nan, math.inf, [0.1, math.nan], [0.1, -math.inf]])
    def test_non_finite_separation_is_loud(self, rho):
        with pytest.raises(ValueError, match="separation rho must be finite"):
            kernel_qc(2, 0.0, 2.0, rho)
