"""Shared quadrature and reference oracles used by several test modules."""

import math

import mpmath as mp
import numpy as np

from ballprolate.geometry import (
    ball_poly_eval,
    eval_phi,
    eval_radial,
    kernel_qc,
    sph_harm_dim,
    sph_harm_eval,
)
from ballprolate.linalg import gauss_jacobi
from ballprolate.pswf import solve_pswfs
from ballprolate.specfn import (
    JacobiBasis,
    _norm_const,
    _recurrence_arrays,
    bessel_j_scaled,
    clenshaw,
    jacobi_eval,
)
from ballprolate.verify import DEFAULT_R_GRID, _hankel_sides


def jacobi_coeffs(basis, j):
    """Recurrence coefficients (a_j, b_j, h_j) of the orthonormalized family.

    a_j and b_j are entry j of _recurrence_arrays; h_j is the norm constant
    of P~_j, so that P~_0 = 1/h_0.
    """
    if j < 0:
        raise ValueError(f"index j must be non-negative, got {j}")
    a, b = _recurrence_arrays(basis, j)
    return float(a[j]), float(b[j]), _norm_const(basis, j)


def jacobi_ab_reference(alpha, beta, j):
    """Recurrence coefficients (a_j, b_j) by the scalar per-index formulas,
    with the reduced j = 0 forms, as a reference for the vectorized arrays."""
    al, be = alpha, beta
    s = al + be
    if j == 0:
        b = (be - al) / (s + 2.0)
        a = math.sqrt(4.0 * (al + 1) * (be + 1) / ((s + 2.0) ** 2 * (s + 3.0)))
        return a, b
    b = (be * be - al * al) / ((2 * j + s) * (2 * j + s + 2.0))
    a = math.sqrt(
        4.0 * (j + 1) * (j + al + 1) * (j + be + 1) * (j + s + 1)
        / ((2 * j + s + 1) * (2 * j + s + 2) ** 2 * (2 * j + s + 3))
    )
    return a, b


def clenshaw_reference(basis, coeffs, eta):
    """Clenshaw sum with NumPy operations on eta as an array of any shape,
    as a reference that the scalar fast path must match bit for bit."""
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.ndim != 1 or coeffs.size == 0:
        raise ValueError("coeffs must be a non-empty 1-d sequence")
    if not np.all(np.isfinite(coeffs)):
        raise ValueError("coeffs must be finite")
    eta_arr = np.asarray(eta, dtype=float)
    m = coeffs.size - 1
    h0 = _norm_const(basis, 0)
    if m == 0:
        value = coeffs[0] / h0 * np.ones_like(eta_arr)
        return float(value) if np.isscalar(eta) or eta_arr.ndim == 0 else value
    a, b = _recurrence_arrays(basis, m)
    ynext = np.zeros_like(eta_arr)
    ynext2 = np.zeros_like(eta_arr)
    for j in range(m, -1, -1):
        y = coeffs[j] + (eta_arr - b[j]) / a[j] * ynext
        if j + 1 <= m:
            y = y - a[j] / a[j + 1] * ynext2
        ynext, ynext2 = y, ynext
    value = ynext / h0
    return float(value) if np.isscalar(eta) or eta_arr.ndim == 0 else value


def sign_rule_reference(coeffs, k):
    """Per-column sign rule: make coeffs[k] positive, or the first
    largest-magnitude entry when |coeffs[k]| < 1e-12."""
    pivot = coeffs[k]
    if abs(pivot) >= 1e-12:
        return -coeffs if pivot < 0.0 else coeffs
    if coeffs[int(np.argmax(np.abs(coeffs)))] < 0.0:
        return -coeffs
    return coeffs


# (d, alpha, c) of the families on which fast paths are pinned to their
# references bit for bit.
BIT_IDENTITY_GRID = [(d, alpha, c) for d in (1, 2, 3, 5)
                     for alpha in (-0.5, 0.0, 1.0) for c in (0.5, 5.0, 20.0)]


def bit_identity_families(d, alpha, c, k_max=12):
    """Solved families (d, alpha, c, n, k_max) for every n <= 2 (n <= 1 at
    d = 1)."""
    return [solve_pswfs(d, alpha, c, n, k_max) for n in range(2 if d == 1 else 3)]


def kernel_qc_quadrature(d, alpha, c, rho):
    """Concentration kernel
    (2 pi)^(d/2) int_0^1 s^(d-1) (1-s^2)^alpha J_nu(c s rho)/(c s rho)^nu ds,
    nu = (d-2)/2, by a Gauss-Jacobi rule of ceil(c)+24 nodes in the variable
    s^2; needs d >= 2 so that the Bessel order exceeds -1/2."""
    rule = gauss_jacobi(alpha, d / 2.0 - 1.0, math.ceil(c) + 24)
    s = np.sqrt(0.5 * (1.0 + rule.nodes))
    scaled = bessel_j_scaled((d - 2) / 2.0, c * np.multiply.outer(np.asarray(rho, dtype=float), s))
    return (2.0 * math.pi) ** (d / 2.0) * 2.0 ** (-alpha - d / 2.0 - 1.0) * (scaled @ rule.weights)


def mu_rayleigh_reference(d, alpha, c, n, k, radial_nodes=48, angular_nodes=128):
    """Disk Rayleigh quotient (Q psi, psi)/(psi, psi) with the kernel
    evaluated on the full radial_nodes x radial_nodes x angular_nodes grid
    of separations and numpy's Gauss-Legendre rule, as a reference for
    verify.mu_rayleigh, which folds the grid by its symmetries."""
    pswf = solve_pswfs(d, alpha, c, n, k)[k]
    x, w = np.polynomial.legendre.leggauss(radial_nodes)
    t = 0.5 * (x + 1.0)
    wt = 0.5 * w
    radial = t ** n * clenshaw(pswf.basis, pswf.coeffs, 2.0 * t * t - 1.0)
    u = 2.0 * math.pi * np.arange(angular_nodes) / angular_nodes
    du = 2.0 * math.pi / angular_nodes
    rr = t[:, None, None]
    tt = t[None, :, None]
    rho = np.sqrt(np.maximum(rr * rr + tt * tt - 2.0 * rr * tt * np.cos(u)[None, None, :], 0.0))
    kern = kernel_qc(d, alpha, c, rho.ravel()).reshape(rho.shape)
    angular = (kern * np.cos(n * u)[None, None, :]).sum(axis=2) * du
    weight = (1.0 - t * t) ** alpha * t * wt
    projected = angular @ (radial * weight)
    numerator = float((radial * weight) @ projected)
    denominator = float((radial * radial) @ weight)
    return numerator / denominator


def closed_form_moment(k, alpha, beta):
    """int_{-1}^{1} (1-t)^alpha (1+t)^beta t^k dt via the Beta function at
    50 digits: substitute t = 2u - 1 and expand (2u-1)^k."""
    mp.mp.dps = 50
    al, be = mp.mpf(alpha), mp.mpf(beta)
    total = mp.mpf(0)
    for j in range(k + 1):
        total += mp.binomial(k, j) * mp.mpf(2) ** j * (-1) ** (k - j) * mp.beta(be + 1 + j, al + 1)
    return float(2 ** (al + be + 1) * total)


def _reference_angles(point):
    v = np.asarray(point, dtype=float)
    if v.size == 1:
        return (1.0 if v[0] > 0 else -1.0,)
    if v.size == 2:
        return (math.atan2(v[1], v[0]),)
    norm = float(np.linalg.norm(v))
    return (math.acos(min(1.0, max(-1.0, v[2] / norm))), math.atan2(v[1], v[0]))


def _jacobi_value(alpha, beta, j, x):
    return float(jacobi_eval(JacobiBasis(alpha, beta), j, x)[j])


def _constant_harmonic(d):
    return {1: 1.0 / math.sqrt(2.0),
            2: 1.0 / math.sqrt(2.0 * math.pi),
            3: 1.0 / math.sqrt(4.0 * math.pi)}[d]


def sph_harm_reference(d, n, ell, point):
    """Y_ell^n, d <= 3, at one Cartesian unit vector by per-point polar-angle
    math-module formulas, as a reference for the array evaluation."""
    angles = _reference_angles(point)
    if d == 1:
        return (1.0 if n == 0 else angles[0]) / math.sqrt(2.0)
    if d == 2:
        theta = angles[0]
        if n == 0:
            return 1.0 / math.sqrt(2.0 * math.pi)
        trig = math.cos(n * theta) if ell == 1 else math.sin(n * theta)
        return trig / math.sqrt(math.pi)
    theta, phi = angles
    if ell == 1:
        return _jacobi_value(0.0, 0.0, n, math.cos(theta)) / math.sqrt(8.0 * math.pi)
    m = ell // 2
    radial = (
        math.sin(theta) ** m
        * _jacobi_value(float(m), float(m), n - m, math.cos(theta))
        / (2.0 ** (m + 1) * math.sqrt(math.pi))
    )
    return radial * (math.cos(m * phi) if ell % 2 == 0 else math.sin(m * phi))


def ball_poly_reference(d, alpha, n, k, ell, x):
    """Per-point reference for ball_poly_eval at one point of the ball."""
    v = np.asarray(x, dtype=float)
    r = float(np.linalg.norm(v))
    radial = _jacobi_value(alpha, n + d / 2.0 - 1.0, k, 2.0 * r * r - 1.0)
    if r == 0.0:
        return 0.0 if n >= 1 else radial * _constant_harmonic(d)
    return radial * r ** n * sph_harm_reference(d, n, ell, v / r)


def eval_psi_ball_reference(pswf, ell, x):
    """Per-point reference for eval_psi_ball at one point of the ball."""
    p = pswf.params
    v = np.asarray(x, dtype=float)
    r = float(np.linalg.norm(v))
    if r == 0.0:
        return 0.0 if p.n >= 1 else eval_phi(pswf, -1.0) * _constant_harmonic(p.d)
    return eval_radial(pswf, r, "plain") * sph_harm_reference(p.d, p.n, ell, v / r)


def surface_rule(d, n_theta=40, n_phi=64):
    """Quadrature points, as an (N, d) array of Cartesian unit vectors, and
    weights over S^(d-1), d >= 2: trapezoid on the circle and, for each
    further dimension k = 3..d, Gauss-Jacobi in t = u_k against the weight
    (1 - t^2)^((k-3)/2) of u = (sqrt(1 - t^2) v, t)."""
    if d == 2:
        phis = 2.0 * math.pi * np.arange(n_phi) / n_phi
        return np.column_stack([np.cos(phis), np.sin(phis)]), np.full(n_phi, 2.0 * math.pi / n_phi)
    rule = gauss_jacobi((d - 3) / 2.0, (d - 3) / 2.0, n_theta)
    inner, inner_w = surface_rule(d - 1, n_theta, n_phi)
    t = np.repeat(rule.nodes, len(inner))
    points = np.column_stack([np.sqrt(1.0 - t * t)[:, None] * np.tile(inner, (n_theta, 1)), t])
    return points, np.multiply.outer(rule.weights, inner_w).ravel()


def sphere_gram(d, n_max, n_theta=40, n_phi=64):
    """Gram matrix of all spherical harmonics of degree <= n_max."""
    labels = [(n, ell) for n in range(n_max + 1) for ell in range(1, sph_harm_dim(d, n) + 1)]
    points, weights = surface_rule(d, n_theta, n_phi)
    values = np.array([sph_harm_eval(d, n, ell, points) for n, ell in labels])
    return (values * weights) @ values.T


def ball_gram(d, alpha, degree_max, radial_nodes=20):
    """Gram matrix of the orthonormal ball polynomials with total degree
    n + 2k <= degree_max, by radial Gauss-Jacobi times surface quadrature."""
    rule = gauss_jacobi(alpha, d / 2.0 - 1.0, radial_nodes)
    radii = np.sqrt(0.5 * (1.0 + rule.nodes))
    rad_w = rule.weights * 2.0 ** (-(alpha + d / 2.0 + 1.0))
    directions, sw = surface_rule(d, n_theta=24, n_phi=48)
    points = np.multiply.outer(radii, directions).reshape(-1, d)
    weights = np.multiply.outer(rad_w, sw).ravel()
    labels = [(n, k, ell)
              for n in range(degree_max + 1)
              for k in range((degree_max - n) // 2 + 1)
              for ell in range(1, sph_harm_dim(d, n) + 1)]
    values = np.array([ball_poly_eval(d, alpha, n, k, ell, points) for n, k, ell in labels])
    return (values * weights) @ values.T


def lambda_from_hankel_fit(pswf, r_grid=DEFAULT_R_GRID):
    """Least-squares fit of lambda from the integral route alone."""
    r = np.asarray(r_grid, dtype=float)
    lhs, rhs_shape = _hankel_sides(pswf, r)
    return float((lhs @ rhs_shape) / (rhs_shape @ rhs_shape))


def sphere_fourier_residual(w, n, ell=1, d=2, xi=None, y_factor=1.0):
    """Largest absolute residual of the Funk-Hecke identity for Y = Y_ell^n
    on S^(d-1), d >= 2:

        int_{S^(d-1)} exp(-i w <xi, x>) Y(x) ds(x)
            = (2 pi)^(d/2) (-i)^n w^(1-d/2) J_(n+d/2-1)(w) Y(xi),

    over every frequency in w (a scalar or 1-d array) and every unit row of
    xi (one direction or an (M, d) array; by default the angle 0.7 in the
    first two coordinates).  The left side uses the tensor surface_rule,
    accurate to rounding for w <= 5, and w^(1-d/2) J_(n+d/2-1)(w) is
    w^n bessel_j_scaled(n + d/2 - 1, w).  y_factor scales Y inside the
    integral only, for negative controls."""
    if xi is None:
        xi = np.zeros(d)
        xi[:2] = math.cos(0.7), math.sin(0.7)
    xi = np.atleast_2d(np.asarray(xi, dtype=float))
    w = np.atleast_1d(np.asarray(w, dtype=float))
    points, weights = surface_rule(d, n_theta=16, n_phi=32)
    y = y_factor * sph_harm_eval(d, n, ell, points) * weights
    phase = np.multiply.outer(w, points @ xi.T)
    lhs = y @ np.exp(-1j * phase)
    radial = bessel_j_scaled(n + d / 2.0 - 1.0, w) * w ** n
    rhs = (2.0 * math.pi) ** (d / 2.0) * (-1j) ** n * np.multiply.outer(
        radial, sph_harm_eval(d, n, ell, xi))
    return float(np.max(np.abs(lhs - rhs)))
