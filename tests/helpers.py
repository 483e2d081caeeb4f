"""Shared quadrature and reference oracles used by several test modules."""

import math

import mpmath as mp
import numpy as np

from ballprolate.geometry import SphericalPoint, sph_harm_dim, sph_harm_eval
from ballprolate.linalg import gauss_jacobi
from ballprolate.specfn import JacobiBasis, bessel_j_scaled, jacobi_eval


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


def kernel_qc_quadrature(d, alpha, c, rho):
    """Concentration kernel
    (2 pi)^(d/2) int_0^1 s^(d-1) (1-s^2)^alpha J_nu(c s rho)/(c s rho)^nu ds,
    nu = (d-2)/2, by a Gauss-Jacobi rule of ceil(c)+24 nodes in the variable
    s^2; needs d >= 2 so that the Bessel order exceeds -1/2."""
    rule = gauss_jacobi(alpha, d / 2.0 - 1.0, math.ceil(c) + 24)
    s = np.sqrt(0.5 * (1.0 + rule.nodes))
    scaled = bessel_j_scaled((d - 2) / 2.0, c * np.multiply.outer(np.asarray(rho, dtype=float), s))
    return (2.0 * math.pi) ** (d / 2.0) * 2.0 ** (-alpha - d / 2.0 - 1.0) * (scaled @ rule.weights)


def closed_form_moment(k, alpha, beta):
    """int_{-1}^{1} (1-t)^alpha (1+t)^beta t^k dt via the Beta function at
    50 digits: substitute t = 2u - 1 and expand (2u-1)^k."""
    mp.mp.dps = 50
    al, be = mp.mpf(alpha), mp.mpf(beta)
    total = mp.mpf(0)
    for j in range(k + 1):
        total += mp.binomial(k, j) * mp.mpf(2) ** j * (-1) ** (k - j) * mp.beta(be + 1 + j, al + 1)
    return float(2 ** (al + be + 1) * total)


def surface_rule(d, n_theta=40, n_phi=64):
    """Quadrature points and weights over S^(d-1): trapezoid in periodic
    angles, Gauss-Legendre in cos(theta) for d = 3."""
    if d == 2:
        thetas = 2.0 * math.pi * np.arange(n_phi) / n_phi
        points = [SphericalPoint(2, (t,)) for t in thetas]
        weights = np.full(n_phi, 2.0 * math.pi / n_phi)
        return points, weights
    x, w = np.polynomial.legendre.leggauss(n_theta)
    phis = 2.0 * math.pi * np.arange(n_phi) / n_phi
    points, weights = [], []
    for xi, wi in zip(x, w):
        for p in phis:
            points.append(SphericalPoint(3, (math.acos(xi), p)))
            weights.append(wi * 2.0 * math.pi / n_phi)
    return points, np.asarray(weights)


def sphere_gram(d, n_max, n_theta=40, n_phi=64):
    """Gram matrix of all spherical harmonics of degree <= n_max."""
    labels = [(n, ell) for n in range(n_max + 1) for ell in range(1, sph_harm_dim(d, n) + 1)]
    points, weights = surface_rule(d, n_theta, n_phi)
    values = np.array([[sph_harm_eval(d, n, ell, pt) for pt in points] for n, ell in labels])
    return (values * weights) @ values.T


def ball_gram(d, alpha, degree_max, radial_nodes=20):
    """Gram matrix of the orthonormal ball polynomials with total degree
    n + 2k <= degree_max, by radial Gauss-Jacobi times surface quadrature."""
    rule = gauss_jacobi(alpha, d / 2.0 - 1.0, radial_nodes)
    radii = np.sqrt(0.5 * (1.0 + rule.nodes))
    rad_w = rule.weights * 2.0 ** (-(alpha + d / 2.0 + 1.0))
    points, sw = surface_rule(d, n_theta=24, n_phi=48)
    labels = [(n, k, ell)
              for n in range(degree_max + 1)
              for k in range((degree_max - n) // 2 + 1)
              for ell in range(1, sph_harm_dim(d, n) + 1)]
    radial, angular = [], []
    for n, k, ell in labels:
        jac = jacobi_eval(JacobiBasis(alpha, n + d / 2.0 - 1.0), k, rule.nodes)[k]
        radial.append(jac * radii ** n)
        angular.append([sph_harm_eval(d, n, ell, pt) for pt in points])
    radial = np.array(radial)
    angular = np.array(angular)
    rad_inner = (radial * rad_w) @ radial.T
    ang_inner = (angular * sw) @ angular.T
    return rad_inner * ang_inner
