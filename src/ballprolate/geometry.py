"""Spherical harmonics and ball polynomials in every dimension d >= 1, full
eigenfunction evaluation on the ball, and the concentration-operator kernel.

An eigenfunction of angular degree n factorizes in spherical-polar
coordinates as

    psi(x) = r^n phi(2 r^2 - 1) Y_ell^n(x/r),        r = |x|,

where phi is the solved radial part (see pswf) and Y_ell^n is a real
orthonormal spherical harmonic on S^(d-1).  Points are Cartesian.  For
d >= 3 the harmonics follow the Gegenbauer chain of Dai & Xu, Approximation
Theory and Harmonic Analysis on Spheres and Balls (Springer 2013), ch. 1:
a unit vector u = (s v, t) with |v| = 1 and s = |(u_1, .., u_(d-1))| gives

    Y_ell^n(u) = 2^-(p+1) P~_(n-m)^(p,p)(t) s^m Y_ell'^m(v),    p = m + (d-3)/2,

where ell runs over the inner degrees m = 0..n in blocks of
sph_harm_dim(d-1, m) indices ell'.  The circle and S^0 end the recursion.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from .errors import IndexOutOfRange
from .linalg import _validate_count
from .pswf import RadialPswf
from .specfn import JacobiBasis, bessel_j_scaled, clenshaw, jacobi_eval

__all__ = [
    "sph_harm_dim",
    "sph_harm_eval",
    "ball_poly_eval",
    "eval_phi",
    "eval_radial",
    "eval_psi_ball",
    "kernel_qc",
]

_UNIT_NORM_TOL = 1e-14
# Log of the smallest normal double: kernel_qc's underflow bound.
_LOG_TINY = math.log(sys.float_info.min)


def sph_harm_dim(d: int, n: int) -> int:
    """Number of linearly independent spherical harmonics of degree n on
    S^(d-1): C(n+d-1, n) - C(n+d-3, n-2), the second term absent for n < 2."""
    if d < 1 or n < 0:
        raise ValueError(f"need d >= 1 and n >= 0, got d={d}, n={n}")
    total = math.comb(n + d - 1, n)
    if n >= 2:
        total -= math.comb(n + d - 3, n - 2)
    return total


def _check_harmonic(d: int, n: int, ell: int) -> None:
    if not 1 <= ell <= sph_harm_dim(d, n):
        raise IndexOutOfRange(
            f"ell={ell} outside 1..{sph_harm_dim(d, n)} for (d={d}, n={n})"
        )


def _point_rows(d: int, x) -> tuple[np.ndarray, bool]:
    """One Cartesian point, shape (d,), or a batch, shape (N, d), as an (N, d)
    array, and whether a single point was given."""
    v = np.asarray(x, dtype=float)
    if v.ndim not in (1, 2) or v.shape[-1] != d:
        raise ValueError(f"points must have {d} coordinates, got an array of shape {v.shape}")
    return np.atleast_2d(v), v.ndim == 1


def _unit_rows(rows: np.ndarray, norm: np.ndarray) -> np.ndarray:
    """rows / norm row by row, with e_1 in place of each zero row."""
    zero = norm == 0.0
    unit = rows / np.where(zero, 1.0, norm)[:, None]
    unit[zero, 0] = 1.0
    return unit


def _harmonic(d: int, n: int, ell: int, u: np.ndarray) -> np.ndarray:
    """Y_ell^n at the rows of an (N, d) array of unit vectors; the arguments
    are checked by the caller."""
    if d == 1:
        return (np.ones(len(u)) if n == 0 else u[:, 0]) / math.sqrt(2.0)
    if d == 2:
        if n == 0:
            return np.full(len(u), 1.0 / math.sqrt(2.0 * math.pi))
        theta = np.arctan2(u[:, 1], u[:, 0])
        return (np.cos(n * theta) if ell == 1 else np.sin(n * theta)) / math.sqrt(math.pi)
    m = 0
    while ell > sph_harm_dim(d - 1, m):
        ell -= sph_harm_dim(d - 1, m)
        m += 1
    # At the poles s = 0: s^m vanishes for m >= 1, and for m = 0 the inner
    # harmonic is constant, so the direction e_1 put in for v is harmless.
    s = np.linalg.norm(u[:, :-1], axis=1)
    p = m + (d - 3) / 2.0
    chain = jacobi_eval(JacobiBasis(p, p), n - m, u[:, -1])[n - m] * s ** m / 2.0 ** (p + 1)
    return chain * _harmonic(d - 1, m, ell, _unit_rows(u[:, :-1], s))


def sph_harm_eval(d: int, n: int, ell: int, point):
    """Real orthonormal spherical harmonic Y_ell^n on S^(d-1), any d >= 1.

    point is a Cartesian unit vector, shape (d,), giving a float, or an
    (N, d) array of them, giving an (N,) array; each norm must be within
    1e-14 of one.

    d=1: Y_1^0 = 1/sqrt(2), Y_1^1 = x/sqrt(2).
    d=2: Y_1^0 = 1/sqrt(2 pi); Y_1^n = cos(n theta)/sqrt(pi) and
         Y_2^n = sin(n theta)/sqrt(pi) for n >= 1, theta = atan2(x_2, x_1).
    d>=3: the Gegenbauer chain of the module docstring.  At d=3, with
         t = x_3 = cos(theta) and s = sin(theta), it reads
         Y_1^n = P~_n^{(0,0)}(t)/sqrt(8 pi) and, for 1 <= m <= n,
         Y_{2m}^n  = s^m P~_{n-m}^{(m,m)}(t) cos(m phi) / (2^{m+1} sqrt(pi)),
         Y_{2m+1}^n = same with sin(m phi),
    where P~ are the orthonormalized Jacobi polynomials.  The bases are
    orthonormal with respect to the surface measure (checked by quadrature
    in the test suite).
    """
    _check_harmonic(d, n, ell)
    rows, single = _point_rows(d, point)
    norm = np.linalg.norm(rows, axis=1)
    bad = ~(np.abs(norm - 1.0) <= _UNIT_NORM_TOL)
    if bad.any():
        raise ValueError(f"|x| = {norm[bad][0]!r} is not a unit vector")
    value = _harmonic(d, n, ell, rows / norm[:, None])
    return float(value[0]) if single else value


def _ball_eval(d: int, n: int, ell: int, x, radial_part):
    """radial_part(r) * Y_ell^n(x/r) at one point or an (N, d) array of points
    of the closed unit ball, r = |x|; exactly 0 at the origin when n >= 1
    (Y_ell^0 is constant, so the origin needs no direction when n = 0)."""
    _check_harmonic(d, n, ell)
    rows, single = _point_rows(d, x)
    r = np.linalg.norm(rows, axis=1)
    outside = ~(r <= 1.0 + 1e-12)
    if outside.any():
        raise ValueError(f"|x| = {r[outside][0]} lies outside the closed unit ball")
    value = radial_part(r) * _harmonic(d, n, ell, _unit_rows(rows, r))
    if n >= 1:
        value[r == 0.0] = 0.0
    return float(value[0]) if single else value


def ball_poly_eval(d: int, alpha: float, n: int, k: int, ell: int, x):
    """Orthonormal ball polynomial P~_k^{(alpha, beta_n)}(2|x|^2 - 1) |x|^n
    Y_ell^n(x/|x|) on the closed unit ball, any d >= 1; 0 at x = 0 when
    n >= 1.

    x is one point, shape (d,), giving a float, or an (N, d) array giving an
    (N,) array.
    """
    basis = JacobiBasis(alpha, n + d / 2.0 - 1.0)
    return _ball_eval(
        d, n, ell, x, lambda r: jacobi_eval(basis, k, 2.0 * r * r - 1.0)[k] * r ** n
    )


def eval_phi(pswf: RadialPswf, eta):
    """Radial part phi(eta) as the Clenshaw sum of the solved coefficients.

    eta may be a scalar or an ndarray and is not restricted to [-1, 1].
    """
    return clenshaw(pswf.basis, pswf.coeffs, eta)


def eval_radial(pswf: RadialPswf, r, form: str = "plain"):
    """Radial profile at r >= 0 (values r > 1 are allowed).

    form "plain" gives r^n phi(2 r^2 - 1), the radial factor of the ball
    eigenfunction; form "slepian" gives r^(n + (d-1)/2) phi(2 r^2 - 1), the
    singular normalization used in the classical disk literature.
    """
    p = pswf.params
    if form == "plain":
        power = float(p.n)
    elif form == "slepian":
        power = p.n + (p.d - 1) / 2.0
    else:
        raise ValueError(f"form must be 'plain' or 'slepian', got {form!r}")
    r_arr = np.asarray(r, dtype=float)
    if np.any(r_arr < 0.0):
        raise ValueError("radius must be non-negative")
    phi = clenshaw(pswf.basis, pswf.coeffs, 2.0 * r_arr * r_arr - 1.0)
    value = r_arr ** power * phi if power else phi
    return float(value) if r_arr.ndim == 0 else value


def eval_psi_ball(pswf: RadialPswf, ell: int, x):
    """Full eigenfunction value r^n phi(2 r^2 - 1) Y_ell^n(x/r) on the closed
    unit ball, r = |x|.

    x is one point, shape (d,), giving a float, or an (N, d) array giving an
    (N,) array.  ValueError if any point lies outside |x| <= 1 + 1e-12.
    """
    p = pswf.params
    return _ball_eval(p.d, p.n, ell, x, lambda r: eval_radial(pswf, r, "plain"))


def kernel_qc(d: int, alpha: float, c: float, rho):
    """Kernel of the concentration operator at point separation rho >= 0:

        K(rho) = (2 pi)^(d/2) int_0^1 s^(d-1) (1-s^2)^alpha
                 [J_nu(c s rho) / (c s rho)^nu] ds,        nu = (d-2)/2,

    evaluated in closed form by Sonine's first finite integral (Watson,
    Treatise on Bessel Functions, 12.11; DLMF 10.22) as

        K(rho) = (2 pi)^(d/2) 2^alpha Gamma(alpha+1) J_mu(c rho) / (c rho)^mu,

    mu = d/2 + alpha > -1/2, through the scaled Bessel function so that
    rho = 0 is regular.  Valid for every integer d >= 1.  When 2 alpha is an
    integer, mu is an integer or half-integer and takes the recurrence route
    of bessel_j_scaled at c rho > max(2, mu); every other mu takes scipy's jv
    there, and c rho <= 2 takes the power series.
    rho must be finite and non-negative; ValueError names rho otherwise.

    J_mu(z)/z^mu peaks at z = 0 at 1/(2^mu Gamma(mu+1)).  Once that peak is
    below the smallest normal double, the scaled Bessel factor is subnormal
    at every rho, and the product with the prefactor loses digits or is
    inf * 0.  ValueError names alpha there, unless the kernel's own peak
    K(0) = pi^(d/2) Gamma(alpha+1)/Gamma(mu+1) underflows too, in which case
    the kernel underflows quietly, also where the prefactor alone is past the
    double range.
    """
    _validate_count(d, "dimension", 1)
    if not c > 0.0:
        raise ValueError(f"bandwidth c must be positive, got {c}")
    if not alpha > -1.0:
        raise ValueError(f"alpha must exceed -1, got {alpha}")
    mu = d / 2.0 + alpha
    log_bessel_peak = -(mu * math.log(2.0) + math.lgamma(mu + 1.0))
    log_kernel_peak = 0.5 * d * math.log(math.pi) + math.lgamma(alpha + 1.0) - math.lgamma(mu + 1.0)
    if log_bessel_peak < _LOG_TINY and not log_kernel_peak < _LOG_TINY:
        raise ValueError(f"alpha = {alpha} is too large for the kernel in dimension {d}: "
                         f"J_mu(z)/z^mu with mu = {mu} is subnormal at every separation")
    rho_arr = np.asarray(rho, dtype=float)
    if not np.all(np.isfinite(rho_arr)):
        raise ValueError("separation rho must be finite")
    if np.any(rho_arr < 0.0):
        raise ValueError("separation rho must be non-negative")
    scaled = bessel_j_scaled(mu, c * rho_arr)
    try:
        pref = (2.0 * math.pi) ** (d / 2.0) * 2.0 ** alpha * math.gamma(alpha + 1.0)
    except OverflowError:
        pref = math.inf
    if math.isfinite(pref):
        value = pref * scaled
    else:
        # Only past the double range of the prefactor (d >= 780 at alpha = 0),
        # where the Bessel factor is subnormal or zero: the product in logs.
        log_pref = 0.5 * d * math.log(2.0 * math.pi) + alpha * math.log(2.0) + math.lgamma(alpha + 1.0)
        with np.errstate(divide="ignore"):
            value = np.sign(scaled) * np.exp(log_pref + np.log(np.abs(scaled)))
    return float(value) if rho_arr.ndim == 0 else value
