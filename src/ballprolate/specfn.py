"""Scalar special functions: orthonormalized Jacobi polynomials and scaled
Bessel functions of the first kind.

The Jacobi polynomials P~_j used throughout the package carry the normalization

    int_{-1}^{1} P~_n(eta) P~_m(eta) (1-eta)^alpha (1+eta)^beta d(eta)
        = 2^(alpha+beta+2) delta_nm,

and satisfy the three-term recurrence

    eta P~_j = a_j P~_{j+1} + b_j P~_j + a_{j-1} P~_{j-1},

with P~_0 = 1/h_0.  All gamma-function ratios are evaluated in log space so
that large indices and half-integer parameters do not overflow.

The scaled Bessel functions J_nu(z)/z^nu take one of three routes: a power
series in Horner form for z <= 2; for an integer or half-integer order at
z > 2 and z > nu, the forward recurrence from scipy's j0/j1 or from the
closed forms of order -1/2 and 1/2; and scipy.special.jv for every other
order and point (see _bessel_j_family).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "JacobiBasis",
    "jacobi_eval",
    "clenshaw",
    "bessel_j_scaled",
]


@dataclass(frozen=True)
class JacobiBasis:
    """Weight exponent pair (alpha, beta), both > -1, of a Jacobi family."""

    alpha: float
    beta: float

    def __post_init__(self):
        if not (self.alpha > -1.0 and self.beta > -1.0):
            raise ValueError(
                f"Jacobi exponents must exceed -1, got alpha={self.alpha}, beta={self.beta}"
            )


def _norm_const(basis: JacobiBasis, j: int) -> float:
    al, be = basis.alpha, basis.beta
    s = al + be
    if j == 0:
        # Reduced form: the generic expression is 0/0 at s = -1.
        return math.exp(
            0.5 * (math.lgamma(al + 1) + math.lgamma(be + 1) - math.lgamma(s + 2.0))
        ) / math.sqrt(2.0)
    return math.exp(
        0.5 * (math.lgamma(j + al + 1) + math.lgamma(j + be + 1)
               - math.lgamma(j + 1) - math.lgamma(j + s + 1))
    ) / math.sqrt(2.0 * (2 * j + s + 1))


# Bound on the cached recurrence pairs.  A family's solve asks for
# (basis, K + 1), and its lambdas, evaluations and checks ask for the same
# pair, so a few entries cover the families a caller works on at once.
_RECURRENCE_CACHE_SIZE = 16


def _recurrence_arrays(basis: JacobiBasis, jmax: int) -> tuple[np.ndarray, np.ndarray]:
    """Arrays a_0..a_jmax and b_0..b_jmax, the package's one source of them.

    Index 0 holds the reduced forms: the generic a_0 is 0/0 at alpha+beta = -1
    (e.g. alpha = beta = -1/2) and the generic b_0 at alpha+beta = 0.

    The pair is computed once per (basis, jmax) and kept in a bounded LRU
    cache of _RECURRENCE_CACHE_SIZE entries.  Every caller shares the cached
    arrays, so both are read-only.  The key also holds the signs of alpha
    and beta: JacobiBasis(0.0, -0.0) == JacobiBasis(0.0, 0.0), but its b_0
    is -0.0, and a cache hit must return the bytes a fresh computation would.
    """
    signs = (math.copysign(1.0, basis.alpha), math.copysign(1.0, basis.beta))
    return _cached_recurrence(basis, jmax, signs)


@functools.lru_cache(maxsize=_RECURRENCE_CACHE_SIZE)
def _cached_recurrence(basis: JacobiBasis, jmax: int, signs) -> tuple[np.ndarray, np.ndarray]:
    # signs only splits the cache key; see _recurrence_arrays.
    al, be = basis.alpha, basis.beta
    s = al + be
    j = np.arange(jmax + 1, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        b = (be * be - al * al) / ((2 * j + s) * (2 * j + s + 2.0))
        a = np.sqrt(
            4.0 * (j + 1) * (j + al + 1) * (j + be + 1) * (j + s + 1)
            / ((2 * j + s + 1) * (2 * j + s + 2) ** 2 * (2 * j + s + 3))
        )
    b[0] = (be - al) / (s + 2.0)
    a[0] = math.sqrt(4.0 * (al + 1) * (be + 1) / ((s + 2.0) ** 2 * (s + 3.0)))
    a.setflags(write=False)
    b.setflags(write=False)
    return a, b


def jacobi_eval(basis: JacobiBasis, jmax: int, eta) -> np.ndarray:
    """Values P~_0(eta) .. P~_jmax(eta) by forward recurrence.

    eta may be a scalar or an ndarray; the result has shape
    (jmax+1,) + shape(eta).  Arguments outside [-1, 1] are allowed.  A
    one-element eta runs on Python floats, bit for bit as the array loop.
    """
    if jmax < 0:
        raise ValueError(f"jmax must be non-negative, got {jmax}")
    eta = np.asarray(eta, dtype=float)
    x = eta.item() if eta.size == 1 else eta
    a, b = (v.tolist() for v in _recurrence_arrays(basis, jmax))
    p0 = 1.0 / _norm_const(basis, 0)
    vals = [p0] if jmax == 0 else [p0, (x - b[0]) / a[0] * p0]
    for j in range(1, jmax):
        vals.append(((x - b[j]) * vals[j] - a[j - 1] * vals[j - 1]) / a[j])
    out = np.empty((jmax + 1,) + eta.shape)
    for j, v in enumerate(vals):
        out[j] = v
    return out


def clenshaw(basis: JacobiBasis, coeffs, eta):
    """Sum_j coeffs[j] * P~_j(eta) by backward (Clenshaw) recurrence.

    Shares the recurrence coefficients with jacobi_eval.  coeffs is a
    non-empty 1-d sequence; eta may be a scalar or an ndarray.  A
    one-element eta runs the recurrence on a Python float, which performs
    the same IEEE operations in the same order as the array loop but without
    NumPy's per-operation overhead.
    """
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
        return float(value) if eta_arr.ndim == 0 else value
    # One entry past m so that every step has a[j + 1]; at j = m it
    # multiplies ynext2 = 0 and subtracts an exact zero.
    a, b = (v.tolist() for v in _recurrence_arrays(basis, m + 1))
    c = coeffs.tolist()
    x = eta_arr.item() if eta_arr.size == 1 else eta_arr
    ynext = ynext2 = 0.0
    for j in range(m, -1, -1):
        ynext, ynext2 = c[j] + (x - b[j]) / a[j] * ynext - a[j] / a[j + 1] * ynext2, ynext
    # S = y_0 * P~_0: the P~_1 tail term vanishes because
    # P~_1 = (eta - b_0)/a_0 * P~_0 with P~_{-1} = 0.
    value = ynext / h0
    return float(value) if eta_arr.ndim == 0 else np.reshape(value, eta_arr.shape)


_SERIES_CUTOFF = 2.0
_SERIES_TERMS = 30
# At |q| <= 1 a term whose coefficient is at most this share of the leading
# one, 1, is below 1/16 of an ulp of that term, so the series stops there.
_SERIES_TAIL = 2.0 ** -56


def _bessel_series(nu: float, z: np.ndarray, jmax: int = 0) -> np.ndarray:
    """Power series of z^(2j) J~_(nu+2j)(z), j = 0..jmax, accurate to machine
    precision for z <= 2.

    Each row is 2^-nu (z/2)^(2j) / Gamma(nu+2j+1) times
    sum_m q^m / (m! (nu+2j+1)_m), q = -z^2/4, summed in Horner form.  The
    coefficient table is built in one array pass over the orders; it stops
    at the first coefficient of the lowest order (which decays slowest) that
    is at most _SERIES_TAIL of the leading one, 1, and never holds more than
    _SERIES_TERMS terms, so a leading factor that underflows to 0 at large
    orders cannot stall it.  The factor z^(2j) 2^-(nu+2j) enters as
    2^-nu (z/2)^(2j), so no factor leaves the floating-point range.
    """
    orders = nu + 2.0 * np.arange(jmax + 1)
    m = np.arange(1.0, _SERIES_TERMS)
    coeffs = np.ones((jmax + 1, _SERIES_TERMS))
    coeffs[:, 1:] = np.cumprod(1.0 / (m * (m + orders[:, None])), axis=1)
    tail = np.flatnonzero(coeffs[0] <= _SERIES_TAIL)
    terms = int(tail[0]) if tail.size else _SERIES_TERMS
    # One row (bessel_j_scaled) runs on Python floats and 1-d arrays; a
    # family on (jmax+1, 1) columns that broadcast against q.
    cols = coeffs[0, :terms].tolist() if jmax == 0 else coeffs[:, :terms, None].transpose(1, 0, 2)
    q = -0.25 * z * z
    total = 0.0
    for col in cols[::-1]:
        total = total * q + col
    lead = [math.exp(-nu * math.log(2.0) - math.lgamma(o + 1.0)) for o in orders]
    total = np.reshape(total, (jmax + 1, z.size)) * np.array(lead)[:, None]
    if jmax:
        total[1:] *= (-q) ** np.arange(1, jmax + 1)[:, None]
    return total


def _bessel_forward(m: float, prev: np.ndarray, cur: np.ndarray, nu: float,
                    z: np.ndarray) -> np.ndarray:
    """J_nu(z) from the seeds (prev, cur) = (J_(m-1)(z), J_m(z)) by the
    forward recurrence J_(m+1) = (2m/z) J_m - J_(m-1) (DLMF 10.6.1), run up
    to order nu.  Forward stable for orders below z (DLMF 10.74(iv))."""
    while m < nu:
        prev, cur = cur, (2.0 * m / z) * cur - prev
        m += 1.0
    return cur


def _bessel_seeded(nu: float, z: np.ndarray) -> np.ndarray:
    """J_nu(z) for an integer or half-integer nu >= 0 and z > nu.

    Integer orders start from scipy's cephes j0 and j1, half-integer orders
    from the closed forms J_(-1/2) = sqrt(2/(pi z)) cos z and
    J_(1/2) = sqrt(2/(pi z)) sin z (DLMF 10.49), and both recur forward to
    nu.
    """
    import scipy.special

    if float(nu).is_integer():
        j0 = scipy.special.j0(z)
        return j0 if nu == 0.0 else _bessel_forward(1.0, j0, scipy.special.j1(z), nu, z)
    amp = np.sqrt(2.0 / (math.pi * z))
    return _bessel_forward(0.5, amp * np.cos(z), amp * np.sin(z), nu, z)


def _over_z_power(values: np.ndarray, nu: float, z: np.ndarray) -> np.ndarray:
    """values / z^nu, broadcast over the last axis of values.

    Where z^nu overflows (nu ln z > 709) the points take
    values * exp(-nu ln z) instead, which underflows quietly to the
    subnormal or zero that the quotient is.  Every other point keeps the
    bytes of the plain division.
    """
    with np.errstate(over="ignore"):
        power = z ** nu
    out = values / power
    huge = np.isinf(power)
    if huge.any():
        out[..., huge] = values[..., huge] * np.exp(-nu * np.log(z[huge]))
    return out


def _bessel_j_family(nu: float, jmax: int, z: np.ndarray) -> np.ndarray:
    """J_(nu+2j)(z)/z^nu = z^(2j) J~_(nu+2j)(z) for j = 0..jmax, shape
    (jmax+1, z.size), for nu > -1/2 and a 1-d array z >= 0.

    Routes, by order and point:
      - z <= 2, every row: the power series (_bessel_series), where dividing
        J by z^nu would lose accuracy near 0;
      - z > 2, row 0, 2 nu an integer and z > nu: the forward recurrence
        from j0/j1 or the half-integer closed forms (_bessel_seeded), a few
        array operations per order instead of AMOS's jv;
      - every other z > 2: scipy.special.jv(nu+2j, z)/z^nu, that is rows
        j >= 1, orders with 2 nu not an integer, and points 2 < z <= nu.
    No route forms z^(2j), which overflows at large j, and the division by
    z^nu turns into a quiet underflow where z^nu overflows (_over_z_power).
    """
    out = np.empty((jmax + 1, z.size))
    small = z <= _SERIES_CUTOFF
    if small.any():
        out[:, small] = _bessel_series(nu, z[small], jmax)
    big = ~small
    if big.any():
        # Imported here, not at module level: solving and evaluating never
        # reach z > 2, and scipy.special adds import time and memory to them.
        import scipy.special

        if jmax > 0:
            z_big = z[big]
            orders = nu + 2.0 * np.arange(1, jmax + 1)
            out[1:, big] = _over_z_power(scipy.special.jv(orders[:, None], z_big), nu, z_big)
        seeded = big & (z > nu) if nu >= 0.0 and float(2.0 * nu).is_integer() \
            else np.zeros_like(big)
        for route, mask in ((_bessel_seeded, seeded), (scipy.special.jv, big & ~seeded)):
            if mask.any():
                z_m = z[mask]
                out[0, mask] = _over_z_power(route(nu, z_m), nu, z_m)
    return out


def bessel_j_scaled(nu: float, z):
    """J_nu(z)/z^nu, an even entire function of z, for order nu > -1/2.

    At z = 0 the value is 1/(2^nu Gamma(nu+1)).  The power series serves
    z <= 2; beyond that, an integer or half-integer nu at z > nu recurs
    forward from j0/j1 or the closed forms of order -1/2 and 1/2, and every
    other (nu, z) takes scipy.special.jv(nu, z)/z^nu (see _bessel_j_family,
    whose j = 0 row this is).  z may be a scalar or an ndarray of finite,
    non-negative values; ValueError names z otherwise.
    """
    if not nu > -0.5:
        raise ValueError(f"order must exceed -1/2, got nu={nu}")
    z_arr = np.asarray(z, dtype=float)
    if not np.all(np.isfinite(z_arr)):
        raise ValueError("argument z must be finite")
    if np.any(z_arr < 0.0):
        raise ValueError("argument z must be non-negative")
    out = _bessel_j_family(float(nu), 0, z_arr.ravel())[0]
    return float(out[0]) if z_arr.ndim == 0 else out.reshape(z_arr.shape)
