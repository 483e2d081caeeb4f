"""Scalar special functions: orthonormalized Jacobi polynomials and scaled
Bessel functions of the first kind.

The Jacobi polynomials P~_j used throughout the package carry the normalization

    int_{-1}^{1} P~_n(eta) P~_m(eta) (1-eta)^alpha (1+eta)^beta d(eta)
        = 2^(alpha+beta+2) delta_nm,

and satisfy the three-term recurrence

    eta P~_j = a_j P~_{j+1} + b_j P~_j + a_{j-1} P~_{j-1},

with P~_0 = 1/h_0.  All gamma-function ratios are evaluated in log space so
that large indices and half-integer parameters do not overflow.
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


def _bessel_series(nu: float, z: np.ndarray, jmax: int = 0) -> np.ndarray:
    """Power series of z^(2j) J~_(nu+2j)(z), j = 0..jmax, accurate to machine
    precision for z <= 2.  The factor z^(2j) 2^-(nu+2j) enters the leading
    term as 2^-nu (z/2)^(2j), so no factor leaves the floating-point range."""
    orders = nu + 2.0 * np.arange(jmax + 1)[:, None]
    lead = [math.exp(-nu * math.log(2.0) - math.lgamma(o + 1.0)) for o in orders[:, 0]]
    term = np.multiply.outer(lead, np.ones_like(z))
    q = -0.25 * z * z
    term[1:] *= (-q) ** np.arange(1, jmax + 1)[:, None]
    total = term.copy()
    m = np.arange(1.0, _SERIES_TERMS)[:, None, None]
    for denom in m * (m + orders):
        term *= q
        term /= denom
        total += term
    return total


def _bessel_j_family(nu: float, jmax: int, z: np.ndarray) -> np.ndarray:
    """J_(nu+2j)(z)/z^nu = z^(2j) J~_(nu+2j)(z) for j = 0..jmax, shape
    (jmax+1, z.size), for nu > -1/2 and a 1-d array z >= 0.

    The power series serves z <= 2, where dividing scipy's J by z^nu would
    lose accuracy near 0, and scipy.special.jv(nu+2j, z)/z^nu serves z > 2;
    neither forms z^(2j), which overflows at large j.
    """
    out = np.empty((jmax + 1, z.size))
    small = z <= _SERIES_CUTOFF
    if small.any():
        out[:, small] = _bessel_series(nu, z[small], jmax)
    if (~small).any():
        # Imported here, not at module level: solving and evaluating never
        # reach z > 2, and scipy.special adds import time and memory to them.
        import scipy.special

        z_big = z[~small]
        orders = nu + 2.0 * np.arange(jmax + 1)
        out[:, ~small] = scipy.special.jv(orders[:, None], z_big) / z_big ** nu
    return out


def bessel_j_scaled(nu: float, z):
    """J_nu(z)/z^nu, an even entire function of z, for order nu > -1/2.

    At z = 0 the value is 1/(2^nu Gamma(nu+1)).  The power series is used for
    z <= 2 and scipy.special.jv(nu, z)/z^nu beyond that (see
    _bessel_j_family, whose j = 0 row this is).  z may be a scalar or an
    ndarray of non-negative values.
    """
    if not nu > -0.5:
        raise ValueError(f"order must exceed -1/2, got nu={nu}")
    z_arr = np.asarray(z, dtype=float)
    if np.any(z_arr < 0.0):
        raise ValueError("argument z must be non-negative")
    out = _bessel_j_family(float(nu), 0, z_arr.ravel())[0]
    return float(out[0]) if z_arr.ndim == 0 else out.reshape(z_arr.shape)
