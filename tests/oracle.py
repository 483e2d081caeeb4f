"""Extended-precision reference for chi and lambda, O(K) work per step.

Everything runs in mpmath at DPS decimal digits on the truncated radial
matrix (rows 0..K, K chosen by the caller), and shares only the matrix
formula with the package:

  * chi_k by bisection on the Sturm count, the number of negative pivots of
    the LDL^T factorization of A - x I;
  * the eigenvector by two inverse-iteration steps, each one Thomas solve,
    the second from the unit vector at the largest entry;
  * lambda by the endpoint formula

        lambda = (-1)^k pi^(d/2) c^n sqrt(Gamma(alpha+1))
                 / (2^(n-1/2) sqrt(Gamma(n+d/2) Gamma(alpha+n+d/2+1)))
                 * beta_0 / phi(-1),

    with P~_j(-1) = (-1)^j Gamma(j+b+1) / (Gamma(b+1) j!) / h_j in closed
    form.  Started at the largest entry, the second step resolves beta_0
    to DPS digits relative, however small it is.
"""

import mpmath as mp

DPS = 60


def matrix_entries(d, alpha, c, n, K):
    """Diagonal (K+1 entries) and off-diagonal (K entries) of the radial
    matrix, from the Jacobi recurrence formulas in mpmath."""
    al = mp.mpf(alpha)
    be = mp.mpf(n) + mp.mpf(d) / 2 - 1
    s = al + be
    half_c2 = mp.mpf(c) ** 2 / 2
    diag, off = [], []
    for j in range(K + 1):
        if j == 0:
            b = (be - al) / (s + 2)
            a = mp.sqrt(4 * (al + 1) * (be + 1) / ((s + 2) ** 2 * (s + 3)))
        else:
            b = (be ** 2 - al ** 2) / ((2 * j + s) * (2 * j + s + 2))
            a = mp.sqrt(4 * (j + 1) * (j + al + 1) * (j + be + 1) * (j + s + 1)
                        / ((2 * j + s + 1) * (2 * j + s + 2) ** 2 * (2 * j + s + 3)))
        m = n + 2 * j
        diag.append(m * (m + 2 * al + d) + (b + 1) * half_c2)
        off.append(a * half_c2)
    return diag, off[:K]


def sturm_count(diag, off, x):
    """Number of eigenvalues below x."""
    count, q = 0, mp.mpf(1)
    tiny = mp.mpf(10) ** (-2 * mp.mp.dps)
    for j, d_j in enumerate(diag):
        q = d_j - x - (off[j - 1] ** 2 / q if j else 0)
        if q == 0:
            q = -tiny
        count += q < 0
    return count


def chi(diag, off, k, hint=None):
    """The k-th smallest eigenvalue.  A double-precision hint narrows the
    starting bracket when the Sturm counts confirm that it holds chi_k."""
    lo = hi = None
    if hint is not None:
        width = abs(mp.mpf(hint)) * mp.mpf("1e-12") + mp.mpf("1e-300")
        lo, hi = mp.mpf(hint) - width, mp.mpf(hint) + width
        if not (sturm_count(diag, off, lo) <= k < sturm_count(diag, off, hi)):
            lo = hi = None
    if lo is None:
        radius = [abs(off[j - 1]) if j else 0 for j in range(len(diag))]
        radius = [r + (abs(off[j]) if j < len(off) else 0) for j, r in enumerate(radius)]
        lo = min(d_j - r for d_j, r in zip(diag, radius)) - 1
        hi = max(d_j + r for d_j, r in zip(diag, radius)) + 1
    tol = mp.mpf(10) ** (5 - mp.mp.dps) * max(abs(lo), abs(hi), 1)
    while hi - lo > tol:
        mid = (lo + hi) / 2
        if sturm_count(diag, off, mid) > k:
            hi = mid
        else:
            lo = mid
    return (lo + hi) / 2


def thomas_solve(diag, off, shift, rhs):
    """Solution x of (A - shift I) x = rhs for the symmetric tridiagonal A."""
    size = len(diag)
    sup, y = [mp.mpf(0)] * size, [mp.mpf(0)] * size
    pivot = diag[0] - shift
    sup[0], y[0] = (off[0] / pivot if size > 1 else 0), rhs[0] / pivot
    for j in range(1, size):
        pivot = diag[j] - shift - off[j - 1] * sup[j - 1]
        sup[j] = off[j] / pivot if j < size - 1 else 0
        y[j] = (rhs[j] - off[j - 1] * y[j - 1]) / pivot
    for j in range(size - 2, -1, -1):
        y[j] -= sup[j] * y[j + 1]
    return y


def eigenvector(diag, off, value):
    """Unit eigenvector of the eigenvalue value, by two inverse-iteration
    steps at a shift just above it.  The first, from a vector of ones, finds
    the largest entry m.  The second starts from e_m, so its back
    substitution forms each entry below m as a product, without the
    cancellation that would lose entries far below 10^-DPS of the largest.
    """
    shift = value + mp.mpf(10) ** (10 - mp.mp.dps) * max(abs(value), 1)
    first = thomas_solve(diag, off, shift, [mp.mpf(1)] * len(diag))
    m = max(range(len(first)), key=lambda j: abs(first[j]))
    start = [mp.mpf(0)] * len(diag)
    start[m] = mp.mpf(1)
    x = thomas_solve(diag, off, shift, start)
    norm = mp.sqrt(mp.fsum(v * v for v in x))
    return [v / norm for v in x]


def left_values(alpha, beta, K):
    """P~_0(-1) .. P~_K(-1) of the orthonormalized Jacobi family, in closed
    form."""
    al, be = mp.mpf(alpha), mp.mpf(beta)
    s = al + be
    out = []
    for j in range(K + 1):
        if j == 0:
            h2 = mp.gamma(al + 1) * mp.gamma(be + 1) / mp.gamma(s + 2) / 2
        else:
            h2 = (mp.gamma(j + al + 1) * mp.gamma(j + be + 1)
                  / (mp.gamma(j + 1) * mp.gamma(j + s + 1)) / (2 * (2 * j + s + 1)))
        value = mp.gamma(j + be + 1) / (mp.gamma(be + 1) * mp.factorial(j)) / mp.sqrt(h2)
        out.append(-value if j % 2 else value)
    return out


def mode(d, alpha, c, n, k, K, hint=None):
    """(chi_k, lambda_k) as mpf numbers, on the matrix truncated at K.
    hint, a double-precision chi_k, only speeds up the bisection."""
    with mp.workdps(DPS):
        diag, off = matrix_entries(d, alpha, c, n, K)
        value = chi(diag, off, k, hint)
        beta = eigenvector(diag, off, value)
        ends = left_values(alpha, mp.mpf(n) + mp.mpf(d) / 2 - 1, K)
        phi = mp.fsum(b * p for b, p in zip(beta, ends))
        al, c_mp, nd = mp.mpf(alpha), mp.mpf(c), mp.mpf(n) + mp.mpf(d) / 2
        pref = (mp.pi ** (mp.mpf(d) / 2) * c_mp ** n * mp.sqrt(mp.gamma(al + 1))
                / (2 ** (n - mp.mpf(1) / 2) * mp.sqrt(mp.gamma(nd) * mp.gamma(al + nd + 1))))
        lam = (-1) ** k * pref * beta[0] / phi
        return +value, +lam
