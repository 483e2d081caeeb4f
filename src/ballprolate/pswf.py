"""Radial eigensolver for prolate spheroidal wave functions on the unit ball.

A radial eigenfunction of angular degree n in dimension d is expanded in the
orthonormalized Jacobi family with parameters (alpha, beta_n),
beta_n = n + d/2 - 1,

    phi_k(eta; c) = sum_j beta_j P~_j(eta),        eta = 2 r^2 - 1,

which turns the Sturm-Liouville eigenproblem into a symmetric tridiagonal
matrix eigenproblem with entries

    A[j, j]   = gamma(n+2j) + (b_j + 1) c^2 / 2,
    A[j, j+1] = a_j c^2 / 2,

where gamma(m) = m (m + 2 alpha + d) and a_j, b_j are the Jacobi recurrence
coefficients.  The k-th smallest eigenvalue is the Sturm-Liouville eigenvalue
chi of the k-th radial mode and the eigenvector holds its expansion
coefficients.

Cutting the expansion at K couples to the discarded coefficients through
the single entry A[K, K+1], so a computed eigenpair (chi, v) of the
truncated matrix, padded with zeros, has residual exactly
r = |A[K, K+1] v[K]| against the untruncated operator.  By the residual,
Kato-Temple and sin-theta bounds (Parlett, The Symmetric Eigenvalue Problem)
r certifies chi and the coefficient vector together.  solve_pswfs grows K
with c until that certificate holds, so bandwidths in the hundreds solve.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateEndpoint, NonPositiveLambda, TruncationNotConverged
from .linalg import TridiagonalSym, _validate_count, eig_symtridiag
from .specfn import JacobiBasis, _recurrence_arrays, jacobi_eval

__all__ = [
    "PswfParams",
    "RadialPswf",
    "gamma_coef",
    "truncation_size",
    "build_matrix",
    "solve_pswfs",
    "lambda_eigenvalue",
    "perturbation_coeffs",
    "chi_bounds",
]

_CERTIFICATE_RTOL = 1e-15
# K never grows past max(truncation_size, _TRUNCATION_CAP): the full
# eigenvector matrix at K = 2048 takes 34 MB.
_TRUNCATION_CAP = 2048
_SIGN_PIVOT_FLOOR = 1e-12
_LOG_MAX = math.log(sys.float_info.max)
# Relative slack over the bounds on lambda: at tiny c the k = 0 lambda
# tends to the weight-integral bound, and at large c to the Plancherel one.
_BOUND_SLACK = 1e-12


def _validate_family(d: int, alpha: float, c: float, n: int) -> None:
    _validate_count(d, "dimension", 1)
    if not alpha > -1.0:
        raise ValueError(f"alpha must exceed -1, got {alpha}")
    if not c >= 0.0:
        raise ValueError(f"bandwidth c must be non-negative, got {c}")
    _validate_count(n, "angular degree n")
    if d == 1 and n > 1:
        raise ValueError(f"for d=1 only n in {{0, 1}} exists, got n={n}")


@dataclass(frozen=True)
class PswfParams:
    """Identifies one radial eigenfunction: dimension d, weight exponent
    alpha > -1, bandwidth c >= 0, angular degree n and radial index k."""

    d: int
    alpha: float
    c: float
    n: int
    k: int

    def __post_init__(self):
        _validate_family(self.d, self.alpha, self.c, self.n)
        _validate_count(self.k, "radial index k")

    @property
    def beta_n(self) -> float:
        """Jacobi parameter n + d/2 - 1 of the radial expansion basis."""
        return self.n + self.d / 2.0 - 1.0

    @property
    def basis(self) -> JacobiBasis:
        return JacobiBasis(self.alpha, self.beta_n)


@dataclass(frozen=True)
class RadialPswf:
    """A solved radial eigenfunction: eigenvalue chi and the unit-norm
    expansion coefficients beta_0..beta_K in the (alpha, beta_n) Jacobi
    family, with the sign fixed so that coeffs[k] > 0 (falling back to a
    positive largest-magnitude coefficient when coeffs[k] is negligible).

    The constructor keeps a read-only copy of coeffs, so a mode never
    shares its coefficients with an array the caller can still write.  The
    modes solve_pswfs returns instead hold their coeffs as read-only rows
    of one (k_max+1, K+1) block per family, mode k in row k, so keeping one
    mode keeps its family's whole block alive.  Copies and pickles are
    rebuilt through the constructor, so they are checked and read-only
    too."""

    params: PswfParams
    chi: float
    coeffs: np.ndarray
    truncation: int

    def __post_init__(self):
        coeffs = np.array(self.coeffs, dtype=float)
        if coeffs.shape != (self.truncation + 1,):
            raise ValueError(
                f"coefficient vector must have length K+1={self.truncation + 1}, "
                f"got {coeffs.shape}"
            )
        coeffs.setflags(write=False)
        object.__setattr__(self, "coeffs", coeffs)

    def __reduce__(self):
        return RadialPswf, (self.params, self.chi, self.coeffs, self.truncation)

    @property
    def basis(self) -> JacobiBasis:
        return self.params.basis


def gamma_coef(m, alpha: float, d: int):
    """Sturm-Liouville eigenvalue m (m + 2 alpha + d) of the degree-m ball
    polynomial, the c = 0 limit of chi.  m may be an integer or an integer
    ndarray of degrees."""
    if np.any(np.asarray(m) < 0):
        raise ValueError(f"degree m must be non-negative, got {m}")
    return m * (m + 2.0 * alpha + d)


def truncation_size(d: int, alpha: float, n: int, k_max: int) -> int:
    """Upper starting truncation K of solve_pswfs for radial indices up to
    k_max, and the floor of its cap max(truncation_size, 2048).

    With N = n + 2 k_max the cut-off is M = ceil(2N + 2 alpha) + 30 expansion
    degrees, i.e. K = ceil((M - n)/2) Jacobi coefficients.
    """
    _validate_family(d, alpha, 0.0, n)
    _validate_count(k_max, "k_max")
    return _truncation_size(alpha, n, k_max)


def _truncation_size(alpha: float, n: int, k_max: int) -> int:
    bandlimit = n + 2 * k_max
    cutoff = math.ceil(2 * bandlimit + 2 * alpha) + 30
    return math.ceil((cutoff - n) / 2)


def build_matrix(d: int, alpha: float, c: float, n: int, K: int) -> TridiagonalSym:
    """(K+1) x (K+1) tridiagonal matrix of the radial eigenproblem."""
    _validate_family(d, alpha, c, n)
    _validate_count(K, "truncation K")
    return TridiagonalSym(*_matrix_entries(d, alpha, c, n, K))


def _matrix_entries(d: int, alpha: float, c: float, n: int, K: int):
    """Diagonal and off-diagonal of build_matrix, for a validated family."""
    a, b = _recurrence_arrays(JacobiBasis(alpha, n + d / 2.0 - 1.0), K)
    half_c2 = 0.5 * c * c
    m = n + 2 * np.arange(K + 1)
    diag = m * (m + 2.0 * alpha + d) + (b + 1.0) * half_c2
    return diag, a[:-1] * half_c2


def _apply_sign_rule(vectors: np.ndarray, m: int) -> np.ndarray:
    """Read-only, C-contiguous (m, K+1) block whose row k is column k of
    vectors, negated where needed so that its entry k is positive, or, when
    that entry is below 1e-12 in magnitude, so that its first
    largest-magnitude entry is positive.  Only the columns with such a
    negligible pivot are searched for their largest entry."""
    k = np.arange(m)
    lead = vectors[k, k]
    small = np.flatnonzero(np.abs(lead) < _SIGN_PIVOT_FLOOR)
    lead[small] = vectors[np.argmax(np.abs(vectors[:, small]), axis=0), small]
    sign = np.where(lead < 0.0, -1.0, 1.0)
    rows = np.multiply(vectors[:, :m].T, sign[:, None], order="C")
    rows.setflags(write=False)
    return rows


def _solved_modes(
    d: int, alpha: float, c: float, n: int, K: int, values: np.ndarray, rows: np.ndarray
) -> list[RadialPswf]:
    """RadialPswf records of one solved family, built without re-running
    the public constructors' per-mode checks, which hold for the whole
    family here: solve_pswfs validated (d, alpha, c, n) and k_max, k runs
    over the integers 0..k_max, and rows is a read-only block whose rows
    have length K+1.  Mode k's coeffs is row k, a view of the block."""
    modes = []
    for k, (chi, coeffs) in enumerate(zip(values.tolist(), rows)):
        params = object.__new__(PswfParams)
        params.__dict__.update(d=d, alpha=alpha, c=c, n=n, k=k)
        mode = object.__new__(RadialPswf)
        mode.__dict__.update(params=params, chi=chi, coeffs=coeffs, truncation=K)
        modes.append(mode)
    return modes


def solve_pswfs(d: int, alpha: float, c: float, n: int, k_max: int) -> list[RadialPswf]:
    """Solve the radial eigenproblem for k = 0..k_max.

    The k_max+1 smallest eigenpairs of the matrix truncated at K are
    returned in ascending chi, each with its residual certificate
    r_k = |A[K, K+1]| |v_k[K]| against the untruncated operator.  With
    J = ceil(c/2) + k_max + 20, past which the coefficients of modes up to
    k_max are negligible, K starts at min(truncation_size, J), grows to J and
    then by a factor 1.25, re-solving until max_k r_k <= 1e-15 max_k |chi_k|;
    a family certified at its starting K takes exactly one eigensolve.
    TruncationNotConverged means K reached its cap, max(truncation_size,
    2048), without the certificate holding.

    The family is validated once, and the modes share one read-only
    coefficient block: mode k's coeffs is its row k.
    """
    _validate_family(d, alpha, c, n)
    _validate_count(k_max, "k_max")
    upper = _truncation_size(alpha, n, k_max)
    cap, J = max(upper, _TRUNCATION_CAP), math.ceil(c / 2) + k_max + 20
    K = min(upper, J)
    while True:
        diag, offdiag = _matrix_entries(d, alpha, c, n, K + 1)
        values, vectors = eig_symtridiag(TridiagonalSym(diag[:-1], offdiag[:-1]))
        values = values[:k_max + 1]
        residual = abs(offdiag[K]) * np.abs(vectors[K, :k_max + 1])
        scale = np.abs(values).max()
        if residual.max() <= _CERTIFICATE_RTOL * scale:
            break
        if K >= cap:
            k = int(np.argmax(residual))
            raise TruncationNotConverged(
                f"residual certificate for (d={d}, alpha={alpha}, c={c}, n={n}, "
                f"k_max={k_max}) failed at the cap K={K}: worst r_k/max|chi| = "
                f"{residual[k] / scale:.3e} at k={k}"
            )
        K = min(cap, max(math.ceil(1.25 * K), J))
    rows = _apply_sign_rule(vectors, k_max + 1)
    return _solved_modes(d, alpha, c, n, K, values, rows)


def _twisted_ratios(chi: float, m: int, diag, off, ends):
    """(q, e, tail): beta_0/phi(-1) = q 2^e on rows 0..len(diag)-1, and the
    share of phi(-1) in its last term.  ends holds P~_j(-1).  Ratios
    beta_j/beta_(j+1) run below m and beta_j/beta_(j-1) above it, each with
    its part of phi(-1)/beta_m in Horner form.  A zero pivot raises
    ZeroDivisionError."""
    head, e, below, carry = 1.0, 0, ends[0], 0.0
    for d_j, e_j, p_next in zip(diag[:m], off, ends[1:m + 1]):
        r = -e_j / (d_j - chi + carry)
        carry, below, head = e_j * r, p_next + r * below, head * r
        if -1e-150 < head < 1e-150:
            head, shift = math.frexp(head)
            e += shift
    above, last, carry = 0.0, ends[-1], 0.0
    for d_j, e_prev, p_j in zip(diag[:m:-1], off[m:][::-1], ends[:m:-1]):
        s = -e_prev / (d_j - chi + carry)
        carry, above, last = e_prev * s, s * (p_j + above), last * s
    (head, shift), total = math.frexp(head), below + above
    phi, phi_shift = math.frexp(total)
    return head / phi, e + shift - phi_shift, abs(last / total)


def lambda_eigenvalue(modes):
    """Eigenvalue lambda > 0 under the finite Fourier transform, of one
    solved radial mode (a float) or of each mode in a sequence from one
    solved family (an (M,) array), from the endpoint formula

        lambda = (-1)^k * pi^(d/2) c^n sqrt(Gamma(alpha+1))
                 / (2^(n-1/2) sqrt(Gamma(n+d/2) Gamma(alpha+n+d/2+1)))
                 * beta_0 / phi(-1).

    beta_0/phi(-1) comes from the certified chi, not from the eigenvector,
    whose small entries LAPACK resolves only to eps absolute: forward ratios
    below the mode's largest coefficient m, Miller's backward ratios from K'
    down to m+1 (Gautschi, SIAM Rev. 9, 1967).  K' starts at K+1 and doubles
    until the last term of phi(-1) is at most eps of it.  The modes of a
    sequence must share (d, alpha, c, n) and K.  Requires c > 0.

    The first failing mode raises: NonPositiveLambda when lambda < 0 (chi is
    not the eigenvalue of mode k); DegenerateEndpoint when a pivot or
    phi(-1) is exactly zero, lambda underflows below sys.float_info.min, or
    it exceeds by more than 1e-12 relative the weight integral
    pi^(d/2) Gamma(alpha+1)/Gamma(alpha+d/2+1) or, for alpha >= 0, the
    Plancherel bound (2 pi/c)^(d/2); TruncationNotConverged when K' passes
    8(K+1).
    """
    single = isinstance(modes, RadialPswf)
    family = [modes] if single else list(modes)
    if not family:
        raise ValueError("lambda needs at least one mode")
    first = family[0]
    p = first.params
    key = (p.d, p.alpha, p.c, p.n, first.truncation)
    for f in family[1:]:
        if (f.params.d, f.params.alpha, f.params.c, f.params.n, f.truncation) != key:
            raise ValueError(
                f"modes must come from one solved family: {f.params} with "
                f"K={f.truncation} differs from {p} with K={first.truncation}"
            )
    if not p.c > 0.0:
        raise ValueError("lambda is computed for c > 0 only")
    log_pref = (
        0.5 * p.d * math.log(math.pi)
        + p.n * math.log(p.c)
        + 0.5 * math.lgamma(p.alpha + 1.0)
        - (p.n - 0.5) * math.log(2.0)
        - 0.5 * (math.lgamma(p.n + p.d / 2.0) + math.lgamma(p.alpha + p.n + p.d / 2.0 + 1.0))
    )
    log_bound = (0.5 * p.d * math.log(math.pi) + math.lgamma(p.alpha + 1.0)
                 - math.lgamma(p.alpha + p.d / 2.0 + 1.0))
    name = "weight-integral"
    if p.alpha >= 0.0 and 0.5 * p.d * math.log(2.0 * math.pi / p.c) < log_bound:
        log_bound, name = 0.5 * p.d * math.log(2.0 * math.pi / p.c), "Plancherel"
    bound, tables, lams = math.exp(log_bound), {}, []
    for f in family:
        m = int(np.abs(f.coeffs).argmax())
        try:
            for size in [(first.truncation + 1) << i for i in range(4)]:
                if size not in tables:  # rows 0..K' = size, shared by the family
                    diag, off = _matrix_entries(p.d, p.alpha, p.c, p.n, size)
                    ends = jacobi_eval(p.basis, size, -1.0)
                    tables[size] = diag.tolist(), off.tolist(), ends.tolist()
                q, e, tail = _twisted_ratios(f.chi, m, *tables[size])
                if not tail > sys.float_info.epsilon:
                    break
            else:
                raise TruncationNotConverged(f"phi(-1) of {f.params} moves at K'={size}")
        except ZeroDivisionError:
            raise DegenerateEndpoint(f"zero pivot for {f.params} at chi = {f.chi!r}") from None
        # Clamped: a lambda past the float range fails the bound check.
        lam = (-1) ** f.params.k * q * math.exp(min(log_pref + e * math.log(2.0), _LOG_MAX))
        if not lam >= 0.0:
            raise NonPositiveLambda(f"lambda = {lam:.6e} for params {f.params}; sign convention "
                                    f"violated: chi = {f.chi!r} is not the eigenvalue of mode k")
        if not sys.float_info.min <= lam <= bound * (1.0 + _BOUND_SLACK):
            why = "underflow" if lam < bound else f"exceeds the {name} bound {bound:.6e}"
            raise DegenerateEndpoint(f"lambda = {lam:.6e} for params {f.params}: {why}")
        lams.append(lam)
    return lams[0] if single else np.array(lams)


def perturbation_coeffs(d: int, alpha: float, n: int, k: int) -> tuple[float, float, float]:
    """Leading small-c perturbation coefficients (d_k1, B_minus, B_plus).

    For c -> 0 the eigenvalue behaves as chi = gamma(n+2k) + d_k1 c^2 + O(c^4)
    and the eigenfunction picks up c^2 (B_minus P~_{k-1} + B_plus P~_{k+1}).
    """
    _validate_family(d, alpha, 0.0, n)
    _validate_count(k, "radial index k")
    s = alpha + (n + d / 2.0 - 1.0)
    a, b = _recurrence_arrays(JacobiBasis(alpha, n + d / 2.0 - 1.0), k)
    d_k1 = 0.5 * (b[k] + 1.0)
    b_plus = -a[k] / (8.0 * (2 * k + s + 2.0))
    b_minus = a[k - 1] / (8.0 * (2 * k + s)) if k else 0.0
    return float(d_k1), float(b_minus), float(b_plus)


def chi_bounds(params: PswfParams) -> tuple[float, float]:
    """Strict enclosure gamma < chi < gamma + c^2 of the Sturm-Liouville
    eigenvalue, with gamma = gamma_coef(n+2k).  Requires c > 0."""
    if not params.c > 0.0:
        raise ValueError("chi bounds hold for c > 0 only")
    lower = gamma_coef(params.n + 2 * params.k, params.alpha, params.d)
    return lower, lower + params.c ** 2
