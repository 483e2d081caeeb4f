"""Identity-verification suites and reference-table regression.

Two independent computational routes exist for every solved eigenfunction:
the tridiagonal (differential) route that produced it, and integral-operator
identities it must satisfy.  The checks here re-evaluate the integral side
independently of the solver and measure the mismatch:

  * hankel_residual  - the radial integral-transform eigenrelation, with the
                       transform of each Jacobi term in closed form,
  * orthonormality_gram - pairwise inner products by quadrature,
  * recurrence_residual - the three-term recurrence the coefficients solve,
  * table_check      - regression against bundled published reference values,
  * mu_rayleigh      - Rayleigh quotient of the concentration operator on the
                       disk, matching lambda^2 through a kernel discretization
                       that never touches the radial transform route: the
                       Gauss-Jacobi rule of the weight (1 - eta)^alpha in
                       eta = 2 r^2 - 1, a trapezoid angular rule, and the
                       kernel evaluated once per distinct separation (radius
                       pairs i <= j, angles in [0, pi]).

Suites aggregate cases into a VerificationReport whose JSON form is shared
with the command-line front end, the one place that overrides the stated
tolerances (PROLATE_TOL).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import tables
from .geometry import kernel_qc
from .linalg import _validate_count, gauss_jacobi
from .pswf import (RadialFamily, RadialPswf, _log_weight_integral, _matrix_entries,
                   lambda_eigenvalue, solve_pswfs)
from .specfn import (
    JacobiBasis,
    _bessel_j_family,
    _norm_const,
    _recurrence_arrays,
    clenshaw,
    jacobi_eval,
)

__all__ = [
    "CaseResult",
    "VerificationReport",
    "hankel_residual",
    "orthonormality_gram",
    "recurrence_residual",
    "mu_rayleigh",
    "table_check",
    "run_suite",
    "SUITE_NAMES",
]

DEFAULT_R_GRID = tuple(0.1 * i for i in range(1, 11))
HANKEL_TOL = 1e-8
ORTHONORMALITY_TOL = 1e-11
RECURRENCE_TOL = 1e-13
BOUNDS_TOL = 0.0
LAMBDA_DRIFT_TOL = 1e-4
LAMBDA_LIMIT_TOL = 1e-6
CHI_SCALING_TOL = 1.0


@dataclass(frozen=True)
class CaseResult:
    """One verified case: pass holds exactly when metric <= tolerance."""

    params: dict
    metric: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.metric <= self.tolerance

    def as_dict(self) -> dict:
        return {
            "params": self.params,
            "metric": self.metric,
            "tolerance": self.tolerance,
            "pass": self.passed,
        }


@dataclass
class VerificationReport:
    suite: str
    cases: list[CaseResult] = field(default_factory=list)

    def add(self, params: dict, metric: float, tolerance: float) -> None:
        self.cases.append(CaseResult(params=params, metric=float(metric), tolerance=float(tolerance)))

    @property
    def max_metric(self) -> float:
        return max((c.metric for c in self.cases), default=0.0)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.cases)

    def failures(self) -> list[CaseResult]:
        return [c for c in self.cases if not c.passed]

    def as_dict(self) -> dict:
        return {
            "suite": self.suite,
            "cases": [c.as_dict() for c in self.cases],
            "max_metric": self.max_metric,
            "passed": self.passed,
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), indent=2)

    def summary(self) -> str:
        lines = [
            f"suite {self.suite}: {len(self.cases) - len(self.failures())}/{len(self.cases)} "
            f"cases passed, max metric {self.max_metric:.3e}"
        ]
        for c in self.failures():
            lines.append(f"  FAIL {c.params}: metric {c.metric:.3e} > tol {c.tolerance:.1e}")
        return "\n".join(lines)


def _hankel_sides(pswf: RadialPswf, r_grid: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Integral-transform side and signed radial shape on the radius grid.

    The integral side is summed term by term in closed form.  With
    nu = beta_n, b = c r and P_j^(alpha,nu)(2 tau^2 - 1) =
    (-1)^j P_j^(nu,alpha)(1 - 2 tau^2), each Jacobi term integrates as

        int_0^1 tau^(nu+1) (1-tau^2)^alpha P_j^(nu,alpha)(1-2tau^2) J_nu(b tau) dtau
            = 2^alpha Gamma(alpha+j+1) / (j! b^(alpha+1)) J_(nu+alpha+2j+1)(b),

    so term j carries the factor b^(2j) J~_(nu+alpha+2j+1)(b).  Where lambda
    is tiny because c r is small, each term is then small itself, while the
    nodes of a quadrature rule add O(1) values that cancel down to O(lambda).
    Deep in the tail at large c the terms are O(1) again and cancel (at
    c = 25, lambda ~ 7e-14, the sum is off by ~3e-6 of lambda).
    """
    p = pswf.params
    log_pref = (0.5 * p.d * math.log(2.0 * math.pi) + p.n * math.log(p.c)
                + p.alpha * math.log(2.0))
    # Gamma(alpha+j+1)/j! over the norm h_j of P~_j = P_j/h_j, and the
    # reflection sign (-1)^j.
    basis = p.basis
    const = np.array([
        math.exp(log_pref + math.lgamma(p.alpha + j + 1.0) - math.lgamma(j + 1.0))
        / _norm_const(basis, j)
        for j in range(pswf.truncation + 1)
    ])
    const[1::2] *= -1.0
    terms = _bessel_j_family(p.beta_n + p.alpha + 1.0, pswf.truncation, p.c * r_grid)
    lhs = (const * pswf.coeffs) @ terms
    parity = -1.0 if p.k % 2 else 1.0
    rhs_shape = parity * clenshaw(basis, pswf.coeffs, 2.0 * r_grid * r_grid - 1.0)
    return lhs, rhs_shape


def hankel_residual(pswf: RadialPswf, lam: float, r_grid=DEFAULT_R_GRID) -> float:
    """Maximum relative residual of the radial integral eigenrelation.

    Returns max_r |LHS(r) - (-1)^k lambda phi(2r^2-1)| scaled by
    |lambda| max_r |phi(2r^2-1)|.  The integral side LHS is summed in closed
    form (see _hankel_sides), so the metric keeps its relative accuracy for
    tiny lambda at small c r: at d = 2, alpha = 0, c = 1, n = 2, k = 4, where
    lambda ~ 3.7e-13, it reads below 1e-12.  Every r_grid entry must be
    finite and non-negative (0 is allowed), and lam finite and non-zero,
    since the metric divides by it.
    """
    p = pswf.params
    if not p.c > 0.0:
        raise ValueError("the integral eigenrelation requires c > 0")
    if not (math.isfinite(lam) and lam != 0.0):
        raise ValueError(f"lam must be finite and non-zero, got {lam}")
    r = np.asarray(r_grid, dtype=float)
    if r.size == 0:
        raise ValueError("r_grid must hold at least one radius")
    if not np.all((r >= 0.0) & np.isfinite(r)):
        raise ValueError(f"r_grid entries must be finite and non-negative, got {r_grid}")
    lhs, rhs_shape = _hankel_sides(pswf, r)
    scale = abs(lam) * np.max(np.abs(rhs_shape))
    return float(np.max(np.abs(lhs - lam * rhs_shape)) / scale)


def orthonormality_gram(pswfs) -> float:
    """Max deviation from identity of the quadrature Gram matrix of a family,
    a RadialFamily or a sequence of modes that share (d, alpha, c, n).

    Entries are 2^-(alpha+beta_n+2) int phi_a phi_b w_(alpha, beta_n) d(eta)
    on the Gauss-Jacobi rule of K + 1 nodes, K the largest truncation.  Each
    phi is a polynomial of degree at most K in eta, so phi_a phi_b has
    degree at most 2K, and a rule of K + 1 nodes integrates every degree up
    to 2K + 1 exactly: the entries are the exact inner products up to
    rounding.  The family is evaluated in one pass: its coefficient block
    (a RadialFamily's own; a sequence's vectors zero-padded to length K+1)
    times the basis values P~_0..P~_K taken once on the rule's nodes.
    """
    if not pswfs:
        raise ValueError("need at least one solved eigenfunction")
    p = pswfs[0].params
    if isinstance(pswfs, RadialFamily):
        K, block = pswfs.truncation, pswfs.block
    else:
        heads = {(f.params.d, f.params.alpha, f.params.c, f.params.n) for f in pswfs}
        if len(heads) != 1:
            raise ValueError(f"family members must share (d, alpha, c, n), got {heads}")
        K = max(f.truncation for f in pswfs)
        block = np.zeros((len(pswfs), K + 1))
        for row, f in zip(block, pswfs):
            row[:f.truncation + 1] = f.coeffs
    rule = gauss_jacobi(p.alpha, p.beta_n, K + 1)
    samples = block @ jacobi_eval(p.basis, K, rule.nodes)
    gram = 2.0 ** (-(p.alpha + p.beta_n + 2.0)) * (samples * rule.weights) @ samples.T
    return float(np.max(np.abs(gram - np.eye(len(pswfs)))))


def recurrence_residual(pswf: RadialPswf) -> float:
    """Max residual of the three-term coefficient recurrence, normalized by
    |chi| + c^2 (zero when the raw residual is exactly zero).  The matrix
    entries are the solver's own, built from its cached recurrence arrays
    without build_matrix's checks, which the mode's parameters passed when
    the mode was made."""
    p = pswf.params
    diag, offdiag = _matrix_entries(p.d, p.alpha, p.c, p.n, pswf.truncation)
    beta = np.concatenate(([0.0], pswf.coeffs, [0.0]))
    off = np.concatenate(([0.0], offdiag, [0.0]))
    res = (diag - pswf.chi) * beta[1:-1] + off[:-1] * beta[:-2] + off[1:] * beta[2:]
    worst = float(np.max(np.abs(res)))
    denom = abs(pswf.chi) + p.c * p.c
    if worst == 0.0:
        return 0.0
    return worst / denom


def mu_rayleigh(d: int, alpha: float, c: float, n: int, k: int,
                radial_nodes: int = 48, angular_nodes: int = 128) -> float:
    """Rayleigh quotient of the concentration operator on the disk.

    Discretizes Q[psi](x) = int K(|x - t|) psi(t) w(t) dt with the kernel of
    kernel_qc, reduces the angular integral of the kernel against cos(n u) by
    the angular_nodes-point trapezoid rule on [0, 2 pi) (spectrally exact for
    the periodic factor), and evaluates (Q psi, psi)/(psi, psi) on the
    radial_nodes-point rule gauss_jacobi(alpha, 0, radial_nodes) of the
    check's own weight: with eta = 2 t^2 - 1,

        int_0^1 g(t) (1 - t^2)^alpha t dt
            = 2^-(alpha+2) int_(-1)^1 g(sqrt((1 + eta)/2)) (1 - eta)^alpha d(eta),

    so phi is summed at the rule's nodes directly, t enters only through t^n
    and the separations, and each node weighs 2^-(alpha+2) w_j.  The weight
    is the rule's own, so the radial sum converges spectrally at every
    alpha > -1.
    The result must equal lambda^2; only d = 2 is supported.

    The kernel depends only on the separation, which is symmetric in the two
    radii and even in the angle u about pi.  So it is evaluated, in one
    kernel_qc call, only for radius pairs i <= j and the floor(A/2) + 1
    angles in [0, pi], A = angular_nodes; angles strictly inside (0, pi)
    stand for their mirror image too and count twice.
    """
    if d != 2:
        raise ValueError("the Rayleigh spot check is implemented on the disk only")
    _validate_count(radial_nodes, "radial_nodes", 1)
    _validate_count(angular_nodes, "angular_nodes", 1)
    pswf = solve_pswfs(d, alpha, c, n, k)[k]
    rule = gauss_jacobi(alpha, 0.0, radial_nodes)
    t = np.sqrt(0.5 * (1.0 + rule.nodes))
    radial = t ** n * clenshaw(pswf.basis, pswf.coeffs, rule.nodes)
    half = np.arange(angular_nodes // 2 + 1)
    u = 2.0 * math.pi * half / angular_nodes
    du = 2.0 * math.pi / angular_nodes
    fold = np.where((half > 0) & (2 * half < angular_nodes), 2.0, 1.0)
    upper = np.triu_indices(radial_nodes)
    rr = t[upper[0]][:, None]
    tt = t[upper[1]][:, None]
    rho = np.sqrt(np.maximum(rr * rr + tt * tt - 2.0 * rr * tt * np.cos(u), 0.0))
    kern = kernel_qc(d, alpha, c, rho.ravel()).reshape(rho.shape)
    pairs = kern @ (fold * np.cos(n * u)) * du
    angular = np.empty((radial_nodes, radial_nodes))
    angular[upper] = pairs
    angular[upper[::-1]] = pairs
    weight = 2.0 ** (-(alpha + 2.0)) * rule.weights
    projected = angular @ (radial * weight)
    numerator = float((radial * weight) @ projected)
    denominator = float((radial * radial) @ weight)
    return numerator / denominator


# Radial tables: rows grouped by (n, k, c), and per group the samples
# (d, alpha, offset, columns) of r^(n + offset) phi(2r^2-1), sign-aligned
# with the first column.  Each column is (name, row index, tolerance).  The
# alpha = 0 column of table 4 is published in the disk-style r^(n+1/2)
# presentation; the others are the plain radial factor r^n.
_RADIAL_TABLES = {
    2: (tables.TABLE2, [(2, 0.0, 0.5, [("value", 4, 1e-9), ("value_hist6", 5, 5e-6),
                                       ("value_hist8", 6, 5e-6)])]),
    4: (tables.TABLE4, [(3, 0.0, 0.5, [("alpha0", 4, 1e-9)]),
                        (3, 1.0, 0.0, [("alpha1", 5, 1e-9)]),
                        (3, 2.0, 0.0, [("alpha2", 6, 1e-9)])]),
}


def _rel(err_value: float, ref: float) -> float:
    return abs(err_value - ref) / abs(ref)


def table_check(table_id: int) -> VerificationReport:
    """Recompute every row of one bundled reference table.

    Tolerances: 1e-10 relative for the eigenvalue tables 1 and 3 (with an
    absolute fallback of 1e-18 for lambda entries below 1e-8), 1e-9 relative
    for the 16-digit function-value columns of tables 2 and 4, and 5e-6
    against the historical 6-to-8 digit columns.
    """
    if table_id not in (1, 2, 3, 4):
        raise ValueError(f"table id must be 1..4, got {table_id}")
    report = VerificationReport(suite=f"table{table_id}")

    if table_id == 1:
        for c, n, k, chi_ref6, chi_ref, lam_ref6, lam_ref in tables.TABLE1:
            f = solve_pswfs(2, 0.0, c, n, k)[k]
            chi_shifted = f.chi + 0.75
            lam = lambda_eigenvalue(f)
            comb = c * (math.sqrt(c) * lam / (2.0 * math.pi)) ** 2
            base = {"c": c, "n": n, "k": k}
            report.add({**base, "column": "chi_shifted"}, _rel(chi_shifted, chi_ref), 1e-10)
            report.add({**base, "column": "lambda_comb"}, _rel(comb, lam_ref), 1e-10)
            report.add({**base, "column": "chi_shifted_hist"}, _rel(chi_shifted, chi_ref6), 5e-6)
            report.add({**base, "column": "lambda_comb_hist"}, _rel(comb, lam_ref6), 5e-6)
        return report

    if table_id == 3:
        for c, n, k, chi_ref, lam_ref in tables.TABLE3:
            f = solve_pswfs(3, 1.0, c, n, k)[k]
            lam = lambda_eigenvalue(f)
            base = {"c": c, "n": n, "k": k}
            report.add({**base, "column": "chi"}, _rel(f.chi, chi_ref), 1e-10)
            if abs(lam_ref) >= 1e-8:
                report.add({**base, "column": "lambda"}, _rel(lam, lam_ref), 1e-10)
            else:
                report.add({**base, "column": "lambda_abs"}, abs(lam - lam_ref), 1e-18)
        return report

    rows, samples = _RADIAL_TABLES[table_id]
    groups: dict[tuple, list] = {}
    for row in rows:
        groups.setdefault((row[2], row[3], row[1]), []).append(row)
    for (n, k, c), members in groups.items():
        rs = np.array([m[0] for m in members])
        for d, alpha, offset, columns in samples:
            f = solve_pswfs(d, alpha, c, n, k)[k]
            vals = rs ** (n + offset) * clenshaw(f.basis, f.coeffs, 2.0 * rs * rs - 1.0)
            # The reference family's global sign is an arbitrary convention.
            refs = np.array([m[columns[0][1]] for m in members])
            if refs @ vals < 0.0:
                vals = -vals
            for m, v in zip(members, vals.tolist()):
                for column, index, tol in columns:
                    report.add({"r": m[0], "c": c, "n": n, "k": k, "column": column},
                               _rel(v, m[index]), tol)
    return report


def _hankel_grid():
    for d, alpha in ((2, 0.0), (3, 1.0), (2, -0.5)):
        for c in (1.0, 5.0, 10.0):
            for n in range(3):
                yield d, alpha, c, n


def _family_suite(suite: str, combos, k_max: int, cases) -> VerificationReport:
    """Report of one family suite: each (d, alpha, c, n) in combos is solved
    for k = 0..k_max, and cases(family) yields its (params, metric,
    tolerance) triples, whose params follow the family's own."""
    report = VerificationReport(suite=suite)
    for d, alpha, c, n in combos:
        head = {"d": d, "alpha": alpha, "c": c, "n": n}
        for params, metric, tolerance in cases(solve_pswfs(d, alpha, c, n, k_max)):
            report.add({**head, **params}, metric, tolerance)
    return report


def suite_hankel() -> VerificationReport:
    """Integral-route residuals over the standard parameter grid, k <= 4:
    all 135 modes, down to lambda ~ 1e-13 at c = 1."""
    return _family_suite("hankel", _hankel_grid(), 4, lambda family: (
        ({"k": f.params.k}, hankel_residual(f, lam), HANKEL_TOL)
        for f, lam in zip(family, lambda_eigenvalue(family).tolist())))


def suite_orthonormality() -> VerificationReport:
    """Gram deviation of the disk family alpha=0, c=10, n <= 3, k <= 10."""
    return _family_suite("orthonormality", [(2, 0.0, 10.0, n) for n in range(4)], 10,
                         lambda family: [({"k_max": 10}, orthonormality_gram(family),
                                          ORTHONORMALITY_TOL)])


def suite_bounds() -> VerificationReport:
    """Strict eigenvalue enclosure, monotone ordering and both bounds on
    lambda on the standard grid extended by d in {1, 5}.

    Metrics are signed margins normalized by c^2 (enclosure), by the
    quantity itself (ordering) or by the bound; a non-positive margin passes.
    The monotone decay of lambda in k, and the Plancherel bound
    (2 pi/c)^(d/2), are checked for alpha >= 0 only: for strongly negative
    exponents decay provably fails at large bandwidth (three independent
    routes agree that e.g. alpha = -1/2, c = 10, d = 2 has
    lambda_1 > lambda_0), while positivity holds throughout.
    """
    combos = list(_hankel_grid()) + [
        (1, 0.0, c, n) for c in (1.0, 5.0, 10.0) for n in (0, 1)
    ] + [
        (1, -0.5, 2.0, n) for n in (0, 1)
    ] + [
        (5, 0.0, c, n) for c in (1.0, 5.0, 10.0) for n in range(3)
    ] + [
        (5, 1.0, 2.0, n) for n in range(3)
    ]
    return _family_suite("bounds", combos, 4, _bounds_cases)


def _bounds_cases(family):
    p, chis = family[0].params, family.chi
    # Strict enclosure gamma(n+2k) < chi < gamma(n+2k) + c^2.
    m = p.n + 2 * np.arange(len(chis))
    lower = m * (m + 2.0 * p.alpha + p.d)
    margin = np.maximum(lower - chis, chis - (lower + p.c ** 2)).max() / p.c ** 2
    yield {"check": "enclosure"}, float(margin), BOUNDS_TOL
    lams = lambda_eigenvalue(family)
    yield ({"check": "chi_increasing"},
           float(np.max(chis[:-1] - chis[1:]) / np.max(np.abs(chis))), BOUNDS_TOL)
    if p.alpha >= 0.0:
        yield ({"check": "lambda_decreasing"},
               float(np.max((lams[1:] - lams[:-1]) / lams[:-1])), BOUNDS_TOL)
    yield {"check": "lambda_positive"}, float(np.max(-lams)), BOUNDS_TOL
    bound = math.exp(_log_weight_integral(p.d, p.alpha))
    yield {"check": "weight_integral"}, float(np.max(lams / bound - 1.0)), BOUNDS_TOL
    if p.alpha >= 0.0:
        yield ({"check": "plancherel"},
               float(np.max(lams * (0.5 * p.c / math.pi) ** (0.5 * p.d) - 1.0)), BOUNDS_TOL)


def suite_perturbation() -> VerificationReport:
    """Small-bandwidth asymptotics of chi and lambda.

    The residual chi(c) - gamma - d_k1 c^2 must scale like c^4 within a
    factor of two between c = 1e-1 and 1e-2, where gamma = m (m + 2 alpha + d),
    m = n + 2k, is chi at c = 0 and d_k1 = (b_k + 1)/2, b_k the Jacobi
    recurrence entry of the (alpha, beta_n) family; lambda(c)/c^(n+2k) must drift
    by at most 1e-4 relative between c = 1e-2 and 1e-3; and for k = 0 the
    limit must match the closed form
    pi^(d/2) Gamma(alpha+1) / (2^n Gamma(alpha+n+d/2+1)) at c = 1e-4.
    """
    report = VerificationReport(suite="perturbation")
    for d, alpha, n, k in ((2, 0.0, 0, 0), (3, 1.0, 1, 1)):
        base = {"d": d, "alpha": alpha, "n": n, "k": k}
        m = n + 2 * k
        gamma = m * (m + 2.0 * alpha + d)
        d_k1 = 0.5 * (_recurrence_arrays(JacobiBasis(alpha, n + d / 2.0 - 1.0), k)[1][k] + 1.0)

        def excess(c):
            f = solve_pswfs(d, alpha, c, n, k)[k]
            return abs(f.chi - gamma - d_k1 * c * c)

        ratio = excess(1e-2) / excess(1e-1)
        scaling_metric = max(ratio / 2e-4, 0.5e-4 / ratio)
        report.add({**base, "check": "chi_c4_scaling"}, scaling_metric, CHI_SCALING_TOL)

        def reduced_lambda(c):
            f = solve_pswfs(d, alpha, c, n, k)[k]
            return lambda_eigenvalue(f) / c ** (n + 2 * k)

        drift = abs(reduced_lambda(1e-2) / reduced_lambda(1e-3) - 1.0)
        report.add({**base, "check": "lambda_drift"}, drift, LAMBDA_DRIFT_TOL)

        if k == 0:
            limit = math.exp(
                0.5 * d * math.log(math.pi)
                + math.lgamma(alpha + 1.0)
                - n * math.log(2.0)
                - math.lgamma(alpha + n + d / 2.0 + 1.0)
            )
            err = abs(reduced_lambda(1e-4) / limit - 1.0)
            report.add({**base, "check": "lambda_limit"}, err, LAMBDA_LIMIT_TOL)
    return report


def suite_recurrence() -> VerificationReport:
    """Coefficient-recurrence residuals on a parameter sample, including c=0."""
    combos = [
        (2, 0.0, 1.0, 0),
        (3, 1.0, 5.0, 2),
        (2, -0.5, 10.0, 1),
        (5, 0.5, 2.0, 3),
        (2, 0.0, 0.0, 1),
    ]
    return _family_suite("recurrence", combos, 4, lambda family: (
        ({"k": f.params.k}, recurrence_residual(f), RECURRENCE_TOL) for f in family))


_SUITES = {
    "orthonormality": suite_orthonormality,
    "hankel": suite_hankel,
    "bounds": suite_bounds,
    "perturbation": suite_perturbation,
    "recurrence": suite_recurrence,
}


SUITE_NAMES = tuple(_SUITES)


def run_suite(name: str) -> VerificationReport:
    """Run one named suite, or all of them merged in SUITE_NAMES order, each
    case at its suite's own tolerance."""
    if name == "all":
        merged = VerificationReport(suite="all")
        for suite in SUITE_NAMES:
            merged.cases.extend(_SUITES[suite]().cases)
        return merged
    if name not in _SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {SUITE_NAMES + ('all',)}")
    return _SUITES[name]()
