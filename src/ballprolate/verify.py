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
                       that never touches the radial transform route: a
                       gauss_jacobi radial rule, a trapezoid angular rule, and
                       the kernel evaluated once per distinct separation
                       (radius pairs i <= j, angles in [0, pi]).

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
from .linalg import gauss_jacobi
from .pswf import (
    RadialPswf,
    build_matrix,
    chi_bounds,
    gamma_coef,
    lambda_eigenvalue,
    perturbation_coeffs,
    solve_pswfs,
)
from .specfn import _bessel_j_family, _norm_const, clenshaw

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

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.as_dict(), indent=indent)

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
    const = np.array([
        math.exp(log_pref + math.lgamma(p.alpha + j + 1.0) - math.lgamma(j + 1.0))
        / _norm_const(p.basis, j)
        for j in range(pswf.truncation + 1)
    ])
    const[1::2] *= -1.0
    terms = _bessel_j_family(p.beta_n + p.alpha + 1.0, pswf.truncation, p.c * r_grid)
    lhs = (const * pswf.coeffs) @ terms
    parity = -1.0 if p.k % 2 else 1.0
    rhs_shape = parity * clenshaw(pswf.basis, pswf.coeffs, 2.0 * r_grid * r_grid - 1.0)
    return lhs, rhs_shape


def hankel_residual(pswf: RadialPswf, lam: float, r_grid=DEFAULT_R_GRID) -> float:
    """Maximum relative residual of the radial integral eigenrelation.

    Returns max_r |LHS(r) - (-1)^k lambda phi(2r^2-1)| scaled by
    |lambda| max_r |phi(2r^2-1)|.  The integral side LHS is summed in closed
    form (see _hankel_sides), so the metric keeps its relative accuracy for
    tiny lambda at small c r: at d = 2, alpha = 0, c = 1, n = 2, k = 4, where
    lambda ~ 3.7e-13, it reads below 1e-12.  r_grid may contain 0.
    """
    p = pswf.params
    if not p.c > 0.0:
        raise ValueError("the integral eigenrelation requires c > 0")
    r = np.asarray(r_grid, dtype=float)
    lhs, rhs_shape = _hankel_sides(pswf, r)
    scale = abs(lam) * np.max(np.abs(rhs_shape))
    return float(np.max(np.abs(lhs - lam * rhs_shape)) / scale)


def orthonormality_gram(pswfs: list[RadialPswf]) -> float:
    """Max deviation from identity of the quadrature Gram matrix of a family.

    All members must share (d, alpha, c, n).  Entries are
    2^-(alpha+beta_n+2) int phi_a phi_b w_(alpha, beta_n) d(eta) on a rule of
    twice the truncation size.
    """
    if not pswfs:
        raise ValueError("need at least one solved eigenfunction")
    heads = {(f.params.d, f.params.alpha, f.params.c, f.params.n) for f in pswfs}
    if len(heads) != 1:
        raise ValueError(f"family members must share (d, alpha, c, n), got {heads}")
    p = pswfs[0].params
    size = 2 * max(f.truncation for f in pswfs)
    rule = gauss_jacobi(p.alpha, p.beta_n, size)
    samples = np.vstack([clenshaw(f.basis, f.coeffs, rule.nodes) for f in pswfs])
    gram = 2.0 ** (-(p.alpha + p.beta_n + 2.0)) * (samples * rule.weights) @ samples.T
    return float(np.max(np.abs(gram - np.eye(len(pswfs)))))


def recurrence_residual(pswf: RadialPswf) -> float:
    """Max residual of the three-term coefficient recurrence, normalized by
    |chi| + c^2 (zero when the raw residual is exactly zero)."""
    p = pswf.params
    tri = build_matrix(p.d, p.alpha, p.c, p.n, pswf.truncation)
    beta = np.concatenate(([0.0], pswf.coeffs, [0.0]))
    off = np.concatenate(([0.0], tri.offdiag, [0.0]))
    res = (tri.diag - pswf.chi) * beta[1:-1] + off[:-1] * beta[:-2] + off[1:] * beta[2:]
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
    radial_nodes-point Gauss-Legendre rule gauss_jacobi(0, 0, radial_nodes)
    mapped to [0, 1].  The result must equal lambda^2; only d = 2 is
    supported.

    The kernel depends only on the separation, which is symmetric in the two
    radii and even in the angle u about pi.  So it is evaluated, in one
    kernel_qc call, only for radius pairs i <= j and the floor(A/2) + 1
    angles in [0, pi], A = angular_nodes; angles strictly inside (0, pi)
    stand for their mirror image too and count twice.
    """
    if d != 2:
        raise ValueError("the Rayleigh spot check is implemented on the disk only")
    for name, count in (("radial_nodes", radial_nodes), ("angular_nodes", angular_nodes)):
        if not (isinstance(count, (int, np.integer)) and count >= 1):
            raise ValueError(f"{name} must be an integer >= 1, got {count!r}")
    pswf = solve_pswfs(d, alpha, c, n, k)[k]
    rule = gauss_jacobi(0.0, 0.0, radial_nodes)
    t = 0.5 * (rule.nodes + 1.0)
    wt = 0.5 * rule.weights
    radial = t ** n * clenshaw(pswf.basis, pswf.coeffs, 2.0 * t * t - 1.0)
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
    weight = (1.0 - t * t) ** alpha * t * wt
    projected = angular @ (radial * weight)
    numerator = float((radial * weight) @ projected)
    denominator = float((radial * radial) @ weight)
    return numerator / denominator


def _aligned_sign(refs: np.ndarray, vals: np.ndarray) -> float:
    """Overall sign aligning computed values with a reference eigenfunction
    family, whose global sign is an arbitrary convention."""
    dot = float(refs @ vals)
    return -1.0 if dot < 0.0 else 1.0


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

    if table_id == 2:
        rows = tables.TABLE2
        groups: dict[tuple, list] = {}
        for row in rows:
            groups.setdefault((row[2], row[3], row[1]), []).append(row)
        for (n, k, c), members in groups.items():
            f = solve_pswfs(2, 0.0, c, n, k)[k]
            rs = np.array([m[0] for m in members])
            refs = np.array([m[4] for m in members])
            vals = rs ** (n + 0.5) * clenshaw(f.basis, f.coeffs, 2.0 * rs * rs - 1.0)
            sign = _aligned_sign(refs, vals)
            for m, v in zip(members, sign * vals):
                base = {"r": m[0], "c": c, "n": n, "k": k}
                report.add({**base, "column": "value"}, _rel(v, m[4]), 1e-9)
                report.add({**base, "column": "value_hist6"}, _rel(v, m[5]), 5e-6)
                report.add({**base, "column": "value_hist8"}, _rel(v, m[6]), 5e-6)
        return report

    rows = tables.TABLE4
    groups = {}
    for row in rows:
        groups.setdefault((row[2], row[3], row[1]), []).append(row)
    for (n, k, c), members in groups.items():
        rs = np.array([m[0] for m in members])
        for column, alpha in (("alpha0", 0.0), ("alpha1", 1.0), ("alpha2", 2.0)):
            f = solve_pswfs(3, alpha, c, n, k)[k]
            phi = clenshaw(f.basis, f.coeffs, 2.0 * rs * rs - 1.0)
            # The alpha = 0 column is published in the disk-style r^(n+1/2)
            # presentation; the others are the plain radial factor r^n.
            power = n + 0.5 if alpha == 0.0 else float(n)
            vals = rs ** power * phi
            refs = np.array([m[4 + int(alpha)] for m in members])
            sign = _aligned_sign(refs, vals)
            for m, v, ref in zip(members, sign * vals, refs):
                base = {"r": m[0], "c": c, "n": n, "k": k, "column": column}
                report.add(base, _rel(v, ref), 1e-9)
    return report


def _hankel_grid():
    for d, alpha in ((2, 0.0), (3, 1.0), (2, -0.5)):
        for c in (1.0, 5.0, 10.0):
            for n in range(3):
                yield d, alpha, c, n


def suite_hankel() -> VerificationReport:
    """Integral-route residuals over the standard parameter grid, k <= 4:
    all 135 modes, down to lambda ~ 1e-13 at c = 1."""
    report = VerificationReport(suite="hankel")
    for d, alpha, c, n in _hankel_grid():
        for f in solve_pswfs(d, alpha, c, n, 4):
            report.add(
                {"d": d, "alpha": alpha, "c": c, "n": n, "k": f.params.k},
                hankel_residual(f, lambda_eigenvalue(f)),
                HANKEL_TOL,
            )
    return report


def suite_orthonormality() -> VerificationReport:
    """Gram deviation of the disk family alpha=0, c=10, n <= 3, k <= 10."""
    report = VerificationReport(suite="orthonormality")
    for n in range(4):
        family = solve_pswfs(2, 0.0, 10.0, n, 10)
        report.add(
            {"d": 2, "alpha": 0.0, "c": 10.0, "n": n, "k_max": 10},
            orthonormality_gram(family),
            ORTHONORMALITY_TOL,
        )
    return report


def suite_bounds() -> VerificationReport:
    """Strict eigenvalue enclosure and monotone ordering on the standard grid
    extended by d in {1, 5}.

    Metrics are signed margins normalized by c^2 (enclosure) or by the
    quantity itself (ordering); a non-positive margin passes.  The monotone
    decay of lambda in k is checked for alpha >= 0 only: for strongly
    negative exponents it provably fails at large bandwidth (three
    independent routes agree that e.g. alpha = -1/2, c = 10, d = 2 has
    lambda_1 > lambda_0), while positivity holds throughout.
    """
    report = VerificationReport(suite="bounds")
    combos = list(_hankel_grid()) + [
        (1, 0.0, c, n) for c in (1.0, 5.0, 10.0) for n in (0, 1)
    ] + [
        (1, -0.5, 2.0, n) for n in (0, 1)
    ] + [
        (5, 0.0, c, n) for c in (1.0, 5.0, 10.0) for n in range(3)
    ] + [
        (5, 1.0, 2.0, n) for n in range(3)
    ]
    for d, alpha, c, n in combos:
        family = solve_pswfs(d, alpha, c, n, 4)
        base = {"d": d, "alpha": alpha, "c": c, "n": n}
        margin = -math.inf
        for f in family:
            lower, upper = chi_bounds(f.params)
            margin = max(margin, (lower - f.chi) / c ** 2, (f.chi - upper) / c ** 2)
        report.add({**base, "check": "enclosure"}, margin, BOUNDS_TOL)
        chis = np.array([f.chi for f in family])
        lams = np.array([lambda_eigenvalue(f) for f in family])
        chi_margin = float(np.max(chis[:-1] - chis[1:]) / np.max(np.abs(chis)))
        report.add({**base, "check": "chi_increasing"}, chi_margin, BOUNDS_TOL)
        if alpha >= 0.0:
            lam_margin = float(np.max((lams[1:] - lams[:-1]) / lams[:-1]))
            report.add({**base, "check": "lambda_decreasing"}, lam_margin, BOUNDS_TOL)
        report.add({**base, "check": "lambda_positive"}, float(np.max(-lams)), BOUNDS_TOL)
    return report


def suite_perturbation() -> VerificationReport:
    """Small-bandwidth asymptotics of chi and lambda.

    The residual chi(c) - gamma - d_k1 c^2 must scale like c^4 within a
    factor of two between c = 1e-1 and 1e-2; lambda(c)/c^(n+2k) must drift
    by at most 1e-4 relative between c = 1e-2 and 1e-3; and for k = 0 the
    limit must match the closed form
    pi^(d/2) Gamma(alpha+1) / (2^n Gamma(alpha+n+d/2+1)) at c = 1e-4.
    """
    report = VerificationReport(suite="perturbation")
    for d, alpha, n, k in ((2, 0.0, 0, 0), (3, 1.0, 1, 1)):
        base = {"d": d, "alpha": alpha, "n": n, "k": k}
        gamma = gamma_coef(n + 2 * k, alpha, d)
        d_k1 = perturbation_coeffs(d, alpha, n, k)[0]

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
    report = VerificationReport(suite="recurrence")
    combos = [
        (2, 0.0, 1.0, 0),
        (3, 1.0, 5.0, 2),
        (2, -0.5, 10.0, 1),
        (5, 0.5, 2.0, 3),
        (2, 0.0, 0.0, 1),
    ]
    for d, alpha, c, n in combos:
        for f in solve_pswfs(d, alpha, c, n, 4):
            report.add(
                {"d": d, "alpha": alpha, "c": c, "n": n, "k": f.params.k},
                recurrence_residual(f),
                RECURRENCE_TOL,
            )
    return report


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
