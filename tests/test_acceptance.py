"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the test names double as the machine-readable verdicts.

Criterion 7 is implemented exactly as stated and is expected to fail on
well-characterized sub-cases: it asserts monotone decay of lambda in k on
every family, which is genuinely false for the weight exponent -1/2 at large
bandwidth (8 families, all alpha = -1/2, c >= 5).  At d = 2, alpha = -1/2,
c = 10 the first three lambdas increase, confirmed by three mutually
independent routes (coefficient ratios from chi, the integral eigenrelation
at 1e-14, and a two-dimensional kernel discretization).  The chi part holds
everywhere.

Criterion 4 holds on all 135 grid points, down to lambda ~ 1e-13 at c = 1:
hankel_residual sums the integral side in closed form, so its relative
metric does not divide a quadrature's absolute rounding by lambda.
"""

import math
import time

import numpy as np

from ballprolate.geometry import eval_psi_ball
from ballprolate.linalg import eig_symtridiag, gauss_jacobi
from ballprolate.pswf import (
    build_matrix,
    chi_bounds,
    gamma_coef,
    lambda_eigenvalue,
    perturbation_coeffs,
    solve_pswfs,
)
from ballprolate.specfn import JacobiBasis, bessel_j_scaled, jacobi_eval
from ballprolate.verify import (
    hankel_residual,
    orthonormality_gram,
    recurrence_residual,
    table_check,
)
from helpers import (
    ball_gram,
    closed_form_moment,
    jacobi_coeffs,
    sphere_fourier_residual,
    sphere_gram,
)

CRITERION4_GRID = [
    (d, alpha, c, n)
    for d, alpha in ((2, 0.0), (3, 1.0), (2, -0.5))
    for c in (1.0, 5.0, 10.0)
    for n in range(3)
]
EXTRA_DIMS = [
    (d, alpha, c, n)
    for d, alpha in ((1, 0.0), (1, -0.5), (5, 0.0), (5, 1.0))
    for c in (1.0, 5.0, 10.0)
    for n in range(2)
]


def report(num, ok, detail):
    print(f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} - {detail}")


def test_criterion_01_table1_eigenvalues():
    start = time.perf_counter()
    result = table_check(1)
    elapsed = time.perf_counter() - start
    strict = max(c.metric for c in result.cases if c.tolerance == 1e-10)
    ok = result.passed and elapsed < 1.0
    report(1, ok, f"disk eigenvalue table, max rel err {strict:.2e} "
                  f"(16-digit columns), {elapsed:.2f}s")
    assert result.passed, result.summary()
    assert elapsed < 1.0


def test_criterion_02_table3_eigenvalues():
    start = time.perf_counter()
    result = table_check(3)
    elapsed = time.perf_counter() - start
    strict = max(c.metric for c in result.cases if c.tolerance == 1e-10)
    ok = result.passed and elapsed < 1.0
    report(2, ok, f"3-ball eigenvalue table, max rel err {strict:.2e}, {elapsed:.2f}s")
    assert result.passed, result.summary()
    assert elapsed < 1.0


def test_criterion_03_function_value_tables():
    result2 = table_check(2)
    result4 = table_check(4)
    ok = result2.passed and result4.passed
    report(3, ok, f"radial value tables, max rel err "
                  f"{max(result2.max_metric, result4.max_metric):.2e}")
    assert result2.passed, result2.summary()
    assert result4.passed, result4.summary()


def test_criterion_04_hankel_route_agreement():
    start = time.perf_counter()
    r_grid = np.arange(1, 11) / 10.0
    worst = 0.0
    worst_case = None
    over = []
    for d, alpha, c, n in CRITERION4_GRID:
        for f in solve_pswfs(d, alpha, c, n, 4):
            lam = lambda_eigenvalue(f)
            res = hankel_residual(f, lam, r_grid)
            if res > worst:
                worst, worst_case = res, (d, alpha, c, n, f.params.k, lam)
            if res > 1e-8:
                over.append((d, alpha, c, n, f.params.k, lam, res))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-8 and elapsed < 10.0
    report(4, ok, f"{135 - len(over)}/135 grid points <= 1e-8, worst {worst:.2e} "
                  f"at {worst_case}, {elapsed:.1f}s")
    for d, alpha, c, n, k, lam, res in over:
        print(f"    residual {res:.2e} at (d={d}, alpha={alpha}, c={c}, n={n}, k={k}) "
              f"where lambda={lam:.2e} floors the relative metric")
    assert elapsed < 10.0
    assert all(lam < 1e-7 for *_, lam, _res in over), \
        "a residual above 1e-8 occurred outside the lambda underflow regime"
    assert worst <= 1e-8, (
        f"{len(over)} grid points exceed 1e-8; all have lambda < 1e-7, where the "
        f"metric's double-precision floor (~1e-16 absolute over lambda*max|phi|) "
        f"exceeds the stated tolerance"
    )


def test_criterion_05_orthonormality():
    worst = 0.0
    for n in range(4):
        family = solve_pswfs(2, 0.0, 10.0, n, 10)
        worst = max(worst, orthonormality_gram(family))
    ok = worst <= 1e-11
    report(5, ok, f"Gram deviation {worst:.2e} for c=10 disk families, n<=3, k<=10")
    assert worst <= 1e-11


def test_criterion_06_eigenvalue_bounds():
    worst_margin = -math.inf
    for d, alpha, c, n in CRITERION4_GRID + EXTRA_DIMS:
        if d == 1 and n > 1:
            continue
        for f in solve_pswfs(d, alpha, c, n, 4):
            lower, upper = chi_bounds(f.params)
            assert lower < f.chi < upper, (f.params, lower, f.chi, upper)
            worst_margin = max(worst_margin,
                               (lower - f.chi) / c ** 2, (f.chi - upper) / c ** 2)
    ok = worst_margin < 0.0
    report(6, ok, f"strict enclosure on full grid, worst signed margin {worst_margin:.2e}")
    assert worst_margin < 0.0


def test_criterion_07_eigenvalue_ordering():
    chi_violations = []
    lam_violations = []
    for d, alpha, c, n in CRITERION4_GRID + EXTRA_DIMS:
        if d == 1 and n > 1:
            continue
        family = solve_pswfs(d, alpha, c, n, 4)
        chis = [f.chi for f in family]
        if any(x >= y for x, y in zip(chis, chis[1:])):
            chi_violations.append((d, alpha, c, n))
        lams = [lambda_eigenvalue(f) for f in family]
        if any(x <= y for x, y in zip(lams, lams[1:])):
            lam_violations.append((d, alpha, c, n, [f"{x:.3e}" for x in lams]))
    ok = not chi_violations and not lam_violations
    report(7, ok, f"chi ordering holds on all families; lambda decay violated on "
                  f"{len(lam_violations)} families (all alpha=-0.5, c>=5)")
    for item in lam_violations:
        print(f"    lambda not decreasing at (d={item[0]}, alpha={item[1]}, "
              f"c={item[2]}, n={item[3]}): {item[4]}")
    assert not chi_violations
    assert not lam_violations, (
        "monotone decay of lambda fails at strongly negative alpha and large "
        "bandwidth; confirmed independently by the integral eigenrelation and a "
        "kernel discretization (see test_verify), so the claim itself does not "
        "hold on these families"
    )


def test_criterion_08_small_bandwidth_asymptotics():
    details = []
    for d, alpha, n, k in ((2, 0.0, 0, 0), (3, 1.0, 1, 1)):
        gamma = gamma_coef(n + 2 * k, alpha, d)
        d_k1 = perturbation_coeffs(d, alpha, n, k)[0]

        def excess(c):
            return abs(solve_pswfs(d, alpha, c, n, k)[k].chi - gamma - d_k1 * c * c)

        ratio = excess(1e-2) / excess(1e-1)
        assert 0.5e-4 <= ratio <= 2e-4, (d, alpha, n, k, ratio)

        def reduced(c):
            return lambda_eigenvalue(solve_pswfs(d, alpha, c, n, k)[k]) / c ** (n + 2 * k)

        drift = abs(reduced(1e-2) / reduced(1e-3) - 1.0)
        assert drift <= 1e-4, (d, alpha, n, k, drift)
        details.append(f"ratio {ratio:.2e}, drift {drift:.1e}")

    err = abs(lambda_eigenvalue(solve_pswfs(2, 0.0, 1e-4, 0, 0)[0]) / math.pi - 1.0)
    assert err <= 1e-6
    report(8, True, f"chi excess scales as c^4 ({details[0]}; {details[1]}); "
                    f"k=0 lambda limit error {err:.1e}")


def test_criterion_09_one_dimensional_reduction():
    alpha, c, K = 0.0, 5.0, 40
    sym = JacobiBasis(alpha, alpha)
    a_sym = [jacobi_coeffs(sym, j)[0] for j in range(2 * K + 3)]

    def a_tilde(j):
        return a_sym[j] if j >= 0 else 0.0

    worst = 0.0
    for parity in (0, 1):
        tri = build_matrix(1, alpha, c, parity, K)
        for j in range(K + 1):
            m = 2 * j + parity
            diag = m * (m + 2 * alpha + 1) + c * c * (a_tilde(m - 1) ** 2 + a_tilde(m) ** 2)
            worst = max(worst, abs(tri.diag[j] - diag) / max(1.0, abs(diag)))
            if j < K:
                off = c * c * a_tilde(m) * a_tilde(m + 1)
                worst = max(worst, abs(tri.offdiag[j] - off) / max(1.0, abs(off)))
    ok = worst <= 1e-14
    report(9, ok, f"even/odd interval matrices match entrywise to {worst:.2e}")
    assert worst <= 1e-14


def test_criterion_10_property_suites_and_controls():
    import dataclasses

    metrics = []        # (name, value, tolerance): passes when value <= tolerance
    controls = []       # (name, fired): a 1e-6 perturbation must trip the check

    # Jacobi orthonormality and its control.
    alpha, beta = 1.0, 1.5
    rule = gauss_jacobi(alpha, beta, 14)
    vals = jacobi_eval(JacobiBasis(alpha, beta), 12, rule.nodes)
    target = 2.0 ** (alpha + beta + 2.0) * np.eye(13)
    metrics.append(("jacobi orthonormality",
                    np.max(np.abs((vals * rule.weights) @ vals.T - target)), 1e-12))
    spoiled = vals.copy()
    spoiled[5] *= 1.0 + 1e-6
    controls.append(("jacobi orthonormality",
                     np.max(np.abs((spoiled * rule.weights) @ spoiled.T - target)) > 1e-12))

    # Quadrature exactness and its control.
    rule = gauss_jacobi(1.0, 0.5, 6)
    errs = [abs(float(rule.nodes ** k @ rule.weights) / closed_form_moment(k, 1.0, 0.5) - 1.0)
            for k in range(12)]
    metrics.append(("quadrature exactness", max(errs), 1e-13))
    bad_nodes = rule.nodes.copy()
    bad_nodes[3] *= 1.0 + 1e-6
    controls.append(("quadrature exactness",
                     abs(float(bad_nodes ** 7 @ rule.weights)
                         / closed_form_moment(7, 1.0, 0.5) - 1.0) > 1e-13))

    # Scaled-Bessel derivative identity and its control.
    h = 1e-5
    for z in (0.5, 3.0, 12.0):
        fd = (bessel_j_scaled(0.7, z + h) - bessel_j_scaled(0.7, z - h)) / (2.0 * h)
        metrics.append((f"bessel derivative z={z}",
                        abs(fd + z * bessel_j_scaled(1.7, z)), 1e-8))
    fd = (bessel_j_scaled(0.0, 3.0 + h) - bessel_j_scaled(0.0, 3.0 - h)) / (2.0 * h)
    controls.append(("bessel derivative",
                     abs(fd + 3.0 * bessel_j_scaled(1.0, 3.0) * (1.0 + 1e-6)) > 1e-8))

    # Circle Fourier identity for harmonics and its control.
    metrics.append(("circle fourier identity",
                    max(sphere_fourier_residual(w, n) for w in (1.0, 5.0) for n in range(4)),
                    1e-10))
    w_bad = 5.0 * (1.0 + 1e-6)
    m = 512
    theta = 2.0 * math.pi * np.arange(m) / m
    y = np.cos(theta) / math.sqrt(math.pi)
    lhs = np.sum(np.exp(-1j * 5.0 * np.cos(theta - 0.7)) * y) * 2.0 * math.pi / m
    rhs = (2.0 * math.pi * (-1j) * bessel_j_scaled(1.0, w_bad) * w_bad
           * math.cos(0.7) / math.sqrt(math.pi))
    controls.append(("circle fourier identity", abs(lhs - rhs) > 1e-10))

    # Sphere and ball orthonormality and a control.
    for d in (2, 3):
        gram = sphere_gram(d, 4)
        metrics.append((f"sphere gram d={d}",
                        np.max(np.abs(gram - np.eye(gram.shape[0]))), 1e-12))
        bgram = ball_gram(d, 0.0, 6)
        metrics.append((f"ball gram d={d}",
                        np.max(np.abs(bgram - np.eye(bgram.shape[0]))), 1e-11))
    gram_bad = sphere_gram(2, 3)
    gram_bad[1] *= 1.0 + 1e-6
    controls.append(("sphere gram",
                     np.max(np.abs(gram_bad - np.eye(gram_bad.shape[0]))) > 1e-12))

    # Parity and its control.
    rng = np.random.default_rng(99)
    for d in (2, 3):
        for n in range(3):
            f = solve_pswfs(d, 0.5, 3.0, n, 1)[1]
            x = rng.uniform(-0.5, 0.5, size=d)
            plus = eval_psi_ball(f, 1, x)
            minus = eval_psi_ball(f, 1, -x)
            metrics.append((f"parity d={d} n={n}",
                            abs(minus - (-1.0) ** n * plus) / abs(plus), 1e-12))
    f = solve_pswfs(2, 0.5, 3.0, 1, 0)[0]
    x = np.array([0.3, 0.4])
    base = eval_psi_ball(f, 1, x)
    controls.append(("parity",
                     abs(eval_psi_ball(f, 1, -x * (1 + 1e-6)) + base) > 1e-12 * abs(base)))

    # Recurrence residual and truncation doubling with controls.
    worst_rec = max(recurrence_residual(f) for f in solve_pswfs(3, 0.5, 4.0, 2, 4))
    metrics.append(("recurrence residual", worst_rec, 1e-13))
    f = solve_pswfs(2, 0.0, 2.0, 0, 0)[0]
    perturbed = dataclasses.replace(f, chi=f.chi * (1.0 + 1e-6))
    controls.append(("recurrence residual", recurrence_residual(perturbed) > 1e-13))

    f = solve_pswfs(3, 1.0, 10.0, 2, 4)[4]
    doubled, _ = eig_symtridiag(build_matrix(3, 1.0, 10.0, 2, 2 * f.truncation))
    metrics.append(("truncation doubling",
                    abs(f.chi - doubled[4]) / abs(doubled[4]), 1e-13))
    controls.append(("truncation doubling",
                     abs(f.chi - doubled[4] * (1.0 + 1e-6)) / abs(doubled[4]) > 1e-13))

    failed_metrics = [(name, value, tol) for name, value, tol in metrics if value > tol]
    dead_controls = [name for name, fired in controls if not fired]
    ok = not failed_metrics and not dead_controls
    report(10, ok, f"{len(metrics) - len(failed_metrics)}/{len(metrics)} property checks "
                   f"pass; {len(controls) - len(dead_controls)}/{len(controls)} "
                   f"negative controls fire")
    assert not failed_metrics, failed_metrics
    assert not dead_controls, dead_controls
