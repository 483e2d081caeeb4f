"""Tests for the verification suites and reference-table regression."""

import dataclasses
import json
import math

import numpy as np
import pytest

from ballprolate.pswf import lambda_eigenvalue, solve_pswfs
from ballprolate.verify import (
    SUITE_NAMES,
    VerificationReport,
    hankel_residual,
    mu_rayleigh,
    orthonormality_gram,
    recurrence_residual,
    run_suite,
    table_check,
)
from helpers import lambda_from_hankel_fit, sphere_fourier_residual


class TestHankelResidual:
    def test_disk_ground_state(self):
        f = solve_pswfs(2, 0.0, 1.0, 0, 0)[0]
        assert hankel_residual(f, lambda_eigenvalue(f)) < 1e-10

    def test_ball_high_mode_with_tiny_lambda(self):
        # A high radial mode of the 3-ball with lambda ~ 2.8e-7.
        f = solve_pswfs(3, 1.0, 2.0, 1, 3)[3]
        lam = lambda_eigenvalue(f)
        assert lam == pytest.approx(2.809367682507114e-07, rel=1e-10)
        assert hankel_residual(f, lam) < 2e-9

    def test_wrong_lambda_fails(self):
        f = solve_pswfs(2, 0.0, 1.0, 0, 0)[0]
        lam = lambda_eigenvalue(f)
        assert hankel_residual(f, lam * (1.0 + 1e-6)) > 1e-8

    def test_tail_mode_and_control(self):
        # lambda ~ 3.7e-13: the closed-form integral side keeps the metric
        # relative-accurate, so a 1e-6 error in lambda still shows as 1e-6.
        f = solve_pswfs(2, 0.0, 1.0, 2, 4)[4]
        lam = lambda_eigenvalue(f)
        assert lam == pytest.approx(3.657e-13, rel=1e-3)
        assert hankel_residual(f, lam) < 1e-12
        assert hankel_residual(f, lam * (1.0 + 1e-6)) > 1e-8

    @pytest.mark.parametrize("n", [0, 2])
    def test_grid_through_origin(self, n):
        # At r = 0 only the j = 0 term of the closed form survives.
        for f in solve_pswfs(3, 1.0, 5.0, n, 3):
            lam = lambda_eigenvalue(f)
            assert hankel_residual(f, lam, (0.0, 0.3, 0.7, 1.0)) < 1e-12
            assert hankel_residual(f, lam, (0.0,)) < 1e-12

    @pytest.mark.parametrize("c", [1.0, 5.0])
    def test_interval_chebyshev_weight(self, c):
        # d = 1, alpha = -1/2, n = 0: alpha + beta_n = -1, where the j = 0
        # norm constant takes its reduced form.
        for f in solve_pswfs(1, -0.5, c, 0, 4):
            assert hankel_residual(f, lambda_eigenvalue(f)) < 1e-12

    def test_large_truncation(self):
        # K = 215 at c = 25: b^(2j) for the top terms is far out of range.
        family = solve_pswfs(2, 0.0, 25.0, 0, 100)
        for f in family[:11:5]:
            assert hankel_residual(f, lambda_eigenvalue(f)) < 1e-12

    def test_requires_positive_bandwidth(self):
        f = solve_pswfs(2, 0.0, 0.0, 0, 0)[0]
        with pytest.raises(ValueError):
            hankel_residual(f, 1.0)

    @pytest.mark.parametrize("d,alpha", [(2, 0.0), (3, 1.0), (2, -0.5)])
    @pytest.mark.parametrize("c", [0.5, 2.0, 10.0])
    def test_route_agreement(self, d, alpha, c):
        # lambda from the endpoint formula against the least-squares fit of
        # the integral route, on every mode.
        for n in range(2):
            for f in solve_pswfs(d, alpha, c, n, 2):
                lam = lambda_eigenvalue(f)
                assert lambda_from_hankel_fit(f) == pytest.approx(lam, rel=1e-8)


class TestOrthonormality:
    def test_large_bandwidth_family(self):
        family = solve_pswfs(2, 0.0, 10.0, 0, 10)
        assert orthonormality_gram(family) < 1e-11

    def test_zero_bandwidth_family(self):
        family = solve_pswfs(2, 0.0, 0.0, 1, 6)
        assert orthonormality_gram(family) < 1e-13

    def test_single_member(self):
        family = solve_pswfs(3, 1.0, 2.0, 0, 0)
        assert orthonormality_gram(family) < 1e-13

    def test_perturbed_family_fails(self):
        family = solve_pswfs(2, 0.0, 10.0, 0, 3)
        bad = dataclasses.replace(
            family[1], coeffs=family[1].coeffs * (1.0 + 1e-6)
        )
        assert orthonormality_gram([family[0], bad, family[2]]) > 1e-11

    def test_mixed_family_rejected(self):
        a = solve_pswfs(2, 0.0, 1.0, 0, 0)
        b = solve_pswfs(2, 0.0, 2.0, 0, 0)
        with pytest.raises(ValueError):
            orthonormality_gram(a + b)


class TestRecurrenceResidual:
    def test_solved_families_are_tiny(self):
        for f in solve_pswfs(3, 0.5, 4.0, 2, 4):
            assert recurrence_residual(f) < 1e-13

    def test_zero_bandwidth_is_exact(self):
        for f in solve_pswfs(2, 0.0, 0.0, 0, 3):
            assert recurrence_residual(f) == 0.0

    def test_perturbed_chi_control(self):
        f = solve_pswfs(2, 0.0, 2.0, 0, 0)[0]
        bad = dataclasses.replace(f, chi=f.chi + 1e-6)
        res = recurrence_residual(bad)
        # the shift contributes 1e-6 * beta_j at each j, maximized at the
        # dominant coefficient
        expected = 1e-6 * float(np.max(np.abs(f.coeffs))) / (abs(bad.chi) + 4.0)
        assert res == pytest.approx(expected, rel=1e-3)
        assert res > 1e-13


class TestMuConsistency:
    @pytest.mark.parametrize("n,k", [(0, 0), (1, 0), (1, 1)])
    def test_rayleigh_quotient_matches_lambda_squared(self, n, k):
        lam = lambda_eigenvalue(solve_pswfs(2, 0.0, 2.0, n, k)[k])
        mu = mu_rayleigh(2, 0.0, 2.0, n, k)
        assert mu == pytest.approx(lam ** 2, rel=1e-6)

    def test_kernel_route_confirms_ordering_flip(self):
        # Independent confirmation that the k = 1 eigenvalue exceeds the
        # k = 0 one at alpha = -1/2, c = 10 on the disk.
        lam0 = lambda_eigenvalue(solve_pswfs(2, -0.5, 10.0, 0, 0)[0])
        lam1 = lambda_eigenvalue(solve_pswfs(2, -0.5, 10.0, 0, 1)[1])
        mu0 = mu_rayleigh(2, -0.5, 10.0, 0, 0, radial_nodes=64)
        mu1 = mu_rayleigh(2, -0.5, 10.0, 0, 1, radial_nodes=64)
        assert mu0 == pytest.approx(lam0 ** 2, rel=1e-4)
        assert mu1 == pytest.approx(lam1 ** 2, rel=1e-4)
        assert mu1 > mu0


class TestSphereFourier:
    @pytest.mark.parametrize("w", [1.0, 5.0])
    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    def test_identity(self, w, n):
        assert sphere_fourier_residual(w, n) < 1e-10

    def test_negative_control(self):
        assert sphere_fourier_residual(5.0 * (1.0 + 1e-6), 1) < 1e-10
        base = sphere_fourier_residual(5.0, 1)
        # shifting only the right-hand frequency must break the identity
        from ballprolate.specfn import bessel_j_scaled

        w, n, theta_xi = 5.0, 1, 0.7
        m = 512
        theta = 2.0 * math.pi * np.arange(m) / m
        y = np.cos(n * theta) / math.sqrt(math.pi)
        lhs = np.sum(np.exp(-1j * w * np.cos(theta - theta_xi)) * y) * 2.0 * math.pi / m
        w_bad = w * (1.0 + 1e-6)
        rhs = 2.0 * math.pi * (-1j) ** n * bessel_j_scaled(float(n), w_bad) * w_bad ** n \
            * math.cos(n * theta_xi) / math.sqrt(math.pi)
        assert abs(lhs - rhs) > 1e-10 >= base


class TestTableCheck:
    @pytest.mark.parametrize("table_id", [1, 2, 3, 4])
    def test_all_rows_pass(self, table_id):
        report = table_check(table_id)
        assert report.cases, "table produced no cases"
        failures = report.failures()
        assert not failures, [c.as_dict() for c in failures]

    def test_report_schema(self):
        report = table_check(1)
        payload = json.loads(report.to_json())
        assert payload["suite"] == "table1"
        assert payload["passed"] is True
        assert payload["max_metric"] == report.max_metric
        case = payload["cases"][0]
        assert set(case) == {"params", "metric", "tolerance", "pass"}

    def test_bad_id(self):
        with pytest.raises(ValueError):
            table_check(5)


class TestSuites:
    @pytest.mark.parametrize("name", ["orthonormality", "perturbation", "recurrence"])
    def test_fast_suites_pass(self, name):
        report = run_suite(name)
        assert report.passed, report.summary()

    def test_bounds_suite_passes(self):
        report = run_suite("bounds")
        assert report.passed, report.summary()

    def test_hankel_suite_passes(self):
        report = run_suite("hankel")
        assert report.passed, report.summary()

    def test_unknown_suite(self):
        with pytest.raises(ValueError):
            run_suite("nonsense")

    def test_all_merges_every_suite(self):
        report = run_suite("all")
        names = {c.params.get("check", "") for c in report.cases}
        assert "enclosure" in names
        assert len(report.cases) > 100
        assert report.cases == [case for name in SUITE_NAMES for case in run_suite(name).cases]


class TestReportType:
    def test_pass_flag_matches_metric(self):
        report = VerificationReport(suite="demo")
        report.add({"case": 1}, 0.5, 1.0)
        report.add({"case": 2}, 2.0, 1.0)
        assert report.cases[0].passed and not report.cases[1].passed
        assert not report.passed
        assert report.max_metric == 2.0
        assert len(report.failures()) == 1
        assert "FAIL" in report.summary()
