"""Tests for the verification suites and reference-table regression."""

import dataclasses
import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from ballprolate import verify
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
from helpers import (
    gram_matrix,
    lambda_from_hankel_fit,
    mu_rayleigh_reference,
    orthonormality_gram_reference,
    recurrence_residual_reference,
    sphere_fourier_residual,
)


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

    @pytest.mark.parametrize("lam", [0.0, -0.0, math.inf, -math.inf, math.nan])
    def test_rejects_zero_or_non_finite_lambda(self, lam):
        f = solve_pswfs(2, 0.0, 1.0, 0, 0)[0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="lam must be finite and non-zero"):
                hankel_residual(f, lam)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -0.1])
    def test_rejects_non_finite_or_negative_radius(self, bad):
        f = solve_pswfs(2, 0.0, 1.0, 0, 0)[0]
        lam = lambda_eigenvalue(f)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="r_grid entries must be finite and non-negative"):
                hankel_residual(f, lam, [0.5, bad])
        # The grid may start at 0.
        assert hankel_residual(f, lam, [0.0, 0.5]) < 1e-10

    @pytest.mark.parametrize("empty", [[], (), np.zeros(0)])
    def test_rejects_empty_radius_grid(self, empty):
        f = solve_pswfs(2, 0.0, 1.0, 0, 0)[0]
        with pytest.raises(ValueError, match="r_grid must hold at least one radius"):
            hankel_residual(f, lambda_eigenvalue(f), empty)

    @pytest.mark.parametrize("d,alpha", [(2, 0.0), (3, 1.0), (2, -0.5)])
    @pytest.mark.parametrize("c", [0.5, 2.0, 10.0])
    def test_route_agreement(self, d, alpha, c):
        # lambda from the coefficient ratios against the least-squares fit of
        # the integral route, on every mode.
        for n in range(2):
            for f in solve_pswfs(d, alpha, c, n, 2):
                lam = lambda_eigenvalue(f)
                assert lambda_from_hankel_fit(f) == pytest.approx(lam, rel=1e-8)


class TestHankelConstant:
    def test_hoisted_constant_matches_per_j_values(self, monkeypatch):
        # With unit coefficients and identity Bessel terms the integral side
        # is the constant vector itself, which must equal, bit for bit, the
        # values built with a fresh basis for every j.
        f = solve_pswfs(3, 0.5, 4.0, 2, 3)[3]
        p, K = f.params, f.truncation
        log_pref = (0.5 * p.d * math.log(2.0 * math.pi) + p.n * math.log(p.c)
                    + p.alpha * math.log(2.0))
        per_j = np.array([
            math.exp(log_pref + math.lgamma(p.alpha + j + 1.0) - math.lgamma(j + 1.0))
            / verify._norm_const(p.basis, j)
            for j in range(K + 1)
        ])
        per_j[1::2] *= -1.0
        monkeypatch.setattr(verify, "_bessel_j_family", lambda nu, jmax, z: np.eye(jmax + 1))
        unit = dataclasses.replace(f, coeffs=np.ones(K + 1))
        lhs, _ = verify._hankel_sides(unit, np.linspace(0.1, 1.0, K + 1))
        assert lhs.tobytes() == per_j.tobytes()

    def test_basis_built_once(self, monkeypatch):
        f = solve_pswfs(2, 0.0, 3.0, 1, 2)[2]
        built = []
        original = type(f.params).basis

        def counting(params):
            built.append(params)
            return original.fget(params)

        monkeypatch.setattr(type(f.params), "basis", property(counting))
        verify._hankel_sides(f, np.linspace(0.0, 1.0, 11))
        assert len(built) == 1


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

    def test_family_block_matches_mode_list(self):
        # A RadialFamily is evaluated from its own block, a list of its
        # modes from a zero-padded copy; the entries are the same.
        for args in ((3, 1.0, 5.0, 1, 10), (2, -0.5, 20.0, 0, 30)):
            family = solve_pswfs(*args)
            assert orthonormality_gram(family) == orthonormality_gram(list(family))

    def test_mixed_family_rejected(self):
        a = solve_pswfs(2, 0.0, 1.0, 0, 0)
        b = solve_pswfs(2, 0.0, 2.0, 0, 0)
        with pytest.raises(ValueError):
            orthonormality_gram([*a, *b])

    @pytest.mark.parametrize("d", [1, 2, 3, 5])
    @pytest.mark.parametrize("alpha", [-0.5, 0.0, 1.0])
    @pytest.mark.parametrize("k_max", [0, 3, 10, 40])
    def test_one_pass_matches_per_mode_clenshaw(self, d, alpha, k_max):
        for n in range(2 if d == 1 else 4):
            family = solve_pswfs(d, alpha, 10.0, n, k_max)
            assert orthonormality_gram(family) == pytest.approx(
                orthonormality_gram_reference(family), abs=1e-14)
            # K + 1 nodes already integrate the degree-2K products exactly,
            # so a rule of 2K nodes gives the same Gram matrix up to rounding.
            K = max(f.truncation for f in family)
            np.testing.assert_allclose(gram_matrix(family, K + 1), gram_matrix(family, max(2 * K, K + 1)),
                                       rtol=0.0, atol=5e-13)

    def test_members_of_different_truncations(self):
        # The members with the smaller K are zero-padded to the larger one.
        a = solve_pswfs(2, 0.0, 10.0, 0, 3)
        b = solve_pswfs(2, 0.0, 10.0, 0, 40)
        assert a[0].truncation < b[0].truncation
        mixed = a[:3] + b[3:8]
        deviation = orthonormality_gram(mixed)
        assert deviation == pytest.approx(orthonormality_gram_reference(mixed), abs=1e-14)
        assert deviation < 1e-13

    def test_clenshaw_is_not_called(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("clenshaw called")

        monkeypatch.setattr(verify, "clenshaw", fail)
        assert orthonormality_gram(solve_pswfs(3, 1.0, 5.0, 1, 10)) < 1e-13


class TestRecurrenceResidual:
    def test_solved_families_are_tiny(self):
        for f in solve_pswfs(3, 0.5, 4.0, 2, 4):
            assert recurrence_residual(f) < 1e-13

    def test_zero_bandwidth_is_exact(self):
        for f in solve_pswfs(2, 0.0, 0.0, 0, 3):
            assert recurrence_residual(f) == 0.0

    def test_matches_build_matrix_reference(self):
        # Every mode of the recurrence suite's families, then of three wider
        # sweep families.
        k_max: dict[tuple, int] = {}
        for case in run_suite("recurrence").cases:
            p = case.params
            head = (p["d"], p["alpha"], p["c"], p["n"])
            k_max[head] = max(k_max.get(head, 0), p["k"])
        families = [(*head, k) for head, k in k_max.items()]
        assert len(families) == 5
        families += [(3, 1.0, 20.0, 2, 80), (1, -0.5, 50.0, 1, 30), (5, 3.0, 0.5, 0, 150)]
        for family in families:
            for f in solve_pswfs(*family):
                assert (np.float64(recurrence_residual(f)).tobytes()
                        == np.float64(recurrence_residual_reference(f)).tobytes())

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
    # One grid at the default nodes for every kernel route: the order
    # 1 + alpha is an integer at alpha = 0 and 1 (j0/j1 recurrence), a
    # half-integer at -0.5 and 0.5 (closed-form seeds) and neither at -0.9
    # and 0.3 (scipy's jv).  The radial rule is the Gauss-Jacobi rule of the
    # weight (1 - eta)^alpha, so every alpha converges at the same node
    # count.  Below lambda^2 = 1e-4 both routes cancel at about
    # eps/lambda^2.
    @pytest.mark.parametrize("n,k", [(0, 0), (1, 0), (1, 1), (2, 0), (2, 1)])
    def test_rayleigh_quotient_matches_lambda_squared(self, n, k):
        for alpha in (-0.9, -0.5, 0.0, 0.3, 0.5, 1.0):
            for c in (2.0, 10.0):
                lam2 = lambda_eigenvalue(solve_pswfs(2, alpha, c, n, k)[k]) ** 2
                if lam2 >= 1e-4:
                    mu = mu_rayleigh(2, alpha, c, n, k)
                    assert abs(mu / lam2 - 1.0) <= 1e-11, (alpha, c, mu, lam2)

    # Refining the radial rule past the default must not move mu off
    # lambda^2: one kernel route per alpha (recurrence at 1, closed-form
    # seeds at 0.5, jv at 0.3), each on a different radial node count.
    @pytest.mark.parametrize("alpha,radial_nodes", [(1.0, 48), (0.5, 128), (0.3, 200)])
    @pytest.mark.parametrize("n,k", [(0, 0), (1, 0)])
    def test_kernel_routes_match_lambda_squared(self, alpha, radial_nodes, n, k):
        lam = lambda_eigenvalue(solve_pswfs(2, alpha, 2.0, n, k)[k])
        mu = mu_rayleigh(2, alpha, 2.0, n, k, radial_nodes=radial_nodes)
        assert mu == pytest.approx(lam ** 2, rel=1e-11)

    def test_subnormal_kernel_is_loud(self):
        # The solve at alpha = 150 succeeds, but the kernel's Bessel factor
        # is subnormal at every separation.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="alpha"):
                mu_rayleigh(2, 150.0, 3.0, 0, 1)

    def test_kernel_route_confirms_ordering_flip(self):
        # Independent confirmation that the k = 1 eigenvalue exceeds the
        # k = 0 one at alpha = -1/2, c = 10 on the disk.
        lam0 = lambda_eigenvalue(solve_pswfs(2, -0.5, 10.0, 0, 0)[0])
        lam1 = lambda_eigenvalue(solve_pswfs(2, -0.5, 10.0, 0, 1)[1])
        mu0 = mu_rayleigh(2, -0.5, 10.0, 0, 0)
        mu1 = mu_rayleigh(2, -0.5, 10.0, 0, 1)
        assert mu0 == pytest.approx(lam0 ** 2, rel=1e-11)
        assert mu1 == pytest.approx(lam1 ** 2, rel=1e-11)
        assert mu1 > mu0


# (radial_nodes, angular_nodes) grids on which the folded kernel grid is
# pinned against the full one: even and odd angle counts, the smallest ones,
# one radial node and the default.
SYMMETRY_GRIDS = [(10, 32), (11, 32), (12, 32), (11, 127), (11, 1), (11, 2), (11, 3),
                  (1, 32), (48, 128)]


def _matches_full_grid(mu, mu_ref):
    # Small mu cancels at about eps/mu in both routes, so below 1e-4 the
    # routes are compared absolutely.
    if abs(mu_ref) >= 1e-4:
        return abs(mu - mu_ref) <= 1e-12 * abs(mu_ref)
    return abs(mu - mu_ref) <= 1e-15


def _spy_kernel(monkeypatch, angular, pi_factor=1.0):
    """Make mu_rayleigh call a kernel that records the number of separations
    of each call and scales the column of its last angle, which is u = pi
    for an even angular_nodes, by pi_factor."""
    sizes = []
    kernel = verify.kernel_qc

    def spy(d, alpha, c, rho):
        sizes.append(np.size(rho))
        values = kernel(d, alpha, c, rho).reshape(-1, angular // 2 + 1)
        values[:, -1] *= pi_factor
        return values.ravel()

    monkeypatch.setattr(verify, "kernel_qc", spy)
    return sizes


class TestMuSymmetry:
    @pytest.mark.parametrize("radial,angular", SYMMETRY_GRIDS)
    @pytest.mark.parametrize("alpha", [0.0, 1.0])
    def test_matches_full_grid(self, radial, angular, alpha):
        for c in (1.0, 2.3, 3.7, 5.0):
            for n in range(3):
                for k in range(2):
                    mu = mu_rayleigh(2, alpha, c, n, k, radial, angular)
                    mu_ref = mu_rayleigh_reference(2, alpha, c, n, k, radial, angular)
                    assert _matches_full_grid(mu, mu_ref), (c, n, k, mu, mu_ref)

    @pytest.mark.parametrize("radial,angular", SYMMETRY_GRIDS)
    def test_one_kernel_call_per_distinct_separation(self, monkeypatch, radial, angular):
        sizes = _spy_kernel(monkeypatch, angular)
        mu_rayleigh(2, 0.0, 2.3, 1, 0, radial, angular)
        assert sizes == [radial * (radial + 1) // 2 * (angular // 2 + 1)]

    @pytest.mark.parametrize("pi_factor", [0.0, 2.0])
    @pytest.mark.parametrize("radial,angular", [(11, 2), (11, 32), (48, 128)])
    def test_pi_term_control(self, monkeypatch, radial, angular, pi_factor):
        # Dropping or doubling the u = pi term of an even angle count must
        # break agreement with the full grid.
        mu_ref = mu_rayleigh_reference(2, 0.0, 2.3, 0, 0, radial, angular)
        assert _matches_full_grid(mu_rayleigh(2, 0.0, 2.3, 0, 0, radial, angular), mu_ref)
        _spy_kernel(monkeypatch, angular, pi_factor)
        assert not _matches_full_grid(mu_rayleigh(2, 0.0, 2.3, 0, 0, radial, angular), mu_ref)

    @pytest.mark.parametrize("bad", [-3, 0, 2.5, "8", None])
    @pytest.mark.parametrize("name", ["radial_nodes", "angular_nodes"])
    def test_rejects_bad_node_counts(self, name, bad):
        with pytest.raises(ValueError, match=name):
            mu_rayleigh(2, 0.0, 2.0, 0, 0, **{name: bad})

    def test_accepts_numpy_integer_counts(self):
        assert mu_rayleigh(2, 0.0, 2.0, 0, 0, np.int64(11), np.int32(32)) == \
            mu_rayleigh(2, 0.0, 2.0, 0, 0, 11, 32)


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


class TestCaseLists:
    # The ordered (params, tolerance) pairs of every suite and table, as
    # recorded in tests/data/verify_cases.json before the suites shared one
    # family loop and tables 2 and 4 one radial-sample path.  They hold only
    # grid values and constants, so they do not depend on the NumPy version.
    # Compared through json.dumps, so key order and int/float types count.
    RECORDED = json.loads((Path(__file__).parent / "data" / "verify_cases.json").read_text())

    @pytest.mark.parametrize("name", [*SUITE_NAMES, "table1", "table2", "table3", "table4"])
    def test_case_list_is_pinned(self, name):
        report = table_check(int(name[5:])) if name.startswith("table") else run_suite(name)
        cases = [[c.params, c.tolerance] for c in report.cases]
        assert json.dumps(cases) == json.dumps(self.RECORDED[name])


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
