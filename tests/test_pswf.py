"""Tests for the radial eigensolver and its eigenvalue formulas."""

import copy
import dataclasses
import math
import pickle
import random
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
import scipy.linalg

import ballprolate.pswf as pswf_module
from ballprolate.errors import DegenerateEndpoint, NonPositiveLambda, TruncationNotConverged
from ballprolate.linalg import eig_symtridiag
from ballprolate.pswf import (
    _apply_sign_rule,
    PswfParams,
    RadialPswf,
    build_matrix,
    chi_bounds,
    gamma_coef,
    lambda_eigenvalue,
    perturbation_coeffs,
    solve_pswfs,
    truncation_size,
)
from ballprolate.specfn import JacobiBasis, _cached_recurrence, _recurrence_arrays
from ballprolate.verify import recurrence_residual
import oracle
from helpers import (
    BIT_IDENTITY_GRID,
    bit_identity_families,
    jacobi_coeffs,
    sign_pass_reference,
    sign_rule_reference,
)


def lambda0_limit(d, alpha, n):
    """Closed-form limit of lambda / c^n as c -> 0 for the k = 0 mode."""
    return math.exp(
        0.5 * d * math.log(math.pi) + math.lgamma(alpha + 1.0)
        - n * math.log(2.0) - math.lgamma(alpha + n + d / 2.0 + 1.0)
    )


class TestGammaCoef:
    def test_values(self):
        assert gamma_coef(0, 0.3, 2) == 0.0
        assert gamma_coef(2, 0.0, 2) == 8.0
        assert gamma_coef(3, 1.0, 3) == 24.0

    def test_domain(self):
        with pytest.raises(ValueError):
            gamma_coef(-1, 0.0, 2)


class TestTruncationSize:
    def test_examples(self):
        assert truncation_size(2, 0.0, 0, 0) == 15
        assert truncation_size(3, 1.0, 1, 3) == 23
        assert truncation_size(2, 0.5, 0, 2) == 20

    def test_validation(self):
        with pytest.raises(ValueError):
            truncation_size(2, 0.0, 0, -1)
        with pytest.raises(ValueError):
            truncation_size(1, 0.0, 2, 0)
        for k_max in (2.5, 2.0):
            with pytest.raises(ValueError, match="k_max must be a non-negative integer"):
                truncation_size(2, 0.0, 0, k_max)
        assert truncation_size(2, 0.5, 0, np.int64(2)) == 20


class TestBuildMatrix:
    def test_zero_bandwidth_is_diagonal(self):
        tri = build_matrix(3, 0.5, 0.0, 1, 6)
        expected = [gamma_coef(1 + 2 * j, 0.5, 3) for j in range(7)]
        np.testing.assert_allclose(tri.diag, expected, rtol=1e-15)
        assert np.all(tri.offdiag == 0.0)

    def test_disk_entries(self):
        tri = build_matrix(2, 0.0, 1.0, 0, 3)
        assert tri.diag[0] == pytest.approx(0.5, rel=1e-15)
        assert tri.offdiag[0] == pytest.approx(0.2886751345948129, rel=1e-14)

    def test_ball_diagonal_entry(self):
        tri = build_matrix(3, 1.0, 0.0, 1, 3)
        assert tri.diag[1] == pytest.approx(24.0, rel=1e-15)

    @pytest.mark.parametrize("d,alpha,c,n,K", [
        (2, 0.0, 1.0, 0, 40), (3, 1.0, 10.0, 2, 41), (1, -0.5, 7.0, 1, 9),
        (5, 2.5, 60.0, 2, 53), (20, 60.0, 1000.0, 100, 300),
    ])
    def test_diagonal_matches_gamma_coef_bytes(self, d, alpha, c, n, K):
        # The inlined Sturm-Liouville term is gamma_coef's expression, so the
        # diagonal keeps its bytes.
        _, b = _recurrence_arrays(JacobiBasis(alpha, n + d / 2.0 - 1.0), K)
        expected = gamma_coef(n + 2 * np.arange(K + 1), alpha, d) + (b + 1.0) * (0.5 * c * c)
        assert build_matrix(d, alpha, c, n, K).diag.tobytes() == expected.tobytes()

    def test_validation(self):
        for K in (3.5, 3.0, -1):
            with pytest.raises(ValueError, match="truncation K must be a non-negative integer"):
                build_matrix(2, 0.0, 1.0, 0, K)
        assert build_matrix(2, 0.0, 1.0, 0, np.int64(3)).size == 4


def _eig_with_sign_pass(tri):
    values, vectors = eig_symtridiag(tri)
    return values, sign_pass_reference(vectors)


def _family_bytes(family):
    return [(f.chi, f.truncation, f.coeffs.tobytes()) for f in family]


def _certificate_holds(family):
    """max_k |A[K, K+1]| |v_k[K]| <= 1e-15 max_k |chi_k|, recomputed from
    the matrix one row wider than the family's truncation K."""
    p, K = family[0].params, family[0].truncation
    coupling = abs(build_matrix(p.d, p.alpha, p.c, p.n, K + 1).offdiag[K])
    return max(coupling * abs(f.coeffs[K]) for f in family) <= 1e-15 * max(abs(f.chi) for f in family)


class TestSolve:
    def test_disk_ground_state(self):
        f = solve_pswfs(2, 0.0, 1.0, 0, 0)[0]
        assert f.chi + 0.75 == pytest.approx(1.239593258779101, rel=1e-13)

    def test_ball_first_excited(self):
        f = solve_pswfs(3, 1.0, 2.0, 1, 0)[0]
        assert f.chi == pytest.approx(8.182057327887621, rel=1e-13)

    @pytest.mark.parametrize("d,alpha,n,k", [(2, 0.0, 0, 0), (3, 1.5, 2, 3), (1, 0.0, 1, 2)])
    def test_zero_bandwidth_reduction(self, d, alpha, n, k):
        f = solve_pswfs(d, alpha, 0.0, n, k)[k]
        assert f.chi == gamma_coef(n + 2 * k, alpha, d)
        expected = np.zeros(f.truncation + 1)
        expected[k] = 1.0
        assert np.array_equal(f.coeffs, expected)

    def test_unit_norm_and_sign(self):
        for f in solve_pswfs(2, -0.5, 7.0, 1, 5):
            assert (f.coeffs ** 2).sum() == pytest.approx(1.0, abs=1e-14)
            assert f.coeffs[f.params.k] > 0.0

    def test_truncation_doubling_stability(self):
        from ballprolate.linalg import eig_symtridiag

        f = solve_pswfs(3, 1.0, 10.0, 2, 4)[4]
        K = f.truncation
        doubled, _ = eig_symtridiag(build_matrix(3, 1.0, 10.0, 2, 2 * K))
        assert abs(f.chi - doubled[4]) <= 1e-13 * abs(doubled[4])

    @staticmethod
    def _mixed_pivots():
        vectors = np.random.default_rng(3).standard_normal((7, 7))
        vectors[1, 1] = -0.5
        # |pivot| < 1e-12: the first of the two largest magnitudes decides.
        vectors[:, 2] = [0.3, -0.9, 1e-13, 0.9, 0.1, 0.0, 0.2]
        vectors[:, 3] = [0.2, 0.1, -0.3, 0.0, 0.5, -0.4, 0.1]
        vectors[:, 4] = [0.7, -0.8, 0.2, 0.1, -1e-13, 0.0, -0.3]
        # A NaN pivot leaves its column's sign as it is.
        vectors[:, 5] = [0.1, -0.6, 0.2, 0.3, 0.0, np.nan, -0.7]
        return vectors

    @staticmethod
    def _tiny_pivots():
        vectors = np.random.default_rng(4).standard_normal((7, 7))
        np.fill_diagonal(vectors, [1e-13, -1e-13, 0.0, -0.0, 9.9e-13, -5e-14, 1e-300])
        return vectors

    @staticmethod
    def _large_pivots():
        vectors = np.random.default_rng(5).standard_normal((7, 7))
        np.fill_diagonal(vectors, [0.5, -0.5, 1e-12, -1e-12, 2.0, -0.1, 3e-3])
        return vectors

    def test_sign_rule_matches_per_column_reference(self):
        # Mixed pivots, then every kept pivot below 1e-12, then none below,
        # so both sides of the largest-entry fallback run.
        for build in (self._mixed_pivots, self._tiny_pivots, self._large_pivots):
            for order in ("C", "F"):
                vectors = np.asarray(build(), order=order)
                m = vectors.shape[1] - 1
                rows = _apply_sign_rule(vectors, m)
                assert rows.shape == (m, vectors.shape[0])
                assert rows.flags.c_contiguous and not rows.flags.writeable
                for k in range(m):
                    expected = sign_rule_reference(vectors[:, k].copy(), k)
                    assert rows[k].tobytes() == expected.tobytes()

    @pytest.mark.parametrize("d,alpha,c", BIT_IDENTITY_GRID)
    def test_lapack_signs_match_old_sign_pass(self, d, alpha, c, monkeypatch):
        # The sign rule decides every kept sign, so solving without the old
        # first-entry sign pass gives the same bytes.
        fast = [_family_bytes(family) for family in bit_identity_families(d, alpha, c)]
        monkeypatch.setattr(pswf_module, "eig_symtridiag", _eig_with_sign_pass)
        assert fast == [_family_bytes(family) for family in bit_identity_families(d, alpha, c)]

    def test_lapack_signs_match_old_sign_pass_at_large_k_max(self, monkeypatch):
        fast = _family_bytes(solve_pswfs(2, 0.0, 20.0, 0, 370))
        monkeypatch.setattr(pswf_module, "eig_symtridiag", _eig_with_sign_pass)
        assert fast == _family_bytes(solve_pswfs(2, 0.0, 20.0, 0, 370))

    @staticmethod
    def _spy_eigensolves(monkeypatch):
        # Records (rows, eigenvectors missing) for each eigensolve of
        # solve_pswfs, whichever LAPACK route eig_symtridiag takes.
        calls = []

        def spy(tri):
            values, vectors = eig_symtridiag(tri)
            calls.append((tri.size, vectors.shape != (tri.size, tri.size)))
            return values, vectors

        monkeypatch.setattr(pswf_module, "eig_symtridiag", spy)
        return calls

    def test_certificate_at_floor_takes_one_eigensolve(self, monkeypatch):
        calls = self._spy_eigensolves(monkeypatch)
        K = truncation_size(3, 1.0, 2, 4)
        assert solve_pswfs(3, 1.0, 10.0, 2, 4)[0].truncation == K
        assert calls == [(K + 1, False)]

    def test_lower_start_takes_one_eigensolve(self, monkeypatch):
        # K starts at ceil(c/2) + k_max + 20 = 221, below truncation_size =
        # 415, and the certificate holds there.
        calls = self._spy_eigensolves(monkeypatch)
        family = solve_pswfs(2, 0.0, 1.0, 0, 200)
        K = family[0].truncation
        assert (K, truncation_size(2, 0.0, 0, 200)) == (221, 415)
        assert calls == [(K + 1, False)]
        assert _certificate_holds(family)
        reference, _ = eig_symtridiag(build_matrix(2, 0.0, 1.0, 0, 415))
        np.testing.assert_allclose([f.chi for f in family], reference[:201], rtol=1e-14, atol=0)

    @pytest.mark.parametrize("k", [0, 15, 30])
    def test_lower_start_matches_oracle(self, k):
        # truncation_size gives K = 77 here; the lower start solves at 51.
        f = solve_pswfs(3, 1.0, 2.0, 1, 30)[k]
        assert (f.truncation, truncation_size(3, 1.0, 1, 30)) == (51, 77)
        chi, lam = oracle.mode(3, 1.0, 2.0, 1, k, 2 * (f.truncation + 1), hint=f.chi)
        assert f.chi == pytest.approx(float(chi), rel=1e-14, abs=1e-14)
        assert lambda_eigenvalue(f) == pytest.approx(float(lam), rel=1e-12)

    def test_certificate_failure_at_cap_raises(self, monkeypatch):
        # Negative control: c = 30 needs K > 15, so with growth capped at the
        # floor the certificate must fail loudly instead of returning.
        monkeypatch.setattr(pswf_module, "_TRUNCATION_CAP", truncation_size(2, 0.0, 0, 0))
        message = (r"\(d=2, alpha=0.0, c=30.0, n=0, k_max=0\) failed at the cap K=15: "
                   r"worst r_k/max\|chi\| = \d\.\d{3}e-\d\d at k=0$")
        with pytest.raises(TruncationNotConverged, match=message):
            solve_pswfs(2, 0.0, 30.0, 0, 0)

    @pytest.mark.parametrize("d,alpha,c,n,k_max", [
        (2, 0.0, 30.0, 0, 0),
        (1, 1.0, 60.0, 0, 3),
        (5, 2.5, 60.0, 2, 3),
        (3, 1.0, 300.0, 2, 30),
    ])
    def test_grown_family_carries_certificate(self, d, alpha, c, n, k_max):
        family = solve_pswfs(d, alpha, c, n, k_max)
        assert family[0].truncation > truncation_size(d, alpha, n, k_max)
        assert _certificate_holds(family)

    def test_validation(self):
        with pytest.raises(ValueError):
            solve_pswfs(0, 0.0, 1.0, 0, 0)
        with pytest.raises(ValueError):
            solve_pswfs(2, -1.5, 1.0, 0, 0)
        with pytest.raises(ValueError):
            solve_pswfs(2, 0.0, -1.0, 0, 0)
        with pytest.raises(ValueError):
            solve_pswfs(1, 0.0, 1.0, 2, 0)
        for k_max in (2.5, 2.0, -1):
            with pytest.raises(ValueError, match="k_max must be a non-negative integer"):
                solve_pswfs(2, 0.0, 1.0, 0, k_max)
        assert len(solve_pswfs(2, 0.0, 1.0, 0, np.int64(2))) == 3


class TestSolvedRecords:
    FAMILY = (3, 1.0, 20.0, 2, 30)

    def test_family_is_validated_once(self, monkeypatch):
        calls = []
        original = pswf_module._validate_family

        def spy(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(pswf_module, "_validate_family", spy)
        solve_pswfs(*self.FAMILY)
        assert calls == [self.FAMILY[:4]]

    def test_modes_match_public_constructors(self):
        d, alpha, c, n, k_max = self.FAMILY
        family = solve_pswfs(d, alpha, c, n, k_max)
        K = family[0].truncation
        # The per-mode path: one public construction per eigenvector column.
        values, vectors = eig_symtridiag(build_matrix(d, alpha, c, n, K))
        assert len(family) == k_max + 1
        for k, f in enumerate(family):
            ref = RadialPswf(
                params=PswfParams(d=d, alpha=alpha, c=c, n=n, k=k),
                chi=float(values[k]),
                coeffs=sign_rule_reference(vectors[:, k].copy(), k),
                truncation=K,
            )
            assert type(f) is RadialPswf and type(f.params) is PswfParams
            assert f.params == ref.params and hash(f.params) == hash(ref.params)
            assert repr(f.params) == repr(ref.params)
            assert type(f.chi) is float and f.chi == ref.chi
            assert type(f.truncation) is int and f.truncation == ref.truncation
            assert f.coeffs.shape == (K + 1,) and f.coeffs.tobytes() == ref.coeffs.tobytes()

    def test_modes_are_rows_of_one_read_only_block(self):
        family = solve_pswfs(*self.FAMILY)
        block = family[0].coeffs.base
        assert block.shape == (len(family), family[0].truncation + 1)
        assert block.flags.c_contiguous and not block.flags.writeable
        for k, f in enumerate(family):
            assert f.coeffs.base is block and np.shares_memory(f.coeffs, block[k])
            with pytest.raises(ValueError):
                f.coeffs[0] = 2.0

    def test_replace_goes_through_public_checks(self):
        f = solve_pswfs(*self.FAMILY)[3]
        with pytest.raises(ValueError):
            dataclasses.replace(f, coeffs=np.ones(3))
        with pytest.raises(ValueError):
            dataclasses.replace(f.params, k=-1)
        with pytest.raises(dataclasses.FrozenInstanceError):
            f.chi = 0.0
        assert dataclasses.replace(f.params, k=4) == PswfParams(3, 1.0, 20.0, 2, 4)

    @pytest.mark.parametrize("roundtrip", [copy.deepcopy, lambda f: pickle.loads(pickle.dumps(f))])
    def test_copy_and_pickle_round_trip(self, roundtrip):
        f = solve_pswfs(*self.FAMILY)[7]
        g = roundtrip(f)
        assert g is not f and g.params == f.params and hash(g.params) == hash(f.params)
        assert g.chi == f.chi and g.truncation == f.truncation
        assert g.coeffs.tobytes() == f.coeffs.tobytes()
        # A pickled mode carries its own row, not its family's block.
        assert len(pickle.dumps(f)) < 2 * f.coeffs.nbytes + 1024

    @pytest.mark.parametrize("roundtrip", [copy.deepcopy, lambda f: pickle.loads(pickle.dumps(f))])
    def test_round_trip_stays_read_only(self, roundtrip):
        family = solve_pswfs(*self.FAMILY)
        for originals, copies in (([family[7]], [roundtrip(family[7])]),
                                  (family, roundtrip(family))):
            assert len(copies) == len(originals)
            for f, g in zip(originals, copies):
                assert type(g) is RadialPswf and g == g and g.params == f.params
                assert g.chi == f.chi and g.truncation == f.truncation
                assert g.coeffs.tobytes() == f.coeffs.tobytes()
                assert not g.coeffs.flags.writeable
                with pytest.raises(ValueError):
                    g.coeffs[0] = 2.0

    def test_mutated_pickle_raises(self):
        f = solve_pswfs(*self.FAMILY)[7]

        class Truncated:
            def __reduce__(self):
                return RadialPswf, (f.params, f.chi, f.coeffs[:-1], f.truncation)

        with pytest.raises(ValueError, match="length K"):
            pickle.loads(pickle.dumps(Truncated()))

    def test_constructor_keeps_its_own_copy(self):
        family = solve_pswfs(*self.FAMILY)
        row = family[3].coeffs
        # A caller's row 3 of the family block, labelled k = 1, must not be
        # read as row 1 of that block.
        relabelled = RadialPswf(family[1].params, family[3].chi, row, family[3].truncation)
        assert relabelled.coeffs.base is None and not relabelled.coeffs.flags.writeable
        assert lambda_eigenvalue(relabelled) == lambda_eigenvalue(family[3])
        assert lambda_eigenvalue([family[0], relabelled]).tolist() == [
            lambda_eigenvalue(family[0]), lambda_eigenvalue(family[3])]
        source = row.copy()
        g = RadialPswf(family[3].params, family[3].chi, source, family[3].truncation)
        source[0] = 2.0
        assert g.coeffs.tobytes() == row.tobytes()


class TestLambda:
    def test_ball_golden_value(self):
        f = solve_pswfs(3, 1.0, 0.1, 0, 0)[0]
        assert lambda_eigenvalue(f) == pytest.approx(1.675003294483135, rel=1e-12)

    def test_disk_combination(self):
        c = 4.0
        f = solve_pswfs(2, 0.0, c, 0, 0)[0]
        lam = lambda_eigenvalue(f)
        comb = c * (math.sqrt(c) * lam / (2.0 * math.pi)) ** 2
        assert comb == pytest.approx(0.9749510755184038, rel=1e-12)

    def test_small_bandwidth_limit_is_pi(self):
        f = solve_pswfs(2, 0.0, 1e-4, 0, 0)[0]
        assert abs(lambda_eigenvalue(f) - math.pi) <= 1e-6

    @pytest.mark.parametrize("d,alpha,n,expected", [
        (2, 0.0, 0, math.pi),
        (3, 1.0, 0, 1.6755160819145563938),
        (3, 1.0, 1, 0.23935944027350805626),
        (2, -0.5, 1, 2.0943951023931954923),
    ])
    def test_k0_limit_closed_form(self, d, alpha, n, expected):
        # Frozen 50-digit values of pi^(d/2) Gamma(alpha+1) / (2^n Gamma(alpha+n+d/2+1)).
        assert lambda0_limit(d, alpha, n) == pytest.approx(expected, rel=1e-14)
        c = 1e-4
        f = solve_pswfs(d, alpha, c, n, 0)[0]
        assert lambda_eigenvalue(f) / c ** n == pytest.approx(expected, rel=1e-6)

    def test_positive_for_all_k(self):
        for f in solve_pswfs(3, 1.0, 2.0, 1, 4):
            assert lambda_eigenvalue(f) > 0.0

    def test_rescaling_invariance(self):
        f = solve_pswfs(2, 0.0, 3.0, 1, 2)[2]
        lam = lambda_eigenvalue(f)
        for s in (2.0, -0.5, 1e-8):
            scaled = dataclasses.replace(f, coeffs=s * f.coeffs)
            assert lambda_eigenvalue(scaled) == pytest.approx(lam, rel=1e-13)

    def test_requires_positive_bandwidth(self):
        f = solve_pswfs(2, 0.0, 0.0, 0, 0)[0]
        with pytest.raises(ValueError):
            lambda_eigenvalue(f)

    def test_global_flip_leaves_lambda_unchanged(self):
        f = solve_pswfs(2, 0.0, 1.0, 0, 0)[0]
        flipped = dataclasses.replace(f, coeffs=-f.coeffs)
        assert lambda_eigenvalue(flipped) == pytest.approx(lambda_eigenvalue(f), rel=1e-13)

    def test_sign_convention_violation_raises(self):
        # Mode 1's chi and row relabelled as k = 0: the (-1)^k factor no
        # longer cancels the endpoint sign, so lambda comes out negative.
        mode1 = solve_pswfs(2, 0.0, 5.0, 0, 1)[1]
        params = PswfParams(d=2, alpha=0.0, c=5.0, n=0, k=0)
        relabelled = RadialPswf(params, mode1.chi, mode1.coeffs, mode1.truncation)
        with pytest.raises(NonPositiveLambda, match=r"-9\.56\d+e-01 .*sign convention violated"):
            lambda_eigenvalue(relabelled)

    def test_zero_pivot_raises(self):
        # chi = 0.5 equals the first diagonal entry of the c = 1 disk matrix,
        # so the forward ratio beta_0/beta_1 divides by an exact zero.
        params = PswfParams(d=2, alpha=0.0, c=1.0, n=0, k=0)
        coeffs = np.array([-0.1, -math.sqrt(1.0 - 0.01)])
        broken = RadialPswf(params=params, chi=0.5, coeffs=coeffs, truncation=1)
        with pytest.raises(DegenerateEndpoint, match="zero pivot"):
            lambda_eigenvalue(broken)

    @pytest.mark.parametrize("k", [20, 40])
    def test_underflow_raises(self, k):
        # lambda_k ~ c^(2k): 6.2e-313 (subnormal) at k = 20, 0.0 at k = 40.
        f = solve_pswfs(2, 0.0, 1e-6, 0, 40)[k]
        with pytest.raises(DegenerateEndpoint, match="underflow"):
            lambda_eigenvalue(f)

    def test_above_weight_integral_bound_raises(self):
        # chi = 9.05 is no eigenvalue of the c = 1 disk matrix; near it
        # phi(-1)/beta_0 nearly vanishes and lambda = 40.1 > pi.
        params = PswfParams(d=2, alpha=0.0, c=1.0, n=0, k=0)
        over = RadialPswf(params=params, chi=9.05, coeffs=np.array([1.0, 0.0]), truncation=1)
        with pytest.raises(DegenerateEndpoint, match=r"exceeds the weight-integral bound 3\.141593e\+00"):
            lambda_eigenvalue(over)

    def test_above_plancherel_bound_raises(self):
        # chi = -5 lies below the spectrum; lambda = 1.25 is below the
        # weight integral pi but above (2 pi/c)^(d/2) = 0.628 at c = 10.
        # For alpha < 0 only the weight integral (2 pi there) bounds lambda.
        coeffs = np.array([1.0, 0.0])
        over = RadialPswf(PswfParams(d=2, alpha=0.0, c=10.0, n=0, k=0), -5.0, coeffs, 1)
        with pytest.raises(DegenerateEndpoint, match=r"the Plancherel bound 6\.283185e-01"):
            lambda_eigenvalue(over)
        negative = RadialPswf(PswfParams(d=2, alpha=-0.5, c=10.0, n=0, k=0), -5.0, coeffs, 1)
        assert 2.0 * math.pi / 10.0 < lambda_eigenvalue(negative) < 2.0 * math.pi

    def test_unconverged_tail_raises(self):
        # At c = 1e4 the off-diagonal c^2/8 swamps the diagonal's growth over
        # the first rows, so with K = 1 the terms of phi(-1)/beta_m do not
        # decay before K' = 8 (K+1).
        params = PswfParams(d=2, alpha=0.0, c=1e4, n=0, k=0)
        wide = RadialPswf(params=params, chi=2.5e7, coeffs=np.array([1.0, 0.0]), truncation=1)
        with pytest.raises(TruncationNotConverged, match="K'=16"):
            lambda_eigenvalue(wide)

    @pytest.mark.parametrize("d,alpha", [(2, 0.0), (2, 1.0), (3, 0.0), (5, -0.5), (8, 3.0)])
    def test_bound_slack_admits_tiny_bandwidth(self, d, alpha):
        # At c -> 0 the k = 0 lambda tends to the bound itself, and at
        # c = 1e-9 all but the first of these round a few ulps above it.
        lam = lambda_eigenvalue(solve_pswfs(d, alpha, 1e-9, 0, 0)[0])
        assert lam == pytest.approx(lambda0_limit(d, alpha, 0), rel=1e-14)

    def test_family_call_returns_array(self):
        family = solve_pswfs(3, 1.0, 2.0, 1, 4)
        lams = lambda_eigenvalue(family)
        assert isinstance(lams, np.ndarray) and lams.shape == (5,)
        assert lams.tolist() == [lambda_eigenvalue(f) for f in family]
        assert isinstance(lambda_eigenvalue(family[0]), float)
        assert lambda_eigenvalue(family[2:3]).tolist() == [lambda_eigenvalue(family[2])]

    def test_family_call_rejects_mixed_modes(self):
        family = solve_pswfs(2, 0.0, 5.0, 0, 2)
        with pytest.raises(ValueError):
            lambda_eigenvalue([])
        with pytest.raises(ValueError, match="one solved family"):
            lambda_eigenvalue([family[0], solve_pswfs(2, 0.0, 5.0, 1, 2)[1]])
        with pytest.raises(ValueError, match="one solved family"):
            lambda_eigenvalue([family[0], solve_pswfs(2, 0.0, 6.0, 0, 2)[1]])
        longer = solve_pswfs(2, 0.0, 5.0, 0, 8)
        assert longer[0].truncation != family[0].truncation
        with pytest.raises(ValueError, match="one solved family"):
            lambda_eigenvalue([family[0], longer[1]])

    def test_family_call_raises_first_failing_mode(self):
        # Modes 3 and 5 carry the chi and row of modes 4 and 6, so both
        # lambdas come out negative; the family call must fail at mode 3, as
        # a per-mode loop would.
        family = solve_pswfs(2, 0.0, 5.0, 0, 6)
        broken = list(family)
        for k in (3, 5):
            broken[k] = RadialPswf(family[k].params, family[k + 1].chi,
                                   family[k + 1].coeffs, family[k + 1].truncation)
        with pytest.raises(NonPositiveLambda) as per_mode:
            lambda_eigenvalue(broken[3])
        with pytest.raises(NonPositiveLambda):
            lambda_eigenvalue(broken[5])
        with pytest.raises(NonPositiveLambda) as whole:
            lambda_eigenvalue(broken)
        assert str(whole.value) == str(per_mode.value)
        assert "k=3" in str(whole.value)


class TestLargeBandwidth:
    @pytest.mark.parametrize("k_max", [0, 30])
    @pytest.mark.parametrize("c", [30.0, 100.0, 500.0])
    @pytest.mark.parametrize("alpha", [-0.5, 1.0])
    @pytest.mark.parametrize("d", [2, 5])
    def test_chi_matches_doubled_reference(self, d, alpha, c, k_max):
        family = solve_pswfs(d, alpha, c, 0, k_max)
        K = family[0].truncation
        tri = build_matrix(d, alpha, c, 0, K)
        norm = np.abs(scipy.linalg.eigvalsh_tridiagonal(tri.diag, tri.offdiag)).max()
        fine = build_matrix(d, alpha, c, 0, 2 * K)
        reference = scipy.linalg.eigh_tridiagonal(fine.diag, fine.offdiag, eigvals_only=True)
        chi = np.array([f.chi for f in family])
        assert np.abs(chi - reference[:k_max + 1]).max() <= 10 * np.finfo(float).eps * norm

    def test_disk_lambda_reaches_large_bandwidth_limit(self):
        # For d = 2 the k = 0 eigenvalue tends to 2 pi / c, with an
        # exponentially small gap that is far below rounding at c = 25.
        lam = lambda_eigenvalue(solve_pswfs(2, 0.0, 25.0, 0, 0)[0])
        assert lam == pytest.approx(2.0 * math.pi / 25.0, rel=1e-13)


class TestLambdaBitIdentity:
    @pytest.mark.parametrize("d,alpha,c", BIT_IDENTITY_GRID)
    def test_endpoint_formula_matches_reference(self, d, alpha, c):
        # The reference is the same formula with K' doubled: padding the
        # coefficients with K+1 zeros starts K' at 2(K+1) and keeps the
        # twist index, and on this grid the tail past K+1 changes no bit.
        for family in bit_identity_families(d, alpha, c):
            K = family[0].truncation
            padded = [RadialPswf(f.params, f.chi, np.concatenate([f.coeffs, np.zeros(K + 1)]),
                                 2 * K + 1) for f in family]
            assert lambda_eigenvalue(family).tobytes() == lambda_eigenvalue(padded).tobytes()

    @pytest.mark.parametrize("d,alpha,c", BIT_IDENTITY_GRID)
    def test_family_call_matches_per_mode_calls(self, d, alpha, c):
        families = bit_identity_families(d, alpha, c)
        per_mode = [np.array([lambda_eigenvalue(f) for f in family]).tobytes()
                    for family in families]
        assert [lambda_eigenvalue(family).tobytes() for family in families] == per_mode


class TestBlockLambdas:
    def test_block_rows_match_stacked_rows(self):
        # The modes of one solve are views into their family's block; deep
        # copies own their coefficients.  Both give the same bytes for any
        # choice and order of modes.
        family = solve_pswfs(3, 1.0, 20.0, 2, 12)
        copies = copy.deepcopy(family)
        assert all(f.coeffs.base is family[0].coeffs.base for f in family)
        assert all(g.coeffs.base is None for g in copies)
        for pick in (range(13), range(2, 5), [7, 0, 12, 3], [4]):
            block = lambda_eigenvalue([family[k] for k in pick])
            stacked = lambda_eigenvalue([copies[k] for k in pick])
            assert block.tobytes() == stacked.tobytes()
        assert lambda_eigenvalue(family[2:5]).tobytes() == lambda_eigenvalue(copies[2:5]).tobytes()
        assert lambda_eigenvalue(family[4]) == lambda_eigenvalue(copies[4])


# (d, alpha, c, n, k): the large-bandwidth k = 0 modes where reading beta_0
# off the eigenvector failed, modes where chi rounds onto a diagonal entry,
# a row each of tables 1 and 3, and tail modes with lambda down to 1e-262.
ORACLE_MODES = [
    (2, 0.0, 400.0, 60, 0),
    (1, 3.0, 40.0, 0, 56),
    (3, -0.9, 200.0, 100, 0),
    (3, 1.0, 1e-4, 1, 1),
    (2, 0.0, 1e-9, 0, 0),
    (2, 0.0, 2.0, 1, 3),
    (3, 1.0, 2.0, 1, 2),
    (5, 1.0, 0.1, 3, 40),
    (2, -0.5, 25.0, 0, 30),
    (1, 0.0, 12.0, 1, 20),
]


class TestLambdaOracle:
    @pytest.mark.parametrize("d,alpha,c,n,k", ORACLE_MODES)
    def test_matches_extended_precision(self, d, alpha, c, n, k):
        f = solve_pswfs(d, alpha, c, n, k)[k]
        chi, lam = oracle.mode(d, alpha, c, n, k, 2 * (f.truncation + 1), hint=f.chi)
        assert f.chi == pytest.approx(float(chi), rel=1e-14, abs=1e-14)
        assert lambda_eigenvalue(f) == pytest.approx(float(lam), rel=1e-12)

    def test_disk_reaches_large_bandwidth_limit(self):
        # The oracle and the limit 2 pi/c agree at c = 400; the endpoint
        # formula on the LAPACK eigenvector gave 6.76e-2 here.
        lam = lambda_eigenvalue(solve_pswfs(2, 0.0, 400.0, 60, 0)[0])
        assert lam == pytest.approx(2.0 * math.pi / 400.0, rel=1e-12)

    def test_oracle_negative_control(self):
        # The oracle tells neighbouring modes apart: lambda_1 is not lambda_0.
        f = solve_pswfs(3, 1.0, 2.0, 1, 1)[1]
        _, lam0 = oracle.mode(3, 1.0, 2.0, 1, 0, 2 * (f.truncation + 1))
        assert lambda_eigenvalue(f) != pytest.approx(float(lam0), rel=1e-3)


def robustness_families():
    """The standing sweep: 400 seeded families reaching d = 20, alpha = 60,
    c = 1000, n = 100 and k_max = 80."""
    rng = random.Random(7)
    for _ in range(400):
        d = rng.choice((1, 2, 3, 4, 6, 10, 20))
        alpha = rng.choice((-0.9, -0.5, 0.0, 0.5, 3.0, 20.0, 60.0))
        c = rng.choice((0.0, 1e-6, 0.3, 5.0, 40.0, 200.0, 1000.0))
        n = rng.choice((0, 1) if d == 1 else (0, 1, 5, 30, 100))
        yield d, alpha, c, n, rng.choice((0, 3, 20, 80))


class TestRobustnessSweep:
    def test_every_mode_is_accurate_or_underflows(self):
        # Every family carries its residual certificate and a recurrence
        # residual at rounding level: 204 of the 400 families, most of those
        # at alpha = 60 or n = 100, start K below truncation_size.  LAPACK's
        # vectors have residual O(eps max|A|), which for low modes of wide
        # families exceeds eps (|chi| + c^2): mode 4 of (1, -0.9, 5, 0, 80)
        # reads 1.43e-13 at K = 103, so the recurrence bound here is 1e-12
        # rather than verify's 1e-13.  Every mode with c > 0 either returns
        # a lambda within both bounds that a doubled K' reproduces to 1e-12,
        # or raises the underflow error.  Padding the coefficients with K+1
        # zeros starts K' at 2(K+1) without changing the twist index.
        modes = 0
        for d, alpha, c, n, k_max in robustness_families():
            family = solve_pswfs(d, alpha, c, n, k_max)
            assert _certificate_holds(family), (d, alpha, c, n)
            assert max(recurrence_residual(f) for f in family) <= 1e-12, (d, alpha, c, n)
            if c == 0.0:
                continue
            bound = lambda0_limit(d, alpha, 0)
            if alpha >= 0.0:
                bound = min(bound, (2.0 * math.pi / c) ** (d / 2.0))
            K = family[0].truncation
            lams, padded = [], []
            for f in family:
                try:
                    lams.append(lambda_eigenvalue(f))
                except DegenerateEndpoint as exc:
                    assert "underflow" in str(exc), str(exc)
                    continue
                padded.append(RadialPswf(f.params, f.chi,
                                         np.concatenate([f.coeffs, np.zeros(K + 1)]), 2 * K + 1))
                assert 0.0 < lams[-1] <= bound * (1.0 + 1e-12), f.params
            if padded:
                np.testing.assert_allclose(lambda_eigenvalue(padded), lams, rtol=1e-12, atol=0)
            modes += len(family)
        # The count pins the recipe; 1429 of these modes underflow with
        # NumPy 2.4 and SciPy 1.17.
        assert modes == 8205


class TestRecurrenceReuse:
    def test_family_and_its_lambdas_compute_the_recurrence_once(self):
        _cached_recurrence.cache_clear()
        family = solve_pswfs(3, 1.0, 10.0, 2, 8)
        assert family[0].truncation == truncation_size(3, 1.0, 2, 8)
        for f in family:
            lambda_eigenvalue(f)
        lambda_eigenvalue(family)
        assert _cached_recurrence.cache_info().misses == 1

    def test_threaded_lambdas_match_serial(self):
        # More workers than cores, more families than cache entries and a
        # short switch interval, so that misses, hits and evictions of the
        # shared recurrence cache interleave across threads.
        modes = [f for n in range(20) for f in solve_pswfs(2, 0.0, 10.0, n, 4)]
        serial = np.array([lambda_eigenvalue(f) for f in modes])
        _cached_recurrence.cache_clear()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                futures = [pool.submit(lambda_eigenvalue, f) for f in modes]
                threaded = np.array([future.result(timeout=60) for future in futures])
        finally:
            sys.setswitchinterval(interval)
        assert threaded.tobytes() == serial.tobytes()


class TestMu:
    def test_table_row(self):
        f = solve_pswfs(3, 1.0, 0.1, 0, 0)[0]
        mu = lambda_eigenvalue(f) ** 2
        assert mu == pytest.approx(1.675003294483135 ** 2, rel=1e-12)


class TestPerturbation:
    def test_disk_leading_coefficient(self):
        d_k1, b_minus, b_plus = perturbation_coeffs(2, 0.0, 0, 0)
        assert d_k1 == pytest.approx(0.5, rel=1e-15)
        assert b_minus == 0.0
        assert b_plus == pytest.approx(-1.0 / (16.0 * math.sqrt(3.0)), rel=1e-14)

    def test_chi_prediction_to_fourth_order(self):
        d_k1 = perturbation_coeffs(2, 0.0, 0, 0)[0]
        chi = solve_pswfs(2, 0.0, 0.1, 0, 0)[0].chi
        assert chi + 0.75 == pytest.approx(7.549989583334328e-01, rel=1e-13)
        assert abs(chi - d_k1 * 0.01) < 2e-6

    def test_coefficient_drift_oracle(self):
        # Fit of the first-order eigenvector correction from small-c solves:
        # beta_{k+1}(c)/c^2 -> B_plus and beta_{k-1}(c)/c^2 -> B_minus.
        d, alpha, n, k = 3, 1.0, 1, 2
        _, b_minus, b_plus = perturbation_coeffs(d, alpha, n, k)
        for c in (1e-2, 1e-3):
            f = solve_pswfs(d, alpha, c, n, k)[k]
            assert f.coeffs[k + 1] / c ** 2 == pytest.approx(b_plus, rel=1e-3)
            assert f.coeffs[k - 1] / c ** 2 == pytest.approx(b_minus, rel=1e-3)

    @pytest.mark.parametrize("d,alpha,n,k", [(2, 0.0, 0, 0), (3, 1.0, 1, 1)])
    def test_quartic_scaling_of_chi_excess(self, d, alpha, n, k):
        gamma = gamma_coef(n + 2 * k, alpha, d)
        d_k1 = perturbation_coeffs(d, alpha, n, k)[0]

        def excess(c):
            return abs(solve_pswfs(d, alpha, c, n, k)[k].chi - gamma - d_k1 * c * c)

        ratio = excess(1e-2) / excess(1e-1)
        assert 0.5e-4 <= ratio <= 2e-4

    @pytest.mark.parametrize("d,alpha,n,k", [(2, 0.0, 0, 0), (3, 1.0, 1, 1)])
    def test_lambda_reduced_convergence(self, d, alpha, n, k):
        def reduced(c):
            f = solve_pswfs(d, alpha, c, n, k)[k]
            return lambda_eigenvalue(f) / c ** (n + 2 * k)

        assert abs(reduced(1e-2) / reduced(1e-3) - 1.0) <= 1e-4


    @pytest.mark.parametrize("k", [2.5, 1.0, -1])
    def test_radial_index_must_be_a_non_negative_integer(self, k):
        with pytest.raises(ValueError, match="radial index k must be a non-negative integer"):
            perturbation_coeffs(2, 0.0, 0, k)


class TestChiBounds:
    def test_ball_example(self):
        params = PswfParams(d=3, alpha=1.0, c=0.1, n=0, k=0)
        lower, upper = chi_bounds(params)
        assert (lower, upper) == (0.0, pytest.approx(0.01, rel=1e-15))
        chi = solve_pswfs(3, 1.0, 0.1, 0, 0)[0].chi
        assert lower < chi < upper

    def test_disk_example(self):
        params = PswfParams(d=2, alpha=0.0, c=10.0, n=0, k=0)
        lower, upper = chi_bounds(params)
        assert (lower, upper) == (0.0, pytest.approx(100.0))
        chi = solve_pswfs(2, 0.0, 10.0, 0, 0)[0].chi
        assert lower < chi < upper
        assert chi == pytest.approx(1.869010993969090e+01 - 0.75, rel=1e-13)

    def test_requires_positive_bandwidth(self):
        with pytest.raises(ValueError):
            chi_bounds(PswfParams(d=2, alpha=0.0, c=0.0, n=0, k=0))

    @pytest.mark.parametrize("d", [1, 2, 3, 5])
    @pytest.mark.parametrize("alpha", [0.0, 1.0, -0.5])
    @pytest.mark.parametrize("c", [0.5, 2.0, 10.0])
    def test_bounds_and_ordering_grid(self, d, alpha, c):
        # lambda decays like c^(n+2k), down to 4e-37 here; the ratio route
        # resolves it on the whole grid.  The monotone decay of lambda holds
        # for alpha >= 0; see
        # test_lambda_ordering_counterexample_at_negative_alpha.
        for n in range(2 if d == 1 else 4):
            family = solve_pswfs(d, alpha, c, n, 8)
            chis = [f.chi for f in family]
            assert all(x < y for x, y in zip(chis, chis[1:]))
            lams = lambda_eigenvalue(family).tolist()
            assert all(x > 0.0 for x in lams)
            if alpha >= 0.0:
                assert all(x > y for x, y in zip(lams, lams[1:]))
            for f in family:
                lower, upper = chi_bounds(f.params)
                assert lower < f.chi < upper

    def test_lambda_ordering_holds_at_negative_alpha_small_bandwidth(self):
        for c in (0.5, 1.0, 2.0, 3.0):
            family = solve_pswfs(2, -0.5, c, 0, 2)
            lams = [lambda_eigenvalue(f) for f in family]
            assert all(x > y > 0.0 for x, y in zip(lams, lams[1:]))

    def test_lambda_ordering_counterexample_at_negative_alpha(self):
        # For alpha = -1/2 the Fourier eigenvalues stop decaying monotonically
        # in k once the bandwidth is large: at d = 2, c = 10 the first three
        # lambdas increase.  Confirmed through the independent integral route
        # (see test_verify) and locked here as a regression.
        family = solve_pswfs(2, -0.5, 10.0, 0, 2)
        lams = [lambda_eigenvalue(f) for f in family]
        assert lams[0] < lams[1] < lams[2]
        assert lams[0] == pytest.approx(0.664595, rel=1e-5)
        assert lams[2] == pytest.approx(1.044136, rel=1e-5)


class TestOneDimensionalReduction:
    def test_quadratic_argument_connection(self):
        # P~_{2k}^{(0,0)}(x) = sqrt(2) P~_k^{(0,-1/2)}(2x^2-1), the identity
        # behind the even/odd decoupling in one dimension.
        from ballprolate.specfn import jacobi_eval

        sym = JacobiBasis(0.0, 0.0)
        half = JacobiBasis(0.0, -0.5)
        for x in (0.0, 0.3, 0.77, 1.0):
            for k in range(6):
                left = float(jacobi_eval(sym, 2 * k, x)[2 * k])
                right = math.sqrt(2.0) * float(jacobi_eval(half, k, 2 * x * x - 1.0)[k])
                assert left == pytest.approx(right, rel=1e-13, abs=1e-14)

    def test_matrices_match_classical_even_odd_split(self):
        # The d=1 matrices for n = 0 (even) and n = 1 (odd) must equal the
        # classical interval matrices built from the symmetric-weight
        # recurrence, using the quadratic connection between symmetric-weight
        # polynomials of degree 2k+parity and the radial family.
        alpha, c, K = 0.0, 5.0, 40
        sym = JacobiBasis(alpha, alpha)
        a_sym = [jacobi_coeffs(sym, j)[0] for j in range(2 * K + 3)]

        def a_tilde(j):
            return a_sym[j] if j >= 0 else 0.0

        for parity in (0, 1):
            diag = np.empty(K + 1)
            off = np.empty(K)
            for j in range(K + 1):
                m = 2 * j + parity
                diag[j] = m * (m + 2 * alpha + 1) + c * c * (
                    a_tilde(m - 1) ** 2 + a_tilde(m) ** 2
                )
                if j < K:
                    off[j] = c * c * a_tilde(m) * a_tilde(m + 1)
            tri = build_matrix(1, alpha, c, parity, K)
            np.testing.assert_allclose(tri.diag, diag, rtol=1e-14, atol=1e-14)
            np.testing.assert_allclose(tri.offdiag, off, rtol=1e-14, atol=1e-14)


class TestDataTypes:
    def test_params_validation(self):
        with pytest.raises(ValueError):
            PswfParams(d=2, alpha=0.0, c=1.0, n=0, k=-1)
        with pytest.raises(ValueError):
            PswfParams(d=1, alpha=0.0, c=1.0, n=2, k=0)
        params = PswfParams(d=3, alpha=0.5, c=1.0, n=2, k=1)
        assert params.beta_n == pytest.approx(2.5)

    def test_radial_pswf_shape_check(self):
        params = PswfParams(d=2, alpha=0.0, c=1.0, n=0, k=0)
        with pytest.raises(ValueError):
            RadialPswf(params=params, chi=1.0, coeffs=np.ones(3), truncation=5)

    def test_coeffs_read_only(self):
        f = solve_pswfs(2, 0.0, 1.0, 0, 0)[0]
        with pytest.raises(ValueError):
            f.coeffs[0] = 2.0
