"""Tests for the tridiagonal eigensolver and Gauss-Jacobi quadrature."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import scipy.special

import ballprolate
from ballprolate import linalg
from ballprolate.errors import EigenConvergenceError
from ballprolate.linalg import QuadratureRule, TridiagonalSym, eig_symtridiag, gauss_jacobi
from ballprolate.pswf import build_matrix
from ballprolate.specfn import JacobiBasis, _recurrence_arrays
from helpers import closed_form_moment

BASES = [(0.0, 0.0), (0.0, 0.5), (1.0, 1.5), (-0.5, 2.0), (-0.5, -0.5)]
CUT = linalg._DENSE_MAX_ROWS


class TestEigSymtridiag:
    def test_two_by_two_closed_form(self):
        values, vectors = eig_symtridiag(TridiagonalSym([2.0, 2.0], [1.0]))
        np.testing.assert_allclose(values, [1.0, 3.0], rtol=1e-15)
        # The signs are LAPACK's, so each column is compared up to sign.
        s = 1.0 / math.sqrt(2.0)
        np.testing.assert_allclose(vectors[:, 0] * np.sign(vectors[0, 0]), [s, -s], rtol=1e-15)
        np.testing.assert_allclose(vectors[:, 1] * np.sign(vectors[0, 1]), [s, s], rtol=1e-15)

    def test_one_by_one(self):
        values, vectors = eig_symtridiag(TridiagonalSym([5.0], []))
        assert values[0] == 5.0
        assert vectors[0, 0] == 1.0

    def test_cubic_characteristic_roots(self):
        # Frozen 50-digit roots of x^3 - 6x^2 + 9x - 2 = 0.
        values, _ = eig_symtridiag(TridiagonalSym([1.0, 2.0, 3.0], [1.0, 1.0]))
        expected = [0.26794919243112270647, 2.0, 3.7320508075688772935]
        np.testing.assert_allclose(values, expected, rtol=1e-14)

    @pytest.mark.parametrize("size", [3, 17, 80, 200])
    def test_orthonormality_and_residual(self, size):
        rng = np.random.default_rng(size)
        diag = rng.standard_normal(size)
        off = rng.standard_normal(size - 1)
        tri = TridiagonalSym(diag, off)
        values, vectors = eig_symtridiag(tri)
        assert np.all(np.diff(values) >= 0.0)
        assert np.max(np.abs(vectors.T @ vectors - np.eye(size))) < 1e-13
        dense = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
        scale = np.max(np.abs(dense))
        residual = dense @ vectors - vectors * values
        assert np.max(np.abs(residual)) < 1e-12 * scale

    def test_determinism(self):
        rng = np.random.default_rng(3)
        diag = rng.standard_normal(60)
        off = rng.standard_normal(59)
        v1 = eig_symtridiag(TridiagonalSym(diag, off))
        v2 = eig_symtridiag(TridiagonalSym(diag, off))
        assert np.array_equal(v1[0], v2[0]) and np.array_equal(v1[1], v2[1])

    def test_validation(self):
        with pytest.raises(ValueError):
            TridiagonalSym([], [])
        with pytest.raises(ValueError):
            TridiagonalSym([1.0, 2.0], [1.0, 1.0])
        with pytest.raises(ValueError):
            TridiagonalSym([1.0, math.nan], [0.5])


def _route_matrices(rows):
    """Solver matrices of three families and Jacobi matrices of two bases."""
    for d, alpha, c, n in ((2, 0.0, 10.0, 0), (3, 1.0, 50.0, 2), (1, -0.5, 5.0, 0)):
        yield build_matrix(d, alpha, c, n, rows - 1)
    for alpha, beta in ((0.5, -0.5), (2.0, 3.5)):
        a, b = _recurrence_arrays(JacobiBasis(alpha, beta), rows - 1)
        yield TridiagonalSym(b, a[:-1])


class TestEigRoutes:
    """eig_symtridiag solves up to _DENSE_MAX_ROWS rows by numpy.linalg.eigh
    on a dense matrix and larger ones by scipy's eigh_tridiagonal."""

    @pytest.mark.parametrize("rows", range(1, 41))
    def test_matches_scipy_tridiagonal(self, rows):
        # Both routes end in LAPACK's dstedc and gave the same bytes on one
        # machine; across NumPy and SciPy builds only rounding is promised.
        for tri in _route_matrices(rows):
            values, vectors = eig_symtridiag(tri)
            ref_values, ref_vectors = scipy.linalg.eigh_tridiagonal(tri.diag, tri.offdiag)
            assert np.max(np.abs(values - ref_values)) <= 1e-15 * np.max(np.abs(ref_values))
            signs = np.sign(np.sum(vectors * ref_vectors, axis=0))
            assert np.max(np.abs(vectors * signs - ref_vectors)) <= 1e-14

    @pytest.mark.parametrize("rows,route", [(1, "dense"), (CUT, "dense"), (CUT + 1, "scipy")])
    def test_cut_selects_the_route(self, rows, route, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("wrong route")

        if route == "dense":
            monkeypatch.setattr(scipy.linalg, "eigh_tridiagonal", fail)
        else:
            monkeypatch.setattr(np.linalg, "eigh", fail)
        values, _ = eig_symtridiag(build_matrix(2, 0.0, 10.0, 0, rows - 1))
        assert values.shape == (rows,)

    @pytest.mark.parametrize("rows,target", [(CUT, (np.linalg, "eigh")),
                                             (CUT + 1, (scipy.linalg, "eigh_tridiagonal"))])
    def test_lapack_failure_is_eigen_convergence_error(self, rows, target, monkeypatch):
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("no convergence")

        monkeypatch.setattr(*target, fail)
        with pytest.raises(EigenConvergenceError, match=f"size {rows} failed: no convergence"):
            eig_symtridiag(build_matrix(2, 0.0, 10.0, 0, rows - 1))


def _scipy_modules_after(code, cwd):
    """Names of the scipy modules loaded in a fresh interpreter after code."""
    src = str(Path(ballprolate.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code += "\nimport json, sys\n" \
            "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, cwd=cwd,
                          env={**os.environ, "PYTHONPATH": path}, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


class TestColdStart:
    """Small solves, evaluations, rules, the recurrence suite and identity
    checks at small c never load scipy; an eigensolve of more than
    _DENSE_MAX_ROWS rows does."""

    def test_small_calls_keep_scipy_out(self, tmp_path):
        (tmp_path / "pts.txt").write_text("0.3 0.4\n-0.3 -0.4\n")
        code = """
import contextlib, io
from ballprolate import solve_pswfs
from ballprolate.cli import main
solve_pswfs(2, 0.0, 5.0, 0, 5)
for args in (
    "eval --dim 2 --alpha 0 --c 1 --n 0 --k 0 --form slepian --r 0:0.25:1",
    "eval-ball --dim 2 --alpha 0 --c 2 --n 1 --k 0 --ell 1 --points pts.txt",
    "quad --alpha 0.5 --beta 0 --m 16",
    "verify --suite recurrence",
):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(args.split()) == 0, args
"""
        assert _scipy_modules_after(code, tmp_path) == []

    def test_small_identity_checks_keep_scipy_out(self, tmp_path):
        # A Gram check of truncation K runs a rule of K + 1 nodes, so up to
        # K = 31 its eigensolve stays within the dense cut.
        code = """
from ballprolate import lambda_eigenvalue, solve_pswfs
from ballprolate.verify import hankel_residual, mu_rayleigh, orthonormality_gram
assert orthonormality_gram(solve_pswfs(2, 0.5, 0.05, 0, 1)) < 1e-13
f = solve_pswfs(2, 0.5, 0.5, 0, 4)[0]
hankel_residual(f, lambda_eigenvalue(f))
mu_rayleigh(2, 0.0, 0.5, 0, 0, radial_nodes=6, angular_nodes=8)
"""
        assert _scipy_modules_after(code, tmp_path) == []

    def test_large_gram_check_loads_scipy_linalg(self, tmp_path):
        # K = 35: the solve and the Gram rule are both 36 rows.
        code = "from ballprolate import orthonormality_gram, solve_pswfs\n" \
               "family = solve_pswfs(2, 0.0, 10.0, 0, 10)\n" \
               "assert max(f.truncation for f in family) == 35\n" \
               "orthonormality_gram(family)"
        assert "scipy.linalg" in _scipy_modules_after(code, tmp_path)

    def test_large_truncation_loads_scipy_linalg(self, tmp_path):
        code = "from ballprolate import solve_pswfs\nsolve_pswfs(2, 0.0, 1.0, 0, 200)"
        assert "scipy.linalg" in _scipy_modules_after(code, tmp_path)

    def test_check_reports_a_direct_import(self, tmp_path):
        # Negative control: the check must see a child that loads scipy.
        code = "import ballprolate\nimport scipy.linalg"
        assert "scipy.linalg" in _scipy_modules_after(code, tmp_path)


class TestGaussJacobi:
    def test_one_point_legendre(self):
        rule = gauss_jacobi(0.0, 0.0, 1)
        assert rule.nodes[0] == pytest.approx(0.0, abs=1e-16)
        assert rule.weights[0] == pytest.approx(2.0, rel=1e-15)

    def test_two_point_legendre(self):
        rule = gauss_jacobi(0.0, 0.0, 2)
        s = 1.0 / math.sqrt(3.0)
        np.testing.assert_allclose(rule.nodes, [-s, s], rtol=1e-15)
        np.testing.assert_allclose(rule.weights, [1.0, 1.0], rtol=1e-14)

    def test_six_point_moments_against_beta_oracle(self):
        rule = gauss_jacobi(1.0, 0.5, 6)
        for k in range(12):
            quad = float(rule.nodes ** k @ rule.weights)
            exact = closed_form_moment(k, 1.0, 0.5)
            assert quad == pytest.approx(exact, rel=1e-13)

    def test_moment_negative_control(self):
        rule = gauss_jacobi(1.0, 0.5, 6)
        nodes = rule.nodes.copy()
        nodes[2] *= 1.0 + 1e-6
        k = 7
        quad = float(nodes ** k @ rule.weights)
        exact = closed_form_moment(k, 1.0, 0.5)
        assert abs(quad / exact - 1.0) > 1e-13

    @pytest.mark.parametrize("alpha,beta", BASES)
    @pytest.mark.parametrize("m", [1, 2, 7, 25])
    def test_exactness_up_to_degree(self, alpha, beta, m):
        # Summation rounding is absolute at the scale of the zeroth moment,
        # so exactly-zero odd moments of symmetric weights need an absolute
        # floor alongside the 1e-13 relative bound.
        rule = gauss_jacobi(alpha, beta, m)
        mu0 = math.fsum(rule.weights)
        for k in range(2 * m):
            quad = float(rule.nodes ** k @ rule.weights)
            exact = closed_form_moment(k, alpha, beta)
            assert quad == pytest.approx(exact, rel=1e-13, abs=1e-13 * mu0)

    @pytest.mark.parametrize("alpha,beta", BASES)
    def test_weight_sum_is_zeroth_moment(self, alpha, beta):
        rule = gauss_jacobi(alpha, beta, 40)
        mu0 = math.exp(
            (alpha + beta + 1.0) * math.log(2.0)
            + math.lgamma(alpha + 1.0) + math.lgamma(beta + 1.0)
            - math.lgamma(alpha + beta + 2.0)
        )
        assert math.fsum(rule.weights) == pytest.approx(mu0, rel=1e-13)

    @pytest.mark.parametrize("alpha,beta", BASES)
    def test_against_scipy_roots_jacobi(self, alpha, beta):
        rule = gauss_jacobi(alpha, beta, 15)
        nodes, weights = scipy.special.roots_jacobi(15, alpha, beta)
        np.testing.assert_allclose(rule.nodes, nodes, rtol=1e-13, atol=1e-14)
        np.testing.assert_allclose(rule.weights, weights, rtol=1e-12)

    def test_nodes_interior_and_increasing(self):
        rule = gauss_jacobi(-0.5, 2.0, 64)
        assert np.all(rule.nodes > -1.0) and np.all(rule.nodes < 1.0)
        assert np.all(np.diff(rule.nodes) > 0.0)
        assert np.all(rule.weights > 0.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            gauss_jacobi(0.0, 0.0, 0)
        with pytest.raises(ValueError):
            gauss_jacobi(-1.2, 0.0, 4)
        with pytest.raises(ValueError):
            QuadratureRule(nodes=np.array([0.5, -0.5]), weights=np.array([1.0, 1.0]),
                           alpha=0.0, beta=0.0)

    @pytest.mark.parametrize("m", [2.5, 3.0, 0, -1, np.float64(2.0)])
    def test_node_count_must_be_an_integer_of_at_least_one(self, m):
        with pytest.raises(ValueError, match="node count m must be an integer >= 1"):
            gauss_jacobi(0.0, 0.0, m)

    def test_numpy_integer_node_count(self):
        rule = gauss_jacobi(0.0, 0.0, np.int64(3))
        assert rule.nodes.tobytes() == gauss_jacobi(0.0, 0.0, 3).nodes.tobytes()


def fresh_rule(alpha, beta, m):
    """A rule computed past the cache, as gauss_jacobi computes it on a miss."""
    signs = (math.copysign(1.0, alpha), math.copysign(1.0, beta))
    return linalg._cached_rule.__wrapped__(alpha, beta, m, signs)


class TestGaussJacobiCache:
    def test_repeated_calls_share_one_read_only_rule(self):
        rule = gauss_jacobi(0.5, -0.25, 9)
        assert gauss_jacobi(0.5, -0.25, 9) is rule
        for values in (rule.nodes, rule.weights):
            assert not values.flags.writeable
            with pytest.raises(ValueError):
                values[0] = 0.0

    def test_hit_has_the_bytes_of_a_fresh_rule(self):
        gauss_jacobi(1.0, 0.5, 12)
        rule = gauss_jacobi(1.0, 0.5, 12)
        fresh = fresh_rule(1.0, 0.5, 12)
        assert rule is not fresh
        assert rule.nodes.tobytes() == fresh.nodes.tobytes()
        assert rule.weights.tobytes() == fresh.weights.tobytes()

    @pytest.mark.parametrize("alpha, beta", [(0.0, -0.0), (-0.0, 0.0), (-0.0, -0.0)])
    def test_signed_zero_has_its_own_entry(self, alpha, beta):
        signed = gauss_jacobi(alpha, beta, 7)
        plain = gauss_jacobi(0.0, 0.0, 7)
        assert signed is not plain
        assert (math.copysign(1.0, signed.alpha), math.copysign(1.0, signed.beta)) == (
            math.copysign(1.0, alpha), math.copysign(1.0, beta))
        for rule, (a, b) in ((signed, (alpha, beta)), (plain, (0.0, 0.0))):
            fresh = fresh_rule(a, b, 7)
            assert rule.nodes.tobytes() == fresh.nodes.tobytes()
            assert rule.weights.tobytes() == fresh.weights.tobytes()

    def test_numpy_integer_node_count_hits_the_int_entry(self):
        assert gauss_jacobi(0.0, 0.5, np.int64(5)) is gauss_jacobi(0.0, 0.5, 5)
        assert gauss_jacobi(0.0, 0.5, np.int32(5)) is gauss_jacobi(0.0, 0.5, 5)

    def test_cache_is_bounded(self):
        size = linalg._RULE_CACHE_SIZE
        first = gauss_jacobi(0.25, 0.75, 3)
        for m in range(4, 4 + size):
            gauss_jacobi(0.25, 0.75, m)
        assert linalg._cached_rule.cache_info().currsize <= size
        again = gauss_jacobi(0.25, 0.75, 3)
        assert again is not first
        assert again.nodes.tobytes() == first.nodes.tobytes()

    @pytest.mark.parametrize("m", [0, -1, 2.5, np.float64(2.0), None])
    def test_bad_node_count_is_rejected_before_the_cache(self, m):
        before = linalg._cached_rule.cache_info()
        with pytest.raises(ValueError, match="node count m must be an integer >= 1"):
            gauss_jacobi(0.0, 0.0, m)
        after = linalg._cached_rule.cache_info()
        assert (after.hits, after.misses) == (before.hits, before.misses)
