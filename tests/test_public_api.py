"""Tests for the public surface: every name listed in an __all__ exists, and
the package exports exactly the names below."""

import pkgutil

import pytest

import ballprolate

MODULES = ["ballprolate"] + [
    f"ballprolate.{info.name}" for info in pkgutil.iter_modules(ballprolate.__path__)
]

PUBLIC_NAMES = {
    "JacobiBasis", "PswfParams", "QuadratureRule", "RadialPswf", "TridiagonalSym",
    "VerificationReport", "bessel_j_scaled", "build_matrix", "clenshaw", "eig_symtridiag",
    "eval_psi_ball", "eval_radial", "gauss_jacobi", "hankel_residual", "jacobi_eval",
    "kernel_qc", "lambda_eigenvalue", "mu_rayleigh", "orthonormality_gram",
    "recurrence_residual", "run_suite", "solve_pswfs", "sph_harm_dim", "sph_harm_eval",
    "table_check", "DegenerateEndpoint", "EigenConvergenceError", "IndexOutOfRange",
    "NonPositiveLambda", "TruncationNotConverged",
}

# Folded into their callers or into the test helpers; none is an attribute
# of the package any more.
REMOVED_NAMES = ["ball_poly_eval", "chi_bounds", "eval_phi", "gamma_coef",
                 "perturbation_coeffs", "truncation_size"]


@pytest.mark.parametrize("module", MODULES)
def test_star_import(module):
    namespace = {}
    exec(f"from {module} import *", namespace)
    assert len(namespace) > 1


def test_package_exports_exactly_the_public_names():
    assert len(ballprolate.__all__) == len(set(ballprolate.__all__)) == 30
    assert set(ballprolate.__all__) == PUBLIC_NAMES
    for name in ballprolate.__all__:
        assert getattr(ballprolate, name) is not None


@pytest.mark.parametrize("name", REMOVED_NAMES)
def test_removed_name_is_gone(name):
    assert not hasattr(ballprolate, name)
