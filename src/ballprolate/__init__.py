"""Prolate spheroidal wave functions on the d-dimensional unit ball.

Solves the radial eigenproblem of the bandlimited Sturm-Liouville operator
with weight exponent alpha > -1 and bandwidth c >= 0 by expansion in
orthonormalized Jacobi polynomials, evaluates the eigenfunctions and their
Sturm-Liouville (chi) and finite-Fourier (lambda, mu) eigenvalues, and ships
verification suites that cross-check the results against independent
integral-operator identities and published reference tables.
"""

from .errors import (
    DegenerateEndpoint,
    EigenConvergenceError,
    IndexOutOfRange,
    NonPositiveLambda,
    TruncationNotConverged,
)
from .geometry import (
    ball_poly_eval,
    eval_phi,
    eval_psi_ball,
    eval_radial,
    kernel_qc,
    sph_harm_dim,
    sph_harm_eval,
)
from .linalg import QuadratureRule, TridiagonalSym, eig_symtridiag, gauss_jacobi
from .pswf import (
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
from .specfn import (
    JacobiBasis,
    bessel_j_scaled,
    clenshaw,
    jacobi_eval,
)
from .verify import (
    VerificationReport,
    hankel_residual,
    mu_rayleigh,
    orthonormality_gram,
    recurrence_residual,
    run_suite,
    table_check,
)

__version__ = "0.1.0"

__all__ = [
    "JacobiBasis",
    "PswfParams",
    "QuadratureRule",
    "RadialPswf",
    "TridiagonalSym",
    "VerificationReport",
    "ball_poly_eval",
    "bessel_j_scaled",
    "build_matrix",
    "chi_bounds",
    "clenshaw",
    "eig_symtridiag",
    "eval_phi",
    "eval_psi_ball",
    "eval_radial",
    "gamma_coef",
    "gauss_jacobi",
    "hankel_residual",
    "jacobi_eval",
    "kernel_qc",
    "lambda_eigenvalue",
    "mu_rayleigh",
    "orthonormality_gram",
    "perturbation_coeffs",
    "recurrence_residual",
    "run_suite",
    "solve_pswfs",
    "sph_harm_dim",
    "sph_harm_eval",
    "table_check",
    "truncation_size",
    "DegenerateEndpoint",
    "EigenConvergenceError",
    "IndexOutOfRange",
    "NonPositiveLambda",
    "TruncationNotConverged",
]
