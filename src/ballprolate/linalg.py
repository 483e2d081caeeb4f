"""Symmetric-tridiagonal eigensolves and Gauss-Jacobi quadrature generation.

eig_symtridiag takes one of two routes by size, both ending in LAPACK's
divide and conquer (dstedc).  Up to _DENSE_MAX_ROWS = 32 rows it calls
NumPy's eigh on the dense lower triangle; on a tridiagonal input dsyevd's
Householder reflectors are the identity.  Larger matrices go to
scipy.linalg.eigh_tridiagonal, imported only then.  The cut is measured
(timeit minimum, one BLAS thread): per call the dense route takes
0.6-1.0x the time of eigh_tridiagonal up to 32 rows, and 1.3x at 36 and
2.2x at 64, as its reduction is O(K^3).  Importing scipy.linalg takes
longer than a small solve by two orders of magnitude, so a process that
solves only small families, as most command-line calls do, never loads
it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import EigenConvergenceError
from .specfn import JacobiBasis, _recurrence_arrays

__all__ = ["TridiagonalSym", "QuadratureRule", "eig_symtridiag", "gauss_jacobi"]


@dataclass(frozen=True)
class TridiagonalSym:
    """Symmetric tridiagonal matrix stored as its diagonal and one off-diagonal."""

    diag: np.ndarray
    offdiag: np.ndarray

    def __post_init__(self):
        diag = np.asarray(self.diag, dtype=float)
        off = np.asarray(self.offdiag, dtype=float)
        if diag.ndim != 1 or diag.size == 0:
            raise ValueError("diag must be a non-empty 1-d array")
        if off.shape != (diag.size - 1,):
            raise ValueError(
                f"offdiag must have length {diag.size - 1}, got {off.shape}"
            )
        if not (np.all(np.isfinite(diag)) and np.all(np.isfinite(off))):
            raise ValueError("matrix entries must be finite")
        diag.setflags(write=False)
        off.setflags(write=False)
        object.__setattr__(self, "diag", diag)
        object.__setattr__(self, "offdiag", off)

    @property
    def size(self) -> int:
        return self.diag.size


@dataclass(frozen=True)
class QuadratureRule:
    """Gauss-Jacobi nodes and weights for weight (1-eta)^alpha (1+eta)^beta."""

    nodes: np.ndarray
    weights: np.ndarray
    alpha: float
    beta: float

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        if nodes.shape != weights.shape or nodes.ndim != 1 or nodes.size == 0:
            raise ValueError("nodes and weights must be matching non-empty 1-d arrays")
        if np.any(nodes <= -1.0) or np.any(nodes >= 1.0):
            raise ValueError("nodes must lie strictly inside (-1, 1)")
        if np.any(np.diff(nodes) <= 0.0):
            raise ValueError("nodes must be strictly increasing")
        if np.any(weights <= 0.0):
            raise ValueError("weights must be positive")
        nodes.setflags(write=False)
        weights.setflags(write=False)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)


def _validate_count(value, name: str, minimum: int = 0) -> None:
    """Raise ValueError unless value is an integer (Python or NumPy) >= minimum."""
    if not (isinstance(value, (int, np.integer)) and value >= minimum):
        kind = "a non-negative integer" if minimum == 0 else f"an integer >= {minimum}"
        raise ValueError(f"{name} must be {kind}, got {value}")


# Largest matrix of the dense route of eig_symtridiag (module docstring).
_DENSE_MAX_ROWS = 32


def eig_symtridiag(tri: TridiagonalSym) -> tuple[np.ndarray, np.ndarray]:
    """All eigenpairs of a symmetric tridiagonal matrix.

    Eigenvalues are returned ascending; eigenvectors are the columns of an
    orthogonal matrix, with the signs LAPACK gives them.  Callers that need
    a sign convention apply their own: solve_pswfs fixes each kept column
    by its sign rule, and gauss_jacobi squares the first row.  Convergence
    failure in the underlying LAPACK routine is reported as
    EigenConvergenceError.

    Matrices of up to _DENSE_MAX_ROWS = 32 rows go to numpy.linalg.eigh on
    the dense lower triangle, larger ones to scipy.linalg.eigh_tridiagonal:
    up to 32 rows the dense route is no slower in a warm loop and spares
    the process the import of scipy, and above that its O(K^3) reduction
    costs more than the tridiagonal solver (see the module docstring).
    """
    try:
        if tri.size <= _DENSE_MAX_ROWS:
            dense = np.diag(tri.offdiag, -1)
            np.fill_diagonal(dense, tri.diag)
            values, vectors = np.linalg.eigh(dense, UPLO="L")
        else:
            import scipy.linalg

            values, vectors = scipy.linalg.eigh_tridiagonal(tri.diag, tri.offdiag)
    except np.linalg.LinAlgError as exc:
        # scipy.linalg.LinAlgError is numpy.linalg.LinAlgError.
        raise EigenConvergenceError(
            f"tridiagonal eigensolve of size {tri.size} failed: {exc}"
        ) from exc
    return values, vectors


# Bound on the cached Gauss-Jacobi rules.  A family's Gram check asks for
# (alpha, beta_n, 2K) and every Rayleigh check for (alpha, 0, radial_nodes),
# so a few entries cover the families and node counts a caller works on at
# once.
_RULE_CACHE_SIZE = 32


def gauss_jacobi(alpha: float, beta: float, m: int) -> QuadratureRule:
    """m-point Gauss-Jacobi rule by Golub-Welsch on the recurrence matrix.

    Exact for polynomials of degree <= 2m-1 against (1-eta)^alpha (1+eta)^beta;
    the weights are the squared first eigenvector components scaled by the
    zeroth moment 2^(alpha+beta+1) B(alpha+1, beta+1).

    Each rule is computed once per (alpha, beta, m) and kept in a bounded LRU
    cache of _RULE_CACHE_SIZE entries, so repeated calls return the same
    QuadratureRule object.  Callers share it: it is frozen and its nodes and
    weights are read-only.  The key also holds the signs of alpha and beta,
    so that a cache hit returns the bytes a fresh computation would.
    """
    _validate_count(m, "node count m", 1)
    alpha, beta = float(alpha), float(beta)
    signs = (math.copysign(1.0, alpha), math.copysign(1.0, beta))
    return _cached_rule(alpha, beta, int(m), signs)


@functools.lru_cache(maxsize=_RULE_CACHE_SIZE)
def _cached_rule(alpha: float, beta: float, m: int, signs) -> QuadratureRule:
    # signs only splits the cache key; see gauss_jacobi.
    a, b = _recurrence_arrays(JacobiBasis(alpha, beta), m - 1)
    nodes, vectors = eig_symtridiag(TridiagonalSym(b, a[:-1]))
    mu0 = math.exp(
        (alpha + beta + 1.0) * math.log(2.0)
        + math.lgamma(alpha + 1.0) + math.lgamma(beta + 1.0)
        - math.lgamma(alpha + beta + 2.0)
    )
    weights = mu0 * vectors[0, :] ** 2
    return QuadratureRule(nodes=nodes, weights=weights, alpha=alpha, beta=beta)
