"""Exception types shared across the package."""


class EigenConvergenceError(RuntimeError):
    """The tridiagonal eigensolver failed to converge."""


class TruncationNotConverged(RuntimeError):
    """The residual certificate of the truncated eigensolve failed at the cap on K."""


class DegenerateEndpoint(ArithmeticError):
    """The radial eigenfunction underflowed at the left endpoint eta = -1."""


class NonPositiveLambda(ArithmeticError):
    """The Fourier eigenvalue came out non-positive, indicating a sign bug."""


class IndexOutOfRange(ValueError):
    """Spherical-harmonic index ell lies outside the valid range for (d, n)."""
