"""Exception types shared across the package."""


class EigenConvergenceError(RuntimeError):
    """The tridiagonal eigensolver failed to converge."""


class TruncationNotConverged(RuntimeError):
    """The residual certificate of the truncated eigensolve failed at the cap on K."""


class DegenerateEndpoint(ArithmeticError):
    """The endpoint formula for lambda broke down: the radial eigenfunction
    underflowed at eta = -1, or lambda came out above the weight-integral
    bound pi^(d/2) Gamma(alpha+1)/Gamma(alpha+d/2+1)."""


class NonPositiveLambda(ArithmeticError):
    """The Fourier eigenvalue came out non-positive, indicating a sign bug."""


class IndexOutOfRange(ValueError):
    """Spherical-harmonic index ell lies outside the valid range for (d, n)."""
