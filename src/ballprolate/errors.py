"""Exception types shared across the package."""


class EigenConvergenceError(RuntimeError):
    """The tridiagonal eigensolver failed to converge."""


class TruncationNotConverged(RuntimeError):
    """The residual certificate of the truncated eigensolve failed at the cap on K."""


class DegenerateEndpoint(ArithmeticError):
    """lambda underflowed, met a zero pivot in its coefficient ratios, or
    broke the weight-integral bound or, for alpha >= 0, the Plancherel bound
    (2 pi/c)^(d/2); the message names which."""


class NonPositiveLambda(ArithmeticError):
    """lambda came out negative: chi is not the eigenvalue of mode k."""


class IndexOutOfRange(ValueError):
    """Spherical-harmonic index ell lies outside the valid range for (d, n)."""
