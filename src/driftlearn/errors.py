"""Exception types shared across the package."""


class DriftLearnError(Exception):
    """Base class for all driftlearn errors."""


class DimMismatch(DriftLearnError, ValueError):
    """Vector/matrix dimensions do not agree."""


class LengthMismatch(DriftLearnError, ValueError):
    """Sequences that must be aligned have different lengths."""


class NotPositiveDefinite(DriftLearnError, ArithmeticError):
    """A matrix required to be SPD failed its Cholesky factorization."""


class InvalidParams(DriftLearnError, ValueError):
    """Learner parameters violate their constraints."""


class TooLarge(DriftLearnError, ValueError):
    """Problem size exceeds the dense-solve budget of the brute-force oracle."""


class SingularSystem(DriftLearnError, ArithmeticError):
    """The stacked normal equations were singular (defensive; cannot occur
    for positive penalties)."""


class DomainError(DriftLearnError, ValueError):
    """Scalar inputs outside the admissible domain."""


class RegimeViolation(DriftLearnError, ValueError):
    """Drift level does not satisfy the requested tuning regime."""


class BadDim(DriftLearnError, ValueError):
    """Stream dimension too small for the required input structure."""


class BadStream(DriftLearnError, ValueError):
    """A stream is empty, malformed, or carries non-finite values, or a
    stream or report CSV is not in its format."""


class UnknownAlgo(DriftLearnError, ValueError):
    """Unrecognized learner identifier."""
