"""Error types shared across the package."""


class ConfmechError(ValueError):
    """Base class for all domain errors raised by this package."""


class NotInGLPlus(ConfmechError):
    """Matrix is required to have strictly positive determinant but does not."""


class SingularPoint(ConfmechError):
    """Map evaluated at (or too close to) one of its singular points."""


class NonOrientationPreserving(ConfmechError):
    """Gradient requested for a map that reverses orientation at the point."""


class NotConformal(ConfmechError):
    """Matrix fails the conformality test beyond the requested tolerance."""


class NotDifferentiable(ConfmechError):
    """Derivative requested where the function has no (finite) derivative."""


class NonPositiveArgument(ConfmechError):
    """Scalar argument must be strictly positive."""


class LeavesGLPlus(ConfmechError):
    """A matrix path left the positive-determinant domain."""


class TooFewSamples(ConfmechError):
    """Not enough samples to classify a sampled function."""


class InvalidSplice(ConfmechError):
    """Volumetric splice point must lie strictly above e."""


class InadmissibleDomainWarning(UserWarning):
    """Determinant range of a sampled field leaves the admissible interval."""
