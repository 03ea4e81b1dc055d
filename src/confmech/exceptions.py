"""Error types shared across the package.

Every refusal of the library is a ConfmechError, a ValueError; the line
scan's LeavesGLPlus is the one subclass, because the rank-one scan catches it.
"""


class ConfmechError(ValueError):
    """Base class for all domain errors raised by this package."""


class LeavesGLPlus(ConfmechError):
    """A matrix path left the det band of GL+ (tensors.DET_CEILING)."""


class InadmissibleDomainWarning(UserWarning):
    """Determinant range of a sampled field leaves the admissible interval."""
