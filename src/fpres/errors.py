"""Shared exception types."""


class InvalidInputError(ValueError):
    """Malformed or contradictory input data."""


class MalformedBundleError(InvalidInputError):
    """A resolution-matrix bundle violates its structural contract."""


class FusionIntegralityError(ArithmeticError):
    """Fusion coefficients failed to round to nonnegative integers."""


class PhaseSnapError(ArithmeticError):
    """A numeric value could not be identified with an exact root of unity."""


class ResolutionError(ArithmeticError):
    """Internal inconsistency while assembling resolution data."""


class ResourceLimitError(RuntimeError):
    """A configured size or time cap was exceeded."""
