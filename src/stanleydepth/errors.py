"""Exception types shared across the package.

Every error that should abort a CLI run with exit code 2 derives from
StanleyDepthError.  "Not induced" is a return value; an invalid
decomposition raises `hilbert.ValidationFailure`, returned as a verdict
only by `validate_decomposition` and `verify-cert`.
"""


class StanleyDepthError(Exception):
    """Base class for all package errors."""


class InputFormatError(StanleyDepthError):
    """A file or JSON object does not match the documented grammar."""


class HomogeneityError(StanleyDepthError):
    """A relation mixes terms of different multidegrees."""


class BoxError(StanleyDepthError):
    """A generator or relation degree lies outside [0, g+1], past the
    degrees that decide whether the module is g-determined."""


class RangeError(StanleyDepthError):
    """A degree query outside the computed box."""


class DimensionMismatchError(StanleyDepthError):
    """Vectors or subspaces with incompatible ambient dimensions."""


class ShapeError(StanleyDepthError):
    """Malformed matrix or decomposition data (non-square, bad lengths)."""


class ModeError(StanleyDepthError):
    """A decision core was invoked over a field it does not support."""


class PreconditionError(StanleyDepthError):
    """An operation was called on input violating its preconditions."""


class ResourceLimitError(StanleyDepthError):
    """A term, row, search, box or summand budget was exhausted."""


class UnboundVariableError(StanleyDepthError):
    """Polynomial evaluation with an incomplete assignment."""


class WitnessNotFoundError(StanleyDepthError):
    """No witness exists (decomposition not induced) or search exhausted."""
