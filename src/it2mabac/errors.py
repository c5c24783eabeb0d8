"""Exception hierarchy shared by all modules.

Two broad groups name the kind of fault: ``ValidationError`` for malformed
input, ``ComputationError`` for a stage that cannot compute on its data.
The CLI's exit code follows the phase, not the group: any error while the
document is loaded exits 1, and any error while the pipeline runs exits 2,
even a ``ValidationError`` such as an endpoint-order violation that a
normalized entry can raise.
"""


class MabacError(Exception):
    """Base class for every error raised by this package."""

    #: The cell at fault, set by ``fuzzy._locate`` for steps 1-6: (i, j) for row i and
    #: criterion j of the stage's matrix, or (None, j) for criterion j of its vector.
    _cell: tuple[int | None, int] | None = None


class ValidationError(MabacError):
    """Input data, a scale, or a configuration value is malformed."""


class ComputationError(MabacError):
    """A pipeline stage cannot produce a result from the given data."""


class EndpointOrderViolation(ValidationError):
    """Trapezoid endpoints are not in non-decreasing order."""


class HeightOutOfRange(ValidationError):
    """A trapezoid height lies outside (0, 1]."""


class HeightOrderViolation(ValidationError):
    """The lower membership height exceeds the upper one."""


class UnknownTerm(ValidationError):
    """A linguistic term is not defined by the scale in use."""


class DimensionMismatch(ValidationError):
    """Vectors or matrices do not agree on their expected shape."""


class InvalidParams(ValidationError):
    """A tuning parameter is outside its admissible range."""


class ProblemSyntaxError(ValidationError):
    """A problem or scale document cannot be parsed."""


class NegativeScalar(ComputationError):
    """Scalar multiplication was requested with a negative factor."""


class NegativeOperand(ComputationError):
    """An operation defined on the non-negative cone met a negative value."""


class TooFewValues(ComputationError):
    """An aggregation operator needs more inputs than were supplied."""


class EmptyInput(ComputationError):
    """An operator received no values at all."""


class ZeroHeight(ComputationError):
    """A rank computation met a membership function of zero height."""


class DegenerateRange(ComputationError):
    """All values of a criterion column coincide, so it cannot be scaled."""
