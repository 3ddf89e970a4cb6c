"""Exception hierarchy with machine-readable codes.

Every error carries a short ``code`` string so the CLI can emit stable
error JSON and map failures onto exit codes (2 = bad input, 3 = data not
consistent with the requested model).
"""

import operator


class HomomentError(Exception):
    """Base class for all package errors."""

    code = "ERROR"

    def __init__(self, message, code=None):
        super().__init__(message)
        if code is not None:
            self.code = code


class InputError(HomomentError):
    """Malformed or unusable user input (files, flags, shapes)."""

    code = "INPUT"


class DimensionMismatchError(InputError):
    """Operands disagree in variable count, degree, or size."""

    code = "DIMENSION_MISMATCH"


class PreconditionError(InputError):
    """A documented precondition of an operation was violated."""

    code = "PRECONDITION"


def check_integers(minimum=None, /, **values):
    """The values, in order, as ``operator.index`` gives them: Python ints
    (from an int, a bool or a numpy integer); others, and one below
    ``minimum`` when it is given, PreconditionError."""
    ints = []
    for name, value in values.items():
        try:
            ints.append(operator.index(value))
        except TypeError:
            raise PreconditionError(
                f"{name} must be an integer, got {value}") from None
        if minimum is not None and ints[-1] < minimum:
            raise PreconditionError(
                f"{name} must be at least {minimum}, got {ints[-1]}")
    return ints


class InsufficientOrderError(InputError):
    """Not enough moment orders supplied for the requested computation."""

    code = "INSUFFICIENT_ORDER"


class ModelMismatchError(HomomentError):
    """Input data is not consistent with the assumed mixture model."""

    code = "MODEL_MISMATCH"


class SymmetricMixtureError(ModelMismatchError):
    """All principal third cumulants vanish; the two-component closed-form
    recovery has no pivot (equal means or weight one half)."""

    code = "SYMMETRIC_MIXTURE"


class InconsistentMomentsError(ModelMismatchError):
    """No admissible root of a recovery polynomial; the input moments do
    not lie near the model."""

    code = "INCONSISTENT_MOMENTS"


class RankDeficientMomentsError(ModelMismatchError):
    """Moment matrix rank is below the requested atom count."""

    code = "RANK_DEFICIENT"


class SingularSystemError(ModelMismatchError):
    """Linear weight recovery is singular (repeated atom locations)."""

    code = "SINGULAR_SYSTEM"
