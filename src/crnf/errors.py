"""Exception hierarchy.

Every error raised on bad input derives from InputError so the command line
layer can map it to a single exit code.  SingularSystemError is kept separate:
a singular per-weight system on validated input indicates a genuine problem
(or an internal bug), not a malformed file, and gets its own exit code.
"""


class CrnfError(Exception):
    """Base class for all package errors."""


class InputError(CrnfError):
    """Malformed or out-of-contract input (exit code 2 in the CLI)."""


class StructuralError(InputError):
    """Series/map structure violates a precondition (mismatched k or N,
    overweight monomial, duplicate record, bad header, ...)."""


class DigitLimitError(InputError):
    """A number has more digits than Python's integer string conversion
    limit allows (sys.get_int_max_str_digits, PYTHONINTMAXSTRDIGITS)."""


class UnsupportedTypeError(InputError):
    """The type k is outside the supported range (k < 3)."""


class TruncationError(InputError):
    """Truncation weight too small (N < 2k) or otherwise unusable."""


class NotRigidError(InputError):
    """An operation restricted to rigid (u-independent) input got a series
    with u-dependent terms."""


class NotTransversallyFlatError(InputError):
    """An operation restricted to y-independent input got a series with
    y-dependent terms."""


class NotTubeModelError(InputError):
    """The weight-k part is not a tube model (not a scaled power of a real
    linear form), or has no mixed part at all (infinite type)."""


class NotExactlyRepresentableError(InputError):
    """The requested normalization exists but not over the Gaussian
    rationals.  The message records the algebraic condition that failed."""

    def __init__(self, message, condition=None):
        super().__init__(message)
        self.condition = condition


class SingularSystemError(CrnfError):
    """A per-weight linear system was singular (exit code 3 in the CLI)."""


class InternalError(CrnfError):
    """A postcondition the engine checks on its own result failed: a bug,
    not bad input (exit code 4 in the CLI)."""
