"""Exception hierarchy shared across the package."""


class QuatOdeError(Exception):
    """Base class for all errors raised by quatode."""


class NonFiniteError(QuatOdeError):
    """A quaternion operation produced a NaN or infinite component."""


class ParseError(QuatOdeError, ValueError):
    """Malformed expression text.

    ``offset`` is the byte offset into the source where parsing failed.
    """

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class UnknownFunctionError(ParseError):
    """An identifier was called like a function but is not one we know."""


class DomainError(QuatOdeError, ValueError):
    """Evaluation left the real domain (ln of nonpositive, sqrt of negative,
    fractional power of a negative base, overflow to non-finite)."""


class DivisionByZeroError(DomainError, ZeroDivisionError):
    """Exact zero denominator during evaluation."""


class QuadratureError(QuatOdeError):
    """An integrand returned a non-finite value, or was not resolved within
    the panel cap (or, for ``adaptive_simpson``, the depth limit)."""


class NotUnitError(QuatOdeError):
    """Phase decomposition needs a unit quaternion and did not get one."""


class BothZeroError(QuatOdeError, ValueError):
    """atan2x(0, 0) is undefined."""


class SingularTheta2Error(QuatOdeError):
    """The second phase angle reached the +-pi/4 singularity (or an iterate
    escaped the Picard box around it)."""


class NoConvergenceError(QuatOdeError):
    """Picard iteration hit the iteration cap before meeting tolerance."""


class StalledSegmentError(QuatOdeError):
    """Segmented continuation could not advance the time window."""


class BlowupError(QuatOdeError):
    """Numerical integration produced a non-finite state."""
