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
    """An expression is undefined at some time: ln of a value <= 0, sqrt of
    a negative value, a fractional power of a negative base, or a final
    value that is not finite.  An infinite intermediate whose final value
    is finite is not an error."""


class DivisionByZeroError(DomainError, ZeroDivisionError):
    """Exact zero denominator during evaluation."""


class QuadratureError(QuatOdeError):
    """An integrand returned a non-finite value, was not resolved within
    the panel cap, or has no integral: its mass sits on panels the
    bisection cannot split."""


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
