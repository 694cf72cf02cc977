"""Exception hierarchy with stable error codes for the CLI exit contract."""


class CurveClassError(Exception):
    """Base class; `code` is the process exit code for CLI surfaces."""

    code = 1


class ParseError(CurveClassError):
    code = 2

    def __init__(self, message, position=None):
        self.position = position
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)


class CurveError(CurveClassError):
    """Invalid curve: zero/constant or non-squarefree F (carries witness)."""

    code = 3

    def __init__(self, message, witness=None):
        self.witness = witness
        super().__init__(message)


class ZeroDivisorDenominatorError(CurveClassError):
    """Denominator vanishes on a curve component (carries the component)."""

    code = 4

    def __init__(self, message, component=None):
        self.component = component
        super().__init__(message)


class AssignmentError(CurveClassError):
    code = 5


class NotIntegralError(CurveClassError):
    code = 6


class DegenerateInputError(CurveClassError):
    code = 7


class PreconditionError(CurveClassError):
    code = 8


class JobError(CurveClassError):
    """Malformed job file or options."""

    code = 9


class InternalError(CurveClassError):
    """An invariant of the engine failed: a bug, never a verdict."""

    code = 10
