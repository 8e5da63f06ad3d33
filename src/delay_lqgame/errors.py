"""Exception hierarchy shared by all modules."""


class DelayGameError(Exception):
    """Base class for every error raised by this package."""


class DimensionError(DelayGameError):
    """Operands have incompatible or non-conforming shapes, or non-finite
    entries.  A stacked solve sets ``row`` to the failing system's index
    in the stack (else None).
    """

    def __init__(self, message, row=None):
        super().__init__(message)
        self.row = row


class IntervalError(DelayGameError):
    """A matrix exponential's time argument t is not finite."""


class NumericalError(DelayGameError):
    """A computation failed numerically: a solve hit a singular system (the
    subclasses), or a value matrix, state or cost left the finite
    floating-point range, first at ``step``.

    In a batch, ``row`` is the failing row's index (else None); a scheme
    command also names the row's scheme in the message and sets ``delays``
    to its delay point (else None).
    """

    def __init__(self, message, step=None, row=None):
        super().__init__(message)
        self.step = step
        self.row = row
        self.delays = None


class SingularMatrixError(NumericalError):
    """A linear solve hit a pivot too small to trust.

    The offending pivot magnitude is kept on the exception so callers can
    report how close to singular the system was, and its position on the
    diagonal of the LU factor (when known) so they can say which unknowns
    the near-dependency sits in.  A stacked solve sets ``row`` to the
    system's index in the stack.
    """

    def __init__(self, message, pivot, index=None, row=None):
        super().__init__(message, row=row)
        self.pivot = float(pivot)
        self.index = index


class CouplingSingularityError(SingularMatrixError):
    """The simultaneous best-response system is singular at some step.

    Carries the backward-recursion step index and, when the failure is
    attributable to one controller, its 1-based index (else None).  A
    batched synthesis adds the failing plant's index in the batch as
    ``plant``, which is also its ``row``.
    """

    def __init__(self, message, pivot, step, controller=None, plant=None):
        super().__init__(message, pivot)
        self.step = int(step)
        self.controller = controller
        self.plant = self.row = plant


class ValidationError(DelayGameError):
    """A domain invariant was violated; the message names the invariant."""


class DelayBoundError(ValidationError):
    """A delay falls outside [0, h)."""


class SchemaError(ValidationError):
    """A document field or an API argument breaks its value rule; carries
    the field path, which leads the message."""

    def __init__(self, path, message):
        super().__init__(f"{path}: {message}")
        self.path = path


class DocumentShapeError(SchemaError, DimensionError):
    """A document array of another shape: the shape rule's DimensionError."""
