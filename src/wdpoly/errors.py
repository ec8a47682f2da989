"""Exception types shared across the package."""

from __future__ import annotations


class TropicalError(Exception):
    """Base class for all library-specific errors."""


class ShapeError(TropicalError, ValueError):
    """Dimension mismatch between operands."""


class CapabilityError(TropicalError):
    """An explicit size bound was exceeded; the answer was not attempted."""


class ValueTypeError(TropicalError, TypeError):
    """A value that is not an exact tropical value, such as a float or a bool."""


class InfeasibleError(TropicalError):
    """The polyhedron is empty; carries a negative cycle as witness."""

    def __init__(self, cycle, message="polyhedron is empty"):
        super().__init__(f"{message}: negative cycle {cycle}")
        self.cycle = list(cycle)


class InconsistentFaceError(TropicalError, ValueError):
    """A face specification forces contradictory equalities."""


class EmptyCellError(TropicalError):
    """The requested cell of a decomposition is empty."""


class DomainError(TropicalError, ValueError):
    """An argument lies outside the operation's domain."""


class FormatError(TropicalError, ValueError):
    """Malformed input file; carries location information."""

    def __init__(self, message, *, path=None, field=None):
        loc = []
        if path is not None:
            loc.append(str(path))
        if field is not None:
            loc.append(f"field {field}")
        if len(loc) == 2:
            super().__init__(f"{loc[0]} ({loc[1]}): {message}")
        elif loc:
            super().__init__(f"{loc[0]}: {message}")
        else:
            super().__init__(message)
        self.path = path
        self.field = field
