"""Exception types shared across the package."""


class GraphwellError(Exception):
    """Base class for all errors raised by this package."""


class GraphValidationError(GraphwellError):
    """A graph violates a structural constraint (weights, measure, connectivity)."""


class DomainViolationError(GraphwellError):
    """A function is nonzero outside the domain it must be supported on."""


class DegeneratePairError(GraphwellError):
    """The coupling integral vanishes, so no Nehari projection exists."""


class EnergyOverflowError(GraphwellError):
    """Every restart's energy, or Nehari scale, overflowed: no finite ground state."""


class BoundaryMismatchError(GraphwellError):
    """A computed vertex boundary disagrees with a required listing."""

    def __init__(self, message: str, vertex: str | None = None):
        super().__init__(message)
        self.vertex = vertex


class ParseError(GraphwellError):
    """A problem or solution file could not be parsed. Carries the 1-based line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class UnknownLabelError(GraphwellError):
    """A vertex label does not exist in the graph."""
