"""Exception types shared across the package."""


class StoneworkError(Exception):
    """Base class for structured failures raised by this package."""


class StructureError(StoneworkError):
    """An object does not satisfy the defining axioms of its type."""


class NotBooleanError(StructureError):
    """An operation required a boolean inverse monoid; carries the refusal."""

    def __init__(self, message, certificate=None):
        super().__init__(message)
        self.certificate = certificate


class MorphismError(StructureError):
    """A map between monoids fails one of the morphism axioms."""

    def __init__(self, stage, witness, message=None):
        super().__init__(message or f"morphism check failed at {stage}: {witness!r}")
        self.stage = stage
        self.witness = witness


class BoundError(StoneworkError):
    """A size bound would be exceeded: MAX_ELEMENTS, or the bisection bound."""


class ParseError(StoneworkError):
    """Malformed textual syntax for a symbolic element."""
