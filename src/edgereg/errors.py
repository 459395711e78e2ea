"""Exception types shared across the package."""

from __future__ import annotations


class EdgeRegError(Exception):
    """Base class for all package errors."""


class VariableSetMismatchError(EdgeRegError, ValueError):
    """Operands live over different variable sets."""


class DegreeCapError(EdgeRegError, ValueError):
    """A monomial construction exceeded the configured degree cap."""


class ZeroIdealError(EdgeRegError, ValueError):
    """Operation requires a nonzero ideal."""


class ParseError(EdgeRegError, ValueError):
    """Malformed monomial or ideal text."""


class GraphFormatError(EdgeRegError, ValueError):
    """Malformed graph data (names, weights, edges)."""


class EmptyGraphError(EdgeRegError, ValueError):
    """Operation requires a nonempty graph."""


class FamilyMismatchError(EdgeRegError, ValueError):
    """Graph does not belong to the family the operation expects.

    Carries the actual family so callers can report it.
    """

    def __init__(self, message: str, actual: str | None = None):
        super().__init__(message)
        self.actual = actual


class GeneratorMembershipError(EdgeRegError, ValueError):
    """A monomial is not in the expected minimal generating set."""


class ResourceCapError(EdgeRegError, RuntimeError):
    """A computation exceeded a configured resource cap.

    The message names the cap and its value so the caller can raise it.
    """
