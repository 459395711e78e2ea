"""Exception types shared across the package."""

from __future__ import annotations


class EdgeRegError(Exception):
    """Base class for all package errors."""


class VariableSetMismatchError(EdgeRegError, ValueError):
    """Operands live over different variable sets."""


class ZeroIdealError(EdgeRegError, ValueError):
    """Operation requires a nonzero ideal."""


class ParseError(EdgeRegError, ValueError):
    """Malformed monomial or ideal text."""


class GraphFormatError(EdgeRegError, ValueError):
    """Malformed graph data (names, weights, edges)."""


class EmptyGraphError(EdgeRegError, ValueError):
    """Operation requires a nonempty graph."""


class FamilyMismatchError(EdgeRegError, ValueError):
    """Graph does not belong to the family the operation expects; the
    message names the family it does belong to."""


class GeneratorMembershipError(EdgeRegError, ValueError):
    """A monomial is not in the expected minimal generating set."""


class ResourceCapError(EdgeRegError, RuntimeError):
    """A computation exceeded a configured resource cap.

    The message names the cap and its value, and how to raise it where it can be.
    """


class DegreeCapError(ResourceCapError, ValueError):
    """A monomial construction exceeded the configured degree cap."""
