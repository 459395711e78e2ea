"""Variable sets and exact monomial arithmetic.

Monomials are dense tuples of nonnegative exponents, one per variable of a
fixed, ordered variable set.  The canonical text form joins factors with
``*`` and powers with ``^`` in variable-set order, e.g. ``x1^2*x3``; the
unit monomial is ``1``.  That form round-trips through :func:`parse_monomial`.
"""

from __future__ import annotations

import re
import struct
import sys
from array import array
from itertools import chain
from typing import Iterable, Sequence

from .errors import DegreeCapError, ParseError, VariableSetMismatchError

# Total degree allowed in any single monomial.  Exponents are plain Python
# integers, so this is a sanity cap on runaway constructions, not an
# arithmetic limit.
DEGREE_CAP = 10**6


def _check_degree(degree: int) -> None:
    if degree > DEGREE_CAP:
        raise DegreeCapError(f"monomial degree {degree} exceeds cap {DEGREE_CAP}")


def _check_power(t: int) -> None:
    """Refuse a power that is not a plain int >= 1; a bool or 2.0 is not taken as an int."""
    if type(t) is not int or t < 1:
        raise ValueError(f"power must be an int >= 1, got {t!r}")


_NAME_RE = re.compile(r"^[A-Za-z][A-Za-z0-9_]*$")
_BIG_ENDIAN = sys.byteorder == "big"  # array("Q") holds native words; slots are little-endian


class VariableSet:
    """An ordered, immutable collection of distinct variable names."""

    __slots__ = ("_names", "_index")

    def __init__(self, names: Iterable[str]):
        names = tuple(names)
        seen = set()
        for name in names:
            if not _NAME_RE.match(name):
                raise ParseError(f"invalid variable name {name!r}")
            if name in seen:
                raise ParseError(f"duplicate variable name {name!r}")
            seen.add(name)
        self._names = names
        self._index = {name: i for i, name in enumerate(names)}

    @property
    def names(self) -> tuple[str, ...]:
        return self._names

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise ParseError(f"unknown variable {name!r}") from None

    def __len__(self) -> int:
        return len(self._names)

    def __eq__(self, other) -> bool:
        return isinstance(other, VariableSet) and self._names == other._names

    def __hash__(self) -> int:
        return hash(self._names)

    def __repr__(self) -> str:
        return f"VariableSet({list(self._names)!r})"


class _Packing:
    """Exponent vectors of one length packed into one int each.

    One byte-aligned field per variable, the first variable in the most
    significant field, so int order is lex order and a divisor is a smaller
    int than its multiples.  Fields are the narrowest of 8, 16, 32 and 64
    bits whose top bit, the guard, stays clear for every exponent the
    packing is sized for, and where ``n * top < 2**width - 1`` for n
    variables and the largest such exponent top.  While exponents stay
    within that size, the sum of two packed vectors packs their sum, and
    ``p % mod`` with ``mod = 2**width - 1`` is the total degree of p:
    ``2**width ≡ 1`` modulo mod, so p is congruent to the sum of its
    fields, which is below mod.  The guard bits of
    ``(b | guards) - g`` mark the fields where b >= g, so g divides b
    exactly when all of them are set, and a join is the SWAR maximum
    ``b ^ ((g ^ b) & m)`` with ``m`` the value bits of the fields where
    g > b; on vectors concatenated, ``g * ones`` and ``guards * ones`` join all.

    All a packing holds depends on n and the field width alone, so each
    (n, width) has one packing, made the first time it is asked for.
    """

    __slots__ = ("shift", "guards", "mod", "_struct", "_slot")
    _ones: dict[tuple[int, int], int] = {}  # (slot bytes, k): 1 in each of k slots of joins
    _shapes: dict[tuple[int, int], "_Packing"] = {}  # (n, width): the packing of that shape

    def __new__(cls, n: int, vectors: Iterable[tuple[int, ...]], scale: int = 1) -> "_Packing":
        """Fields for ``scale`` times the largest exponent of the vectors."""
        top = scale * max(chain.from_iterable(vectors), default=0)
        for width, code in ((8, "B"), (16, "H"), (32, "I"), (64, "Q")):
            if top < 1 << (width - 1) and n * top < (1 << width) - 1:
                break
        else:
            raise DegreeCapError(f"{n} exponents up to {top} do not fit a 64-bit field")
        self = cls._shapes.get((n, width))
        if self is None:
            self = cls._shapes[n, width] = object.__new__(cls)
            self.shift = width - 1
            self.mod = (1 << width) - 1
            self.guards = sum(1 << (k * width + self.shift) for k in range(n))
            self._struct = struct.Struct(f">{n}{code}" if n else ">x")  # a pad byte: no 0-byte slot
            self._slot = -(-self._struct.size // 8) * 8  # slot bytes: one or more words
        return self

    def pack(self, b: tuple[int, ...]) -> int:
        return int.from_bytes(self._struct.pack(*b), "big")

    def unpack(self, b: int) -> tuple[int, ...]:
        return self._struct.unpack(b.to_bytes(self._struct.size, "big"))

    def slots(self, packed: Sequence[int]) -> int:
        """The packed vectors in the slots of joins, the first least significant."""
        if self._slot > 8:
            size = self._slot
            return int.from_bytes(b"".join(g.to_bytes(size, "little") for g in packed), "little")
        words = array("Q", packed)
        if _BIG_ENDIAN:
            words.byteswap()
        return int.from_bytes(words, "little")

    def joins(self, slots: int, g: int, k: int) -> Sequence[int]:
        """The packed lcms of g with each of the first k vectors of
        ``slots(vectors)``, in their order, from one SWAR step on their slots."""
        size = self._slot
        ones = _Packing._ones.get((size, k)) or _Packing._ones.setdefault(
            (size, k), int.from_bytes((b"\1" + bytes(size - 1)) * k, "little"))
        points, guards, h = slots & (1 << 8 * size * k) - 1, self.guards * ones, g * ones
        c = guards & ~((points | guards) - h)
        h = points ^ ((h ^ points) & (c - (c >> self.shift)))
        data = h.to_bytes(size * k, "little")
        if size > 8:
            return [int.from_bytes(data[i:i + size], "little") for i in range(0, size * k, size)]
        joins = array("Q", data)  # no object per join until read, and none the collector tracks
        if _BIG_ENDIAN:
            joins.byteswap()
        return joins

    def covers(self, slots: int, b: int, k: int) -> list[int]:
        """The guard bits where g < b of each divisor g of b among the k
        vectors of ``slots(vectors)``, in their order, from one SWAR step."""
        size, full = self._slot, self.guards.to_bytes(self._slot, "little")
        ones = _Packing._ones.get((size, k)) or _Packing._ones.setdefault(
            (size, k), int.from_bytes((b"\1" + bytes(size - 1)) * k, "little"))
        guards, h = self.guards * ones, b * ones
        divides = (((h | guards) - slots) & guards).to_bytes(size * k, "little")  # where g <= b
        below = (guards & ~((slots | guards) - h)).to_bytes(size * k, "little")  # where g < b
        return [int.from_bytes(below[i:i + size], "little")
                for i in range(0, size * k, size) if divides[i:i + size] == full]

    def minimal(self, packed: Iterable[int]) -> list[int]:
        """The packed vectors that no other one divides, each once, in
        ascending int order; a divisor is the smaller int, so it is met first."""
        guards = self.guards
        kept: list[int] = []
        for b in sorted(packed):
            bg = b | guards
            for g in kept:
                if (bg - g) & guards == guards:
                    break
            else:
                kept.append(b)
        return kept


def _text(names: tuple[str, ...], exps: tuple[int, ...]) -> str:
    """Canonical text of the monomial with the given dense exponent tuple."""
    return "*".join(n if e == 1 else f"{n}^{e}" for n, e in zip(names, exps) if e) or "1"


def _check_same_ring(*operands) -> VariableSet:
    """The operands' shared variable set; VariableSetMismatchError if they differ."""
    variables = operands[0].variables
    for x in operands[1:]:
        if x.variables != variables:
            raise VariableSetMismatchError(
                f"operands over different variable sets: "
                f"{variables.names} vs {x.variables.names}"
            )
    return variables


def _check_exponents(n: int, items: Iterable[tuple[int, int]]) -> None:
    """Raise on the first bad (index, exponent) pair over n variables."""
    for idx, e in items:
        if type(e) is not int:  # bool is an int subclass and is refused too
            raise TypeError(f"exponent for index {idx} is not an integer: {e!r}")
        if e < 0:
            raise ValueError(f"negative exponent {e} at index {idx}")
        if e and not 0 <= idx < n:
            raise IndexError(f"variable index {idx} out of range")


class Monomial:
    """A monomial stored as its dense exponent tuple over the variable set.

    Immutable; the all-zero tuple is the unit monomial 1.  Built by
    :meth:`from_dense`, :meth:`unit` or :func:`parse_monomial`.
    """

    __slots__ = ("_vars", "_exps", "_degree", "_hash")

    @classmethod
    def _new(cls, variables: VariableSet, exps: tuple[int, ...]) -> "Monomial":
        """A monomial from a tuple of nonnegative ints, one per variable."""
        degree = sum(exps)
        _check_degree(degree)
        self = object.__new__(cls)
        self._vars, self._exps, self._degree = variables, exps, degree
        self._hash = hash((variables, exps))
        return self

    @classmethod
    def unit(cls, variables: VariableSet) -> "Monomial":
        return cls._new(variables, (0,) * len(variables))

    @classmethod
    def from_dense(cls, variables: VariableSet, exps: Iterable[int]) -> "Monomial":
        exps = tuple(exps)
        n = len(variables)
        if len(exps) != n or {*map(type, exps)} - {int} or min(exps, default=0) < 0:
            _check_exponents(n, enumerate(exps))
            raise ValueError(f"{len(exps)} exponents for {n} variables")
        return cls._new(variables, exps)

    @property
    def variables(self) -> VariableSet:
        return self._vars

    @property
    def degree(self) -> int:
        return self._degree

    def dense(self) -> tuple[int, ...]:
        return self._exps

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Monomial)
            and self._vars == other._vars
            and self._exps == other._exps
        )

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        return _text(self._vars.names, self._exps)

    def __repr__(self) -> str:
        return f"Monomial({self})"


def parse_monomial(text: str, variables: VariableSet) -> Monomial:
    """Parse the canonical ``x1^2*x3`` form (also accepts unordered factors)."""
    text = text.strip()
    if not text:
        raise ParseError("empty monomial text")
    if text == "1":
        return Monomial.unit(variables)
    exps = [0] * len(variables)
    for factor in text.split("*"):
        factor = factor.strip()
        if not factor:
            raise ParseError(f"empty factor in {text!r}")
        if "^" in factor:
            name, _, raw = factor.partition("^")
            name = name.strip()
            try:
                e = int(raw)
            except ValueError:
                raise ParseError(f"bad exponent in factor {factor!r}") from None
            if e <= 0:
                raise ParseError(f"exponent must be positive in {factor!r}")
        else:
            name, e = factor, 1
        exps[variables.index(name)] += e
    return Monomial.from_dense(variables, exps)
