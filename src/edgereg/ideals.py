"""Monomial ideals with an eagerly minimalized generating set.

Every constructor reduces the given generators to the unique minimal
generating set (no generator divides another), sorted in descending
graded-lex order for deterministic output.  The zero ideal has no
generators; the unit ideal is generated by the unit monomial.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .errors import ParseError, VariableSetMismatchError, ZeroIdealError
from .ring import Monomial, VariableSet, parse_monomial


def _minimalize(gens: Iterable[Monomial]) -> tuple[Monomial, ...]:
    # Sorting by degree first means possible divisors precede multiples.
    pool = sorted(set(gens), key=Monomial.grlex_key)
    kept: list[Monomial] = []
    for g in pool:
        if not any(h.divides(g) for h in kept):
            kept.append(g)
    kept.sort(key=Monomial.grlex_key, reverse=True)
    return tuple(kept)


class MonomialIdeal:
    """A finite set of monomial generators over a shared variable set."""

    __slots__ = ("_vars", "_gens", "_hash")

    def __init__(self, variables: VariableSet, generators: Iterable[Monomial] = ()):
        gens = tuple(generators)
        for g in gens:
            if g.variables != variables:
                raise ValueError(
                    f"generator {g} lives over {g.variables.names}, "
                    f"not {variables.names}"
                )
        self._vars = variables
        self._gens = _minimalize(gens)
        self._hash = hash((variables, self._gens))

    @classmethod
    def zero(cls, variables: VariableSet) -> "MonomialIdeal":
        return cls(variables, ())

    @property
    def variables(self) -> VariableSet:
        return self._vars

    @property
    def generators(self) -> tuple[Monomial, ...]:
        return self._gens

    @property
    def is_zero(self) -> bool:
        return not self._gens

    @property
    def is_unit(self) -> bool:
        return len(self._gens) == 1 and self._gens[0].is_unit

    @property
    def is_squarefree(self) -> bool:
        return all(g.is_squarefree for g in self._gens)

    def __len__(self) -> int:
        return len(self._gens)

    def __iter__(self):
        return iter(self._gens)

    def __eq__(self, other) -> bool:
        # Minimal generating sets are unique, so this decides ideal equality.
        return (
            isinstance(other, MonomialIdeal)
            and self._vars == other._vars
            and self._gens == other._gens
        )

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        if self.is_zero:
            return "(0)"
        return "(" + ", ".join(str(g) for g in self._gens) + ")"

    def __repr__(self) -> str:
        return f"MonomialIdeal{self}"

    # -- membership ----------------------------------------------------

    def contains_monomial(self, m: Monomial) -> bool:
        return any(g.divides(m) for g in self._gens)

    def contains_ideal(self, other: "MonomialIdeal") -> bool:
        return all(self.contains_monomial(g) for g in other._gens)

    # -- derived data ---------------------------------------------------

    @property
    def support(self) -> frozenset[int]:
        """Union of the generator supports, as variable indices."""
        out: set[int] = set()
        for g in self._gens:
            out |= g.support
        return frozenset(out)

    def max_exponent(self, idx: int) -> int:
        return max((g.exponent(idx) for g in self._gens), default=0)

    def generator_degrees(self) -> dict[int, int]:
        """Map degree -> number of minimal generators of that degree."""
        out: dict[int, int] = {}
        for g in self._gens:
            out[g.degree] = out.get(g.degree, 0) + 1
        return out


# -- arithmetic on ideals ------------------------------------------------


def ideal_sum(*ideals: MonomialIdeal) -> MonomialIdeal:
    if not ideals:
        raise ValueError("ideal_sum needs at least one ideal")
    variables = ideals[0].variables
    gens: list[Monomial] = []
    for ideal in ideals:
        if ideal.variables != variables:
            raise VariableSetMismatchError("ideal_sum operands over different variable sets")
        gens.extend(ideal.generators)
    return MonomialIdeal(variables, gens)


def colon_by_monomial(ideal: MonomialIdeal, m: Monomial) -> MonomialIdeal:
    """(I : m), generated by g / gcd(g, m) over the generators g of I."""
    if m.variables != ideal.variables:
        raise VariableSetMismatchError("colon operand over a different variable set")
    return MonomialIdeal(
        ideal.variables, (g / g.gcd(m) for g in ideal.generators)
    )


def intersect(a: MonomialIdeal, b: MonomialIdeal) -> MonomialIdeal:
    """I cap J, generated by pairwise lcms of the generators."""
    if a.variables != b.variables:
        raise VariableSetMismatchError("intersect operands over different variable sets")
    return MonomialIdeal(
        a.variables, (g.lcm(h) for g in a.generators for h in b.generators)
    )


def colon_by_ideal(ideal: MonomialIdeal, j: MonomialIdeal) -> MonomialIdeal:
    """(I : J) as the intersection of (I : g) over the generators of J."""
    if j.is_zero:
        raise ZeroIdealError("colon by the zero ideal is undefined")
    parts = [colon_by_monomial(ideal, g) for g in j.generators]
    out = parts[0]
    for p in parts[1:]:
        out = intersect(out, p)
    return out


def product(a: MonomialIdeal, b: MonomialIdeal) -> MonomialIdeal:
    if a.variables != b.variables:
        raise VariableSetMismatchError("product operands over different variable sets")
    return MonomialIdeal(
        a.variables, (g * h for g in a.generators for h in b.generators)
    )


def power(ideal: MonomialIdeal, t: int) -> MonomialIdeal:
    """The t-fold power, t >= 1."""
    if t < 1:
        raise ValueError(f"power exponent must be >= 1, got {t}")
    out = ideal
    for _ in range(t - 1):
        out = product(out, ideal)
    return out


def restrict_to_variables(ideal: MonomialIdeal, indices: Iterable[int]) -> MonomialIdeal:
    """Keep only the generators whose support lies inside `indices`."""
    allowed = frozenset(indices)
    return MonomialIdeal(
        ideal.variables,
        (g for g in ideal.generators if g.support <= allowed),
    )


# -- polarization ---------------------------------------------------------


@dataclass(frozen=True)
class VariableMap:
    """Provenance of polarized variables.

    ``slot_of[k]`` gives (base index, slot number >= 1) for the k-th
    polarized variable; ``slots_per_base[j]`` is the number of slots the
    base variable j received.
    """

    base: VariableSet
    polarized: VariableSet
    slot_of: tuple[tuple[int, int], ...]
    slots_per_base: tuple[int, ...]

    def polar_index(self, base_idx: int, slot: int) -> int:
        if not 1 <= slot <= self.slots_per_base[base_idx]:
            raise IndexError(f"slot {slot} out of range for base index {base_idx}")
        return sum(self.slots_per_base[:base_idx]) + slot - 1


@dataclass(frozen=True)
class Polarization:
    ideal: MonomialIdeal
    variable_map: VariableMap


def polarize(ideal: MonomialIdeal) -> Polarization:
    """Expand every exponent e into e distinct squarefree slot variables.

    The polarized variable for slot k of base variable ``x`` is named
    ``x_k``.  Minimal generating sets stay minimal, so the generator count
    is preserved.
    """
    base = ideal.variables
    slots = tuple(ideal.max_exponent(j) for j in range(len(base)))
    names: list[str] = []
    slot_of: list[tuple[int, int]] = []
    for j, count in enumerate(slots):
        for k in range(1, count + 1):
            names.append(f"{base.names[j]}_{k}")
            slot_of.append((j, k))
    polar_vars = VariableSet(names)
    vmap = VariableMap(base, polar_vars, tuple(slot_of), slots)
    gens = []
    for g in ideal.generators:
        exps: dict[int, int] = {}
        for j, e in g.exponents.items():
            for k in range(1, e + 1):
                exps[vmap.polar_index(j, k)] = 1
        gens.append(Monomial(polar_vars, exps))
    out = MonomialIdeal(polar_vars, gens)
    assert len(out) == len(ideal), "polarization must preserve the generator count"
    return Polarization(out, vmap)


# -- text form ------------------------------------------------------------


def parse_ideal(text: str, variables: VariableSet) -> MonomialIdeal:
    """Parse the canonical ``(g1, g2, ...)`` form; ``(0)`` is the zero ideal."""
    text = text.strip()
    if not (text.startswith("(") and text.endswith(")")):
        raise ParseError(f"ideal text must be parenthesized: {text!r}")
    inner = text[1:-1].strip()
    if not inner or inner == "0":
        return MonomialIdeal.zero(variables)
    gens = [parse_monomial(part, variables) for part in inner.split(",")]
    return MonomialIdeal(variables, gens)
