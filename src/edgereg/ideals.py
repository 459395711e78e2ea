"""Monomial ideals with an eagerly minimalized generating set.

Every constructor reduces the given generators to the unique minimal
generating set (no generator divides another), sorted in descending
graded-lex order for deterministic output.  The zero ideal has no
generators; the unit ideal is generated by the unit monomial.  Generators
are kept as dense exponent tuples and minimalized on the packed ints of
``ring._Packing``, the kernel the Mayer-Vietoris tree in ``betti`` uses.
"""

from __future__ import annotations

from typing import Iterable

from .errors import ParseError, VariableSetMismatchError
from .ring import Monomial, VariableSet, _check_degree, _check_power, _check_same_ring, _Packing
from .ring import _text, parse_monomial

Vector = tuple[int, ...]


def _minimal(pk: _Packing, packed: Iterable[int]) -> tuple[Vector, ...]:
    """The vectors of the packed ints that no other one divides, in
    descending (degree, lex) order."""
    kept = pk.minimal(packed)[::-1]  # descending lex
    kept.sort(key=pk.mod.__rmod__, reverse=True)  # stable, so lex stays within a degree
    return tuple([pk.unpack(b) for b in kept])


def _minimalize(n: int, vectors: list[Vector]) -> tuple[Vector, ...]:
    pk = _Packing(n, vectors)
    return _minimal(pk, set(map(pk.pack, vectors)))


class MonomialIdeal:
    """A finite set of monomial generators over a shared variable set.

    The minimal generators are stored as dense exponent tuples; their
    ``Monomial`` objects are built on first access.
    """

    __slots__ = ("_vars", "_exps", "_gens")

    def __init__(self, variables: VariableSet, generators: Iterable[Monomial] = ()):
        vectors = []
        for g in generators:
            if g.variables != variables:
                raise VariableSetMismatchError(
                    f"generator {g} lives over {g.variables.names}, "
                    f"not {variables.names}"
                )
            vectors.append(g.dense())
        self._vars, self._exps = variables, _minimalize(len(variables), vectors)
        self._gens: tuple[Monomial, ...] | None = None

    @classmethod
    def _of(cls, variables: VariableSet, exps: tuple[Vector, ...]) -> "MonomialIdeal":
        """The ideal of already minimal, ordered exponent tuples."""
        ideal = cls.__new__(cls)
        ideal._vars, ideal._exps, ideal._gens = variables, exps, None
        return ideal

    @classmethod
    def zero(cls, variables: VariableSet) -> "MonomialIdeal":
        return cls._of(variables, ())

    @property
    def variables(self) -> VariableSet:
        return self._vars

    @property
    def generators(self) -> tuple[Monomial, ...]:
        if self._gens is None:
            self._gens = tuple(Monomial.from_dense(self._vars, v) for v in self._exps)
        return self._gens

    @property
    def is_zero(self) -> bool:
        return not self._exps

    def __len__(self) -> int:
        return len(self._exps)

    def __eq__(self, other) -> bool:
        # Minimal generating sets are unique, so this decides ideal equality.
        return (
            isinstance(other, MonomialIdeal)
            and self._vars == other._vars
            and self._exps == other._exps
        )

    def __hash__(self) -> int:
        return hash((self._vars, self._exps))

    def __str__(self) -> str:
        if self.is_zero:
            return "(0)"
        names = self._vars.names
        return "(" + ", ".join(_text(names, v) for v in self._exps) + ")"

    def __repr__(self) -> str:
        return f"MonomialIdeal{self}"


# -- arithmetic on ideals ------------------------------------------------


def ideal_sum(*ideals: MonomialIdeal) -> MonomialIdeal:
    if not ideals:
        raise ValueError("ideal_sum needs at least one ideal")
    variables = _check_same_ring(*ideals)
    vectors = [v for ideal in ideals for v in ideal._exps]
    return MonomialIdeal._of(variables, _minimalize(len(variables), vectors))


def _colon(a: Vector, b: Vector) -> Vector:
    """The exponents ``a - min(a, b)`` of the generator of ``(x^a) : x^b``."""
    return tuple([x - y if x > y else 0 for x, y in zip(a, b)])


def colon_by_monomial(ideal: MonomialIdeal, m: Monomial) -> MonomialIdeal:
    """(I : m), generated by g / gcd(g, m) over the generators g of I."""
    variables = _check_same_ring(ideal, m)
    b = m.dense()
    vectors = [_colon(g, b) for g in ideal._exps]
    return MonomialIdeal._of(variables, _minimalize(len(variables), vectors))


def intersect(a: MonomialIdeal, b: MonomialIdeal) -> MonomialIdeal:
    """I cap J, generated by pairwise lcms of the generators."""
    variables = _check_same_ring(a, b)
    vectors = [tuple(map(max, g, h)) for g in a._exps for h in b._exps]
    return MonomialIdeal._of(variables, _minimalize(len(variables), vectors))


def product(a: MonomialIdeal, b: MonomialIdeal) -> MonomialIdeal:
    variables = _check_same_ring(a, b)
    if a.is_zero or b.is_zero:
        return MonomialIdeal.zero(variables)
    pk = _Packing(len(variables), a._exps + b._exps, 2)
    pa, pb = list(map(pk.pack, a._exps)), [] if a is b else list(map(pk.pack, b._exps))
    # a square (pb empty), as power forms it, sums each unordered pair once
    exps = _minimal(pk, {g + h for i, g in enumerate(pa) for h in (pb or pa[i:])})
    _check_degree(sum(exps[0]))  # the first generator has the top degree
    return MonomialIdeal._of(variables, exps)


def power(ideal: MonomialIdeal, t: int) -> MonomialIdeal:
    """The t-fold power, t >= 1, by repeated squaring.

    The bits of t are read from the top: each one squares the power so
    far, and a set bit multiplies it by the ideal once more, so at most
    2 * floor(log2 t) products are formed, each of a power I^s with s <= t.
    """
    _check_power(t)
    if ideal.is_zero:
        return ideal
    _check_degree(t * sum(ideal._exps[-1]))  # every generator has degree >= t * the least
    if len(ideal) == 1:  # a principal ideal, (1) among them
        return MonomialIdeal._of(ideal._vars, (tuple([t * e for e in ideal._exps[0]]),))
    out = ideal
    for bit in bin(t)[3:]:
        out = product(out, out)
        if bit == "1":
            out = product(out, ideal)
    return out


# -- polarization ---------------------------------------------------------


def polarize(ideal: MonomialIdeal) -> MonomialIdeal:
    """Expand every exponent e into e distinct squarefree slot variables.

    Base variable ``x`` gets one slot per unit of its largest exponent, and
    the polarized variable for slot k is named ``x_k``.  Polarizing keeps
    divisibility, degree and lex order, so the generators stay minimal and
    in descending graded-lex order.
    """
    base = ideal.variables
    slots = [max(column) for column in zip(*ideal._exps)]
    polar_vars = VariableSet(
        f"{name}_{k}" for name, count in zip(base.names, slots) for k in range(1, count + 1)
    )
    gens = []
    for v in ideal._exps:
        polar: list[int] = []
        for e, count in zip(v, slots):
            polar += [1] * e + [0] * (count - e)
        gens.append(tuple(polar))
    return MonomialIdeal._of(polar_vars, tuple(gens))


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
