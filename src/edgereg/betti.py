"""Exact multigraded Betti numbers and Castelnuovo-Mumford regularity.

For a monomial ideal I and a multidegree b in the lcm lattice of its
minimal generators, the rank of the (i-1)-st reduced homology of the
squarefree slice complex at b is the multigraded Betti number
beta_{i,b}(I); multidegrees outside the lattice contribute nothing.  The
graded table aggregates by total degree and the regularity is
max{j - i : beta_{i,j} != 0}.

The slice at b is the complex of squarefree vectors tau inside supp(b)
with x^b / x^tau still in I.  It is covered by the full simplices
``A_g = {j : deg_j(g) < deg_j(b)}`` over the generators g dividing b, so
its homology is computed through the covered-complex pipeline in
:mod:`edgereg.homology` without materializing faces of large slices.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache

from .errors import NotSquarefreeError, ResourceCapError, ZeroIdealError
from .homology import FIELD_Q, _check_field, covered_homology
from .ideals import MonomialIdeal
from .ring import Monomial, VariableSet

DEFAULT_LATTICE_CAP = 200_000


# -- lcm lattice ----------------------------------------------------------


@dataclass(frozen=True)
class LcmLattice:
    """All least common multiples of nonempty generator subsets, as
    exponent tuples sorted by (degree, exponents)."""

    multidegrees: tuple[tuple[int, ...], ...]

    @property
    def size(self) -> int:
        return len(self.multidegrees)


def _dense_generators(ideal: MonomialIdeal) -> list[tuple[int, ...]]:
    return [g.dense() for g in ideal.generators]


def _lattice_tuples(gens: list[tuple[int, ...]], cap: int) -> list[tuple[int, ...]]:
    """All lcms of nonempty subsets of gens, sorted by (degree, exponents).

    Each exponent vector is packed into one int: one field per variable,
    every field one guard bit wider than the largest exponent.  The guard
    bits of ``(b | guards) - g`` then mark the fields where b >= g, and a
    join is the SWAR maximum ``b ^ ((g ^ b) & m)`` with ``m`` the value bits
    of the fields where g > b.  Vectors are unpacked once, at the end.
    """
    nvars = len(gens[0])
    shift = max((e for g in gens for e in g), default=0).bit_length()
    width = shift + 1
    offsets = range(0, nvars * width, width)
    guards = sum(1 << (off + shift) for off in offsets)
    value_mask = (1 << shift) - 1
    lattice: set[int] = set()
    for g in gens:
        g = sum(e << off for e, off in zip(g, offsets))
        new = {g}
        for b in lattice:
            c = guards & ~((b | guards) - g)  # guard bits of the fields where g > b
            new.add(b ^ ((g ^ b) & (c - (c >> shift))))
        lattice |= new
        if len(lattice) > cap:
            raise ResourceCapError(
                f"lcm lattice exceeds the size cap {cap}; "
                f"raise it with --lattice-cap (lattice_cap=) to proceed"
            )
    tuples = [tuple([(b >> off) & value_mask for off in offsets]) for b in lattice]
    return sorted(tuples, key=lambda b: (sum(b), b))


def lcm_lattice(ideal: MonomialIdeal, cap: int = DEFAULT_LATTICE_CAP) -> LcmLattice:
    if ideal.is_zero:
        raise ZeroIdealError("the zero ideal has no lcm lattice")
    return LcmLattice(tuple(_lattice_tuples(_dense_generators(ideal), cap)))


# -- Betti tables ----------------------------------------------------------


class BettiTable:
    """Graded and multigraded Betti numbers over a fixed coefficient field."""

    __slots__ = ("variables", "field", "entries", "multigraded")

    def __init__(
        self,
        variables: VariableSet,
        field: str,
        multigraded: dict[tuple[int, Monomial], int],
    ):
        entries: dict[tuple[int, int], int] = {}
        for (i, b), rank in multigraded.items():
            key = (i, b.degree)
            entries[key] = entries.get(key, 0) + rank
        self.variables = variables
        self.field = field
        self.entries = entries
        self.multigraded = dict(multigraded)

    def rank(self, i: int, j: int) -> int:
        return self.entries.get((i, j), 0)

    def nonzero(self) -> list[tuple[int, int, int]]:
        return [(i, j, r) for (i, j), r in sorted(self.entries.items()) if r]

    def max_homological_index(self) -> int:
        return max(i for (i, _j), r in self.entries.items() if r)

    def regularity(self) -> int:
        return max(j - i for (i, j), r in self.entries.items() if r)

    def regularity_witness(self) -> tuple[int, int]:
        """The lexicographically least (i, j) achieving the regularity."""
        reg = self.regularity()
        return min((i, j) for (i, j), r in self.entries.items() if r and j - i == reg)

    def generator_degrees(self) -> dict[int, int]:
        return {j: r for (i, j), r in sorted(self.entries.items()) if i == 0 and r}

    def graded_equal(self, other: "BettiTable") -> bool:
        mine = {k: r for k, r in self.entries.items() if r}
        theirs = {k: r for k, r in other.entries.items() if r}
        return mine == theirs

    def to_json_dict(self) -> dict:
        return {
            "field": self.field,
            "entries": [
                {"i": i, "j": j, "rank": r} for (i, j, r) in self.nonzero()
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)

    def text_grid(self) -> str:
        """Aligned grid, rows by degree j, columns by homological index i."""
        nz = self.nonzero()
        if not nz:
            return "(empty table)"
        imax = max(i for i, _, _ in nz)
        jmin = min(j for _, j, _ in nz)
        jmax = max(j for _, j, _ in nz)
        width = max(len(str(r)) for _, _, r in nz)
        width = max(width, len(str(imax)), len(str(jmax)), 2)
        head = " j\\i |" + "".join(f" {i:>{width}}" for i in range(imax + 1))
        lines = [head, "-" * len(head)]
        for j in range(jmin, jmax + 1):
            row = f"{j:>4} |"
            for i in range(imax + 1):
                r = self.rank(i, j)
                row += f" {r if r else '.':>{width}}"
            lines.append(row)
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"BettiTable(field={self.field}, nonzero={len(self.nonzero())})"


def _divisor_masks(gens: list[tuple[int, ...]]) -> list[list[int]]:
    """``le[j][e]``: bitmask of the generators g with ``g_j <= e``.

    Bit k stands for ``gens[k]``.  Row j runs to one past the largest
    exponent of variable j; its last two entries hold every generator.
    """
    le = []
    for j in range(len(gens[0])):
        row = [0] * (max(g[j] for g in gens) + 2)
        for k, g in enumerate(gens):
            row[g[j]] |= 1 << k
        for e in range(1, len(row)):
            row[e] |= row[e - 1]
        le.append(row)
    return le


def _slice_covers(le: list[list[int]], b: tuple[int, ...]) -> list[int]:
    """Divisor-side cover masks of the slice at b, over generator bits.

    The vertices are the generators dividing b, ``AND_j le[j][b_j]``; for
    each variable j in supp(b) the divisors that do not attain deg_j(b),
    ``divisors & le[j][b_j - 1]``, span a full simplex, and these simplices
    cover the (nerve-dual) slice complex.  Lattice points never run past a
    row; an exponent that does acts as one past every generator's, so it
    is clamped to the row's last entry.
    """
    try:
        divisors = -1
        for row, e in zip(le, b):
            divisors &= row[e]
        return [divisors & row[e - 1] for row, e in zip(le, b) if e]
    except IndexError:
        return _slice_covers(le, tuple(min(e, len(row) - 1) for row, e in zip(le, b)))


def _slice_betti(le: list[list[int]], b: tuple[int, ...], field: str) -> dict[int, int]:
    """{homological index i: beta_{i,b}} for one lattice multidegree."""
    hom = covered_homology(_slice_covers(le, b), field)
    return {d + 1: r for d, r in hom.items() if r}


@lru_cache(maxsize=4096)
def _betti_multidegrees(
    gens: tuple[tuple[int, ...], ...],
    field: str,
    lattice_cap: int,
) -> tuple[tuple[tuple[int, ...], tuple[tuple[int, int], ...]], ...]:
    gen_list = list(gens)
    le = _divisor_masks(gen_list)
    out = []
    for b in _lattice_tuples(gen_list, lattice_cap):
        ranks = _slice_betti(le, b, field)
        if ranks:
            out.append((b, tuple(sorted(ranks.items()))))
    return tuple(out)


def betti_table(
    ideal: MonomialIdeal,
    field: str = FIELD_Q,
    lattice_cap: int = DEFAULT_LATTICE_CAP,
) -> BettiTable:
    """The full graded/multigraded Betti table of a nonzero monomial ideal."""
    if ideal.is_zero:
        raise ZeroIdealError("Betti table of the zero ideal is undefined")
    _check_field(field)
    per_b = _betti_multidegrees(tuple(_dense_generators(ideal)), field, lattice_cap)
    multigraded: dict[tuple[int, Monomial], int] = {}
    for b, ranks in per_b:
        bm = Monomial.from_dense(ideal.variables, b)
        for i, r in ranks:
            multigraded[(i, bm)] = r
    return BettiTable(ideal.variables, field, multigraded)


def regularity(
    ideal: MonomialIdeal,
    field: str = FIELD_Q,
    lattice_cap: int = DEFAULT_LATTICE_CAP,
) -> int:
    """max{j - i : beta_{i,j} != 0}."""
    return betti_table(ideal, field, lattice_cap).regularity()


def private_variable_regularity(ideal: MonomialIdeal) -> int | None:
    """Fast path for squarefree ideals whose generators all own a variable.

    If every minimal generator contains a variable dividing no other
    generator, the regularity is |supp(I)| - |G(I)| + 1.  Returns None
    when the fast path does not apply.
    """
    if ideal.is_zero:
        raise ZeroIdealError("regularity of the zero ideal is undefined")
    if not ideal.is_squarefree:
        raise NotSquarefreeError("private-variable regularity needs a squarefree ideal")
    gens = ideal.generators
    for g in gens:
        private = False
        for v in g.support:
            if all(other is g or v not in other.support for other in gens):
                private = True
                break
        if not private:
            return None
    return len(ideal.support) - len(gens) + 1


def compare_tables(a: BettiTable, b: BettiTable) -> list[tuple[int, int, int, int]]:
    """Entrywise differences [(i, j, rank_a, rank_b)]; empty means equal."""
    keys = set(a.entries) | set(b.entries)
    out = []
    for i, j in sorted(keys):
        ra, rb = a.rank(i, j), b.rank(i, j)
        if ra != rb:
            out.append((i, j, ra, rb))
    return out


def has_linear_resolution(table: BettiTable) -> bool:
    """All generators in one degree d and beta_{i,j} = 0 unless j = d + i."""
    degs = table.generator_degrees()
    if len(degs) != 1:
        return False
    d = next(iter(degs))
    return all(j == d + i for (i, j), r in table.entries.items() if r)
