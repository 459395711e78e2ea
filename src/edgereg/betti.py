"""Exact multigraded Betti numbers and Castelnuovo-Mumford regularity.

For a monomial ideal I and a multidegree b, the rank of the (i-1)-st
reduced homology of the squarefree slice complex at b is the multigraded
Betti number beta_{i,b}(I).  The table computes one slice per point of the
lcm lattice of the minimal generators; multidegrees outside it contribute
nothing.  The lattice is walked depth first over the variables, each
exponent in ascending order, so its points come in lex order, each with
its slice covers (``_lattice``); a witness per exponent keeps every
prefix on the way to a point.  The table slices each point as the walk
hands it over.  The graded table aggregates by total degree and the
regularity is max{j - i : beta_{i,j} != 0}.

The regularity needs no table.  Only the multidegrees that the
Mayer-Vietoris tree of I emits can carry a Betti number (Saenz-de-Cabezon,
AAECC 20, 2009), and the tree bounds j - i at each of them.  The search
walks the tree of the generators in ascending lex order best first,
building a subtree only when its bound is the highest left.  It slices
every emitted multidegree whose bound exceeds the regularity; of those
whose bound equals it, it slices only the ones that could still lower the
witness's homological index.  Degrees are read off the packed exponent
vectors (``ring._Packing``).

The slice at b, the squarefree tau in supp(b) with x^b / x^tau in I, is the
union of the simplices ``A_g = {j : g_j < b_j}`` over the divisors g of b.
A table covers each lattice point by their nerve: each level of the lattice
walk keeps its mask row (the g with g_j < b_j), and a point ANDs into these
the mask of its divisors; the regularity walk covers its few slices by the A_g
themselves, off the root's packed slots (``_Packing.covers``).  By the nerve
lemma both have one homology, computed by :mod:`edgereg.homology`.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Iterator, Sequence
from itertools import compress

from .errors import ResourceCapError, ZeroIdealError
from .homology import FIELD_Q, _check_field, covered_homology
from .ideals import MonomialIdeal
from .ring import Monomial, _Packing

DEFAULT_LATTICE_CAP = 200_000


def _check_cap(lattice_cap: int) -> None:
    if type(lattice_cap) is not int or lattice_cap < 1:  # bool is refused too
        raise ValueError(f"--lattice-cap (lattice_cap=) must be an int >= 1, got {lattice_cap!r}")


# -- lcm lattice ----------------------------------------------------------


class LcmLattice:
    """All least common multiples of nonempty generator subsets, as
    exponent tuples sorted by (degree, exponents)."""

    __slots__ = ("multidegrees",)

    def __init__(self, multidegrees: tuple[tuple[int, ...], ...]):
        self.multidegrees = multidegrees

    @property
    def size(self) -> int:
        return len(self.multidegrees)


_Masks = tuple[list[dict[int, int]], list[dict[int, int]]]


def _divisor_masks(gens: Sequence[tuple[int, ...]]) -> _Masks:
    """``le[j][e]`` and ``lt[j][e]``: bitmasks of the generators g with
    ``g_j <= e`` and with ``g_j < e``.

    Bit k stands for ``gens[k]``.  Row j has one key per distinct exponent
    of variable j among the generators, so no row outgrows the generators.
    """
    le, lt = [], []
    for j in range(len(gens[0])):
        at: defaultdict[int, int] = defaultdict(int)
        for k, g in enumerate(gens):
            at[g[j]] |= 1 << k
        le_row, lt_row = {}, {}
        below = 0
        for e in sorted(at):
            lt_row[e] = below
            below |= at[e]
            le_row[e] = below
        le.append(le_row)
        lt.append(lt_row)
    return le, lt


def _lattice(masks: _Masks, cap: int) -> Iterator[tuple[list[int], list[int]]]:
    """(b, covers) for each point b of the lcm lattice in lex order, from
    ``masks = _divisor_masks(gens)``: covers are ``D & lt[j][b_j]`` for each
    b_j > 0, D the mask of the generators dividing b, from the row each level
    chose.  b is the walk's live prefix; a caller that keeps a point copies it.

    b is a point exactly when D is nonempty and each b_j > 0 is attained,
    g_j = b_j, by some g in D.  Depth first over the variables, on a stack,
    the walk tries at variable j the keys e of row j in ascending order up to
    the first that keeps all of D, which is attained: ``D &= le[j][e]``, and
    e > 0 needs a witness g in ``D & ~lt[j][e]``.  A witness that D loses is
    replaced, or the branch is dropped, so every prefix kept extends to the
    point lcm(D): about n * |L| prefixes.  The cap fires at point cap + 1.
    """
    le, lt = masks
    n = len(le)
    if not n:  # the unit ideal over no variables
        yield [], []
        return
    # per variable, (e, generators with g_j <= e, with g_j == e > 0, with g_j < e), ascending in e
    rows = [[(e, m, e and m & ~lt_row[e], lt_row[e]) for e, m in sorted(le_row.items())]
            for le_row, lt_row in zip(le, lt)]
    # the prefix, per b_j > 0 the generators attaining it, and the rows lt[j][b_j]
    b, need, low = [0] * n, [0] * n, [0] * n
    # per level: keys left, D above (-1: all), OR of the witnesses above, and their list
    its, divs, seen, wits = [iter(rows[0])] * n, [-1] * n, [0] * n, [[0] * n] * n
    points, j, last = 0, 0, n - 1
    while j >= 0:
        above, wit = divs[j], wits[j]
        for e, m, at, below in its[j]:
            d = above & m
            if d == above:  # so some g of D has g_j = e, and no later e is attained
                its[j], kept = iter(()), seen[j]
                break
            if not d or e and not d & at:
                continue
            kept = seen[j] & d
            gone = seen[j] ^ kept  # the witnesses that D lost
            if not gone:
                break
            wit = wit[:]  # the level above keeps its own
            for i in range(j):
                if wit[i] & gone:
                    r = d & need[i]
                    if not r:
                        break  # no generator of D attains b_i
                    wit[i] = r & -r
                    kept |= wit[i]
            else:
                break
            wit = wits[j]
        else:
            j -= 1
            continue
        b[j], low[j] = e, below
        if j == last:
            points += 1
            if points > cap:
                raise ResourceCapError(f"lcm lattice exceeds the size cap {cap}; "
                                       f"raise it with --lattice-cap (lattice_cap=) to proceed")
            yield b, [d & r for r in compress(low, b)]
            continue
        w = d & at
        w &= -w
        wit[j], need[j] = w, at
        j += 1
        its[j], divs[j], seen[j], wits[j] = iter(rows[j]), d, kept | w, wit


def lcm_lattice(ideal: MonomialIdeal) -> LcmLattice:
    if ideal.is_zero:
        raise ZeroIdealError("the zero ideal has no lcm lattice")
    points = (tuple(b) for b, _ in _lattice(_divisor_masks(ideal._exps), DEFAULT_LATTICE_CAP))
    return LcmLattice(tuple(sorted(points, key=lambda b: (sum(b), b))))


# -- Betti tables ----------------------------------------------------------


class BettiTable:
    """Graded and multigraded Betti numbers over a fixed coefficient field.

    Every rank held is at least 1, and beta_0 holds each minimal generator.
    """

    __slots__ = ("field", "entries", "multigraded")

    def __init__(self, field: str, multigraded: dict[tuple[int, Monomial], int]):
        entries: dict[tuple[int, int], int] = {}
        for (i, b), rank in multigraded.items():
            key = (i, b.degree)
            entries[key] = entries.get(key, 0) + rank
        self.field = field
        self.entries = entries
        self.multigraded = dict(multigraded)

    def rank(self, i: int, j: int) -> int:
        return self.entries.get((i, j), 0)

    def nonzero(self) -> list[tuple[int, int, int]]:
        return [(i, j, r) for (i, j), r in sorted(self.entries.items())]

    def regularity(self) -> int:
        return max(j - i for i, j in self.entries)

    def graded_equal(self, other: "BettiTable") -> bool:
        return self.entries == other.entries

    def to_json_dict(self) -> dict:
        return {
            "field": self.field,
            "entries": [
                {"i": i, "j": j, "rank": r} for (i, j, r) in self.nonzero()
            ],
        }

    def text_grid(self) -> str:
        """Aligned grid, rows by degree j, columns by homological index i."""
        nz = self.nonzero()
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


def _walk_slice(pk: _Packing, slots: int, k: int, b: int, field: str) -> dict[int, int]:
    """{d: rank of the reduced H_d of the slice at packed b}, nonzero ranks only,
    in ascending d, from the A_g of the k generators in ``slots``; beta_{d+1,b}
    is the rank at d."""
    return covered_homology(pk.covers(slots, b, k), field)


def betti_table(
    ideal: MonomialIdeal,
    field: str = FIELD_Q,
    lattice_cap: int = DEFAULT_LATTICE_CAP,
) -> BettiTable:
    """The full graded/multigraded Betti table of a nonzero monomial ideal.

    ``lattice_cap`` caps the points of the lcm lattice.
    """
    if ideal.is_zero:
        raise ZeroIdealError("Betti table of the zero ideal is undefined")
    _check_field(field)
    _check_cap(lattice_cap)
    multigraded: dict[tuple[int, Monomial], int] = {}
    for b, covers in _lattice(_divisor_masks(ideal._exps), lattice_cap):
        # the divisors that do not attain b_j span a simplex; these cover the slice's nerve
        hom = covered_homology(covers, field)
        if hom:
            # b is a join of validated generator exponents, so it needs no re-check
            bm = Monomial._new(ideal.variables, tuple(b))
            for d, r in hom.items():
                multigraded[(d + 1, bm)] = r
    return BettiTable(field, multigraded)


def _walk(ideal: MonomialIdeal, field: str, lattice_cap: int, ties: bool) -> tuple[int, int]:
    """(reg, -i) for the least witness (i, reg + i) if ``ties``, else for
    some pair achieving reg; ``lattice_cap`` caps the distinct tree nodes built.

    A node at depth d with generators m_1..m_r emits (d, m_k) for every k;
    for k >= 2 its child at depth d + 1 is the minimalized
    ``(lcm(m_i, m_k) : i < k)``, which generates J ∩ (m_k) for
    J = (m_1..m_{k-1}).  By the Mayer-Vietoris sequence of J + (m_k),
    beta_{i,b} != 0 only if (i, b) is emitted, so j - i <= |b| - d_min(b)
    with j = |b| and d_min(b) the least depth emitting b.

    Every node lists its generators in ascending lex order, the order of
    their packed ints.  The argument holds for any order, but in this one
    the prefix lcms below grow slowly, so more children wait low and are
    never built.  A child's k lcms are one SWAR step on its node's packed
    slots (``_Packing.joins``), made when the node's first child is popped.

    The walk is best first over buckets of that bound, kept only for the
    bounds in use.  An emission (d, m) waits at |m| - d, and the child at
    k waits unbuilt at |lcm(m_1..m_k)| - (d + 1), since every generator
    below it divides that prefix lcm.  A degree is the packed int modulo
    ``2**width - 1``: each field weighs ``2**width ≡ 1``, and the fields
    are sized so that the sum stays below the modulus.  Both bounds are at
    most the bound of the item that pushes them, so pushes never go above
    the bucket B being drained, and every emission bounded above B is
    sliced before B opens: any slice in B gives j - i <= B.  So the value
    is final once the best j - i reaches B, where the walk stops without
    ``ties``; with them it stops at the first bucket below the best.  An
    item bounded below where the walk stops would never be popped, and as
    the best only grows, it is not pushed.  Minimalizing can
    leave a child's lcm below its prefix lcm, so a deeper copy of a node
    may be built first; a node met again shallower is built again there.
    So every b with |b| - d_min(b) > reg is sliced, and none below reg.

    Ties, searched with ``ties``.  With the best at (reg, -w), reg is final
    in the bucket at reg, and a tie there can only lower w.  So there an
    emission m is sliced only if |m| < w + reg, since its one tie has
    i = |m| - reg, and a child at depth d is built only if d < w, since a
    tie below it has i >= d.  This is exact: for the least witness (i, b),
    either |b| - d_min(b) > reg and b is sliced as above, or i = d_min(b)
    and every item on the path to b has depth <= i, skipped only once w <= i.
    """
    if ideal.is_zero:
        raise ZeroIdealError("regularity of the zero ideal is undefined")
    _check_field(field)
    _check_cap(lattice_cap)
    gens = ideal._exps
    pk = _Packing(len(gens[0]), gens)
    guards, shift, mod = pk.guards, pk.shift, pk.mod
    root = tuple(sorted(map(pk.pack, gens)))  # ascending lex order
    # buckets[bound]: packed emissions m, and (child depth, parent, k) of unbuilt children
    buckets: defaultdict[int, list] = defaultdict(list)
    seen: dict[tuple[int, ...], int] = {}  # node: least depth built
    sliced: set[int] = set()
    slots = {root: pk.slots(root)}  # node: _Packing.slots once a child is popped; root: for slices
    best = (-1, 0)  # (j - i, -i) of the best pair so far
    lift = 0 if ties else 1  # an item bounded below best[0] + lift cannot change the answer

    def build(d: int, node: tuple[int, ...]) -> None:
        seen[node] = d
        if len(seen) > lattice_cap:
            raise ResourceCapError(f"Mayer-Vietoris tree exceeds the node cap {lattice_cap}; "
                                   f"raise it with --lattice-cap (lattice_cap=) to proceed")
        floor = best[0] + lift  # an item bounded below it is never popped
        prefix = node[0]
        for k, m in enumerate(node):
            if m not in sliced:
                bound = m % mod - d  # the packed degree
                assert bound >= 0, "each tree level raises the degree"
                if bound >= floor:
                    buckets[bound].append(m)
            if k:
                # the running prefix lcm: the SWAR join of _Packing.joins on one slot
                c = guards & ~((prefix | guards) - m)
                prefix ^= (m ^ prefix) & (c - (c >> shift))
                bound = prefix % mod - d - 1
                assert bound >= 0, "each tree level raises the degree"
                if bound >= floor:
                    buckets[bound].append((d + 1, node, k))

    build(0, root)
    while buckets:
        bound = max(buckets)  # pushes never go above the bucket being drained
        if bound < best[0] + lift:  # see the stop rule above
            break
        bucket = buckets[bound]
        while bucket and bound >= best[0] + lift:  # without ties, stop once the value is final
            item = bucket.pop()
            tie = bound == best[0]  # see Ties above
            if type(item) is int:
                if item not in sliced and not (tie and item % mod >= best[0] - best[1]):
                    sliced.add(item)
                    for h in _walk_slice(pk, slots[root], len(root), item, field):
                        best = max(best, (item % mod - h - 1, -h - 1))  # beta_{h+1,item} != 0
                continue
            d, node, k = item
            if tie and d >= -best[1]:
                continue
            packed = slots.get(node) or slots.setdefault(node, pk.slots(node))
            child = tuple(pk.minimal(pk.joins(packed, node[k], k)))  # ascending lex order
            if seen.get(child, d + 1) > d:
                build(d, child)
        del buckets[bound]
    return best


def regularity_witness(
    ideal: MonomialIdeal,
    field: str = FIELD_Q,
    lattice_cap: int = DEFAULT_LATTICE_CAP,
) -> tuple[int, tuple[int, int]]:
    """(regularity, the lexicographically least (i, j) achieving it),
    without a table; ``lattice_cap`` caps the distinct tree nodes built."""
    best = _walk(ideal, field, lattice_cap, True)
    return best[0], (-best[1], best[0] - best[1])


def regularity(
    ideal: MonomialIdeal,
    field: str = FIELD_Q,
    lattice_cap: int = DEFAULT_LATTICE_CAP,
) -> int:
    """max{j - i : beta_{i,j} != 0}; ``lattice_cap`` caps tree nodes."""
    return _walk(ideal, field, lattice_cap, False)[0]

