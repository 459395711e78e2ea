"""Independent output check: the Euler characteristic of the Taylor complex.

The Taylor complex of a monomial ideal I with generators G is a free
resolution of I (not minimal in general) whose basis in homological
degree i is the set of (i+1)-subsets of G, each in multidegree lcm(S).
Euler characteristics do not depend on the resolution, so at every
multidegree b

    sum_i (-1)^i beta_{i,b}(I) = sum over nonempty S in G with lcm(S) = b
                                 of (-1)^(|S|-1),

the coefficient of x^b in the numerator of the K-polynomial (Bigatti,
"Computation of Hilbert-Poincare series", JPAA 1997).  The right-hand side
is computed here by a subset-lcm recursion that shares no code with the
homology or rank pipeline of edgereg, so it can catch errors there; it
cannot catch errors that cancel across homological degrees.
"""

from __future__ import annotations


def taylor_euler(gens: list[tuple[int, ...]]) -> dict[tuple[int, ...], int]:
    """{b: signed count of generator subsets with lcm b}, zeros dropped."""
    acc: dict[tuple[int, ...], int] = {}
    for g in gens:
        # subsets containing g: {g} itself, and S + {g} for every earlier
        # nonempty S, which flips the sign and moves lcm(S) to lcm(S, g)
        step = {g: 1}
        for b, count in acc.items():
            joined = tuple(map(max, b, g))
            step[joined] = step.get(joined, 0) - count
        for b, count in step.items():
            acc[b] = acc.get(b, 0) + count
    return {b: c for b, c in acc.items() if c}


def table_euler(table) -> dict[tuple[int, ...], int]:
    """{b: sum_i (-1)^i beta_{i,b}} from an edgereg BettiTable, zeros dropped."""
    acc: dict[tuple[int, ...], int] = {}
    for (i, b), rank in table.multigraded.items():
        key = b.dense()
        acc[key] = acc.get(key, 0) + (-rank if i % 2 else rank)
    return {b: c for b, c in acc.items() if c}


def euler_mismatches(gens: list[tuple[int, ...]], table) -> list[tuple[int, ...]]:
    """Multidegrees where the table's Euler characteristic is wrong."""
    want = taylor_euler(gens)
    got = table_euler(table)
    return sorted(b for b in want.keys() | got.keys() if want.get(b, 0) != got.get(b, 0))
