from __future__ import annotations

import json
import random

import pytest
from hypothesis import strategies as st

from edgereg.ideals import MonomialIdeal
from edgereg.ring import Monomial, VariableSet, parse_monomial


def variable_set(n: int) -> VariableSet:
    return VariableSet([f"x{i + 1}" for i in range(n)])


@st.composite
def monomials(draw, n_vars: int | None = None, max_exp: int = 3):
    n = n_vars if n_vars is not None else draw(st.integers(1, 4))
    variables = variable_set(n)
    exps = draw(st.lists(st.integers(0, max_exp), min_size=n, max_size=n))
    return Monomial.from_dense(variables, exps)


@st.composite
def nonunit_monomials(draw, n_vars: int | None = None, max_exp: int = 3):
    m = draw(monomials(n_vars=n_vars, max_exp=max_exp))
    if not m.degree:
        m = parse_monomial(m.variables.names[0], m.variables)
    return m


@st.composite
def ideals(draw, n_vars: int | None = None, max_gens: int = 4, max_exp: int = 3):
    n = n_vars if n_vars is not None else draw(st.integers(1, 4))
    variables = variable_set(n)
    count = draw(st.integers(1, max_gens))
    gens = []
    for _ in range(count):
        exps = draw(
            st.lists(st.integers(0, max_exp), min_size=n, max_size=n).filter(any)
        )
        gens.append(Monomial.from_dense(variables, exps))
    return MonomialIdeal(variables, gens)


@st.composite
def ideal_pairs(draw, n_vars: int = 3, max_gens: int = 3, max_exp: int = 3):
    """Two nonzero ideals over the same variable set."""
    variables = variable_set(n_vars)

    def gen_list():
        count = draw(st.integers(1, max_gens))
        out = []
        for _ in range(count):
            exps = draw(
                st.lists(st.integers(0, max_exp), min_size=n_vars, max_size=n_vars).filter(any)
            )
            out.append(Monomial.from_dense(variables, exps))
        return out

    return MonomialIdeal(variables, gen_list()), MonomialIdeal(variables, gen_list())


def seeded_random_ideal(seed: str, max_variables=4, max_generators=4, max_exponent=3) -> MonomialIdeal:
    from edgereg.verify import random_monomial_ideal

    return random_monomial_ideal(
        random.Random(seed),
        max_variables=max_variables,
        max_generators=max_generators,
        max_exponent=max_exponent,
    )


@pytest.fixture
def c3():
    from edgereg.digraph import make_cycle

    return make_cycle([2, 2, 2])


def write_graph(graph, path) -> str:
    """Write graph as a JSON graph file, the format ``load_graph`` reads."""
    vertices = [{"name": v, "weight": graph.weight(v)} for v in graph.vertex_names]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"vertices": vertices, "edges": [list(e) for e in graph.edges]}, fh)
    return str(path)
