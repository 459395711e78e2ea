"""Acceptance gate: the eight exit criteria for this toolkit, run end to end.

Every criterion is exact integer arithmetic (no tolerances): regularities
and Betti tables either match or they do not.  Each test prints one
PASS line on success (run with ``pytest -s`` to see them); a failing
criterion fails its test.
"""

from __future__ import annotations

import random
import time
from itertools import product as iter_product

import pytest

from edgereg.betti import betti_table, regularity
from edgereg.constructions import (
    betti_split_power,
    build_colon_structure,
    edge_ideal,
    ordered_power_basis,
)
from edgereg.digraph import make_cycle
from edgereg.ideals import (
    MonomialIdeal,
    colon_by_monomial,
    intersect,
    polarize,
    power,
)
from edgereg.ring import Monomial, VariableSet
from edgereg.verify import (
    CampaignSpec,
    enumerate_instances,
    random_monomial_ideal,
    run_campaign,
    run_reference_examples,
)

from oracles import monomial_product, private_variable_regularity

pytestmark = pytest.mark.acceptance


def _passed(line: str) -> None:
    print(f"\nACCEPTANCE {line}: PASS")


# -- criterion 1: reference instances reproduce exactly ---------------------


def test_criterion_1_reference_instances():
    start = time.monotonic()
    report = run_reference_examples(field="Q")
    elapsed = time.monotonic() - start
    engines = [r.engine_value for r in report.records]
    formulas = [r.formula_value for r in report.records]
    assert engines == [10, 14, 10, 11], f"engine values {engines}"
    assert formulas == [11, 13, 9, 10], f"formula values {formulas}"
    assert all(r.ok for r in report.records)
    assert elapsed <= 600, f"reference batch took {elapsed:.1f}s (limit 600s)"
    _passed(f"1 reference-instances (engine 10/14/10/11, naive 11/13/9/10, {elapsed:.1f}s)")


# -- criterion 2: cycle sweep ------------------------------------------------


CYCLE_SPEC = CampaignSpec(
    family="cycle",
    n_values=(3, 4, 5),
    t_values=(1, 2),
    weight_alphabet=(2, 3),
    seed=0,
    exhaustive_cap=16,   # {2,3}^n exhaustive for n <= 4
    sample_size=10,      # >= 10 seeded samples at n = 5
    field="Q",
)


def test_criterion_2_cycle_sweep():
    report = run_campaign(CYCLE_SPEC)
    mismatches = [r for r in report.records if r.admissible and not r.match]
    skips = [r for r in report.records if r.skipped]
    n5 = {r.weights for r in report.records if r.n == 5}
    assert len({r.weights for r in report.records if r.n == 3}) == 8
    assert len({r.weights for r in report.records if r.n == 4}) == 16
    assert len(n5) >= 10
    assert not skips, f"{len(skips)} skipped instances"
    assert not mismatches, f"mismatches: {[r.instance for r in mismatches]}"
    assert all(r.admissible for r in report.records)
    _passed(f"2 cycle-sweep ({len(report.records)} instances, 0 mismatches)")


# -- criterion 3: forest and unicyclic sweeps --------------------------------


FOREST_SPEC = CampaignSpec(
    family="forest",
    n_values=(2, 3, 4, 5),
    t_values=(1, 2),
    weight_alphabet=(2, 3),
    seed=0,
    exhaustive_cap=16,   # 2^(n-1) <= 16 for n <= 5: fully exhaustive
    field="Q",
)

UNICYCLIC_SPEC = CampaignSpec(
    family="unicyclic",
    n_values=(4, 5),     # 3-cycle plus a pendant path of length 1 or 2
    t_values=(1, 2),
    weight_alphabet=(2, 3),
    seed=0,
    exhaustive_cap=32,   # {2,3}^5 = 32: fully exhaustive
    field="Q",
)


def test_criterion_3_forest_and_unicyclic_sweeps():
    total = 0
    for spec in (FOREST_SPEC, UNICYCLIC_SPEC):
        report = run_campaign(spec)
        mismatches = [r for r in report.records if r.admissible and not r.match]
        assert not [r for r in report.records if r.skipped]
        assert not mismatches, f"{spec.family} mismatches: {[r.instance for r in mismatches]}"
        assert all(r.admissible for r in report.records)
        total += len(report.records)
    _passed(f"3 forest-and-unicyclic-sweep ({total} instances, 0 mismatches)")


# -- criterion 4: polarization invariance ------------------------------------


def _sweep_ideals() -> list[MonomialIdeal]:
    """Every ideal exercised by criteria 1 through 3."""
    out = []
    from edgereg.verify import REFERENCE_EXAMPLES

    for ex in REFERENCE_EXAMPLES:
        out.append(power(edge_ideal(ex.build()), ex.t))
    for spec in (CYCLE_SPEC, FOREST_SPEC, UNICYCLIC_SPEC):
        for inst in enumerate_instances(spec):
            out.append(power(edge_ideal(inst.graph), inst.t))
    return out


def test_criterion_4_polarization_invariance():
    corpus = _sweep_ideals()
    for k in range(50):
        corpus.append(
            random_monomial_ideal(
                random.Random(f"acceptance-polarization:{k}"),
                max_variables=4, max_generators=4, max_exponent=3,
            )
        )
    for ideal in corpus:
        plain = betti_table(ideal, "Q")
        polar = betti_table(polarize(ideal), "Q")
        assert plain.graded_equal(polar), f"polarization changed the table of {ideal}"
    _passed(f"4 polarization-invariance ({len(corpus)} ideals, entrywise equal)")


# -- criterion 5: splitting identity ------------------------------------------


def test_criterion_5_split_identity():
    checked = 0
    for n in (3, 4):
        for t in (1, 2):
            graph = make_cycle([2] * n)
            ideal = power(edge_ideal(graph), t)
            j_part, k_part = betti_split_power(graph, t)
            assert set(j_part.generators) | set(k_part.generators) == set(ideal.generators)
            assert not set(j_part.generators) & set(k_part.generators)
            t_i = betti_table(ideal, "Q")
            t_j = betti_table(j_part, "Q")
            t_k = betti_table(k_part, "Q")
            t_jk = betti_table(intersect(j_part, k_part), "Q")
            keys = set(t_i.entries) | set(t_j.entries) | set(t_k.entries)
            keys |= {(i + 1, j) for (i, j) in t_jk.entries}
            for i, j in sorted(keys):
                rhs = t_j.rank(i, j) + t_k.rank(i, j)
                if i >= 1:
                    rhs += t_jk.rank(i - 1, j)
                assert t_i.rank(i, j) == rhs, f"n={n} t={t} entry ({i},{j})"
            assert t_i.regularity() == max(
                t_j.regularity(), t_k.regularity(), t_jk.regularity() - 1
            ), f"n={n} t={t} regularity rule"
            checked += 1
    _passed(f"5 split-identity ({checked} splits, entrywise + regularity rule)")


# -- criterion 6: ordered-basis structure suite -------------------------------


def test_criterion_6_structure_suite():
    # unique decomposition and strict lex descent: n <= 6, weights {2,3}, t <= 3
    decompositions = 0
    for n in (3, 4, 5, 6):
        weight_pool = list(iter_product((2, 3), repeat=n))
        for weights in weight_pool:
            graph = make_cycle(list(weights))
            for t in (1, 2, 3):
                basis = ordered_power_basis(graph, t)
                monomials = [e.monomial for e in basis]
                assert len(set(monomials)) == len(monomials), (n, weights, t)
                vectors = [e.vector for e in basis]
                assert all(
                    vectors[k] > vectors[k + 1] for k in range(len(vectors) - 1)
                ), (n, weights, t)
                decompositions += len(basis)

    # edge divisibility agrees with the product definition
    from edgereg.constructions import edge_divides

    for n, weights in ((3, (2, 2, 2)), (4, (2, 3, 2, 3)), (5, (2,) * 5)):
        graph = make_cycle(list(weights))
        for t in (2, 3):
            upper = ordered_power_basis(graph, t)
            lower = ordered_power_basis(graph, t - 1)
            singles = ordered_power_basis(graph, 1)
            for e1 in singles:
                for e2 in upper:
                    fast = edge_divides(e1.monomial, 1, e2.monomial, t, graph)
                    brute = any(monomial_product(e1.monomial, m.monomial) == e2.monomial
                                for m in lower)
                    assert fast == brute, (weights, t, str(e1.monomial), str(e2.monomial))

    # colon equality at every index: n <= 5, weights {2,3}, t <= 2
    colons = 0
    for n in (3, 4, 5):
        for weights in iter_product((2, 3), repeat=n):
            graph = make_cycle(list(weights))
            for t in (1, 2):
                basis = ordered_power_basis(graph, t)
                for i in range(1, len(basis)):
                    s = build_colon_structure(graph, t, i)
                    direct = colon_by_monomial(s.tail, s.entry.monomial)
                    assert direct == s.colon_form, (weights, t, i)
                    colons += 1
    _passed(
        f"6 structure-suite ({decompositions} decompositions, {colons} colon identities)"
    )


# -- criterion 7: regularity lemma properties ---------------------------------


def test_criterion_7_regularity_lemmas():
    # principal ideals: regularity equals the generator degree
    vs = VariableSet(["x"])
    for d in range(1, 8):
        assert regularity(MonomialIdeal(vs, [Monomial.from_dense(vs, (d,))])) == d

    # disjoint-support additivity, 20 seeded cases
    for k in range(20):
        a = random_monomial_ideal(random.Random(f"acceptance-add-a:{k}"), max_variables=3)
        b = random_monomial_ideal(random.Random(f"acceptance-add-b:{k}"), max_variables=3)
        names = list(a.variables.names) + [f"y{i + 1}" for i in range(len(b.variables))]
        wide = VariableSet(names)
        offset = len(a.variables)
        merged = MonomialIdeal(
            wide,
            [Monomial.from_dense(wide, g.dense() + (0,) * len(b.variables)) for g in a.generators]
            + [Monomial.from_dense(wide, (0,) * offset + g.dense()) for g in b.generators],
        )
        assert regularity(merged) == regularity(a) + regularity(b) - 1, f"case {k}"

    # disjoint monomial multiple shifts the regularity by its degree
    for k in range(20):
        a = random_monomial_ideal(random.Random(f"acceptance-mul:{k}"), max_variables=3)
        wide = VariableSet(list(a.variables.names) + ["u"])
        d = 1 + k % 4
        u = Monomial.from_dense(wide, (0,) * len(a.variables) + (d,))
        scaled = MonomialIdeal(
            wide,
            [monomial_product(u, Monomial.from_dense(wide, g.dense() + (0,))) for g in a.generators],
        )
        assert regularity(scaled) == regularity(a) + d, f"case {k}"

    # private-variable fast path agrees with the engine wherever it applies
    applicable = 0
    for k in range(40):
        ideal = random_monomial_ideal(
            random.Random(f"acceptance-private:{k}"), max_exponent=1
        )
        fast = private_variable_regularity(ideal)
        if fast is not None:
            assert fast == regularity(ideal), f"case {k}"
            applicable += 1
    assert applicable >= 10
    _passed(f"7 regularity-lemmas (principal, additivity, shift, {applicable} fast-path hits)")


# -- criterion 8: determinism --------------------------------------------------


def test_criterion_8_campaign_determinism():
    spec = CampaignSpec(
        family="cycle", n_values=(3, 5), t_values=(1, 2), weight_alphabet=(2, 3),
        seed=7, exhaustive_cap=8, sample_size=6, field="Q",
    )
    first = run_campaign(spec).canonical_json()
    second = run_campaign(spec).canonical_json()
    assert first == second
    assert first.encode("utf-8") == second.encode("utf-8")
    _passed("8 campaign-determinism (byte-identical canonical reports)")
