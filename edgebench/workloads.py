"""The benchmark's workloads: seeded operation lists, their execution and checks.

Each workload is a list of operations made from the seed alone; edgereg
sees only the generated inputs.  An operation is one call chain into
edgereg's public functions.  ``execute`` runs it through an ``api``
namespace, so the traced run can hand in wrapped callables while the
untraced run calls the library functions themselves.  ``check`` and
``canonical`` run outside the timed region.

Why the seed varies what it varies:

* cycle-ladder: the lcm lattice of a weighted oriented cycle power, and
  with it the cost, is fixed by the number of weight-3 vertices to within
  3% (C6 at t=3 has 19,900 points with none, 23,554 with one and 48,635
  with six).  Every cycle therefore carries exactly one weight-3 vertex;
  the seed places it and orders the variables.
* squarefree-rank: independently drawn ideals of this shape cost from
  0.02 s to 5 s each, so a run-sized sample would vary several-fold
  between seeds.  The ideals come from a fixed corpus; the seed relabels
  their variables, which changes every input the engine sees but not its
  isomorphism type.
* verify-sweep: the seed is the campaigns' own sampling seed, which picks
  the sampled 5-cycle weights and the 25 raw ideals.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if not (SRC / "edgereg" / "__init__.py").is_file():
    raise ImportError(f"no edgereg sources under {SRC}")
sys.path.insert(0, str(SRC))

from edgereg import betti, constructions, formulas, ideals, verify  # noqa: E402
from edgereg.digraph import WeightedDigraph  # noqa: E402
from edgereg.ideals import MonomialIdeal  # noqa: E402
from edgereg.ring import Monomial, VariableSet  # noqa: E402
from edgereg.verify import CampaignSpec  # noqa: E402

from euler import euler_mismatches  # noqa: E402

FIELD = "Q"

# (n, t) rungs.  C6 at t=4 (102,737 lattice points), C7 at t=3 (104,648)
# and C7 at t=4 (over the 200,000 cap) would each outweigh the rest.
LADDER_RUNGS = ((5, 2), (5, 3), (5, 4), (6, 2), (6, 3), (7, 2))

# 11 variables cap every survivor complex at 11 vertices, so the largest
# boundary matrix is C(11,5) x C(11,4) = 462 x 330; with 12 variables one
# matrix alone can take a minute.
SQUAREFREE_VARIABLES = 11
SQUAREFREE_GENERATORS = 14
SQUAREFREE_DEGREE = 3
SQUAREFREE_IDEALS = 8

# scripts/run_sweeps.py's campaign set, every campaign at t = 1..2.
SWEEPS = (
    dict(family="cycle", n_values=(3, 4, 5), t_values=(1, 2),
         weight_alphabet=(2, 3), exhaustive_cap=16, sample_size=10),
    dict(family="forest", n_values=(2, 3, 4, 5), t_values=(1, 2),
         weight_alphabet=(2, 3), exhaustive_cap=16),
    dict(family="unicyclic", n_values=(4, 5), t_values=(1, 2),
         weight_alphabet=(2, 3), exhaustive_cap=32),
    dict(family="raw-ideal", n_values=(1,), t_values=(1, 2), sample_size=25),
)
STRUCTURE = dict(family="cycle", n_values=(3, 4, 5), t_values=(1, 2, 3),
                 weight_alphabet=(2,))


@dataclass(frozen=True)
class Op:
    """One timed operation.

    kind is one of "regularity" (payload: graph, t), "betti_table"
    (payload: ideal, generator vectors), "campaign" and "structure"
    (payload: CampaignSpec) and "references" (payload: field).
    ``expected`` is a known engine value that replaces the formula check.
    """

    kind: str
    label: str
    payload: object
    expected: int | None = None

    def describe(self) -> str:
        """The full input, as text; equal descriptions mean equal inputs."""
        if self.kind == "regularity":
            graph, t = self.payload
            vertices = [(v, graph.weight(v)) for v in graph.vertex_names]
            return f"{self.label}: V={vertices} E={list(graph.edges)} t={t}"
        if self.kind == "betti_table":
            ideal, _ = self.payload
            return f"{self.label}: {ideal}"
        if self.kind in ("campaign", "structure"):
            return f"{self.label}: {json.dumps(self.payload.to_json_dict(), sort_keys=True)}"
        return f"{self.label}: {self.payload}"


# -- operation lists ----------------------------------------------------------


def _ladder_cycle(rng: random.Random, n: int) -> WeightedDigraph:
    cycle = [f"x{k + 1}" for k in range(n)]
    weights = dict.fromkeys(cycle, 2)
    weights[rng.choice(cycle)] = 3
    listed = rng.sample(cycle, n)  # vertex order is variable order
    edges = [(cycle[k - 1], cycle[k]) for k in range(n)]
    return WeightedDigraph([(v, weights[v]) for v in listed], edges)


def cycle_ladder_ops(seed: int) -> list[Op]:
    ops = []
    for n, t in LADDER_RUNGS:
        rng = random.Random(f"cycle-ladder:{seed}:{n}:{t}")
        ops.append(Op("regularity", f"cycle n={n} t={t}", (_ladder_cycle(rng, n), t)))
    for ex in verify.REFERENCE_EXAMPLES:
        ops.append(
            Op("regularity", f"showcase {ex.name} t={ex.t}", (ex.build(), ex.t),
               expected=ex.expected_engine)
        )
    return ops


def _squarefree_corpus() -> list[list[tuple[int, ...]]]:
    rng = random.Random("squarefree-rank:corpus")
    corpus = []
    for _ in range(SQUAREFREE_IDEALS):
        supports: set[tuple[int, ...]] = set()
        while len(supports) < SQUAREFREE_GENERATORS:
            supports.add(tuple(sorted(rng.sample(range(SQUAREFREE_VARIABLES), SQUAREFREE_DEGREE))))
        corpus.append(sorted(supports))
    return corpus


def squarefree_rank_ops(seed: int) -> list[Op]:
    rng = random.Random(f"squarefree-rank:{seed}")
    variables = VariableSet([f"x{k + 1}" for k in range(SQUAREFREE_VARIABLES)])
    ops = []
    for k, supports in enumerate(_squarefree_corpus()):
        relabel = rng.sample(range(SQUAREFREE_VARIABLES), SQUAREFREE_VARIABLES)
        vectors = []
        for support in supports:
            image = {relabel[v] for v in support}
            vectors.append(tuple(int(j in image) for j in range(SQUAREFREE_VARIABLES)))
        ideal = MonomialIdeal(variables, [Monomial.from_dense(variables, g) for g in vectors])
        ops.append(Op("betti_table", f"squarefree k={k}", (ideal, vectors)))
    return ops


def verify_sweep_ops(seed: int) -> list[Op]:
    ops = [
        Op("campaign", f"campaign {spec['family']}", CampaignSpec(**spec, seed=seed))
        for spec in SWEEPS
    ]
    ops.append(Op("structure", "structure cycle", CampaignSpec(**STRUCTURE, seed=seed)))
    ops.append(Op("references", "reference examples", FIELD))
    return ops


_BUILDERS = {
    "cycle-ladder": cycle_ladder_ops,
    "squarefree-rank": squarefree_rank_ops,
    "verify-sweep": verify_sweep_ops,
}
WORKLOADS = tuple(_BUILDERS)


def build_ops(workload: str, seed: int) -> list[Op]:
    if workload not in _BUILDERS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    return _BUILDERS[workload](seed)


# -- execution ----------------------------------------------------------------


def plain_api() -> SimpleNamespace:
    """The public functions the operations call, unwrapped."""
    return SimpleNamespace(
        edge_ideal=constructions.edge_ideal,
        power=ideals.power,
        regularity=betti.regularity,
        betti_table=betti.betti_table,
        run_campaign=verify.run_campaign,
        run_structure_checks=verify.run_structure_checks,
        run_reference_examples=verify.run_reference_examples,
    )


def execute(op: Op, api: SimpleNamespace):
    if op.kind == "regularity":
        graph, t = op.payload
        return api.regularity(api.power(api.edge_ideal(graph), t), FIELD)
    if op.kind == "betti_table":
        return api.betti_table(op.payload[0], FIELD)
    if op.kind == "campaign":
        return api.run_campaign(op.payload)
    if op.kind == "structure":
        return api.run_structure_checks(op.payload)
    if op.kind == "references":
        return api.run_reference_examples(op.payload)
    raise ValueError(f"unknown operation kind {op.kind!r}")


# -- output checks and canonical outputs ---------------------------------------


def check(op: Op, output) -> str | None:
    """None when the output is right, else the reason it is wrong."""
    if op.kind == "regularity":
        if op.expected is not None:
            want = op.expected
        else:
            graph, t = op.payload
            prediction = formulas.formula_cycle(graph, t)
            if not prediction.admissible:
                return f"rung is not admissible: {prediction.violations}"
            want = prediction.value
        return None if output == want else f"regularity {output}, expected {want}"
    if op.kind == "betti_table":
        bad = euler_mismatches(op.payload[1], output)
        return f"Euler characteristic differs at {bad[:4]}" if bad else None
    if op.kind == "campaign":
        code = output.exit_code()
        return f"campaign exit code {code}: {output.summary()}" if code else None
    code = output.exit_code()  # structure checks and reference examples
    return f"exit code {code}" if code else None


def canonical(op: Op, output) -> str:
    """Timing-free text of an output; equal engines give equal bytes."""
    if op.kind == "regularity":
        return str(output)
    if op.kind == "betti_table":
        return json.dumps({"entries": output.nonzero(), "regularity": output.regularity()})
    if op.kind == "references":
        return json.dumps(output.to_json_dict(include_timings=False),
                          sort_keys=True, separators=(",", ":"))
    return output.canonical_json()


def records(output) -> int:
    """Verification records in a report; 0 for plain values."""
    return len(getattr(output, "records", ()))


def digest(labels_and_texts: list[tuple[str, str]]) -> str:
    h = hashlib.sha256()
    for label, text in labels_and_texts:
        h.update(f"{label}\t{text}\n".encode())
    return h.hexdigest()
