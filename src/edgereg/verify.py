"""Verification harness: formula-vs-engine campaigns and structure checks.

Instances are enumerated deterministically (lexicographic over family
parameters, seeded sampling where ranges are too large), every instance
produces a record (match, mismatch, or skip with a reason), and reports
serialize to versioned JSON whose canonical form excludes timing fields,
so identical (spec, seed) runs are byte-identical.
"""

from __future__ import annotations

import csv
import io
import json
import random
import time
from dataclasses import asdict, dataclass, fields
from itertools import product as iter_product
from typing import Callable, Iterable

from .betti import DEFAULT_LATTICE_CAP, betti_table, regularity
from .constructions import (
    betti_split_power,
    build_colon_structure,
    edge_ideal,
    ordered_power_basis,
)
from .digraph import WeightedDigraph, classify, make_cycle
from .errors import ResourceCapError
from .formulas import FORMULA_BY_FAMILY as _FORMULA_BY_FAMILY
from .formulas import (
    FormulaResult,
    formula_cycle,
    formula_forest,
    formula_unicyclic,
)
from .ideals import (
    MonomialIdeal,
    colon_by_monomial,
    intersect,
    parse_ideal,
    polarize,
    power,
)
from .ring import Monomial, VariableSet

REPORT_VERSION = 1

FAMILIES = ("cycle", "forest", "unicyclic", "raw-ideal")


# -- records and reports -----------------------------------------------------


class _Record:
    """JSON form shared by every record type.

    Every dataclass field is written, tuples as lists; ``elapsed_s`` is
    rounded to microseconds and left out when timings are not wanted.
    """

    def to_json_dict(self, include_timings: bool = True) -> dict:
        out = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name == "elapsed_s":
                if not include_timings:
                    continue
                value = round(value, 6)
            elif isinstance(value, tuple):
                value = list(value)
            out[f.name] = value
        return out


class _Report:
    """JSON form shared by every report type.

    A report is its version, its ``kind``, its own dataclass fields other
    than ``records``, its summary when it has one, and its records.
    """

    kind = ""

    def summary(self) -> dict | None:
        return None

    def to_json_dict(self, include_timings: bool = True) -> dict:
        out = {"report_version": REPORT_VERSION, "kind": self.kind}
        for f in fields(self):
            if f.name != "records":
                out[f.name] = getattr(self, f.name)
        summary = self.summary()
        if summary is not None:
            out["summary"] = summary
        out["records"] = [r.to_json_dict(include_timings) for r in self.records]
        return out

    def to_json(self, include_timings: bool = True) -> str:
        return json.dumps(self.to_json_dict(include_timings), sort_keys=True, indent=2)

    def canonical_json(self) -> str:
        """Timing-free canonical form; byte-identical across equal runs."""
        return json.dumps(
            self.to_json_dict(include_timings=False), sort_keys=True, separators=(",", ":"),
        )


# -- campaign specification ------------------------------------------------


@dataclass(frozen=True)
class CampaignSpec:
    """Deterministic description of a verification campaign."""

    family: str
    n_values: tuple[int, ...]
    t_values: tuple[int, ...]
    weight_alphabet: tuple[int, ...] = (2, 3)
    seed: int = 0
    exhaustive_cap: int = 16
    sample_size: int = 10
    field: str = "Q"
    lattice_cap: int = DEFAULT_LATTICE_CAP
    workers: int = 1
    # raw-ideal family parameters
    raw_max_variables: int = 4
    raw_max_generators: int = 4
    raw_max_exponent: int = 3

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}; expected one of {FAMILIES}")
        if not self.n_values or not self.t_values:
            raise ValueError("n_values and t_values must be nonempty")

    def to_json_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class VerificationRecord(_Record):
    family: str
    instance: str
    n: int
    t: int
    weights: tuple[int, ...]
    field: str
    formula_value: int | None = None
    admissible: bool | None = None
    violations: tuple[str, ...] = ()
    engine_value: int | None = None
    match: bool | None = None
    skipped: str | None = None
    elapsed_s: float = 0.0


CSV_COLUMNS = tuple(f.name for f in fields(VerificationRecord))


@dataclass
class CampaignReport(_Report):
    spec: dict
    records: list[VerificationRecord]
    kind = "campaign"

    def summary(self) -> dict:
        matches = sum(1 for r in self.records if r.match is True)
        mismatches = sum(1 for r in self.records if r.admissible and r.match is False)
        skips = sum(1 for r in self.records if r.skipped)
        inadmissible = sum(1 for r in self.records if r.admissible is False)
        return {
            "total": len(self.records),
            "matches": matches,
            "mismatches": mismatches,
            "skipped": skips,
            "inadmissible": inadmissible,
        }

    def exit_code(self) -> int:
        s = self.summary()
        if s["mismatches"]:
            return 1
        if s["skipped"]:
            return 3
        return 0

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for r in self.records:
            row = r.to_json_dict(include_timings=True)
            cells = []
            for col in CSV_COLUMNS:
                val = row.get(col)
                if col == "weights":
                    val = " ".join(str(w) for w in (val or []))
                elif col == "violations":
                    val = "; ".join(val or [])
                elif val is None:
                    val = ""
                cells.append(val)
            writer.writerow(cells)
        return buf.getvalue()


# -- instance enumeration ----------------------------------------------------


def _weight_tuples(spec: CampaignSpec, n_free: int, label: str) -> list[tuple[int, ...]]:
    """All weight tuples over the alphabet, or a seeded sorted sample."""
    everything = sorted(iter_product(spec.weight_alphabet, repeat=n_free))
    if len(everything) <= spec.exhaustive_cap:
        return everything
    rng = random.Random(f"{spec.seed}:{spec.family}:{label}")
    picked = rng.sample(range(len(everything)), min(spec.sample_size, len(everything)))
    return [everything[i] for i in sorted(picked)]


def _canonical_rooted_trees(n: int) -> list[tuple[tuple[int, int], ...]]:
    """Distinct rooted trees on n vertices as parent-edge tuples.

    Vertex 0 is the root; edges are (parent, child).  Shapes are deduped
    by a recursive canonical encoding, keeping the first representative
    in deterministic enumeration order.
    """
    if n == 1:
        return [()]
    shapes: dict[tuple, tuple[tuple[int, int], ...]] = {}
    for parents in iter_product(*[range(i) for i in range(1, n)]):
        edges = tuple((parents[i - 1], i) for i in range(1, n))
        children: dict[int, list[int]] = {}
        for p, c in edges:
            children.setdefault(p, []).append(c)

        def encode(v: int) -> tuple:
            return tuple(sorted(encode(c) for c in children.get(v, [])))

        key = encode(0)
        if key not in shapes:
            shapes[key] = edges
    return [shapes[k] for k in sorted(shapes)]


@dataclass(frozen=True)
class CampaignInstance:
    descriptor: str
    n: int
    t: int
    weights: tuple[int, ...]
    graph: WeightedDigraph | None
    ideal_text: str | None = None
    variable_names: tuple[str, ...] = ()


def _cycle_instances(spec: CampaignSpec) -> list[CampaignInstance]:
    out = []
    for n in sorted(spec.n_values):
        if n < 3:
            continue
        for weights in _weight_tuples(spec, n, f"n{n}"):
            graph = make_cycle(list(weights))
            for t in sorted(spec.t_values):
                out.append(
                    CampaignInstance(
                        descriptor=f"cycle n={n} w={weights} t={t}",
                        n=n, t=t, weights=weights, graph=graph,
                    )
                )
    return out


def _forest_instances(spec: CampaignSpec) -> list[CampaignInstance]:
    out = []
    for n in sorted(spec.n_values):
        if n < 2:
            continue
        for shape_idx, edges in enumerate(_canonical_rooted_trees(n)):
            for weights_rest in _weight_tuples(spec, n - 1, f"n{n}s{shape_idx}"):
                weights = (1,) + weights_rest  # the root is a source
                names = [f"x{i + 1}" for i in range(n)]
                graph = WeightedDigraph(
                    [(names[i], weights[i]) for i in range(n)],
                    [(names[a], names[b]) for a, b in edges],
                )
                for t in sorted(spec.t_values):
                    out.append(
                        CampaignInstance(
                            descriptor=f"tree n={n} shape={shape_idx} w={weights} t={t}",
                            n=n, t=t, weights=weights, graph=graph,
                        )
                    )
    return out


def pendant_path_graph(path_len: int, weights: Iterable[int]) -> WeightedDigraph:
    """A 3-cycle with a pendant directed path of the given length at x1."""
    n = 3 + path_len
    weights = list(weights)
    if len(weights) != n:
        raise ValueError(f"need {n} weights, got {len(weights)}")
    names = [f"x{i + 1}" for i in range(n)]
    edges = [(names[0], names[1]), (names[1], names[2]), (names[2], names[0])]
    anchor = names[0]
    for k in range(path_len):
        edges.append((anchor, names[3 + k]))
        anchor = names[3 + k]
    return WeightedDigraph([(names[i], weights[i]) for i in range(n)], edges)


def _unicyclic_instances(spec: CampaignSpec) -> list[CampaignInstance]:
    out = []
    for n in sorted(spec.n_values):
        path_len = n - 3
        if path_len < 1:
            continue
        for weights in _weight_tuples(spec, n, f"n{n}"):
            graph = pendant_path_graph(path_len, weights)
            for t in sorted(spec.t_values):
                out.append(
                    CampaignInstance(
                        descriptor=f"unicyclic n={n} path={path_len} w={weights} t={t}",
                        n=n, t=t, weights=weights, graph=graph,
                    )
                )
    return out


def random_monomial_ideal(
    rng: random.Random,
    max_variables: int = 4,
    max_generators: int = 4,
    max_exponent: int = 3,
    min_variables: int = 2,
) -> MonomialIdeal:
    """A small random nonzero monomial ideal (used by seeded corpora)."""
    nvars = rng.randint(min_variables, max_variables)
    variables = VariableSet([f"x{i + 1}" for i in range(nvars)])
    n_gens = rng.randint(1, max_generators)
    gens = []
    for _ in range(n_gens):
        while True:
            exps = [rng.randint(0, max_exponent) for _ in range(nvars)]
            if any(exps):
                break
        gens.append(Monomial.from_dense(variables, exps))
    return MonomialIdeal(variables, gens)


def _raw_ideal_instances(spec: CampaignSpec) -> list[CampaignInstance]:
    out = []
    for k in range(spec.sample_size):
        rng = random.Random(f"{spec.seed}:raw:{k}")
        ideal = random_monomial_ideal(
            rng,
            max_variables=spec.raw_max_variables,
            max_generators=spec.raw_max_generators,
            max_exponent=spec.raw_max_exponent,
        )
        for t in sorted(spec.t_values):
            out.append(
                CampaignInstance(
                    descriptor=f"raw k={k} I={ideal} t={t}",
                    n=len(ideal.variables), t=t, weights=(),
                    graph=None,
                    ideal_text=str(ideal),
                    variable_names=ideal.variables.names,
                )
            )
    return out


_INSTANCE_BUILDERS: dict[str, Callable[[CampaignSpec], list[CampaignInstance]]] = {
    "cycle": _cycle_instances,
    "forest": _forest_instances,
    "unicyclic": _unicyclic_instances,
    "raw-ideal": _raw_ideal_instances,
}


def enumerate_instances(spec: CampaignSpec) -> list[CampaignInstance]:
    return _INSTANCE_BUILDERS[spec.family](spec)


# -- instance evaluation -----------------------------------------------------


def _evaluate_instance(args: tuple) -> VerificationRecord:
    spec_dict, inst = args
    spec = CampaignSpec(**spec_dict)
    start = time.perf_counter()
    try:
        if spec.family == "raw-ideal":
            # the polarization's regularity stands in for a closed form
            variables = VariableSet(inst.variable_names)
            ideal = power(parse_ideal(inst.ideal_text, variables), inst.t)
            plain = betti_table(ideal, spec.field, spec.lattice_cap)
            polar = betti_table(polarize(ideal).ideal, spec.field, spec.lattice_cap)
            outcome = dict(
                formula_value=polar.regularity(), admissible=True,
                engine_value=plain.regularity(), match=plain.graded_equal(polar),
            )
        else:
            formula: FormulaResult = _FORMULA_BY_FAMILY[spec.family](inst.graph, inst.t)
            ideal = power(edge_ideal(inst.graph), inst.t)
            engine_value = regularity(ideal, spec.field, spec.lattice_cap)
            outcome = dict(
                formula_value=formula.value, admissible=formula.admissible,
                violations=formula.violations, engine_value=engine_value,
                match=(engine_value == formula.value) if formula.admissible else None,
            )
    except ResourceCapError as exc:
        outcome = dict(skipped=str(exc))
    return VerificationRecord(
        family=spec.family, instance=inst.descriptor, n=inst.n, t=inst.t,
        weights=inst.weights, field=spec.field,
        elapsed_s=time.perf_counter() - start, **outcome,
    )


def run_campaign(spec: CampaignSpec) -> CampaignReport:
    """Evaluate every enumerated instance; no instance is silently dropped."""
    instances = enumerate_instances(spec)
    payloads = [(spec.to_json_dict(), inst) for inst in instances]
    if spec.workers > 1 and len(payloads) > 1:
        from concurrent.futures import ProcessPoolExecutor  # only pools pay its import

        with ProcessPoolExecutor(max_workers=spec.workers) as pool:
            records = list(pool.map(_evaluate_instance, payloads))
    else:
        records = [_evaluate_instance(p) for p in payloads]
    return CampaignReport(spec=spec.to_json_dict(), records=records)


# -- reference instances -----------------------------------------------------
#
# Four bundled showcase graphs where the closed form's hypotheses fail
# and the naive prediction provably disagrees with the exact engine at
# t = 2.  Reference values were computed with this engine and match
# independent computer-algebra runs.


@dataclass(frozen=True)
class ReferenceExample:
    name: str
    build: Callable[[], WeightedDigraph]
    formula: Callable[[WeightedDigraph, int], FormulaResult]
    t: int
    expected_engine: int
    expected_formula: int


def cycle5_two_light_vertices() -> WeightedDigraph:
    """Head-to-tail 5-cycle with weights (1,3,3,1,3): two weights below 2."""
    return make_cycle([1, 3, 3, 1, 3])


def cycle5_double_out() -> WeightedDigraph:
    """Underlying 5-cycle reoriented so x1 has two out-edges (a source)."""
    names = [f"x{i}" for i in range(1, 6)]
    weights = [1, 3, 3, 3, 3]
    edges = [("x1", "x5"), ("x1", "x2"), ("x2", "x3"), ("x3", "x4"), ("x4", "x5")]
    return WeightedDigraph(list(zip(names, weights)), edges)


def square_pendant_light_path() -> WeightedDigraph:
    """4-cycle with a pendant path whose interior weights drop to 1."""
    names = [f"x{i}" for i in range(1, 8)]
    weights = [2, 2, 2, 2, 1, 1, 2]
    edges = [
        ("x1", "x2"), ("x2", "x3"), ("x3", "x4"), ("x4", "x1"),
        ("x4", "x5"), ("x5", "x6"), ("x6", "x7"),
    ]
    return WeightedDigraph(list(zip(names, weights)), edges)


def square_pendant_inward_edge() -> WeightedDigraph:
    """4-cycle with a pendant tree where one edge points back toward the cycle."""
    names = [f"x{i}" for i in range(1, 8)]
    weights = [2, 2, 2, 2, 2, 1, 2]
    edges = [
        ("x1", "x2"), ("x2", "x3"), ("x3", "x4"), ("x4", "x1"),
        ("x4", "x5"), ("x6", "x5"), ("x6", "x7"),
    ]
    return WeightedDigraph(list(zip(names, weights)), edges)


REFERENCE_EXAMPLES: tuple[ReferenceExample, ...] = (
    ReferenceExample(
        name="cycle5-two-light-vertices",
        build=cycle5_two_light_vertices, formula=formula_cycle,
        t=2, expected_engine=10, expected_formula=11,
    ),
    ReferenceExample(
        name="cycle5-double-out",
        build=cycle5_double_out, formula=formula_cycle,
        t=2, expected_engine=14, expected_formula=13,
    ),
    ReferenceExample(
        name="square-pendant-light-path",
        build=square_pendant_light_path, formula=formula_unicyclic,
        t=2, expected_engine=10, expected_formula=9,
    ),
    ReferenceExample(
        name="square-pendant-inward-edge",
        build=square_pendant_inward_edge, formula=formula_unicyclic,
        t=2, expected_engine=11, expected_formula=10,
    ),
)


@dataclass(frozen=True)
class ReferenceRecord(_Record):
    name: str
    family: str
    t: int
    engine_value: int | None
    expected_engine: int
    formula_value: int | None
    expected_formula: int
    admissible: bool | None
    violations: tuple[str, ...]
    ok: bool
    skipped: str | None
    elapsed_s: float
    # set only when the GF(2) regularity disagrees with the Q value
    engine_value_gf2: int | None = None


@dataclass
class ReferenceReport(_Report):
    records: list[ReferenceRecord]
    field: str
    kind = "reference-examples"

    def exit_code(self) -> int:
        if any(r.skipped for r in self.records):
            return 3
        return 0 if all(r.ok for r in self.records) else 1


def run_reference_examples(
    field: str = "Q", lattice_cap: int = DEFAULT_LATTICE_CAP
) -> ReferenceReport:
    """Run the four bundled showcase instances against their reference values."""
    records = []
    for ex in REFERENCE_EXAMPLES:
        start = time.perf_counter()
        graph = ex.build()
        family = classify(graph).kind.value
        try:
            result = ex.formula(graph, ex.t)
            ideal = power(edge_ideal(graph), ex.t)
            engine_value = regularity(ideal, field, lattice_cap)
            # the reference values assume characteristic 0; surface the
            # GF(2) value whenever it happens to differ
            gf2_value = regularity(ideal, "GF2", lattice_cap) if field == "Q" else None
            outcome = dict(
                engine_value=engine_value, formula_value=result.value,
                admissible=result.admissible, violations=result.violations,
                ok=engine_value == ex.expected_engine and result.value == ex.expected_formula,
                skipped=None, engine_value_gf2=None if gf2_value == engine_value else gf2_value,
            )
        except ResourceCapError as exc:
            outcome = dict(
                engine_value=None, formula_value=None, admissible=None, violations=(),
                ok=False, skipped=str(exc),
            )
        records.append(
            ReferenceRecord(
                name=ex.name, family=family, t=ex.t, expected_engine=ex.expected_engine,
                expected_formula=ex.expected_formula, elapsed_s=time.perf_counter() - start,
                **outcome,
            )
        )
    return ReferenceReport(records=records, field=field)


# -- structure checks ---------------------------------------------------------


@dataclass(frozen=True)
class StructureRecord(_Record):
    n: int
    t: int
    weights: tuple[int, ...]
    check: str
    checked: int
    failures: int
    details: tuple[str, ...]
    elapsed_s: float


@dataclass
class StructureReport(_Report):
    spec: dict
    records: list[StructureRecord]
    kind = "structure"

    def exit_code(self) -> int:
        return 1 if any(r.failures for r in self.records) else 0

    def summary(self) -> dict:
        return {
            "records": len(self.records),
            "checked": sum(r.checked for r in self.records),
            "failures": sum(r.failures for r in self.records),
        }


def _check_basis_structure(graph, t) -> tuple[int, int, list[str]]:
    """Unique decomposition and strict lex descent of the ordered basis."""
    basis = ordered_power_basis(graph, t)
    checked = failures = 0
    details: list[str] = []
    monomials = [e.monomial for e in basis]
    checked += 1
    if len(set(monomials)) != len(monomials):
        failures += 1
        details.append("basis monomials are not pairwise distinct")
    checked += 1
    vectors = [e.vector for e in basis]
    if any(not vectors[k] > vectors[k + 1] for k in range(len(vectors) - 1)):
        failures += 1
        details.append("basis vectors are not strictly lex-descending")
    checked += 1
    expected = set(power(edge_ideal(graph), t).generators)
    if set(monomials) != expected:
        failures += 1
        details.append("basis monomials differ from the power's minimal generators")
    return checked, failures, details


def _check_edge_divisibility(graph, t) -> tuple[int, int, list[str]]:
    """Vector-domination test against the product definition, k = 1."""
    from .constructions import edge_divides

    if t < 2:
        return 0, 0, []
    basis_t = ordered_power_basis(graph, t)
    basis_1 = ordered_power_basis(graph, 1)
    lower = ordered_power_basis(graph, t - 1)
    checked = failures = 0
    details: list[str] = []
    for e1 in basis_1:
        for e2 in basis_t:
            checked += 1
            fast = edge_divides(e1.monomial, 1, e2.monomial, t, graph)
            brute = any(
                e1.monomial * m3.monomial == e2.monomial for m3 in lower
            )
            if fast != brute:
                failures += 1
                details.append(
                    f"edge divisibility disagrees for {e1.monomial} | {e2.monomial}"
                )
    return checked, failures, details


def _check_colon_structures(graph, t) -> tuple[int, int, list[str]]:
    """Explicit colon form equals the directly computed colon, every index."""
    basis = ordered_power_basis(graph, t)
    checked = failures = 0
    details: list[str] = []
    for i in range(1, len(basis)):
        checked += 1
        structure = build_colon_structure(graph, t, i)
        direct = colon_by_monomial(structure.tail, structure.entry.monomial)
        if direct != structure.colon_form:
            failures += 1
            details.append(f"colon mismatch at index {i}")
    return checked, failures, details


def _check_split_identity(graph, t, field="Q") -> tuple[int, int, list[str]]:
    """Betti additivity across the principal split of the power."""
    ideal = power(edge_ideal(graph), t)
    j_part, k_part = betti_split_power(graph, t)
    checked = failures = 0
    details: list[str] = []
    checked += 1
    union = set(j_part.generators) | set(k_part.generators)
    if set(ideal.generators) != union or (set(j_part.generators) & set(k_part.generators)):
        failures += 1
        details.append("split parts are not a disjoint cover of the generators")
    table_i = betti_table(ideal, field)
    table_j = betti_table(j_part, field)
    table_k = betti_table(k_part, field)
    table_jk = betti_table(intersect(j_part, k_part), field)
    keys = set(table_i.entries) | set(table_j.entries) | set(table_k.entries)
    keys |= {(i + 1, j) for (i, j) in table_jk.entries}
    checked += 1
    for i, j in sorted(keys):
        lhs = table_i.rank(i, j)
        rhs = table_j.rank(i, j) + table_k.rank(i, j)
        if i >= 1:
            rhs += table_jk.rank(i - 1, j)
        if lhs != rhs:
            failures += 1
            details.append(f"additivity fails at (i={i}, j={j}): {lhs} != {rhs}")
            break
    checked += 1
    reg_rule = max(
        table_j.regularity(), table_k.regularity(), table_jk.regularity() - 1
    )
    if table_i.regularity() != reg_rule:
        failures += 1
        details.append(
            f"regularity rule fails: {table_i.regularity()} != {reg_rule}"
        )
    return checked, failures, details


_STRUCTURE_CHECKS = (
    ("basis", _check_basis_structure),
    ("edge-divisibility", _check_edge_divisibility),
    ("colon", _check_colon_structures),
    ("split", _check_split_identity),
)


def run_structure_checks(spec: CampaignSpec) -> StructureReport:
    """Run the ordered-basis property suites over a cycle-family range."""
    if spec.family != "cycle":
        raise ValueError("structure checks are defined for the cycle family only")
    records: list[StructureRecord] = []
    for n in sorted(spec.n_values):
        if n < 3:
            continue
        for weights in _weight_tuples(spec, n, f"structure-n{n}"):
            graph = make_cycle(list(weights))
            for t in sorted(spec.t_values):
                for name, fn in _STRUCTURE_CHECKS:
                    start = time.perf_counter()
                    checked, failures, details = fn(graph, t)
                    records.append(
                        StructureRecord(
                            n=n, t=t, weights=weights, check=name,
                            checked=checked, failures=failures,
                            details=tuple(details[:8]),
                            elapsed_s=time.perf_counter() - start,
                        )
                    )
    return StructureReport(spec=spec.to_json_dict(), records=records)
