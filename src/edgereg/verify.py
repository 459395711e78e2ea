"""Verification harness: formula-vs-engine campaigns and structure checks.

Instances are enumerated deterministically (lexicographic over family
parameters, seeded sampling where ranges are too large), every instance
produces a record (match, mismatch, or skip with a reason), and reports
serialize to versioned JSON whose canonical form excludes timing fields,
so identical (spec, seed) runs are byte-identical.
"""

from __future__ import annotations

import json
import random
import sys
import time
from dataclasses import dataclass
from functools import partial
from itertools import product as iter_product
from typing import Callable, Iterable, Iterator

from .betti import DEFAULT_LATTICE_CAP, _check_cap, betti_table, regularity
from .constructions import (
    betti_split_power,
    build_colon_structure,
    edge_divides,
    edge_ideal,
    ordered_power_basis,
)
from .digraph import WeightedDigraph, classify, make_cycle
from .errors import ResourceCapError
from .formulas import FORMULA_BY_FAMILY as _FORMULA_BY_FAMILY
from .formulas import FormulaResult, formula_cycle, formula_forest, formula_unicyclic
from .homology import _check_field
from .ideals import MonomialIdeal, colon_by_monomial, intersect, polarize, power
from .ring import Monomial, VariableSet

REPORT_VERSION = 1

FAMILIES = ("cycle", "forest", "unicyclic", "raw-ideal")

# fewest vertices of a member of each graph family; raw ideals ignore n
_MIN_VERTICES = {"cycle": 3, "forest": 2, "unicyclic": 4}

# most instances a campaign or structure run may enumerate, read at each run
MAX_INSTANCES = 100_000


# -- records and reports -----------------------------------------------------


class _Record:
    """JSON form shared by every record type.

    Every slot is written in its declared order, tuples as lists;
    ``elapsed_s`` is rounded to microseconds and left out when timings are
    not wanted.
    """

    __slots__ = ()

    def to_json_dict(self, include_timings: bool = True) -> dict:
        out = {}
        for name in self.__slots__:
            value = getattr(self, name)
            if name == "elapsed_s":
                if not include_timings:
                    continue
                value = round(value, 6)
            elif isinstance(value, tuple):
                value = list(value)
            out[name] = value
        return out


class _Report:
    """JSON form shared by every report type.

    A report is its version, its ``kind``, its own slots other than
    ``records``, its summary when it has one, and its records.
    """

    __slots__ = ()
    kind = ""

    def summary(self) -> dict | None:
        return None

    def to_json_dict(self, include_timings: bool = True) -> dict:
        out = {"report_version": REPORT_VERSION, "kind": self.kind}
        for name in self.__slots__:
            if name != "records":
                out[name] = getattr(self, name)
        summary = self.summary()
        if summary is not None:
            out["summary"] = summary
        out["records"] = [r.to_json_dict(include_timings) for r in self.records]
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, indent=2)

    def canonical_json(self) -> str:
        """Timing-free canonical form; byte-identical across equal runs."""
        return json.dumps(
            self.to_json_dict(include_timings=False), sort_keys=True, separators=(",", ":"),
        )


# -- campaign specification ------------------------------------------------


class CampaignSpec:
    """Deterministic description of a verification campaign, checked whole
    when it is built."""

    __slots__ = ("family", "n_values", "t_values", "weight_alphabet", "seed", "exhaustive_cap",
                 "sample_size", "field", "lattice_cap", "workers",
                 # raw-ideal family parameters
                 "raw_max_variables", "raw_max_generators", "raw_max_exponent")

    def __init__(
        self, family: str, n_values: tuple[int, ...], t_values: tuple[int, ...],
        weight_alphabet: tuple[int, ...] = (2, 3), seed: int = 0, exhaustive_cap: int = 16,
        sample_size: int = 10, field: str = "Q", lattice_cap: int = DEFAULT_LATTICE_CAP,
        workers: int = 1, raw_max_variables: int = 4, raw_max_generators: int = 4,
        raw_max_exponent: int = 3,
    ):
        self.family, self.n_values, self.t_values = family, n_values, t_values
        self.weight_alphabet, self.seed, self.exhaustive_cap = weight_alphabet, seed, exhaustive_cap
        self.sample_size, self.field, self.lattice_cap = sample_size, field, lattice_cap
        self.workers, self.raw_max_variables = workers, raw_max_variables
        self.raw_max_generators, self.raw_max_exponent = raw_max_generators, raw_max_exponent
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}; expected one of {FAMILIES}")
        for name in ("seed", "exhaustive_cap", "sample_size", "workers", "lattice_cap",
                     "raw_max_variables", "raw_max_generators", "raw_max_exponent"):
            if type(getattr(self, name)) is not int:  # bool is refused too
                raise ValueError(f"{name}= must be a plain int, got {getattr(self, name)!r}")
        for name, flag in (("n_values", "n"), ("t_values", "t"), ("weight_alphabet", "weights")):
            values = getattr(self, name)
            if {*map(type, values)} - {int}:
                raise ValueError(f"--{flag} ({name}=) must hold plain ints, got {values!r}")
            if len(set(values)) < len(values):
                raise ValueError(f"--{flag} ({name}=) repeats an entry: {values!r}")
            if name != "n_values" and min(values, default=1) < 1:
                raise ValueError(f"--{flag} ({name}=) entries must be at least 1, got {values!r}")
        if not self.n_values or not self.t_values:
            raise ValueError("n_values and t_values must be nonempty")
        if not self.weight_alphabet:
            raise ValueError("weight_alphabet must be nonempty")
        if self.workers < 1:
            raise ValueError(f"workers must be at least 1, got {self.workers}")
        if self.sample_size < 1:
            raise ValueError(f"sample_size must be at least 1, got {self.sample_size}")
        _check_field(self.field)
        _check_cap(self.lattice_cap)
        least = _MIN_VERTICES.get(self.family, 0)
        if min(self.n_values) < least:
            raise ValueError(f"{self.family} members need n >= {least}, got {self.n_values}")
        # a sample draws from range(|alphabet|^free), which holds at most sys.maxsize
        free = max(self.n_values) - (self.family == "forest")
        base = len(self.weight_alphabet)
        if self.family != "raw-ideal" and base ** min(free, 64) > sys.maxsize:
            most = max(k for k in range(64) if base**k <= sys.maxsize) + (self.family == "forest")
            raise ValueError(
                f"--n (n_values=) allows n <= {most} for {self.family} with {base} weights, "
                f"got {max(self.n_values)}: {base}^{free} weight tuples exceed sys.maxsize"
            )

    def to_json_dict(self) -> dict:
        return {name: getattr(self, name) for name in self.__slots__}


class VerificationRecord(_Record):
    __slots__ = ("family", "instance", "n", "t", "weights", "field", "formula_value",
                 "admissible", "violations", "engine_value", "match", "skipped", "elapsed_s")

    def __init__(
        self, family: str, instance: str, n: int, t: int, weights: tuple[int, ...], field: str,
        formula_value: int | None = None, admissible: bool | None = None,
        violations: tuple[str, ...] = (), engine_value: int | None = None,
        match: bool | None = None, skipped: str | None = None, elapsed_s: float = 0.0,
    ):
        self.family, self.instance, self.n, self.t = family, instance, n, t
        self.weights, self.field, self.formula_value = weights, field, formula_value
        self.admissible, self.violations, self.engine_value = admissible, violations, engine_value
        self.match, self.skipped, self.elapsed_s = match, skipped, elapsed_s


CSV_COLUMNS = VerificationRecord.__slots__


class CampaignReport(_Report):
    __slots__ = ("spec", "records")
    kind = "campaign"

    def __init__(self, spec: dict, records: list[VerificationRecord]):
        self.spec, self.records = spec, records

    def summary(self) -> dict:
        records = self.records
        return {
            "total": len(records),
            "matches": sum(r.match is True for r in records),
            "mismatches": sum(bool(r.admissible) and r.match is False for r in records),
            "skipped": sum(bool(r.skipped) for r in records),
            "inadmissible": sum(r.admissible is False for r in records),
        }

    def exit_code(self) -> int:
        """1 on a mismatch, else 3 on a capped skip, else 0."""
        s = self.summary()
        return 1 if s["mismatches"] else 3 if s["skipped"] else 0

    def to_csv(self) -> str:
        import csv  # only CSV output pays for these imports
        import io

        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for r in self.records:
            row = r.to_json_dict(include_timings=True)
            row["weights"] = " ".join(str(w) for w in row["weights"])
            row["violations"] = "; ".join(row["violations"])
            writer.writerow("" if row[col] is None else row[col] for col in CSV_COLUMNS)
        return buf.getvalue()


# -- instance enumeration ----------------------------------------------------


def _weight_tuples(spec: CampaignSpec, n_free: int, label: str) -> list[tuple[int, ...]]:
    """All weight tuples over the alphabet in lexicographic order, or a
    seeded sorted sample; the k-th tuple is k in base |alphabet| over the
    sorted letters, so a sample builds only the tuples it picks."""
    letters = sorted(spec.weight_alphabet)
    base = len(letters)
    count = base**n_free
    if count <= spec.exhaustive_cap:
        return list(iter_product(letters, repeat=n_free))
    rng = random.Random(f"{spec.seed}:{spec.family}:{label}")
    return [
        tuple(letters[k // base**p % base] for p in reversed(range(n_free)))
        for k in sorted(rng.sample(range(count), min(spec.sample_size, count)))
    ]


def _check_instance_count(spec: CampaignSpec) -> None:
    """Refuse more than MAX_INSTANCES instances before any is built: per n,
    rooted-tree shapes (OEIS A000081) times weight tuples; times |t|."""
    limit, forest, size = MAX_INSTANCES, spec.family == "forest", len(spec.t_values)
    count = spec.sample_size if spec.family == "raw-ideal" else 0
    trees, sums = [0, 1], [0]  # trees[m] on m vertices; sums[m] = sum of d * trees[d], d | m
    for n in () if spec.family == "raw-ideal" else spec.n_values:
        while forest and len(trees) <= n and trees[-1] <= limit:  # the counts never fall
            m = len(trees) - 1
            sums.append(sum(d * trees[d] for d in range(1, m + 1) if m % d == 0))
            trees.append(sum(sums[k] * trees[m + 1 - k] for k in range(1, m + 1)) // m)
        tuples = len(spec.weight_alphabet) ** (n - forest)
        tuples = tuples if tuples <= spec.exhaustive_cap else min(spec.sample_size, tuples)
        count += (trees[min(n, len(trees) - 1)] if forest else 1) * tuples
        if count * size > limit:
            break
    if count * size > limit:
        raise ResourceCapError(f"the campaign has more than {limit} instances; "
                               f"raise the limit with --max-instances to proceed")


def _canonical_rooted_trees(n: int) -> list[tuple[tuple[int, int], ...]]:
    """Distinct rooted trees on n vertices as parent-edge tuples.

    Vertex 0 is the root; edges are (parent, child) with parent < child.
    Shapes are keyed by a recursive canonical encoding, sorted by it, and
    each keeps its lex-first parent tuple.  Parent tuples are walked
    depth first in lex order, and a prefix is extended only when its shape
    is new among prefixes of its length: the lex-first tuple of a shape has
    lex-first prefixes (relabel a smaller prefix of the same shape and keep
    the rest), so no shape is lost.
    """

    def encode(parents: tuple[int, ...]) -> tuple:
        children: list[list[int]] = [[] for _ in range(len(parents) + 1)]
        for c, p in enumerate(parents, 1):
            children[p].append(c)

        def code(v: int) -> tuple:
            return tuple(sorted(code(c) for c in children[v]))

        return code(0)

    met: list[set[tuple]] = [set() for _ in range(n)]
    shapes: dict[tuple, tuple[tuple[int, int], ...]] = {}
    stack: list[tuple[int, ...]] = [()]
    while stack:
        parents = stack.pop()
        key = encode(parents)
        if key in met[len(parents)]:
            continue
        met[len(parents)].add(key)
        if len(parents) == n - 1:
            shapes[key] = tuple((p, c) for c, p in enumerate(parents, 1))
        else:  # vertex len + 1 takes a parent below it, smallest popped first
            stack.extend(parents + (p,) for p in reversed(range(len(parents) + 1)))
    return [shapes[k] for k in sorted(shapes)]


def pendant_path_graph(path_len: int, weights: Iterable[int]) -> WeightedDigraph:
    """A 3-cycle with a pendant directed path of the given length at x1."""
    n = 3 + path_len
    weights = list(weights)
    if len(weights) != n:
        raise ValueError(f"need {n} weights, got {len(weights)}")
    names = [f"x{i + 1}" for i in range(n)]
    path = [names[0]] + names[3:]
    edges = [(names[0], names[1]), (names[1], names[2]), (names[2], names[0])]
    return WeightedDigraph(list(zip(names, weights)), edges + list(zip(path, path[1:])))


def random_monomial_ideal(
    rng: random.Random,
    max_variables: int = 4,
    max_generators: int = 4,
    max_exponent: int = 3,
) -> MonomialIdeal:
    """A small random nonzero monomial ideal on 2..max_variables variables
    (used by seeded corpora)."""
    nvars = rng.randint(2, max_variables)
    variables = VariableSet([f"x{i + 1}" for i in range(nvars)])
    gens = []
    for _ in range(rng.randint(1, max_generators)):
        exps = [0] * nvars
        while not any(exps):
            exps = [rng.randint(0, max_exponent) for _ in range(nvars)]
        gens.append(Monomial.from_dense(variables, exps))
    return MonomialIdeal(variables, gens)


def _family_members(spec: CampaignSpec, label: str = "") -> Iterator[tuple]:
    """(descriptor, weights, graph, raw ideal) of each member of the spec's family.

    ``label`` prefixes the seeded sampling labels; the structure checks pass
    their own, so they sample independently of a campaign with the same seed.
    """
    _check_instance_count(spec)
    if spec.family == "raw-ideal":
        for k in range(spec.sample_size):
            ideal = random_monomial_ideal(
                random.Random(f"{spec.seed}:raw:{k}"), spec.raw_max_variables,
                spec.raw_max_generators, spec.raw_max_exponent,
            )
            yield f"raw k={k} I={ideal}", (), None, ideal
        return
    for n in sorted(spec.n_values):
        if spec.family == "forest":
            names = [f"x{i + 1}" for i in range(n)]
            for shape, edges in enumerate(_canonical_rooted_trees(n)):
                for rest in _weight_tuples(spec, n - 1, f"{label}n{n}s{shape}"):
                    weights = (1,) + rest  # the root is a source
                    graph = WeightedDigraph(
                        list(zip(names, weights)), [(names[a], names[b]) for a, b in edges]
                    )
                    yield f"tree n={n} shape={shape} w={weights}", weights, graph, None
        elif spec.family == "unicyclic":
            for weights in _weight_tuples(spec, n, f"{label}n{n}"):
                graph = pendant_path_graph(n - 3, weights)
                yield f"unicyclic n={n} path={n - 3} w={weights}", weights, graph, None
        else:
            for weights in _weight_tuples(spec, n, f"{label}n{n}"):
                yield f"cycle n={n} w={weights}", weights, make_cycle(list(weights)), None


class CampaignInstance:
    """One family member at one power t; ``ideal`` is set for raw ideals only."""

    __slots__ = ("descriptor", "t", "weights", "graph", "ideal")

    def __init__(self, descriptor: str, t: int, weights: tuple[int, ...],
                 graph: WeightedDigraph | None, ideal: MonomialIdeal | None):
        self.descriptor, self.t, self.weights = descriptor, t, weights
        self.graph, self.ideal = graph, ideal

    @property
    def n(self) -> int:
        return self.graph.n_vertices if self.graph is not None else len(self.ideal.variables)


def enumerate_instances(spec: CampaignSpec) -> list[CampaignInstance]:
    """Every member at every t, lexicographic over (member, t)."""
    return [
        CampaignInstance(f"{descriptor} t={t}", t, weights, graph, ideal)
        for descriptor, weights, graph, ideal in _family_members(spec)
        for t in sorted(spec.t_values)
    ]


# -- instance evaluation -----------------------------------------------------


def _evaluate_instance(spec: CampaignSpec, inst: CampaignInstance) -> VerificationRecord:
    start = time.perf_counter()
    try:
        if inst.graph is None:
            # the polarization's regularity stands in for a closed form
            ideal = power(inst.ideal, inst.t)
            plain = betti_table(ideal, spec.field, spec.lattice_cap)
            polar = betti_table(polarize(ideal), spec.field, spec.lattice_cap)
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
    evaluate = partial(_evaluate_instance, spec)
    if spec.workers > 1 and len(instances) > 1:
        from concurrent.futures import ProcessPoolExecutor  # only pools pay its import

        # a fork pool starts all its workers up front, so start no more than there is work for
        with ProcessPoolExecutor(max_workers=min(spec.workers, len(instances))) as pool:
            records = list(pool.map(evaluate, instances))
    else:
        records = [evaluate(inst) for inst in instances]
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


class ReferenceRecord(_Record):
    """``engine_value_gf2`` is set only when the GF(2) regularity disagrees
    with the Q value."""

    __slots__ = ("name", "family", "t", "expected_engine", "expected_formula", "elapsed_s",
                 "ok", "engine_value", "formula_value", "admissible", "violations", "skipped",
                 "engine_value_gf2")

    def __init__(
        self, name: str, family: str, t: int, expected_engine: int, expected_formula: int,
        elapsed_s: float, ok: bool = False, engine_value: int | None = None,
        formula_value: int | None = None, admissible: bool | None = None,
        violations: tuple[str, ...] = (), skipped: str | None = None,
        engine_value_gf2: int | None = None,
    ):
        self.name, self.family, self.t = name, family, t
        self.expected_engine, self.expected_formula = expected_engine, expected_formula
        self.elapsed_s, self.ok, self.engine_value = elapsed_s, ok, engine_value
        self.formula_value, self.admissible, self.violations = formula_value, admissible, violations
        self.skipped, self.engine_value_gf2 = skipped, engine_value_gf2


class ReferenceReport(_Report):
    __slots__ = ("records", "field")
    kind = "reference-examples"

    def __init__(self, records: list[ReferenceRecord], field: str):
        self.records, self.field = records, field

    def exit_code(self) -> int:
        """1 on a failure, else 3 on a capped skip, else 0."""
        if any(not (r.ok or r.skipped) for r in self.records):
            return 1
        return 3 if any(r.skipped for r in self.records) else 0


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
                engine_value_gf2=None if gf2_value == engine_value else gf2_value,
            )
        except ResourceCapError as exc:
            outcome = dict(skipped=str(exc))
        records.append(
            ReferenceRecord(
                name=ex.name, family=family, t=ex.t, expected_engine=ex.expected_engine,
                expected_formula=ex.expected_formula, elapsed_s=time.perf_counter() - start,
                **outcome,
            )
        )
    return ReferenceReport(records=records, field=field)


# -- structure checks ---------------------------------------------------------


class StructureRecord(_Record):
    __slots__ = ("n", "t", "weights", "check", "checked", "failures", "details", "elapsed_s")

    def __init__(self, n: int, t: int, weights: tuple[int, ...], check: str, checked: int,
                 failures: int, details: tuple[str, ...], elapsed_s: float):
        self.n, self.t, self.weights, self.check = n, t, weights, check
        self.checked, self.failures = checked, failures
        self.details, self.elapsed_s = details, elapsed_s


class StructureReport(_Report):
    __slots__ = ("spec", "records")
    kind = "structure"

    def __init__(self, spec: dict, records: list[StructureRecord]):
        self.spec, self.records = spec, records

    def exit_code(self) -> int:
        return 1 if any(r.failures for r in self.records) else 0

    def summary(self) -> dict:
        return {
            "records": len(self.records),
            "checked": sum(r.checked for r in self.records),
            "failures": sum(r.failures for r in self.records),
        }


def _check_basis_structure(graph, t, spec) -> Iterator[tuple[bool, str]]:
    """Unique decomposition and strict lex descent of the ordered basis."""
    basis = ordered_power_basis(graph, t)
    monomials = [e.monomial for e in basis]
    yield len(set(monomials)) == len(monomials), "basis monomials are not pairwise distinct"
    vectors = [e.vector for e in basis]
    yield (
        all(a > b for a, b in zip(vectors, vectors[1:])),
        "basis vectors are not strictly lex-descending",
    )
    yield (
        set(monomials) == set(power(edge_ideal(graph), t).generators),
        "basis monomials differ from the power's minimal generators",
    )


def _check_edge_divisibility(graph, t, spec) -> Iterator[tuple[bool, str]]:
    """Vector-domination test against the product definition, k = 1.

    By definition e1 divides e2 when e2 = e1 * m3 for a generator m3 of
    the (t-1)-th power, i.e. when the exponent difference is one of them.
    """
    if t < 2:
        return
    basis_t = [(e.monomial, e.monomial.dense()) for e in ordered_power_basis(graph, t)]
    basis_1 = [(e.monomial, e.monomial.dense()) for e in ordered_power_basis(graph, 1)]
    lower = {e.monomial.dense() for e in ordered_power_basis(graph, t - 1)}
    for m1, a in basis_1:
        for m2, b in basis_t:
            brute = tuple(y - x for x, y in zip(a, b)) in lower
            ok = edge_divides(m1, 1, m2, t, graph) == brute
            yield ok, "" if ok else f"edge divisibility disagrees for {m1} | {m2}"


def _check_colon_structures(graph, t, spec) -> Iterator[tuple[bool, str]]:
    """Explicit colon form equals the directly computed colon, every index."""
    for i in range(1, len(ordered_power_basis(graph, t))):
        structure = build_colon_structure(graph, t, i)
        direct = colon_by_monomial(structure.tail, structure.entry.monomial)
        yield direct == structure.colon_form, f"colon mismatch at index {i}"


def _check_split_identity(graph, t, spec) -> Iterator[tuple[bool, str]]:
    """Betti additivity across the principal split of the power."""
    ideal = power(edge_ideal(graph), t)
    j_part, k_part = betti_split_power(graph, t)
    j_gens, k_gens = set(j_part.generators), set(k_part.generators)
    yield (
        set(ideal.generators) == j_gens | k_gens and not j_gens & k_gens,
        "split parts are not a disjoint cover of the generators",
    )
    table_i, table_j, table_k, table_jk = (
        betti_table(part, spec.field, spec.lattice_cap)
        for part in (ideal, j_part, k_part, intersect(j_part, k_part))
    )
    keys = set(table_i.entries) | set(table_j.entries) | set(table_k.entries)
    keys |= {(i + 1, j) for (i, j) in table_jk.entries}

    def rhs(i: int, j: int) -> int:
        below = table_jk.rank(i - 1, j) if i >= 1 else 0
        return table_j.rank(i, j) + table_k.rank(i, j) + below

    bad = [
        f"additivity fails at (i={i}, j={j}): {table_i.rank(i, j)} != {rhs(i, j)}"
        for i, j in sorted(keys) if table_i.rank(i, j) != rhs(i, j)
    ]
    yield not bad, bad[0] if bad else ""
    reg_rule = max(table_j.regularity(), table_k.regularity(), table_jk.regularity() - 1)
    yield (
        table_i.regularity() == reg_rule,
        f"regularity rule fails: {table_i.regularity()} != {reg_rule}",
    )


_STRUCTURE_CHECKS = (
    ("basis", _check_basis_structure),
    ("edge-divisibility", _check_edge_divisibility),
    ("colon", _check_colon_structures),
    ("split", _check_split_identity),
)


def run_structure_checks(spec: CampaignSpec) -> StructureReport:
    """Run the ordered-basis property suites over a cycle-family range.

    Each check yields one (ok, detail) verdict per property it tests; a
    record counts them and keeps the first eight failure details.
    """
    if spec.family != "cycle":
        raise ValueError("structure checks are defined for the cycle family only")
    records: list[StructureRecord] = []
    for _, weights, graph, _ in _family_members(spec, "structure-"):
        for t in sorted(spec.t_values):
            for name, check in _STRUCTURE_CHECKS:
                start = time.perf_counter()
                verdicts = list(check(graph, t, spec))
                details = tuple(detail for ok, detail in verdicts if not ok)
                records.append(
                    StructureRecord(
                        n=len(weights), t=t, weights=weights, check=name,
                        checked=len(verdicts), failures=len(details), details=details[:8],
                        elapsed_s=time.perf_counter() - start,
                    )
                )
    return StructureReport(spec=spec.to_json_dict(), records=records)
