from __future__ import annotations

import csv
import hashlib
import importlib.util
import io
import json
import random
from itertools import product
from pathlib import Path

import pytest

from edgereg import verify
from edgereg.errors import ResourceCapError
from edgereg.verify import (
    CampaignReport,
    CampaignSpec,
    ReferenceRecord,
    ReferenceReport,
    VerificationRecord,
    enumerate_instances,
    pendant_path_graph,
    run_campaign,
    run_reference_examples,
    run_structure_checks,
)

from conftest import seeded_random_ideal


class TestReferenceExamples:
    def test_all_reference_instances_pass(self):
        report = run_reference_examples()
        assert [r.name for r in report.records] == [
            "cycle5-two-light-vertices",
            "cycle5-double-out",
            "square-pendant-light-path",
            "square-pendant-inward-edge",
        ]
        assert [r.engine_value for r in report.records] == [10, 14, 10, 11]
        assert [r.formula_value for r in report.records] == [11, 13, 9, 10]
        assert all(not r.admissible for r in report.records)
        assert all(r.ok for r in report.records)
        assert report.exit_code() == 0

    def test_families_as_expected(self):
        report = run_reference_examples()
        assert [r.family for r in report.records] == [
            "OrientedCycle", "Other", "Unicyclic", "Other",
        ]

    def test_json_shape(self):
        data = run_reference_examples().to_json_dict()
        assert data["kind"] == "reference-examples"
        assert data["report_version"] == 1
        assert len(data["records"]) == 4

    def test_reference_values_are_field_independent(self):
        # the GF(2) column only lights up on characteristic dependence,
        # which these four instances do not exhibit
        report = run_reference_examples()
        assert all(r.engine_value_gf2 is None for r in report.records)


def small_cycle_spec(**overrides) -> CampaignSpec:
    base = dict(family="cycle", n_values=(3,), t_values=(1, 2), weight_alphabet=(2, 3))
    base.update(overrides)
    return CampaignSpec(**base)


class TestCampaigns:
    def test_small_cycle_campaign_all_match(self):
        report = run_campaign(small_cycle_spec())
        assert report.exit_code() == 0
        assert len(report.records) == 8 * 2  # {2,3}^3 exhaustive, two powers
        assert all(r.match for r in report.records)

    def test_record_count_is_complete(self):
        spec = small_cycle_spec()
        assert len(run_campaign(spec).records) == len(enumerate_instances(spec))

    def test_forest_campaign(self):
        spec = CampaignSpec(family="forest", n_values=(2, 3), t_values=(1, 2))
        report = run_campaign(spec)
        assert report.exit_code() == 0
        assert all(r.match for r in report.records)
        # one 2-vertex shape, two 3-vertex shapes, weights on non-roots
        assert len(report.records) == (1 * 2 + 2 * 4) * 2

    def test_unicyclic_campaign(self):
        spec = CampaignSpec(family="unicyclic", n_values=(4,), t_values=(1, 2))
        report = run_campaign(spec)
        assert report.exit_code() == 0
        assert all(r.match for r in report.records)

    def test_raw_ideal_campaign_checks_polarization(self):
        spec = CampaignSpec(
            family="raw-ideal", n_values=(1,), t_values=(1,), sample_size=6
        )
        report = run_campaign(spec)
        assert report.exit_code() == 0
        assert len(report.records) == 6
        assert all(r.match for r in report.records)

    def test_raw_ideals_are_the_corpora_sampler_at_its_default_bounds(self):
        for k in range(100):
            drawn = verify.random_monomial_ideal(random.Random(f"bounds:{k}"))
            assert drawn == seeded_random_ideal(f"bounds:{k}")

    def test_sampling_kicks_in_past_the_cap(self):
        spec = small_cycle_spec(n_values=(5,), t_values=(1,), exhaustive_cap=16, sample_size=10)
        report = run_campaign(spec)
        assert len(report.records) == 10

    def test_workers_match_serial(self):
        spec = small_cycle_spec(t_values=(1,))
        serial = run_campaign(spec)
        parallel = run_campaign(small_cycle_spec(t_values=(1,), workers=2))
        a = json.loads(serial.canonical_json())
        b = json.loads(parallel.canonical_json())
        a["spec"].pop("workers")
        b["spec"].pop("workers")
        assert a == b

    def test_the_pool_starts_no_more_workers_than_instances(self, monkeypatch):
        import concurrent.futures

        started = []

        class RecordingPool:  # records the pool size and runs in process
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        report = run_campaign(small_cycle_spec(t_values=(1,), workers=9999))
        assert started == [len(report.records)] == [8]
        run_campaign(small_cycle_spec(t_values=(1,), workers=3))
        assert started[-1] == 3


class TestDeterminism:
    def test_identical_runs_are_byte_identical(self):
        spec = small_cycle_spec(n_values=(3, 5), exhaustive_cap=8, sample_size=5)
        first = run_campaign(spec).canonical_json()
        second = run_campaign(spec).canonical_json()
        assert first == second

    def test_timings_are_outside_the_canonical_form(self):
        report = run_campaign(small_cycle_spec(t_values=(1,)))
        assert "elapsed" not in report.canonical_json()
        assert "elapsed_s" in report.to_json()

    def test_seed_changes_the_sample(self):
        a = run_campaign(small_cycle_spec(n_values=(5,), t_values=(1,), seed=0, sample_size=5))
        b = run_campaign(small_cycle_spec(n_values=(5,), t_values=(1,), seed=1, sample_size=5))
        assert a.canonical_json() != b.canonical_json()

    def test_enumeration_is_lexicographic(self):
        spec = small_cycle_spec(n_values=(4, 3), t_values=(2, 1))
        recs = run_campaign(spec).records
        keys = [(r.n, r.weights, r.t) for r in recs]
        assert keys == sorted(keys)


class TestSkipsAndExitCodes:
    def test_lattice_cap_produces_skip_records(self):
        spec = small_cycle_spec(t_values=(2,), lattice_cap=3)
        report = run_campaign(spec)
        assert report.exit_code() == 3
        assert all(r.skipped for r in report.records)
        assert all("cap" in r.skipped for r in report.records)

    def test_fabricated_mismatch_dominates_exit_code(self):
        bad = VerificationRecord(
            family="cycle", instance="synthetic", n=3, t=1, weights=(2, 2, 2),
            field="Q", formula_value=4, admissible=True, engine_value=5, match=False,
        )
        skip = VerificationRecord(
            family="cycle", instance="synthetic-skip", n=3, t=1, weights=(2, 2, 2),
            field="Q", skipped="resource cap",
        )
        report = CampaignReport(spec={}, records=[bad, skip])
        assert report.exit_code() == 1
        assert report.summary()["mismatches"] == 1

    def test_fabricated_reference_failure_dominates_exit_code(self):
        common = dict(family="Other", t=2, expected_engine=14, expected_formula=13, elapsed_s=0.0)
        bad = ReferenceRecord(name="synthetic", engine_value=15, formula_value=13, **common)
        skip = ReferenceRecord(name="synthetic-skip", skipped="resource cap", **common)
        good = ReferenceRecord(name="synthetic-ok", ok=True, engine_value=14, **common)
        assert ReferenceReport(records=[bad, skip], field="Q").exit_code() == 1
        assert ReferenceReport(records=[skip, good], field="Q").exit_code() == 3
        assert ReferenceReport(records=[good], field="Q").exit_code() == 0


class TestCsv:
    def test_round_trips_through_csv_reader(self):
        report = run_campaign(small_cycle_spec(t_values=(1,)))
        rows = list(csv.DictReader(io.StringIO(report.to_csv())))
        assert len(rows) == len(report.records)
        assert rows[0]["family"] == "cycle"
        assert rows[0]["match"] == "True"

    def test_header_is_the_record_column_order(self):
        header = next(csv.reader(io.StringIO(CampaignReport(spec={}, records=[]).to_csv())))
        assert tuple(header) == (
            "family", "instance", "n", "t", "weights", "field", "formula_value", "admissible",
            "violations", "engine_value", "match", "skipped", "elapsed_s",
        )


class TestRecordForm:
    """Records and specs are plain slots classes; their JSON is written in
    the order of their slots, which is the order of their constructor
    arguments.  A worker pool pickles them: see test_workers_match_serial."""

    SPEC = CampaignSpec(family="cycle", n_values=(3,), t_values=(1,))
    RECORDS = (
        VerificationRecord(family="cycle", instance="c3", n=3, t=1, weights=(2, 2, 2),
                           field="Q", elapsed_s=0.12345678),
        ReferenceRecord(name="r", family="Other", t=2, expected_engine=14, expected_formula=13,
                        elapsed_s=0.5),
        verify.StructureRecord(n=3, t=1, weights=(2, 2, 2), check="basis", checked=3,
                               failures=0, details=(), elapsed_s=0.25),
    )

    def test_keyword_records_with_defaults_serialize_as_before(self):
        assert json.dumps(self.SPEC.to_json_dict()) == (
            '{"family": "cycle", "n_values": [3], "t_values": [1], "weight_alphabet": [2, 3], '
            '"seed": 0, "exhaustive_cap": 16, "sample_size": 10, "field": "Q", '
            '"lattice_cap": 200000, "workers": 1, "raw_max_variables": 4, '
            '"raw_max_generators": 4, "raw_max_exponent": 3}'
        )
        campaign, reference, structure = (json.dumps(r.to_json_dict()) for r in self.RECORDS)
        assert campaign == (
            '{"family": "cycle", "instance": "c3", "n": 3, "t": 1, "weights": [2, 2, 2], '
            '"field": "Q", "formula_value": null, "admissible": null, "violations": [], '
            '"engine_value": null, "match": null, "skipped": null, "elapsed_s": 0.123457}'
        )
        assert reference == (
            '{"name": "r", "family": "Other", "t": 2, "expected_engine": 14, '
            '"expected_formula": 13, "elapsed_s": 0.5, "ok": false, "engine_value": null, '
            '"formula_value": null, "admissible": null, "violations": [], "skipped": null, '
            '"engine_value_gf2": null}'
        )
        assert structure == (
            '{"n": 3, "t": 1, "weights": [2, 2, 2], "check": "basis", "checked": 3, '
            '"failures": 0, "details": [], "elapsed_s": 0.25}'
        )
        for r in self.RECORDS:
            untimed = r.to_json_dict(include_timings=False)
            assert "elapsed_s" not in untimed
            assert untimed == {k: v for k, v in r.to_json_dict().items() if k != "elapsed_s"}


class TestStructureChecks:
    def test_small_structure_sweep_posts_no_failures(self):
        spec = CampaignSpec(
            family="cycle", n_values=(3, 4), t_values=(1, 2), weight_alphabet=(2,)
        )
        report = run_structure_checks(spec)
        assert report.exit_code() == 0
        assert report.summary()["failures"] == 0
        checks = {r.check for r in report.records}
        assert checks == {"basis", "edge-divisibility", "colon", "split"}

    def test_cycle_family_required(self):
        with pytest.raises(ValueError):
            run_structure_checks(CampaignSpec(family="forest", n_values=(3,), t_values=(1,)))

    def test_split_tables_use_the_spec_field_and_cap(self, monkeypatch):
        seen = []
        original = verify.betti_table

        def spy(ideal, *args):
            seen.append(args)
            return original(ideal, *args)

        monkeypatch.setattr(verify, "betti_table", spy)
        spec = CampaignSpec(
            family="cycle", n_values=(3,), t_values=(1, 2), weight_alphabet=(2,),
            field="GF2", lattice_cap=5000,
        )
        assert run_structure_checks(spec).exit_code() == 0
        # four tables per split check, one split check per (graph, t)
        assert seen == [("GF2", 5000)] * 8

    def test_structure_report_deterministic(self):
        spec = CampaignSpec(family="cycle", n_values=(3,), t_values=(1,), weight_alphabet=(2, 3))
        assert (
            run_structure_checks(spec).canonical_json()
            == run_structure_checks(spec).canonical_json()
        )


class TestSpecValidation:
    def test_unknown_family(self):
        with pytest.raises(ValueError):
            CampaignSpec(family="mystery", n_values=(3,), t_values=(1,))

    def test_empty_ranges(self):
        with pytest.raises(ValueError):
            CampaignSpec(family="cycle", n_values=(), t_values=(1,))

    @pytest.mark.parametrize("workers", [0, -3])
    def test_workers_below_one(self, workers):
        with pytest.raises(ValueError, match="workers"):
            small_cycle_spec(workers=workers)

    @pytest.mark.parametrize("family", ["cycle", "raw-ideal"])
    def test_sample_size_below_one(self, family):
        with pytest.raises(ValueError, match="sample_size"):
            CampaignSpec(family=family, n_values=(5,), t_values=(1,), sample_size=0)

    @pytest.mark.parametrize("cap", [0, -1])
    def test_lattice_cap_below_one(self, cap):
        with pytest.raises(ValueError, match=f"lattice.cap.*{cap}"):
            small_cycle_spec(lattice_cap=cap)

    @pytest.mark.parametrize("field", ["Z", "q", None])
    def test_unknown_field(self, field):
        # rejected when the spec is built, not when a campaign first uses it
        with pytest.raises(ValueError, match="unknown field"):
            small_cycle_spec(field=field)

    def test_empty_weight_alphabet(self):
        with pytest.raises(ValueError, match="weight_alphabet"):
            small_cycle_spec(weight_alphabet=())

    @pytest.mark.parametrize("family, n_values", [
        ("cycle", (2,)), ("cycle", (1, 2)), ("forest", (1,)), ("unicyclic", (3,)),
    ])
    def test_every_n_below_the_family_minimum(self, family, n_values):
        with pytest.raises(ValueError, match="n >="):
            CampaignSpec(family=family, n_values=n_values, t_values=(1,))

    def test_one_n_below_the_family_minimum_rejects_the_spec(self):
        with pytest.raises(ValueError, match="n >= 4"):
            CampaignSpec(family="unicyclic", n_values=(3, 4), t_values=(1,))

    @pytest.mark.parametrize("field, values", [
        ("n_values", (3, 3)), ("n_values", (3, 4, 3)), ("t_values", (1, 1)),
        ("t_values", (2, 1, 2)), ("weight_alphabet", (2, 2)), ("weight_alphabet", (3, 2, 3)),
    ])
    def test_repeated_entries(self, field, values):
        with pytest.raises(ValueError, match=rf"\({field}=\) repeats"):
            small_cycle_spec(**{field: values})

    @pytest.mark.parametrize("field, values", [
        ("n_values", (3.0,)), ("n_values", (3, "4")), ("t_values", (True,)),
        ("t_values", (1, False)), ("weight_alphabet", (2, True)), ("weight_alphabet", (2.5,)),
    ])
    def test_entries_that_are_not_plain_ints(self, field, values):
        with pytest.raises(ValueError, match=rf"\({field}=\) must hold plain ints"):
            small_cycle_spec(**{field: values})

    @pytest.mark.parametrize("field", [
        "seed", "exhaustive_cap", "sample_size", "workers", "lattice_cap",
    ])
    @pytest.mark.parametrize("value", [True, False, 2.0, "3", None])
    def test_scalar_fields_that_are_not_plain_ints(self, field, value):
        with pytest.raises(ValueError, match=rf"^{field}= must be a plain int"):
            small_cycle_spec(**{field: value})

    @pytest.mark.parametrize("field, value", [
        ("raw_max_variables", 1), ("raw_max_generators", 0), ("raw_max_exponent", 0),
    ])
    def test_the_raw_sampler_bounds_are_not_settable(self, field, value):
        # each of these values once left a raw-ideal campaign unable to draw
        with pytest.raises(TypeError, match=rf"unexpected keyword argument '{field}'"):
            CampaignSpec(family="raw-ideal", n_values=(1,), t_values=(1,), **{field: value})

    @pytest.mark.parametrize("field, flag, values", [
        ("t_values", "t", (0,)), ("t_values", "t", (2, -1)), ("weight_alphabet", "weights", (0, 2)),
    ])
    def test_entries_below_one_name_their_flag(self, field, flag, values):
        with pytest.raises(ValueError, match=rf"^--{flag} \({field}=\) entries must be at least 1"):
            small_cycle_spec(**{field: values})

    @pytest.mark.parametrize("family, alphabet, most", [
        ("cycle", (2, 3), 62), ("unicyclic", (2, 3), 62), ("forest", (2, 3), 63),
        ("cycle", (2, 3, 4), 39),
    ])
    def test_more_weight_tuples_than_a_sample_can_draw_from(self, family, alphabet, most):
        # a sample draws from range(|alphabet|^free); above sys.maxsize it cannot
        with pytest.raises(ValueError, match=rf"^--n \(n_values=\) allows n <= {most} "):
            CampaignSpec(family=family, n_values=(4, most + 1), t_values=(1,),
                         weight_alphabet=alphabet)
        spec = CampaignSpec(family=family, n_values=(most,), t_values=(1,),
                            weight_alphabet=alphabet)
        free = most - (family == "forest")
        assert len(verify._weight_tuples(spec, free, "limit")) == spec.sample_size
        with pytest.raises(OverflowError):
            verify._weight_tuples(spec, free + 1, "limit")

    def test_one_weight_takes_any_n(self):
        CampaignSpec(family="cycle", n_values=(1000,), t_values=(1,), weight_alphabet=(2,))

    def test_graph_builder_validates_weights(self):
        with pytest.raises(ValueError):
            pendant_path_graph(1, [2, 2, 2])



class TestInstanceCount:
    """``_check_instance_count`` counts what ``_family_members`` would build."""

    A000081 = [1, 1, 2, 4, 9, 20, 48, 115, 286, 719, 1842, 4766, 12486, 32973, 87811,
               235381, 634847, 1721159, 4688676, 12826228]

    @pytest.mark.parametrize("n", range(2, 21))
    def test_one_weight_counts_the_rooted_trees(self, monkeypatch, n):
        spec = CampaignSpec(family="forest", n_values=(n,), t_values=(1,), weight_alphabet=(2,))
        monkeypatch.setattr(verify, "MAX_INSTANCES", self.A000081[n - 1])  # read at each run
        verify._check_instance_count(spec)
        monkeypatch.setattr(verify, "MAX_INSTANCES", self.A000081[n - 1] - 1)
        with pytest.raises(ResourceCapError, match="more than"):
            verify._check_instance_count(spec)

    def test_the_tree_counts_are_the_enumerated_shapes(self):
        assert self.A000081[:9] == [len(verify._canonical_rooted_trees(n)) for n in range(1, 10)]

    def test_a_huge_forest_is_refused_once_its_count_passes_the_limit(self):
        spec = CampaignSpec(family="forest", n_values=(10**6,), t_values=(1,), weight_alphabet=(2,))
        with pytest.raises(ResourceCapError, match="more than 100000 instances"):
            verify._check_instance_count(spec)

    @pytest.mark.parametrize("spec", [
        dict(family="cycle", n_values=(3, 4, 5), t_values=(1, 2)),
        dict(family="forest", n_values=(2, 3, 4, 5, 6), t_values=(1, 2)),
        dict(family="unicyclic", n_values=(4, 5), t_values=(1, 3), exhaustive_cap=32),
        dict(family="raw-ideal", n_values=(1,), t_values=(1, 2), sample_size=7),
        dict(family="cycle", n_values=(40,), t_values=(1,), weight_alphabet=(2,)),
    ])
    def test_the_count_is_the_enumerated_count(self, monkeypatch, spec):
        spec = CampaignSpec(**spec)
        size = len(enumerate_instances(spec))
        monkeypatch.setattr(verify, "MAX_INSTANCES", size)
        assert len(enumerate_instances(spec)) == size
        monkeypatch.setattr(verify, "MAX_INSTANCES", size - 1)
        with pytest.raises(ResourceCapError, match=f"more than {size - 1} instances"):
            enumerate_instances(spec)

    def test_a_refused_run_builds_no_tree(self, monkeypatch):
        def building(n):
            raise AssertionError("a tree was enumerated")

        monkeypatch.setattr(verify, "_canonical_rooted_trees", building)
        spec = CampaignSpec(family="forest", n_values=(14,), t_values=(1,))
        with pytest.raises(ResourceCapError, match="--max-instances"):
            run_campaign(spec)

    def test_structure_checks_count_their_instances(self, monkeypatch):
        monkeypatch.setattr(verify, "MAX_INSTANCES", 7)
        with pytest.raises(ResourceCapError, match="more than 7 instances"):
            run_structure_checks(CampaignSpec(family="cycle", n_values=(3,), t_values=(1,)))


def _sampled_from_the_full_list(spec, n_free, label):
    """The weight tuples as a sample of the fully built sorted list."""
    everything = sorted(product(spec.weight_alphabet, repeat=n_free))
    if len(everything) <= spec.exhaustive_cap:
        return everything
    rng = random.Random(f"{spec.seed}:{spec.family}:{label}")
    picked = rng.sample(range(len(everything)), min(spec.sample_size, len(everything)))
    return [everything[i] for i in sorted(picked)]


class TestWeightTuples:
    @pytest.mark.parametrize("alphabet", [(2,), (2, 3), (3, 1, 2), (5, 1, 4, 2)])
    @pytest.mark.parametrize("seed", [0, 7, 19])
    @pytest.mark.parametrize("cap, size", [(16, 10), (1, 3), (4, 100)])
    def test_equal_to_a_sample_of_the_full_list(self, alphabet, seed, cap, size):
        spec = small_cycle_spec(
            weight_alphabet=alphabet, seed=seed, exhaustive_cap=cap, sample_size=size,
        )
        for n_free in range(6):
            for label in ("c0n3", "u1n5", "f0n4s2"):
                assert verify._weight_tuples(spec, n_free, label) == _sampled_from_the_full_list(
                    spec, n_free, label
                )

    def test_a_sample_builds_only_the_tuples_it_picks(self):
        # 2**40 tuples could not all be built; the sample needs only its own
        spec = small_cycle_spec(weight_alphabet=(3, 2))
        tuples = verify._weight_tuples(spec, 40, "c0n40")
        assert len(tuples) == spec.sample_size
        assert tuples == sorted(set(tuples))
        assert all(len(w) == 40 and set(w) <= {2, 3} for w in tuples)


def _rooted_trees_by_brute_force(n):
    """Every parent tuple in lex order; each shape keeps its first tuple."""
    shapes = {}
    for parents in product(*[range(i) for i in range(1, n)]):
        children = {}
        for c, p in enumerate(parents, 1):
            children.setdefault(p, []).append(c)

        def encode(v):
            return tuple(sorted(encode(c) for c in children.get(v, [])))

        shapes.setdefault(encode(0), tuple((p, c) for c, p in enumerate(parents, 1)))
    return [shapes[k] for k in sorted(shapes)]


class TestCanonicalRootedTrees:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_equal_to_the_brute_force(self, n):
        assert verify._canonical_rooted_trees(n) == _rooted_trees_by_brute_force(n)

    def test_twelve_vertices(self):
        # the brute force would walk 11! parent tuples
        assert len(verify._canonical_rooted_trees(12)) == 4766


def _run_sweeps_module():
    path = Path(__file__).resolve().parents[1] / "scripts" / "run_sweeps.py"
    spec = importlib.util.spec_from_file_location("run_sweeps", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# sha256 of each report's canonical JSON.  Any change to a descriptor, the
# record order, a count or a detail text changes them; update them only
# for an intended change to the reports.
PINNED_SHA256 = {
    "cycle": "5f0efea6d3dffc8fbfd76351c2bfe92d2a782048d61af54e43f73d613e37e048",
    "forest": "8452d8c2a870b8af02b85839e239102aa796aa96ea3a6f5a3abbbacdc1b6afaa",
    "unicyclic": "f6e8b63361b518006f9c59e1805133077a2c162a246f8b7e6d928de5134f783f",
    "raw-ideal": "17835d22b61723c88eab3b8103cce86d0a967ced63448fecbf43f25e45bc791d",
    "structure": "61f53f72f1d166a18b17c95e230442db010e85fc58fb6547087d8329077dbac4",
    "examples": "9172b68f42e8e7f435268f4e713ab8ee55f9c43d766752ea3a1817ddee7685d2",
}


def test_sweep_reports_match_their_pinned_bytes():
    sweeps = _run_sweeps_module()
    texts = {spec.family: run_campaign(spec).canonical_json() for spec in sweeps.SWEEPS}
    texts["structure"] = run_structure_checks(sweeps.STRUCTURE).canonical_json()
    texts["examples"] = json.dumps(
        run_reference_examples().to_json_dict(include_timings=False),
        sort_keys=True, separators=(",", ":"),
    )
    digests = {name: hashlib.sha256(text.encode()).hexdigest() for name, text in texts.items()}
    assert digests == PINNED_SHA256
