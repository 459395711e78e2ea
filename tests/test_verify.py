from __future__ import annotations

import csv
import hashlib
import importlib.util
import io
import json
from pathlib import Path

import pytest

from edgereg import verify
from edgereg.verify import (
    CampaignReport,
    CampaignSpec,
    VerificationRecord,
    enumerate_instances,
    pendant_path_graph,
    run_campaign,
    run_reference_examples,
    run_structure_checks,
)


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


class TestDeterminism:
    def test_identical_runs_are_byte_identical(self):
        spec = small_cycle_spec(n_values=(3, 5), exhaustive_cap=8, sample_size=5)
        first = run_campaign(spec).canonical_json()
        second = run_campaign(spec).canonical_json()
        assert first == second

    def test_timings_are_outside_the_canonical_form(self):
        report = run_campaign(small_cycle_spec(t_values=(1,)))
        assert "elapsed" not in report.canonical_json()
        assert "elapsed_s" in report.to_json(include_timings=True)

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


class TestCsv:
    def test_round_trips_through_csv_reader(self):
        report = run_campaign(small_cycle_spec(t_values=(1,)))
        rows = list(csv.DictReader(io.StringIO(report.to_csv())))
        assert len(rows) == len(report.records)
        assert rows[0]["family"] == "cycle"
        assert rows[0]["match"] == "True"


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

    def test_empty_weight_alphabet(self):
        with pytest.raises(ValueError, match="weight_alphabet"):
            small_cycle_spec(weight_alphabet=())

    @pytest.mark.parametrize("family, n_values", [
        ("cycle", (2,)), ("cycle", (1, 2)), ("forest", (1,)), ("unicyclic", (3,)),
    ])
    def test_every_n_below_the_family_minimum(self, family, n_values):
        with pytest.raises(ValueError, match="n >="):
            CampaignSpec(family=family, n_values=n_values, t_values=(1,))

    def test_a_valid_n_keeps_the_spec_and_drops_the_rest(self):
        spec = CampaignSpec(family="unicyclic", n_values=(3, 4), t_values=(1,))
        assert {inst.n for inst in enumerate_instances(spec)} == {4}

    def test_graph_builder_validates_weights(self):
        with pytest.raises(ValueError):
            pendant_path_graph(1, [2, 2, 2])


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
