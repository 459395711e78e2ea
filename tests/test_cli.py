from __future__ import annotations

import json
import time

import pytest

from edgereg.betti import DEFAULT_LATTICE_CAP, betti_table
from edgereg.cli import _ideal_from_args, build_parser, main
from edgereg.ring import DEGREE_CAP
from edgereg.verify import (
    REFERENCE_EXAMPLES,
    CampaignSpec,
    cycle5_double_out,
    run_campaign,
    square_pendant_light_path,
)

from conftest import write_graph
from oracles import table_regularity_witness


@pytest.fixture
def triangle_path(tmp_path):
    from edgereg.digraph import make_cycle

    return write_graph(make_cycle([2, 2, 2]), tmp_path / "c3.json")


def run_cli(capsys, *argv) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestIdealCommand:
    def test_prints_edge_ideal(self, capsys, triangle_path):
        code, out, _ = run_cli(capsys, "ideal", "--graph", triangle_path)
        assert code == 0
        assert out.strip() == "(x1^2*x3, x1*x2^2, x2*x3^2)"

    def test_normalization_goes_to_stderr(self, capsys, tmp_path):
        path = tmp_path / "g.json"
        path.write_text(json.dumps({
            "vertices": [{"name": "a", "weight": 7}, {"name": "b", "weight": 2}],
            "edges": [["a", "b"]],
        }))
        code, out, err = run_cli(capsys, "ideal", "--graph", str(path))
        assert code == 0
        assert "a" in err and "7" in err
        assert "note" not in out

    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "ideal", "--graph", "/nonexistent.json")
        assert code == 2 and "error" in err


class TestBasisCommand:
    def test_csv_shape(self, capsys, triangle_path):
        code, out, _ = run_cli(capsys, "basis", "--graph", triangle_path, "--t", "2")
        lines = out.strip().splitlines()
        assert code == 0
        assert lines[0] == "index,vector,monomial"
        assert len(lines) == 7
        assert lines[1] == "1,2 0 0,x1^4*x3^2"


class TestBettiCommand:
    def test_json_entries(self, capsys, triangle_path):
        code, out, _ = run_cli(capsys, "betti", "--graph", triangle_path)
        data = json.loads(out)
        assert code == 0
        assert data["field"] == "Q"
        assert {"i": 0, "j": 3, "rank": 3} in data["entries"]

    def test_grid_format(self, capsys, triangle_path):
        code, out, _ = run_cli(capsys, "betti", "--graph", triangle_path, "--format", "grid")
        assert code == 0 and "j\\i" in out

    def test_ideal_text_input(self, capsys):
        code, out, _ = run_cli(capsys, "betti", "--ideal", "(x1, x2)")
        data = json.loads(out)
        assert code == 0
        assert {"i": 1, "j": 2, "rank": 1} in data["entries"]

    def test_unit_ideal_without_variables(self, capsys):
        code, out, _ = run_cli(capsys, "betti", "--ideal", "(1)")
        assert code == 0
        assert json.loads(out) == {"field": "Q", "entries": [{"i": 0, "j": 0, "rank": 1}]}
        code, out, _ = run_cli(capsys, "betti", "--ideal", "(1)", "--format", "grid")
        assert (code, out) == (0, " j\\i |  0\n---------\n   0 |  1\n")

    def test_requires_some_input(self, capsys):
        code, _, err = run_cli(capsys, "betti")
        assert code == 2 and "one of the arguments --graph --ideal is required" in err


class TestRegCommand:
    def test_value_and_witness(self, capsys, triangle_path):
        code, out, _ = run_cli(capsys, "reg", "--graph", triangle_path, "--power", "2")
        lines = out.strip().splitlines()
        assert code == 0
        assert lines[0] == "7"
        assert lines[1].startswith("witness: i=")

    def test_unit_ideal_at_a_huge_power(self, capsys):
        code, out, _ = run_cli(capsys, "reg", "--ideal", "(1)", "--power", "100000000")
        assert (code, out) == (0, "0\nwitness: i=0 j=0\n")

    def test_ideal_text_round_trip(self, capsys):
        code, out, _ = run_cli(capsys, "reg", "--ideal", "(x1^2*x2, x2^3)", "--vars", "x1,x2")
        assert code == 0
        assert out.strip().splitlines()[0] == "4"

    @pytest.mark.parametrize("field", ["Q", "GF2"])
    def test_stdout_matches_a_full_table(self, capsys, tmp_path, triangle_path, field):
        cases = [
            ("--ideal", "(x1, x2)"),
            ("--ideal", "(x1^2*x2, x2^3)", "--vars", "x1,x2"),
            ("--ideal", TestLatticeCap.TRIANGLE),
            ("--ideal", "(x1^2, x2)", "--power", "2"),
            ("--graph", triangle_path, "--power", "2"),
        ]
        for ex in REFERENCE_EXAMPLES:
            path = write_graph(ex.build(), tmp_path / f"{ex.name}.json")
            cases.append(("--graph", path, "--power", str(ex.t)))
        for case in cases:
            argv = ["reg", *case, "--field", field]
            table = betti_table(_ideal_from_args(build_parser().parse_args(argv)), field)
            i, j = table_regularity_witness(table)
            code, out, _ = run_cli(capsys, *argv)
            assert code == 0
            assert out == f"{table.regularity()}\nwitness: i={i} j={j}\n"


class TestLatticeCap:
    # the regularity walk builds 3 of its 4 Mayer-Vietoris tree nodes; the lcm lattice has 7 points
    TRIANGLE = "(x1*x2^2, x2*x3^2, x3*x1^2)"

    def test_capped_reg_fails_until_the_cap_is_raised(self, capsys):
        code, out, err = run_cli(capsys, "reg", "--ideal", self.TRIANGLE, "--lattice-cap", "2")
        assert code == 2 and out == ""
        assert "--lattice-cap" in err and "2" in err and "tree" in err
        code, out, _ = run_cli(capsys, "reg", "--ideal", self.TRIANGLE, "--lattice-cap", "3")
        assert code == 0
        assert out.splitlines()[0] == "4"

    def test_betti_honours_the_cap(self, capsys):
        code, _, err = run_cli(capsys, "betti", "--ideal", self.TRIANGLE, "--lattice-cap", "6")
        assert code == 2 and "--lattice-cap" in err and "lattice" in err
        code, _, _ = run_cli(capsys, "betti", "--ideal", self.TRIANGLE, "--lattice-cap", "7")
        assert code == 0

    def test_verify_passes_the_cap_to_the_campaign(self, capsys, monkeypatch):
        seen = {}
        original = run_campaign

        def spy(spec):
            seen["cap"] = spec.lattice_cap
            return original(spec)

        monkeypatch.setattr("edgereg.verify.run_campaign", spy)
        code, _, _ = run_cli(
            capsys, "verify", "campaign", "--n", "3", "--t", "2", "--lattice-cap", "3",
        )
        assert seen["cap"] == 3
        assert code == 3  # every instance skipped at the cap; rejected input is 2

    def test_verify_examples_honours_the_cap(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "examples", "--lattice-cap", "3")
        assert code == 3
        records = json.loads(out)["records"]
        assert records and all("--lattice-cap" in r["skipped"] for r in records)

    def test_default_is_the_engine_default(self):
        for argv in (["reg", "--ideal", "(x1)"], ["betti", "--graph", "g.json"],
                     ["verify", "campaign"]):
            assert build_parser().parse_args(argv).lattice_cap == DEFAULT_LATTICE_CAP
        assert CampaignSpec("cycle", (3,), (1,)).lattice_cap == DEFAULT_LATTICE_CAP


class TestFormulaCommand:
    def test_auto_on_cycle(self, capsys, triangle_path):
        code, out, _ = run_cli(capsys, "formula", "--graph", triangle_path, "--t", "2")
        data = json.loads(out)
        assert code == 0
        assert data["value"] == 7 and data["admissible"] is True

    def test_auto_on_reoriented_cycle(self, capsys, tmp_path):
        path = write_graph(cycle5_double_out(), tmp_path / "g.json")
        code, out, _ = run_cli(capsys, "formula", "--graph", path, "--t", "2")
        data = json.loads(out)
        assert code == 0
        assert data["value"] == 13 and data["admissible"] is False
        assert data["family"] == "Other"

    def test_explicit_family_mismatch(self, capsys, tmp_path):
        path = write_graph(square_pendant_light_path(), tmp_path / "g.json")
        code, _, err = run_cli(capsys, "formula", "--graph", path, "--family", "cycle")
        assert code == 2 and "Unicyclic" in err


class TestVerifyCommand:
    def test_examples_mode(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "examples")
        data = json.loads(out)
        assert code == 0
        assert data["kind"] == "reference-examples"
        assert all(r["ok"] for r in data["records"])

    def test_examples_out_replaces_stdout(self, capsys, tmp_path):
        out_path = tmp_path / "examples.json"
        code, out, _ = run_cli(capsys, "verify", "examples", "--out", str(out_path))
        assert (code, out) == (0, "")
        assert json.loads(out_path.read_text())["kind"] == "reference-examples"

    def test_campaign_writes_report_and_csv(self, capsys, tmp_path):
        out_path = tmp_path / "report.json"
        csv_path = tmp_path / "report.csv"
        code, _, err = run_cli(
            capsys, "verify", "campaign", "--family", "cycle",
            "--n", "3", "--t", "1..2", "--weights", "2,3",
            "--out", str(out_path), "--csv", str(csv_path),
        )
        assert code == 0
        data = json.loads(out_path.read_text())
        assert data["kind"] == "campaign"
        assert len(data["records"]) == 16
        assert csv_path.read_text().startswith("family,instance")
        assert "mismatches" in err

    def test_structure_mode(self, capsys, tmp_path):
        out_path = tmp_path / "structure.json"
        code, _, _ = run_cli(
            capsys, "verify", "structure", "--n", "3", "--t", "1..2",
            "--weights", "2", "--out", str(out_path),
        )
        assert code == 0
        data = json.loads(out_path.read_text())
        assert data["kind"] == "structure"
        assert data["summary"]["failures"] == 0

    def test_a_degree_cap_is_a_skip_in_a_campaign(self, capsys, tmp_path):
        # an edge generator x1*x2^100000 has degree 100001, so its 20th power is over the cap
        out_path = tmp_path / "report.json"
        code, out, _ = run_cli(capsys, "verify", "campaign", "--n", "3", "--weights", "100000",
                               "--t", "20", "--out", str(out_path))
        assert (code, out) == (3, "")
        (record,) = json.loads(out_path.read_text())["records"]
        assert record["skipped"] == f"monomial degree 2000020 exceeds cap {DEGREE_CAP}"
        assert record["engine_value"] is None

    def test_campaign_exit_code_for_skips(self, capsys, tmp_path, monkeypatch):
        import edgereg.verify as verify_mod

        spec_holder = {}
        original = verify_mod.run_campaign

        def spy(spec):
            spec_holder["spec"] = spec
            return original(spec)

        monkeypatch.setattr("edgereg.verify.run_campaign", spy)
        code, _, _ = run_cli(
            capsys, "verify", "campaign", "--family", "cycle", "--n", "3", "--t", "1",
        )
        assert code == 0
        assert spec_holder["spec"].family == "cycle"

    @pytest.mark.parametrize("family, n_values", [("unicyclic", [4]), ("cycle", [3, 4])])
    def test_default_n_is_the_family_range(self, capsys, family, n_values):
        code, out, _ = run_cli(
            capsys, "verify", "campaign", "--family", family, "--t", "1", "--weights", "2",
        )
        assert code == 0
        assert json.loads(out)["spec"]["n_values"] == n_values


class TestInstanceLimit:
    """A run counts its instances before it builds one, and refuses more
    than ``verify.MAX_INSTANCES``, which ``--max-instances`` sets."""

    @pytest.fixture(autouse=True)
    def restore_the_limit(self, monkeypatch):
        from edgereg import verify

        monkeypatch.setattr(verify, "MAX_INSTANCES", verify.MAX_INSTANCES)

    def test_twenty_vertex_forests_are_refused_at_once(self, capsys):
        # 12,826,228 tree shapes times 10 weight tuples times 2 powers
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "verify", "campaign", "--family", "forest", "--n", "20")
        assert time.perf_counter() - start < 1
        assert (code, out) == (2, "")
        assert err == ("error: the campaign has more than 100000 instances; "
                       "raise the limit with --max-instances to proceed\n")

    @pytest.mark.parametrize("flag", ["--n", "--t"])
    def test_a_range_longer_than_the_limit_is_refused_unbuilt(self, capsys, flag):
        # every value is one instance at least; the tuple of a billion would take gigabytes
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "verify", "campaign", flag, "3..1000000000")
        assert time.perf_counter() - start < 1
        assert (code, out) == (2, "")
        assert err == (f"error: {flag} 3..1000000000 has 999999998 values, more than 100000 "
                       f"instances; raise the limit with --max-instances to proceed\n")
        code, out, err = run_cli(capsys, "verify", "campaign", flag, "3..12",
                                 "--max-instances", "9")
        assert (code, out) == (2, "")
        assert "3..12 has 10 values, more than 9 instances" in err

    @pytest.mark.parametrize("mode", ["campaign", "structure"])
    def test_the_flag_moves_the_limit(self, capsys, mode):
        # n = 3 over two weights has 8 weight tuples, at t = 1 only
        argv = ("verify", mode, "--n", "3", "--t", "1", "--max-instances")
        code, out, err = run_cli(capsys, *argv, "7")
        assert (code, out) == (2, "")
        assert "more than 7 instances" in err and "--max-instances" in err
        code, out, _ = run_cli(capsys, *argv, "8")
        assert code == 0 and json.loads(out)["records"]

    @pytest.mark.parametrize("value", ["0", "-2", "many"])
    def test_a_limit_that_is_not_a_positive_int_is_refused(self, capsys, value):
        code, out, err = run_cli(capsys, "verify", "campaign", "--max-instances", value)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"argument --max-instances: needs an int >= 1, got {value!r}" in err


class TestBadInput:
    """Every rejected input is one ``error:`` line on stderr and exit 2."""

    @pytest.mark.parametrize(
        "argv",
        [
            ("reg", "--ideal", "(x1^2, x2)", "--power", "0"),
            ("reg", "--ideal", "(x1^2, x2)", "--power", "-3"),
            ("betti", "--ideal", "(x1^2, x2)", "--power", "0"),
            ("formula", "--graph", "{graph}", "--t", "0"),
            ("basis", "--graph", "{graph}", "--t", "0"),
            ("verify", "campaign", "--n", "5..3"),
            ("ideal", "--graph", "{malformed}"),
            ("ideal", "--graph", "{numeric_name}"),
            ("ideal", "--graph", "{list_endpoint}"),
            ("reg", "--ideal", "(x1*x2^2, x2*x3^2, x3*x1^2)", "--lattice-cap", "2"),
            ("verify", "campaign", "--workers", "0"),
            ("verify", "campaign", "--workers", "-3"),
            ("verify", "campaign", "--weights", ""),
            ("verify", "campaign", "--n", "2"),
            ("verify", "structure", "--n", "2"),
            ("verify", "campaign", "--family", "unicyclic", "--n", "3..4"),
            ("verify", "structure", "--family", "unicyclic", "--t", "1"),
            ("verify", "structure", "--n", "3", "--t", "1", "--csv", "{csv}"),
            ("verify", "examples", "--csv", "{csv}"),
            ("verify", "examples", "--family", "unicyclic", "--n", "9", "--workers", "3",
             "--seed", "5"),
            ("verify", "examples", "--family", "cycle"),
            ("verify", "examples", "--n", "3"),
            ("verify", "examples", "--t", "1"),
            ("verify", "examples", "--weights", "2"),
            ("verify", "examples", "--seed", "0"),
            ("verify", "examples", "--workers", "1"),
            ("verify", "campaign", "--n", "3", "--t", "1", "--csv", ""),
            ("verify", "campaign", "--n", "3", "--t", "1", "--out", ""),
            ("verify", "examples", "--out", ""),
            ("reg", "--ideal", "(x1)", "--lattice-cap", "-1"),
            ("reg", "--ideal", "(x1)", "--lattice-cap", "0"),
            ("reg", "--ideal", "(x1*x2^2, x2*x3^2, x3*x1^2)", "--lattice-cap", "0"),
            ("betti", "--ideal", "(x1)", "--lattice-cap", "0"),
            ("verify", "campaign", "--n", "3", "--t", "1", "--lattice-cap", "0"),
            ("verify", "structure", "--n", "3", "--t", "1", "--lattice-cap", "-1"),
            ("verify", "examples", "--lattice-cap", "0"),
            ("reg", "--field", "X"),
            ("formula", "--graph", "{graph}", "--t", "abc"),
            ("verify", "bogus"),
            (),
            ("reg", "--lattice-cap", "many"),
            ("verify", "campaign", "--unknown-flag"),
            ("verify", "campaign", "--weights", "2,2", "--n", "3", "--t", "1"),
            ("verify", "campaign", "--weights", "2", "--n", "3,3", "--t", "1,1"),
            ("verify", "campaign", "--n", "3", "--t", "1,2,1"),
            ("verify", "structure", "--n", "3,4,3", "--t", "1"),
            ("verify", "campaign", "--n", "3", "--t", "0"),
            ("verify", "campaign", "--n", "3", "--t", "1", "--weights", "0,2"),
            ("verify", "structure", "--n", "3", "--t", "0"),
            ("reg", "--graph", "{graph}", "--ideal", "(x1)"),
            ("betti", "--ideal", "(x1)", "--graph", "{graph}"),
            ("reg", "--graph", "{graph}", "--vars", "x1,x2,x3"),
            ("betti", "--graph", "{graph}", "--vars", "x1"),
            ("reg", "--ideal", "(x1*x2)", "--power", "600000"),
            ("verify", "structure", "--n", "3", "--t", "1", "--workers", "2"),
            ("verify", "structure", "--family", "cycle", "--n", "3", "--t", "1"),
            ("verify", "campaign", "--n", "70", "--t", "1"),
            ("formula", "--graph", "{graph}", "--t", "65"),
            ("verify", "campaign", "--family", "forest", "--n", "20"),
            ("verify", "campaign", "--n", "3..1000000"),
            ("verify", "structure", "--n", "3", "--t", "1..1000000"),
            ("verify", "campaign", "--n", ""),
            ("verify", "structure", "--n", ""),
            ("betti", "--ideal", "(x)", "--vars", ""),
            ("reg", "--ideal", "(x)", "--vars", ""),
            ("reg", "--ideal", "(x^99999999999)"),
        ],
    )
    def test_one_line_error(self, capsys, tmp_path, triangle_path, argv):
        malformed = tmp_path / "bad.json"
        malformed.write_text('{"vertices": [')
        numeric_name = tmp_path / "numeric_name.json"
        numeric_name.write_text(json.dumps({
            "vertices": [{"name": 5, "weight": 2}], "edges": [],
        }))
        list_endpoint = tmp_path / "list_endpoint.json"
        list_endpoint.write_text(json.dumps({
            "vertices": [{"name": "a", "weight": 2}, {"name": "b", "weight": 2}],
            "edges": [["a", ["b"]]],
        }))
        csv = tmp_path / "out.csv"
        files = dict(graph=triangle_path, malformed=malformed, csv=csv,
                     numeric_name=numeric_name, list_endpoint=list_endpoint)
        argv = [a.format(**files) for a in argv]
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not csv.exists()

    @pytest.mark.parametrize("flag, value", [
        ("--n", "3..a"), ("--n", "x"), ("--t", "1.."), ("--t", "1..2..3"),
        ("--weights", "2,x"), ("--weights", "2..3"), ("--t", "3,"), ("--weights", "2,,3"),
    ])
    def test_unreadable_integers_name_their_flag(self, capsys, flag, value):
        code, out, err = run_cli(capsys, "verify", "campaign", flag, value)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {flag} takes integers as ") and err.count("\n") == 1
        assert repr(value) in err

    @pytest.mark.parametrize("argv", [
        ("verify", "campaign", "--n", ""),
        ("verify", "structure", "--n", ""),
        ("betti", "--ideal", "(x)", "--vars", ""),
        ("reg", "--ideal", "(x)", "--vars", ""),
        ("reg", "--ideal", "(x, y)", "--vars", "x,,y"),
    ])
    def test_an_empty_value_is_refused_by_its_flag(self, capsys, argv):
        # an empty --n or --vars is not read as the flag left out
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {argv[-2]} takes ") and err.count("\n") == 1

    @pytest.mark.parametrize("argv", [("--help",), ("reg", "--help"), ("verify", "--help")])
    def test_help_still_exits_zero(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 0
        assert "usage:" in capsys.readouterr().out
