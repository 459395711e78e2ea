from __future__ import annotations

import json

import pytest

from edgereg.betti import DEFAULT_LATTICE_CAP, betti_table
from edgereg.cli import _ideal_from_args, build_parser, main
from edgereg.digraph import save_graph
from edgereg.verify import (
    REFERENCE_EXAMPLES,
    CampaignSpec,
    cycle5_double_out,
    run_campaign,
    square_pendant_light_path,
)


@pytest.fixture
def triangle_path(tmp_path):
    from edgereg.digraph import make_cycle

    path = str(tmp_path / "c3.json")
    save_graph(make_cycle([2, 2, 2]), path)
    return path


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

    def test_requires_some_input(self, capsys):
        code, _, err = run_cli(capsys, "betti")
        assert code == 2 and "provide" in err


class TestRegCommand:
    def test_value_and_witness(self, capsys, triangle_path):
        code, out, _ = run_cli(capsys, "reg", "--graph", triangle_path, "--power", "2")
        lines = out.strip().splitlines()
        assert code == 0
        assert lines[0] == "7"
        assert lines[1].startswith("witness: i=")

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
            path = str(tmp_path / f"{ex.name}.json")
            save_graph(ex.build(), path)
            cases.append(("--graph", path, "--power", str(ex.t)))
        for case in cases:
            argv = ["reg", *case, "--field", field]
            table = betti_table(_ideal_from_args(build_parser().parse_args(argv)), field)
            i, j = table.regularity_witness()
            code, out, _ = run_cli(capsys, *argv)
            assert code == 0
            assert out == f"{table.regularity()}\nwitness: i={i} j={j}\n"


class TestLatticeCap:
    # its Mayer-Vietoris tree has 4 nodes and its lcm lattice 7 points
    TRIANGLE = "(x1*x2^2, x2*x3^2, x3*x1^2)"

    def test_capped_reg_fails_until_the_cap_is_raised(self, capsys):
        code, out, err = run_cli(capsys, "reg", "--ideal", self.TRIANGLE, "--lattice-cap", "3")
        assert code == 2 and out == ""
        assert "--lattice-cap" in err and "3" in err and "tree" in err
        code, out, _ = run_cli(capsys, "reg", "--ideal", self.TRIANGLE, "--lattice-cap", "4")
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

        monkeypatch.setattr("edgereg.cli.run_campaign", spy)
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
        for argv in (["reg"], ["betti"], ["verify", "campaign"]):
            assert build_parser().parse_args(argv).lattice_cap == DEFAULT_LATTICE_CAP
        assert CampaignSpec("cycle", (3,), (1,)).lattice_cap == DEFAULT_LATTICE_CAP


class TestFormulaCommand:
    def test_auto_on_cycle(self, capsys, triangle_path):
        code, out, _ = run_cli(capsys, "formula", "--graph", triangle_path, "--t", "2")
        data = json.loads(out)
        assert code == 0
        assert data["value"] == 7 and data["admissible"] is True

    def test_auto_on_reoriented_cycle(self, capsys, tmp_path):
        path = str(tmp_path / "g.json")
        save_graph(cycle5_double_out(), path)
        code, out, _ = run_cli(capsys, "formula", "--graph", path, "--t", "2")
        data = json.loads(out)
        assert code == 0
        assert data["value"] == 13 and data["admissible"] is False
        assert data["family"] == "Other"

    def test_explicit_family_mismatch(self, capsys, tmp_path):
        path = str(tmp_path / "g.json")
        save_graph(square_pendant_light_path(), path)
        code, _, err = run_cli(capsys, "formula", "--graph", path, "--family", "cycle")
        assert code == 2 and "Unicyclic" in err


class TestVerifyCommand:
    def test_examples_mode(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "examples")
        data = json.loads(out)
        assert code == 0
        assert data["kind"] == "reference-examples"
        assert all(r["ok"] for r in data["records"])

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

    def test_campaign_exit_code_for_skips(self, capsys, tmp_path, monkeypatch):
        import edgereg.verify as verify_mod

        spec_holder = {}
        original = verify_mod.run_campaign

        def spy(spec):
            spec_holder["spec"] = spec
            return original(spec)

        monkeypatch.setattr("edgereg.cli.run_campaign", spy)
        code, _, _ = run_cli(
            capsys, "verify", "campaign", "--family", "cycle", "--n", "3", "--t", "1",
        )
        assert code == 0
        assert spec_holder["spec"].family == "cycle"


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
            ("reg", "--ideal", "(x1*x2^2, x2*x3^2, x3*x1^2)", "--lattice-cap", "3"),
            ("verify", "campaign", "--workers", "0"),
            ("verify", "campaign", "--workers", "-3"),
            ("verify", "campaign", "--weights", ""),
            ("verify", "campaign", "--n", "2"),
            ("verify", "structure", "--n", "2"),
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
        files = dict(graph=triangle_path, malformed=malformed,
                     numeric_name=numeric_name, list_endpoint=list_endpoint)
        argv = [a.format(**files) for a in argv]
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
