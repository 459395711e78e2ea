"""Command-line interface.

Subcommands: ideal, basis, betti, reg, formula, verify.  Graphs are read
from JSON files ({"vertices": [{"name", "weight"}...], "edges": [[a, b]...]});
ideals may also be given directly in the canonical text form.  Loader
normalization notes go to stderr, results to stdout.
"""

from __future__ import annotations

import argparse
import json
import re
import sys

from .betti import DEFAULT_LATTICE_CAP, betti_table, regularity_witness
from .constructions import edge_ideal, ordered_power_basis
from .digraph import WeightedDigraph, load_graph
from .errors import EdgeRegError, ResourceCapError
from .formulas import FORMULA_BY_FAMILY, formula_for_family
from .ideals import MonomialIdeal, parse_ideal, power
from .ring import VariableSet


def _load_graph_arg(path: str) -> WeightedDigraph:
    graph = load_graph(path)
    for name, old in graph.normalization_report:
        print(
            f"note: source vertex {name} weight rewritten {old} -> 1",
            file=sys.stderr,
        )
    return graph


def _ideal_from_args(args) -> MonomialIdeal:
    if args.ideal is None:
        if args.vars is not None:
            raise ValueError("--vars applies to --ideal only")
        ideal = edge_ideal(_load_graph_arg(args.graph))
    else:
        if args.vars is None:
            # infer the variable set from the text, in order of appearance
            names = dict.fromkeys(re.findall(r"[A-Za-z][A-Za-z0-9_]*", args.ideal))
        else:
            names = [v.strip() for v in args.vars.split(",")]
            if not all(names):
                raise ValueError(f"--vars takes names as A,B,..., got {args.vars!r}")
        ideal = parse_ideal(args.ideal, VariableSet(names))
    return power(ideal, args.power)


def _parse_range(flag: str, text: str, limit: int) -> tuple[int, ...]:
    """Accept '3..5' or '3,4,5' or '3'; refuse a range of more than ``limit`` values unbuilt."""
    text = text.strip()
    try:
        if ".." not in text:
            return tuple(map(int, text.split(",")))
        lo, hi = map(int, text.partition("..")[::2])
    except ValueError:
        raise ValueError(f"--{flag} takes integers as A..B, A,B,... or A, got {text!r}") from None
    if hi - lo + 1 > limit:  # every value is one instance at least
        raise ResourceCapError(f"--{flag} {text} has {hi - lo + 1} values, more than {limit} "
                               f"instances; raise the limit with --max-instances to proceed")
    return tuple(range(lo, hi + 1))


def _parse_alphabet(text: str) -> tuple[int, ...]:
    try:
        return tuple(map(int, text.split(",")))
    except ValueError:
        raise ValueError(f"--weights takes integers as A,B,..., got {text!r}") from None


def cmd_ideal(args) -> int:
    graph = _load_graph_arg(args.graph)
    print(edge_ideal(graph))
    return 0


def cmd_basis(args) -> int:
    graph = _load_graph_arg(args.graph)
    basis = ordered_power_basis(graph, args.t)
    print("index,vector,monomial")
    for k, entry in enumerate(basis, start=1):
        vec = " ".join(str(a) for a in entry.vector)
        print(f"{k},{vec},{entry.monomial}")
    return 0


def cmd_betti(args) -> int:
    ideal = _ideal_from_args(args)
    table = betti_table(ideal, field=args.field, lattice_cap=args.lattice_cap)
    if args.format == "json":
        print(json.dumps(table.to_json_dict(), sort_keys=True, indent=2))
    else:
        print(table.text_grid())
    return 0


def cmd_reg(args) -> int:
    ideal = _ideal_from_args(args)
    reg, (i, j) = regularity_witness(ideal, args.field, args.lattice_cap)
    print(reg)
    print(f"witness: i={i} j={j}")
    return 0


def cmd_formula(args) -> int:
    graph = _load_graph_arg(args.graph)
    if args.family == "auto":
        result = formula_for_family(graph, args.t)
    else:
        result = FORMULA_BY_FAMILY[args.family](graph, args.t)
    print(json.dumps(result.to_json_dict(), sort_keys=True, indent=2))
    return 0


def _file_path(text: str) -> str:
    if not text:
        raise argparse.ArgumentTypeError("needs a file path, got an empty one")
    return text


def _at_least_one(text: str) -> int:
    if not text.isdigit() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"needs an int >= 1, got {text!r}")
    return int(text)


def _spec(args, family: str = "cycle", workers: int = 1):
    """The instances of verify campaign or structure; --n defaults by family."""
    from .verify import MAX_INSTANCES, CampaignSpec

    n = ("4" if family == "unicyclic" else "3..4") if args.n is None else args.n
    return CampaignSpec(
        family, _parse_range("n", n, MAX_INSTANCES), _parse_range("t", args.t, MAX_INSTANCES),
        _parse_alphabet(args.weights), seed=args.seed,
        field=args.field, lattice_cap=args.lattice_cap, workers=workers,
    )


def cmd_verify(args) -> int:
    # only verify loads the harness, so the other subcommands start faster
    from . import verify

    if args.mode != "examples" and args.max_instances is not None:
        verify.MAX_INSTANCES = args.max_instances  # read when the run counts its instances
    if args.mode == "examples":
        report = verify.run_reference_examples(args.field, args.lattice_cap)
    elif args.mode == "structure":
        report = verify.run_structure_checks(_spec(args))
    else:
        report = verify.run_campaign(_spec(args, args.family, args.workers))
        if args.csv:
            with open(args.csv, "w", encoding="utf-8") as fh:
                fh.write(report.to_csv())
    text = report.to_json()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    summary = report.summary()
    if summary is not None:
        print(json.dumps(summary, sort_keys=True), file=sys.stderr)
    return report.exit_code()


def _add_lattice_cap(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--lattice-cap", type=int, default=DEFAULT_LATTICE_CAP,
        help=f"largest lcm lattice of a Betti table, and most Mayer-Vietoris tree "
             f"nodes of a regularity (default {DEFAULT_LATTICE_CAP})",
    )


class _Parser(argparse.ArgumentParser):
    """Reports a rejected command line as one ``error:`` line and exit 2, as
    :func:`main` reports every other rejected input; ``--help`` still exits 0."""

    def error(self, message: str):
        raise ValueError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="edgereg",
        description="Edge ideals of weighted digraphs: exact Betti tables, "
        "regularity, and closed-form verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ideal", help="print the edge ideal of a graph")
    p.add_argument("--graph", required=True)
    p.set_defaults(fn=cmd_ideal)

    p = sub.add_parser("basis", help="ordered generators of a cycle-ideal power (CSV)")
    p.add_argument("--graph", required=True)
    p.add_argument("--t", type=int, required=True)
    p.set_defaults(fn=cmd_basis)

    for name, fn, helptext in (
        ("betti", cmd_betti, "graded Betti table"),
        ("reg", cmd_reg, "Castelnuovo-Mumford regularity with witness"),
    ):
        p = sub.add_parser(name, help=helptext)
        source = p.add_mutually_exclusive_group(required=True)
        source.add_argument("--graph")
        source.add_argument("--ideal", help="ideal text, e.g. '(x1^2*x2, x2^3)'")
        p.add_argument("--vars", help="comma-separated variable order for --ideal")
        p.add_argument("--power", type=int, default=1)
        p.add_argument("--field", choices=("Q", "GF2"), default="Q")
        _add_lattice_cap(p)
        if name == "betti":
            p.add_argument("--format", choices=("json", "grid"), default="json")
        p.set_defaults(fn=fn)

    p = sub.add_parser("formula", help="closed-form regularity prediction (JSON)")
    p.add_argument("--graph", required=True)
    p.add_argument("--t", type=int, default=1)
    p.add_argument("--family", choices=("auto", "cycle", "forest", "unicyclic"), default="auto")
    p.set_defaults(fn=cmd_formula)

    p = sub.add_parser("verify", help="verification harness")
    p.set_defaults(fn=cmd_verify)
    modes = p.add_subparsers(dest="mode", required=True)
    examples = modes.add_parser("examples", help="the four showcase instances")
    campaign = modes.add_parser("campaign", help="closed forms against the engine")
    campaign.add_argument("--family", choices=("cycle", "forest", "unicyclic", "raw-ideal"),
                          default="cycle", help="instance family (default %(default)s)")
    structure = modes.add_parser("structure", help="ordered-basis and colon checks on cycles")
    for m in (campaign, structure):
        m.add_argument("--n", help="n values, e.g. 3..5 or 3,5 (default 4 for unicyclic, else 3..4)")
        m.add_argument("--t", default="1..2", help="t values (default %(default)s)")
        m.add_argument("--weights", default="2,3", help="weight alphabet (default %(default)s)")
        m.add_argument("--seed", type=int, default=0, help="sampling seed (default %(default)s)")
        m.add_argument("--max-instances", type=_at_least_one,
                       help="most instances the run may enumerate (default 100000)")
    campaign.add_argument("--workers", type=int, default=1,
                          help="worker processes (default %(default)s)")
    campaign.add_argument("--csv", type=_file_path, help="also write the records as CSV")
    for m in (examples, campaign, structure):
        m.add_argument("--field", choices=("Q", "GF2"), default="Q")
        _add_lattice_cap(m)
        m.add_argument("--out", type=_file_path, help="write the report here, not to stdout")

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.fn(args)
    except (EdgeRegError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
