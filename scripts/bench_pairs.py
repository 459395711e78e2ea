#!/usr/bin/env python3
"""Alternating parent/change benchmark pairs, and the change's BENCH file.

Runs ``edgebench/run.py`` from two checkouts, a parent and a change, one
pair per (workload, seed), and alternates which side runs first from pair
to pair.  For each workload and end-to-end metric it prints the median and
quartiles of each side and the pairs in which the change did better, in
the direction ``BENCHMARK.json`` gives, and a one-word verdict (``verdict``
below).  It flags any seed whose output digests differ between the sides,
and any run that was not correct.

The change-side records go, as run.py wrote them, to ``--out`` (one JSON
list): the untraced runs at seeds 0 and 7 and one traced run at seed 0 per
workload, which is what a BENCH file holds.  Every run lasts the
``run_seconds`` of the change's ``BENCHMARK.json``.  ``--seconds N`` sets
another length for a quick sizing; it is refused together with ``--out``,
so a BENCH file always holds runs of ``run_seconds``.  Only ``edgebench/``
and ``BENCHMARK.json`` of each checkout are read; each run writes its
record into its own checkout's ``edgebench/results/``.  Example, from the
root of the change:

    python scripts/bench_pairs.py --parent ../parent --change . --out BENCH_N.json
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")
KEPT_SEEDS = (0, 7)  # untraced change records a BENCH file holds
TRACED_SEED = 0  # traced once per side and workload; the change's record is kept


def run(checkout: Path, workload: str, seed: int, seconds: int, trace: int) -> dict:
    """One run.py run; its record, read back from the checkout's results."""
    subprocess.run(
        [sys.executable, "edgebench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=checkout, check=True, stdout=subprocess.DEVNULL,
    )
    path = checkout / "edgebench" / "results" / f"{workload}-seed{seed}-trace{trace}.json"
    return json.loads(path.read_text())


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q2, q1, q3


def verdict(metric: dict, parent: list[float], change: list[float]) -> str:
    """How a metric's pairs read, by the rule a benchmark comparison applies.

    The ``bound`` of a metric in ``BENCHMARK.json`` is a fraction of the
    parent's median.  ``unresolved``: either side's interquartile range is
    wider than the bound, and not every change run beats every parent run.
    ``regressed``: the change's median is worse by more than the bound.
    ``met``: the change did better in at least 9 of 10 pairs, ties counting
    for neither side, and its median is better by more than the parent's
    interquartile range.  ``within``: none of these.
    """
    (pm, p1, p3), (cm, c1, c3) = quartiles(parent), quartiles(change)
    sign = 1 if metric["better"] == "lower" else -1
    bound = metric["bound"] * abs(pm)
    won = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    apart = all(sign * (c - p) < 0 for p in parent for c in change)
    if max(p3 - p1, c3 - c1) > bound and not apart:
        return "unresolved"
    if sign * (cm - pm) > bound:
        return "regressed"
    if 10 * won >= 9 * len(parent) and sign * (pm - cm) > p3 - p1:
        return "met"
    return "within"


def report(workload: str, metrics: list[dict], pairs: list[dict]) -> list[str]:
    """Lines of the summary table of one workload's pairs."""
    lines = []
    for m in metrics:
        name = m["name"]
        sides = {s: [p[s]["metrics"][name]["value"] for p in pairs] for s in SIDES}
        (pm, p1, p3), (cm, c1, c3) = (quartiles(sides[s]) for s in SIDES)
        sign = 1 if m["better"] == "lower" else -1
        won = sum(sign * (c - p) < 0 for p, c in zip(sides["parent"], sides["change"]))
        change = f"{(cm - pm) / pm:+.1%}" if pm else "n/a"
        lines.append(f"| {workload} | {name} | {pm:.4g} [{p1:.4g}, {p3:.4g}] | "
                     f"{cm:.4g} [{c1:.4g}, {c3:.4g}] ({change}) | {won}/{len(pairs)} | "
                     f"{verdict(m, sides['parent'], sides['change'])} |")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="the parent's checkout")
    parser.add_argument("--change", type=Path, required=True, help="the change's checkout")
    parser.add_argument("--workloads", help="comma-separated (default: every workload)")
    parser.add_argument("--seeds", default="0,7,3,11,61,67,71,73,79,83",
                        help="one pair per seed (default %(default)s)")
    parser.add_argument("--out", type=Path, help="the BENCH file to write, e.g. BENCH_N.json")
    parser.add_argument("--seconds", type=int,
                        help="seconds per run for a sizing run (default: run_seconds); not with --out")
    args = parser.parse_args(argv)
    if args.seconds is not None and args.out:
        parser.error("--seconds is refused with --out: a BENCH file holds runs of run_seconds")
    if args.seconds is not None and args.seconds < 1:
        parser.error(f"--seconds must be at least 1, got {args.seconds}")

    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    spec = json.loads((checkouts["change"] / "BENCHMARK.json").read_text())
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    seeds = [int(s) for s in args.seeds.split(",")]
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds

    kept: list[dict] = []
    table = ["| workload | metric | parent | change | change better | verdict |",
             "| --- | --- | --- | --- | --- | --- |"]
    faults = []
    k = 0
    for workload in workloads:
        pairs = []
        for seed in seeds:
            order = SIDES if k % 2 == 0 else SIDES[::-1]
            k += 1
            pair = {side: run(checkouts[side], workload, seed, seconds, 0) for side in order}
            pairs.append(pair)
            digests = {side: pair[side]["digests"] for side in SIDES}
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{side} {pair[side]['metrics']['norm_cpu_s']['value']:.4f} s "
                f"{digests[side][0][:16]}" for side in order), flush=True)
            if digests["parent"] != digests["change"]:
                faults.append(f"{workload} seed {seed}: digests differ {digests}")
            for side in SIDES:
                if not pair[side]["correct"] or pair[side]["failed"]:
                    faults.append(f"{workload} seed {seed}: the {side} run was not correct")
            if seed in KEPT_SEEDS:
                kept.append(pair["change"])
        records = {side: run(checkouts[side], workload, TRACED_SEED, seconds, 1) for side in SIDES}
        kept.append(records["change"])
        for name in records["change"]["metrics"]:
            values = [records[side]["metrics"][name]["value"] for side in SIDES]
            print(f"{workload} seed {TRACED_SEED} traced {name}: {values[0]:.6g} -> {values[1]:.6g}")
        table += report(workload, spec["end_to_end"], pairs)
    print("\n".join(table))
    for fault in faults:
        print(f"FAULT: {fault}")
    if args.out:
        args.out.write_text(json.dumps(kept, separators=(",", ":")) + "\n")
        print(f"wrote {len(kept)} change-side records to {args.out}")
    return 1 if faults else 0


if __name__ == "__main__":
    sys.exit(main())
