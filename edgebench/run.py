#!/usr/bin/env python3
"""The edgereg benchmark: one workload, measured for a fixed time.

    python3 edgebench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the engine is imported from ./src.  Each
pass runs the workload's operations once in a fresh interpreter
(edgebench/worker.py), so memo caches start cold as they do for a CLI
user.  Passes repeat until the next one would end after S seconds (at
least one pass runs), and every figure is the median over passes.  A few
extra interpreters only set up and stop, so set-up time has more samples.

Times are CPU seconds of the workload process scaled to a reference host
speed (speed.py); raw CPU and wall seconds and the host's steal ticks are
recorded beside them (worker.py says why).

--trace 0 reports the end-to-end metrics (norm_cpu_s, setup_s,
peak_rss_mb); --trace 1 alternates untraced and traced passes and
reports the per-layer metrics of the traced ones, plus trace.overhead_s
(median traced minus median untraced norm_cpu_s).  The last line of
stdout is one JSON object; the full record, with provenance, goes to
edgebench/results/.  The exit code is not 0 when a pass could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
SETUP_ONLY_SAMPLES = 5
# every run must end within 180 s; no pass starts after this
DEADLINE_S = 150.0


class PassError(RuntimeError):
    pass


def read_steal_ticks() -> int | None:
    """Aggregate steal ticks from /proc/stat (time the host ran other guests)."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
    except OSError:
        return None
    return int(fields[8]) if fields[0] == "cpu" and len(fields) > 8 else None


def run_worker(args: list[str], timeout: float) -> dict:
    """One pass in a fresh interpreter; adds its wall-clock set-up time."""
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired as exc:
        raise PassError(f"pass {args} did not end within {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise PassError(f"pass {args} exited with code {proc.returncode}")
    try:
        out = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError) as exc:
        raise PassError(f"pass {args} printed no result") from exc
    out["setup_wall_s"] = out["first_op_monotonic"] - spawned
    return out


def measure(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    start = time.monotonic()
    common = ["--workload", workload, "--seed", str(seed)]
    setups = [
        run_worker(common + ["--setup-only"], DEADLINE_S - (time.monotonic() - start))
        for _ in range(SETUP_ONLY_SAMPLES)
    ]
    passes: list[dict] = []
    while True:
        traced = trace and len(passes) % 2 == 1
        extra = []
        if traced:
            RESULTS.mkdir(exist_ok=True)
            extra = ["--traced", "--spans",
                     str(RESULTS / f"{workload}-seed{seed}-pass{len(passes)}-spans.json")]
        steal_before = read_steal_ticks()
        began = time.monotonic()
        result = run_worker(common + extra, DEADLINE_S - (began - start))
        result.update(traced=traced, pass_s=time.monotonic() - began,
                      steal_before=steal_before, steal_after=read_steal_ticks())
        passes.append(result)
        # a traced run needs one untraced and one traced pass
        done = len(passes) >= (2 if trace else 1)
        next_end = time.monotonic() - start + max(p["pass_s"] for p in passes)
        if done and next_end > seconds:
            break
        if next_end > DEADLINE_S:
            raise PassError(f"a required pass would end after {next_end:.0f} s")
    return {"setup_only": setups, "passes": passes}


def summarize(spec: dict, trace: bool, raw: dict) -> dict:
    """The result line: BENCHMARK.json's metrics, medians over passes."""
    passes = raw["passes"]
    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    failed = sum(p["failed"] for p in passes)
    cpu = statistics.median(p["norm_cpu_s"] for p in plain)
    if trace:
        values = {name: statistics.median(p["layers"][name] for p in traced)
                  for name in traced[0]["layers"]}
        values["trace.slice_mismatches"] = sum(p["slice_mismatches"] for p in traced)
        values["trace.overhead_s"] = statistics.median(p["norm_cpu_s"] for p in traced) - cpu
        wanted = spec["per_layer"]
    else:
        values = {
            "norm_cpu_s": cpu,
            "setup_s": statistics.median(p["norm_setup_s"] for p in raw["setup_only"] + passes),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain),
        }
        wanted = spec["end_to_end"]
    return {
        "correct": failed == 0 and len({p["digest"] for p in passes}) == 1,
        "attempted": sum(p["attempted"] for p in passes),
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "edgereg" / "__init__.py").is_file():
        print(f"edgebench: no edgereg sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    steal_start = read_steal_ticks()
    try:
        raw = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except PassError as exc:
        print(f"edgebench: {exc}", file=sys.stderr)
        return 1
    summary = summarize(spec, bool(args.trace), raw)

    RESULTS.mkdir(exist_ok=True)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "steal_ticks": {"start": steal_start, "end": read_steal_ticks()},
        "layers": json.loads((HERE / "layers.json").read_text()),
        **raw,
        **summary,
        "digests": sorted({p["digest"] for p in raw["passes"]}),
    }
    path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")

    for name, m in summary["metrics"].items():
        print(f"{name:<36} {m['value']:>14.6g} {m['unit']}")
    print(f"{'operations attempted / failed':<36} {summary['attempted']:>14} / {summary['failed']}")
    print(f"{'output digest':<36} {record['digests'][0][:16]}")
    print(f"record: {path.relative_to(ROOT)}")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
