"""One benchmark pass in a fresh interpreter, so every memo cache starts cold.

    python3 edgebench/worker.py --workload NAME --seed N [--traced]
                                [--setup-only] [--spans PATH]

Builds the workload's operations from the seed, runs them once with
workers=1, then (outside the timed region) checks every output.  Prints
one JSON object on stdout.

Times are CPU seconds of this process.  On a shared virtual machine the
host's steal time inflated wall time by up to 30% between passes of one
seed; CPU time excludes steal, and with workers=1 the two agree on an
idle machine.  CPU time still follows the host's speed, so the pass also
times a calibration chunk (speed.py) before the first operation and after
each one, and reports its times scaled to the reference speed
(``norm_*``) beside the raw ones.  ``setup_cpu_s`` is the CPU time from
interpreter start to the first timed operation; ``first_op_monotonic``
lets the parent compute the wall-clock set-up time.  With --setup-only
the pass stops after the set-up and a few calibration chunks.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time

import speed
import workloads

SETUP_ONLY_CHUNKS = 3


def run_ops(ops, api, tracer=None, after_each=None) -> list[dict]:
    """Run each operation once; a raised exception fails that operation only.

    after_each() runs after every operation, outside its timing.
    """
    results = []
    for k, op in enumerate(ops):
        first_span = len(tracer.spans) if tracer else 0
        start, cpu_start = time.perf_counter(), time.process_time()
        try:
            if tracer is None:
                output = workloads.execute(op, api)
            else:
                output, _ = tracer.root("op", k, workloads.execute, op, api)
            error = None
        except Exception as exc:  # noqa: BLE001 - counted as a failed operation
            output, error = None, f"{type(exc).__name__}: {exc}"
        results.append({"op": op, "output": output, "error": error,
                        "cpu_s": time.process_time() - cpu_start,
                        "wall_s": time.perf_counter() - start,
                        "spans": (first_span, len(tracer.spans) if tracer else 0)})
        if after_each is not None:
            after_each()
    return results


def check_results(results: list[dict]) -> None:
    """Fill in each result's failure reason (None when it passed) and canonical text."""
    for r in results:
        if r["error"] is not None:
            r["failure"], r["canonical"] = r["error"], "error"
            continue
        try:
            r["failure"] = workloads.check(r["op"], r["output"])
            r["canonical"] = workloads.canonical(r["op"], r["output"])
        except Exception as exc:  # noqa: BLE001 - a check that raises is a failed check
            r["failure"], r["canonical"] = f"check raised {type(exc).__name__}: {exc}", "error"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", help="file to write the traced pass's spans to")
    args = parser.parse_args(argv)

    ops = workloads.build_ops(args.workload, args.seed)
    api = workloads.plain_api()
    tracer = None
    if args.traced:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
        api = tracing.traced_api(tracer, api)
    first_op = time.monotonic()
    setup_cpu_s = time.process_time()
    chunks = [speed.chunk()]
    if args.setup_only:
        chunks += [speed.chunk() for _ in range(SETUP_ONLY_CHUNKS - 1)]
        scale = speed.factor(chunks)
        print(json.dumps({"first_op_monotonic": first_op, "setup_cpu_s": setup_cpu_s,
                          "norm_setup_s": setup_cpu_s * scale, "chunks": chunks}))
        return 0

    results = run_ops(ops, api, tracer, after_each=lambda: chunks.append(speed.chunk()))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    scale = speed.factor(chunks)
    cpu_s = sum(r["cpu_s"] for r in results)
    check_results(results)
    out = {
        "first_op_monotonic": first_op,
        "setup_cpu_s": setup_cpu_s,
        "norm_setup_s": setup_cpu_s * scale,
        "cpu_s": cpu_s,
        "norm_cpu_s": speed.scaled([r["cpu_s"] for r in results], chunks),
        "chunks": chunks,
        "wall_s": sum(r["wall_s"] for r in results),
        "peak_rss_mb": peak_rss_mb,
        "attempted": len(results),
        "failed": sum(r["failure"] is not None for r in results),
        "digest": workloads.digest([(r["op"].label, r["canonical"]) for r in results]),
        "ops": [
            {"label": r["op"].label, "cpu_s": r["cpu_s"], "wall_s": r["wall_s"],
             "failure": r["failure"]}
            for r in results
        ],
    }
    if tracer is not None:
        out["slice_mismatches"] = tracing.check_lattices(tracer, [r["spans"] for r in results])
        layers = tracing.layer_metrics(tracer.spans)
        for name in layers:
            if name.endswith("_s"):
                layers[name] *= scale
        info = workloads.constructions.ordered_power_basis.cache_info()
        calls = info.hits + info.misses
        layers["constructions.basis_cache_hit_ratio"] = info.hits / calls if calls else 0.0
        layers["verify.records"] = sum(workloads.records(r["output"]) for r in results)
        out["layers"] = layers
        if args.spans:
            with open(args.spans, "w") as fh:
                # info is kept when it is a number or a shape, not an ideal
                json.dump([span[:5] + [span[5] if isinstance(span[5], (int, tuple)) else None]
                           for span in tracer.spans], fh)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
