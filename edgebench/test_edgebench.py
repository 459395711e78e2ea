"""Tests of the benchmark's own code: python3 -m pytest edgebench"""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402  (also puts the engine sources on sys.path)
from edgereg import betti  # noqa: E402
from edgereg.ideals import MonomialIdeal  # noqa: E402
from edgereg.ring import Monomial, VariableSet  # noqa: E402
from euler import euler_mismatches, taylor_euler  # noqa: E402


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_operations_other_seed_other_operations(workload):
    first = [op.describe() for op in workloads.build_ops(workload, 7)]
    assert first == [op.describe() for op in workloads.build_ops(workload, 7)]
    assert first != [op.describe() for op in workloads.build_ops(workload, 8)]


def test_taylor_euler_of_two_generators():
    assert taylor_euler([(1, 1, 0), (0, 1, 1)]) == {(1, 1, 0): 1, (0, 1, 1): 1, (1, 1, 1): -1}


def test_euler_check_rejects_a_table_with_one_entry_perturbed():
    variables = VariableSet(["a", "b", "c", "d", "e"])
    vectors = [(1, 1, 0, 0, 0), (0, 1, 1, 0, 0), (0, 0, 1, 1, 0), (0, 0, 0, 1, 1), (1, 0, 0, 0, 1)]
    ideal = MonomialIdeal(variables, [Monomial.from_dense(variables, v) for v in vectors])
    table = betti.betti_table(ideal, "Q")
    op = workloads.Op("betti_table", "pentagon", (ideal, vectors))
    assert euler_mismatches(vectors, table) == []
    assert workloads.check(op, table) is None

    key = max(table.multigraded, key=lambda k: (k[0], k[1].dense()))
    table.multigraded[key] += 1
    assert euler_mismatches(vectors, table) == [key[1].dense()]
    assert workloads.check(op, table) is not None


def test_span_self_times_are_nonnegative_and_sum_to_their_root():
    import tracing

    tracer = tracing.Tracer()
    undo = tracing.install(tracer)
    try:
        api = tracing.traced_api(tracer, workloads.plain_api())
        ops = [workloads.cycle_ladder_ops(12345)[0], workloads.squarefree_rank_ops(12345)[2]]
        for k, op in enumerate(ops):
            tracer.root("op", k, workloads.execute, op, api)
    finally:
        tracing.uninstall(undo)
    assert not hasattr(betti.betti_table, "__wrapped__")

    spans = tracer.spans
    names = {span[tracing.NAME] for span in spans}
    assert {"betti.regularity", "betti.table", "homology.covered", "linalg.rank_int"} <= names
    selfs = tracing.self_times(spans)
    assert min(selfs) >= 0
    root_of = []
    for span in spans:
        parent = span[tracing.PARENT]
        root_of.append(len(root_of) if parent is None else root_of[parent])
    for r, span in enumerate(spans):
        if span[tracing.PARENT] is None:
            total = sum(s for s, root in zip(selfs, root_of) if root == r)
            assert total == pytest.approx(span[tracing.END] - span[tracing.START], rel=1e-9)

    assert tracing.table_misses(spans, 0, len(spans))
    assert tracing.check_lattices(tracer, [(0, len(spans))]) == 0


def test_untraced_pass_loads_no_wrapper():
    code = "\n".join([
        "import sys, worker, workloads",
        "from edgereg import betti, homology, verify",
        "assert worker.main(['--workload', 'cycle-ladder', '--seed', '0', '--setup-only']) == 0",
        "results = worker.run_ops(workloads.cycle_ladder_ops(0)[:1], workloads.plain_api())",
        "assert results[0]['error'] is None",
        "assert 'tracing' not in sys.modules",
        "seams = (betti.betti_table, betti.covered_homology, homology.enumerate_union_faces,",
        "         homology.rank_int, homology.rank_gf2, verify.regularity, verify.power)",
        "assert not any(hasattr(f, '__wrapped__') for f in seams)",
    ])
    subprocess.run([sys.executable, "-c", code], cwd=HERE, check=True, timeout=120)


def test_runner_fails_without_engine_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "edgebench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "edgebench/run.py", "--workload", "cycle-ladder",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
