"""The verdict rule of scripts/bench_pairs.py on hand-made pairs."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

LOWER = {"name": "norm_cpu_s", "better": "lower", "bound": 0.2}
HIGHER = {"name": "records", "better": "higher", "bound": 0.2}
PARENT = [1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.00]


@pytest.mark.parametrize("metric, parent, change, expected", [
    # 10 of 10 pairs better, by far more than the parent's spread
    (LOWER, PARENT, [x - 0.05 for x in PARENT], "met"),
    (HIGHER, PARENT, [x + 0.05 for x in PARENT], "met"),
    # 8 of 10 pairs better is not enough
    (LOWER, PARENT, [x - 0.05 for x in PARENT[:8]] + PARENT[8:], "within"),
    # 10 of 10 better, but by less than the parent's interquartile range
    (LOWER, PARENT, [x - 0.001 for x in PARENT], "within"),
    # worse by more than 20% of the parent's median
    (LOWER, PARENT, [x * 1.3 for x in PARENT], "regressed"),
    (HIGHER, PARENT, [x * 0.7 for x in PARENT], "regressed"),
    # an interquartile range wider than the bound
    (LOWER, PARENT, [0.5, 1.5] * 5, "unresolved"),
    # as wide, but every change run beats every parent run
    (LOWER, [2.0, 3.0] * 5, [0.5, 1.5] * 5, "met"),
])
def test_verdict(metric, parent, change, expected):
    assert bench_pairs.verdict(metric, parent, change) == expected


@pytest.mark.parametrize("seconds, out, message", [
    ("10", True, "--seconds is refused with --out"),
    ("0", False, "--seconds must be at least 1"),
])
def test_seconds_is_refused_before_any_run(tmp_path, monkeypatch, capsys, seconds, out, message):
    # a BENCH file always holds runs of BENCHMARK.json's run_seconds
    def no_run(*args):
        raise AssertionError("a refused command line started a run")

    monkeypatch.setattr(bench_pairs, "run", no_run)
    bench = tmp_path / "BENCH_N.json"
    argv = ["--parent", str(tmp_path), "--change", str(tmp_path), "--seconds", seconds]
    with pytest.raises(SystemExit) as exit_info:
        bench_pairs.main(argv + (["--out", str(bench)] if out else []))
    assert exit_info.value.code == 2
    assert message in capsys.readouterr().err
    assert not bench.exists()
