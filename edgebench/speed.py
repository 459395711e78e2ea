"""Host-speed calibration: a fixed pure-Python kernel timed beside the workload.

On a shared virtual machine the CPU time of the same pass drifts by up to
a factor of two over tens of minutes, as other tenants come and go.  A
pass therefore times this kernel once before its first operation and once
after each operation, outside the timed region, and scales each
operation's CPU time by ``REFERENCE_CHUNK_S`` over the mean of the two
chunks around it: the figures are CPU seconds at a fixed reference speed.
The kernel is shaped like the engine's work (tuple joins, dict updates,
fraction-free integer elimination) and never changes, so a change to
edgereg moves the scaled figures exactly as much as the raw ones.  Over
ten seeds per workload on a 2-vCPU cloud VM, the spread (interquartile
range over median) of the per-run medians was 0.15, 0.18 and 0.12 raw
and 0.055, 0.049 and 0.014 scaled (cycle-ladder, squarefree-rank,
verify-sweep).
"""

from __future__ import annotations

import gc
import random
import time

# CPU seconds of one chunk at the reference speed
REFERENCE_CHUNK_S = 0.08
CHUNK_REPS = 30


def _kernel(rng: random.Random) -> int:
    gens = [tuple(rng.randrange(4) for _ in range(8)) for _ in range(11)]
    acc: dict[tuple[int, ...], int] = {}
    for g in gens:
        step = {g: 1}
        for b, c in acc.items():
            j = tuple(map(max, b, g))
            step[j] = step.get(j, 0) - c
        for b, c in step.items():
            acc[b] = acc.get(b, 0) + c
    m = [[rng.randrange(-2, 3) for _ in range(24)] for _ in range(24)]
    prev = 1
    for col in range(24):
        pivot = next((r for r in range(col, 24) if m[r][col]), None)
        if pivot is None:
            continue
        m[col], m[pivot] = m[pivot], m[col]
        for r in range(col + 1, 24):
            f = m[r][col]
            m[r] = [(m[col][col] * x - f * y) // prev for x, y in zip(m[r], m[col])]
        prev = m[col][col]
    return len(acc) + prev


def chunk() -> float:
    """CPU seconds of one calibration chunk.

    The cyclic garbage collector is off meanwhile: the kernel makes no
    cycles, and a collection would scan the engine's heap and make the
    chunk depend on what the workload left in memory.
    """
    rng = random.Random(1)
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.process_time()
        for _ in range(CHUNK_REPS):
            _kernel(rng)
        return time.process_time() - start
    finally:
        if enabled:
            gc.enable()


def factor(chunks: list[float]) -> float:
    """Multiply a CPU time by this to get seconds at the reference speed."""
    return REFERENCE_CHUNK_S * len(chunks) / sum(chunks)


def scaled(op_cpu_s: list[float], chunks: list[float]) -> float:
    """Total reference-speed seconds of operations, where chunks[k] and
    chunks[k + 1] were timed just before and just after operation k."""
    return sum(t * factor(chunks[k:k + 2]) for k, t in enumerate(op_cpu_s))
