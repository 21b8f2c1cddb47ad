"""Host-speed calibration: fixed pieces of work timed next to every
measurement.

On a shared host the same code runs at times nearly twice as slow as at
others, for minutes on end, and fixed work of the same kind slows down with
it.  run.py divides each repetition's wall time by the mean time of the
calibration loop (work()) passes just before and just after it and
multiplies by REFERENCE_S, so its time metrics read as seconds on a host
where one pass takes REFERENCE_S.  A workload that runs on several cores is
calibrated by as many passes at once.  Interpreter start-up (set-up) slows
down with the host's memory traffic more than a warm loop does, so each
set-up probe is instead set against a fresh interpreter that imports only
numpy, scaled to IMPORT_REFERENCE_S.

The loop mirrors the program's two main costs: fraction-free integer
elimination in pure Python (the exact LP kernel) and small numpy bit-array
sampling (the vertex sampler).  Neither calibration runs polydense code,
so no change to the program can move them.
"""

from __future__ import annotations

import multiprocessing
import time

import numpy as np

# on one otherwise idle core of a 2.1 GHz Xeon (2-core VM): the wall time
# of one pass of work(), and the CPU time of a fresh `import numpy`
REFERENCE_S = 0.3
IMPORT_REFERENCE_S = 0.25
ROUNDS = 240


def _bareiss(n: int, seed: int) -> int:
    """Determinant of a pseudo-random n x n integer matrix by exact
    fraction-free elimination."""
    x = seed * 2654435761 + 1
    a = []
    for _ in range(n):
        row = []
        for _ in range(n):
            x = (x * 6364136223846793005 + 1442695040888963407) % 2**64
            row.append((x >> 33) % 19 - 9)
        a.append(row)
    prev, sign = 1, 1
    for k in range(n - 1):
        pivot = next((i for i in range(k, n) if a[i][k]), None)
        if pivot is None:
            return 0
        if pivot != k:
            a[k], a[pivot] = a[pivot], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def work() -> int:
    rng = np.random.default_rng(20250809)
    weights = 1 << np.arange(14, dtype=np.int64)
    acc = 0
    for i in range(ROUNDS):
        acc ^= _bareiss(16, i)
        bits = rng.integers(0, 2, size=(4000, 14), dtype=np.int64)
        acc += int(np.unique(bits @ weights).size)
    return acc


def measure(processes: int = 1) -> float:
    """Wall time of one pass of work() run at once in this process and in
    processes - 1 forked ones, so that a workload spread over several cores
    is set against the speed of as many."""
    others = [multiprocessing.get_context("fork").Process(target=work)
              for _ in range(processes - 1)]
    start = time.perf_counter()
    for proc in others:
        proc.start()
    work()
    for proc in others:
        proc.join()
    return time.perf_counter() - start
