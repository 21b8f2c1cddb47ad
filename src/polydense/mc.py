"""Monte-Carlo bookkeeping: estimates, Wilson intervals, block scheduling.

All estimators follow the same contract: the sample budget is cut into
fixed-size blocks, each block consumes its own derived RNG stream and
returns an integer success count, and counts are merged by addition.  The
result is therefore bit-identical no matter how blocks are scheduled over
workers.
"""

from __future__ import annotations

import math
import multiprocessing
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

__all__ = [
    "Z95",
    "BLOCK_SAMPLES",
    "Estimate",
    "wilson_interval",
    "bernoulli_estimate",
    "exact_estimate",
    "split_blocks",
    "parallel_map",
    "default_workers",
    "parse_workers",
]

Z95 = 1.959963984540054
BLOCK_SAMPLES = 500


@dataclass(frozen=True)
class Estimate:
    """A point estimate with uncertainty, or an exact value.

    ``exact`` implies stderr 0 and a collapsed interval; ``exact_value`` then
    holds the underlying rational.  For sampled estimates the interval is the
    95% Wilson score interval and stderr is never zero.
    """

    value: float
    stderr: float
    ci95: tuple[float, float]
    samples: int
    seed: int | None
    exact: bool
    exact_value: Fraction | None = None

    def __post_init__(self):
        if self.exact and self.stderr != 0.0:
            raise ValueError("exact estimates must have stderr 0")


def wilson_interval(successes: int, trials: int, z: float = Z95) -> tuple[float, float]:
    """95% Wilson score interval for a binomial proportion."""
    if trials <= 0:
        raise ValueError("trials must be positive")
    if not 0 <= successes <= trials:
        raise ValueError("successes out of range")
    p = successes / trials
    z2 = z * z
    denom = 1.0 + z2 / trials
    center = (p + z2 / (2 * trials)) / denom
    half = z * math.sqrt(p * (1.0 - p) / trials + z2 / (4 * trials * trials)) / denom
    # the interval endpoints at the boundary counts are exactly 0 and 1
    lo = 0.0 if successes == 0 else max(0.0, center - half)
    hi = 1.0 if successes == trials else min(1.0, center + half)
    return (lo, hi)


def bernoulli_estimate(successes: int, trials: int, seed: int | None) -> Estimate:
    """Estimate from a success count; stderr stays positive even at 0 or 1."""
    lo, hi = wilson_interval(successes, trials)
    p = successes / trials
    if 0 < successes < trials:
        se = math.sqrt(p * (1.0 - p) / trials)
    else:
        se = (hi - lo) / (2 * Z95)
    return Estimate(value=p, stderr=se, ci95=(lo, hi), samples=trials,
                    seed=seed, exact=False)


def exact_estimate(value: Fraction, samples: int = 0, seed: int | None = None) -> Estimate:
    """Wrap an exactly computed rational as an Estimate."""
    v = float(value)
    return Estimate(value=v, stderr=0.0, ci95=(v, v), samples=samples,
                    seed=seed, exact=True, exact_value=Fraction(value))


def split_blocks(total: int, block: int = BLOCK_SAMPLES) -> list[tuple[int, int]]:
    """Fixed partition of a sample budget into (index, count) blocks.

    The partition depends only on ``total``, never on worker count.
    """
    if total <= 0:
        raise ValueError("sample budget must be positive")
    out = []
    index = 0
    remaining = total
    while remaining > 0:
        take = min(block, remaining)
        out.append((index, take))
        index += 1
        remaining -= take
    return out


def parse_workers(value, source: str = "worker count") -> int:
    """A positive worker count; anything else raises ValueError naming it."""
    try:
        n = int(value)
    except ValueError:
        n = 0
    if n < 1:
        raise ValueError(f"{source} must be a positive integer, got {value!r}")
    return n


def default_workers() -> int:
    """Worker count from POLYDENSE_WORKERS, else 1; ValueError if it is set
    to anything but a positive integer."""
    env = os.environ.get("POLYDENSE_WORKERS")
    return parse_workers(env, "POLYDENSE_WORKERS") if env else 1


def parallel_map(fn: Callable, tasks: Sequence, workers: int = 1) -> list:
    """Map fn over tasks, preserving order; uses a process pool if workers > 1.

    ``fn`` must be a module-level function and each task picklable.  Because
    every task result is independent of scheduling, the output is identical
    for any worker count.
    """
    tasks = list(tasks)
    if workers <= 1 or len(tasks) <= 1:
        return [fn(t) for t in tasks]
    procs = min(workers, len(tasks))
    with multiprocessing.get_context("fork").Pool(processes=procs) as pool:
        return pool.map(fn, tasks, chunksize=1)
