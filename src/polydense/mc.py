"""Monte-Carlo bookkeeping: estimates and their intervals, block scheduling.

All estimators follow the same contract: the sample budget is cut into
fixed-size blocks, each block consumes its own derived RNG stream and
returns an integer success count, and counts are merged by addition.  The
result is therefore bit-identical no matter how blocks are scheduled over
workers.  Every process pool belongs to a worker_pool scope, which forks it
at first use and closes it on exit; parallel_map opens one if none is open.
"""

from __future__ import annotations

import math
import os
import pickle  # numpy has loaded it already
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, Sequence

__all__ = [
    "Z95",
    "BLOCK_SAMPLES",
    "Estimate",
    "wilson_interval",
    "bernoulli_estimate",
    "normal_estimate",
    "exact_estimate",
    "weighted_sum",
    "split_blocks",
    "parallel_map",
    "worker_pool",
    "default_workers",
    "parse_workers",
]

Z95 = 1.959963984540054
BLOCK_SAMPLES = 500


@dataclass(frozen=True)
class Estimate:
    """A point estimate with uncertainty, or an exact value.

    An estimate is exact when ``exact_value`` holds the underlying rational;
    its stderr is then 0 and its interval collapsed.  A sampled estimate's
    stderr is positive.
    """

    value: float
    stderr: float
    ci95: tuple[float, float]
    samples: int
    seed: int | None
    exact_value: Fraction | None = None

    @property
    def exact(self) -> bool:
        return self.exact_value is not None

    def __post_init__(self):
        if self.exact and self.stderr != 0.0:
            raise ValueError("exact estimates must have stderr 0")


def wilson_interval(successes: float, trials: int) -> tuple[float, float]:
    """95% Wilson score interval for a binomial proportion; ``successes``
    may be fractional, a share times the trials."""
    if trials <= 0:
        raise ValueError("trials must be positive")
    if not 0 <= successes <= trials:
        raise ValueError("successes out of range")
    p = successes / trials
    z2 = Z95 * Z95
    denom = 1.0 + z2 / trials
    center = (p + z2 / (2 * trials)) / denom
    half = Z95 * math.sqrt(p * (1.0 - p) / trials + z2 / (4 * trials * trials)) / denom
    # the interval endpoints at the boundary counts are exactly 0 and 1
    lo = 0.0 if successes == 0 else max(0.0, center - half)
    hi = 1.0 if successes == trials else min(1.0, center + half)
    return (lo, hi)


def bernoulli_estimate(successes: int, trials: int, seed: int | None) -> Estimate:
    """Estimate from a success count: the Wilson interval, stderr > 0 even at 0 or 1."""
    lo, hi = wilson_interval(successes, trials)
    p = successes / trials
    if 0 < successes < trials:
        return Estimate(value=p, stderr=math.sqrt(p * (1.0 - p) / trials), ci95=(lo, hi),
                        samples=trials, seed=seed)
    return normal_estimate(p, 0.0, trials, seed)


def normal_estimate(value: float, stderr: float, samples: int,
                    seed: int | None = None) -> Estimate:
    """A sampled share with the interval value ± Z95·stderr clipped to [0, 1];
    at stderr 0 (every sample alike) Wilson's interval at the observed share,
    and its half-width over Z95 as stderr, as at a boundary count."""
    if stderr == 0.0:
        lo, hi = wilson_interval(value * samples, samples)
        stderr = (hi - lo) / (2 * Z95)
    else:
        lo = max(0.0, value - Z95 * stderr)
        hi = min(1.0, value + Z95 * stderr)
    return Estimate(value=value, stderr=stderr, ci95=(lo, hi), samples=samples, seed=seed)


def exact_estimate(value: Fraction, samples: int = 0, seed: int | None = None) -> Estimate:
    """Wrap an exactly computed rational as an Estimate."""
    v = float(value)
    return Estimate(value=v, stderr=0.0, ci95=(v, v), samples=samples,
                    seed=seed, exact_value=Fraction(value))


def weighted_sum(weights: Sequence[Fraction], estimates: Sequence[Estimate]) -> Estimate:
    """The sum of w·e over the exact weights of a probability mix: exact when
    every estimate of nonzero weight is, else the float sum, clipped at 1
    where rounding passes it, with stderr by quadrature."""
    samples = sum(e.samples for e in estimates)
    terms = [(w, e) for w, e in zip(weights, estimates, strict=True) if w]
    if all(e.exact for _, e in terms):
        return exact_estimate(sum((w * e.exact_value for w, e in terms), start=Fraction(0)),
                              samples=samples)
    value = min(1.0, sum(float(w) * e.value for w, e in terms))
    stderr = math.sqrt(sum((float(w) * e.stderr) ** 2 for w, e in terms))
    return normal_estimate(value, stderr, samples)


def split_blocks(total: int) -> list[tuple[int, int]]:
    """Fixed partition of a sample budget into (index, count) blocks of
    BLOCK_SAMPLES, the last one possibly shorter.

    The partition depends only on ``total``, never on worker count.
    """
    if total <= 0:
        raise ValueError("sample budget must be positive")
    return [(index, min(BLOCK_SAMPLES, total - start))
            for index, start in enumerate(range(0, total, BLOCK_SAMPLES))]


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


def _fork_pool(processes: int) -> _ForkPool:
    # numpy loads numpy.random at the first Generator: load it once, here,
    # so that every worker inherits it instead of importing it itself
    import numpy.random  # noqa: F401

    return _ForkPool(processes)


def _send(fd: int, data: bytes) -> None:
    """Write one message, its length first, to the pipe end fd."""
    view = memoryview(len(data).to_bytes(8, "little") + data)
    while view:
        view = view[os.write(fd, view):]


def _read(fd: int, size: int) -> bytes:
    """Exactly size bytes from the pipe end fd; EOFError if its writer is gone."""
    data = b""
    while len(data) < size:
        chunk = os.read(fd, size - len(data))
        if not chunk:
            raise EOFError
        data += chunk
    return data


def _receive(fd: int) -> bytes:
    """One message written by _send."""
    return _read(fd, int.from_bytes(_read(fd, 8), "little"))


def _reply(fn: Callable, task) -> bytes:
    """The pickled answer to one task: (True, result), or (False, exception),
    the exception replaced by a RuntimeError carrying its repr if it does
    not survive pickling."""
    try:
        return pickle.dumps((True, fn(task)))
    except Exception as exc:
        try:
            data = pickle.dumps((False, exc))
            pickle.loads(data)
            return data
        except Exception:
            return pickle.dumps((False, RuntimeError(repr(exc))))


class _ForkPool:
    """``processes`` workers forked by os.fork, each reading one pickled
    (fn, task) at a time from its task pipe and answering on its result pipe.

    A worker closes every pipe end it does not own, so it reads EOF, or
    fails to write its answer, as soon as the parent is gone, and it leaves
    only through os._exit: it never returns into the parent's stack, runs
    no atexit handler and flushes no inherited buffer.
    """

    def __init__(self, processes: int):
        self.workers: list[tuple[int, int, int]] = []  # (pid, task fd, result fd)
        self.pids: list[int] = []  # every worker not yet reaped
        try:
            for _ in range(processes):
                self._fork()
        except BaseException:
            self.terminate()
            self.join()
            raise

    def _fork(self) -> None:
        task_r, task_w = os.pipe()
        result_r, result_w = os.pipe()
        try:
            pid = os.fork()
        except BaseException:
            for fd in (task_r, task_w, result_r, result_w):
                os.close(fd)
            raise
        if pid == 0:
            code = 1
            try:
                os.close(task_w)
                os.close(result_r)
                for _, sibling_w, sibling_r in self.workers:
                    os.close(sibling_w)
                    os.close(sibling_r)
                while True:
                    try:
                        fn, task = pickle.loads(_receive(task_r))
                    except EOFError:
                        break
                    _send(result_w, _reply(fn, task))
                code = 0
            finally:
                os._exit(code)
        os.close(task_r)
        os.close(result_w)
        self.pids.append(pid)
        self.workers.append((pid, task_w, result_r))

    def map(self, fn: Callable, tasks: Sequence) -> list:
        """fn over tasks, in task order, each task handed, in task order, to
        whichever worker is idle.  If tasks raised, the exception of the
        first of them in task order is raised, as one worker would raise it;
        a worker that died raises RuntimeError naming its exit status and
        ends the pool."""
        import select  # only a pool needs it

        if not self.workers:
            raise ValueError("the pool is not running")
        replies = [None] * len(tasks)
        idle = list(self.workers)
        busy = {}  # result fd -> (worker, task index)
        start = 0
        try:
            while busy or start < len(tasks):
                while idle and start < len(tasks):
                    worker = idle.pop(0)
                    try:
                        _send(worker[1], pickle.dumps((fn, tasks[start])))
                    except BrokenPipeError:
                        raise self._lost(worker) from None
                    busy[worker[2]] = (worker, start)
                    start += 1
                for fd in select.select(list(busy), [], [])[0]:
                    worker, index = busy.pop(fd)
                    try:
                        replies[index] = pickle.loads(_receive(fd))
                    except EOFError:
                        raise self._lost(worker) from None
                    idle.append(worker)
        except BaseException:
            self.terminate()
            raise
        for ok, value in replies:
            if not ok:
                raise value
        return [value for _, value in replies]

    def _lost(self, worker: tuple[int, int, int]) -> RuntimeError:
        """The error for a worker whose pipe closed: it has exited, so reap it."""
        pid = worker[0]
        code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        self.pids.remove(pid)
        status = f"exit status {code}" if code >= 0 else f"signal {-code}"
        return RuntimeError(f"pool worker {pid} died ({status})")

    def close(self) -> None:
        """Close the pipes: each worker reads EOF and exits."""
        for _, task_w, result_r in self.workers:
            os.close(task_w)
            os.close(result_r)
        self.workers = []

    def terminate(self) -> None:
        """Kill every worker not yet reaped."""
        import signal

        for pid in self.pids:
            os.kill(pid, signal.SIGKILL)
        self.close()

    def join(self) -> None:
        """Reap every worker."""
        while self.pids:
            os.waitpid(self.pids[-1], 0)
            self.pids.pop()


class _Scope:
    """The pool of a worker_pool scope, forked at its first use."""

    def __init__(self, workers: int):
        self.workers = workers
        self.pid = os.getpid()
        self.pool = None

    def get(self):
        if self.pool is None:
            self.pool = _fork_pool(self.workers)
        return self.pool


_scope: _Scope | None = None  # the open worker_pool scope, if any


@contextmanager
def worker_pool(workers: int) -> Iterator[None]:
    """A scope in which every parallel_map call on more than one worker,
    made by the process that opened it, shares one fork pool of ``workers``
    processes.

    The pool is forked at the first such call, so it sees the parent as it
    was then, and it is closed and joined when the scope exits, or
    terminated and joined if the scope exits with an exception.  A scope
    opened inside another in the same process reuses the outer one; a
    forked worker inherits the scope but never uses it, because its pid
    differs.
    """
    global _scope
    if workers <= 1 or (_scope is not None and _scope.pid == os.getpid()):
        yield
        return
    scope = _scope = _Scope(workers)
    try:
        yield
    except BaseException:
        if scope.pool is not None:
            scope.pool.terminate()
        raise
    else:
        if scope.pool is not None:
            scope.pool.close()
    finally:
        _scope = None
        if scope.pool is not None:
            scope.pool.join()


def parallel_map(fn: Callable, tasks: Sequence, workers: int = 1) -> list:
    """Map fn over tasks, preserving order; uses a process pool if workers > 1:
    the pool of the worker_pool scope this process opened, whatever its
    worker count, else the pool of a scope opened for this call at
    min(workers, len(tasks)) workers.

    ``fn`` must be a module-level function and each task picklable.  Because
    every task result is independent of scheduling, the output is identical
    for any worker count.
    """
    tasks = list(tasks)
    if workers <= 1 or len(tasks) <= 1:
        return [fn(t) for t in tasks]
    with worker_pool(min(workers, len(tasks))):
        return _scope.get().map(fn, tasks)
