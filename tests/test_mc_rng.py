import hashlib
import math
import os
import select
import signal
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import polydense
from polydense import mc, rng as rng_module
from polydense.mc import (BLOCK_SAMPLES, Z95, Estimate, bernoulli_estimate,
                          exact_estimate, normal_estimate, parallel_map, split_blocks,
                          weighted_sum, wilson_interval, worker_pool)
from polydense.rng import (rand_bits, sample_index_rows, sample_indices, sample_sets_and_pairs,
                           stream, stream_id)


class TestWilson:
    def test_bounds_ordered_and_contained(self):
        for n in (1, 7, 100, 5000):
            for x in (0, 1, n // 2, n - 1, n):
                if not 0 <= x <= n:
                    continue
                lo, hi = wilson_interval(x, n)
                assert 0.0 <= lo <= hi <= 1.0

    def test_boundaries_exact(self):
        assert wilson_interval(0, 50)[0] == 0.0
        assert wilson_interval(50, 50)[1] == 1.0

    def test_contains_the_point_estimate(self):
        for x, n in ((3, 10), (1, 400), (399, 400)):
            lo, hi = wilson_interval(x, n)
            assert lo <= x / n <= hi

    def test_narrows_with_more_trials(self):
        w1 = wilson_interval(5, 10)
        w2 = wilson_interval(500, 1000)
        assert (w2[1] - w2[0]) < (w1[1] - w1[0])

    def test_validation(self):
        with pytest.raises(ValueError):
            wilson_interval(5, 0)
        with pytest.raises(ValueError):
            wilson_interval(7, 5)


class TestEstimates:
    def test_bernoulli_never_zero_stderr(self):
        for x in (0, 1, 250, 499, 500):
            est = bernoulli_estimate(x, 500, seed=1)
            assert est.stderr > 0
            assert not est.exact

    def test_exact_estimate_collapses(self):
        est = exact_estimate(F(3, 7), samples=28)
        assert est.exact and est.stderr == 0.0
        assert est.ci95 == (est.value, est.value)
        assert est.exact_value == F(3, 7)

    def test_invariant_enforced(self):
        with pytest.raises(ValueError):
            Estimate(value=0.5, stderr=0.1, ci95=(0.4, 0.6), samples=10,
                     seed=None, exact_value=F(1, 2))


class TestNormalEstimate:
    def test_the_interval_is_clipped_to_the_unit_range(self):
        est = normal_estimate(0.3, 0.05, 40, seed=7)
        assert est.ci95 == (0.3 - Z95 * 0.05, 0.3 + Z95 * 0.05)
        assert (est.value, est.stderr, est.samples, est.seed) == (0.3, 0.05, 40, 7)
        assert normal_estimate(0.95, 0.05, 40).ci95 == (0.95 - Z95 * 0.05, 1.0)
        assert normal_estimate(0.01, 0.05, 40).ci95 == (0.0, 0.01 + Z95 * 0.05)

    @pytest.mark.parametrize("value, samples", [(0.0, 12), (0.25, 12), (1.0, 12), (0.5, 1)])
    def test_zero_stderr_takes_the_wilson_interval(self, value, samples):
        est = normal_estimate(value, 0.0, samples)
        lo, hi = wilson_interval(value * samples, samples)
        assert est.ci95 == (lo, hi) and lo < hi
        assert est.stderr == (hi - lo) / (2 * Z95) > 0
        assert not est.exact

    def test_a_boundary_count_reads_like_a_zero_stderr_share(self):
        for x in (0, 30):
            assert bernoulli_estimate(x, 30, 3) == normal_estimate(x / 30, 0.0, 30, 3)


class TestWeightedSum:
    def test_all_exact_is_exact(self):
        est = weighted_sum([F(1, 3), F(2, 3)], [exact_estimate(F(1, 2), 4),
                                                exact_estimate(F(1, 4), 6)])
        assert est.exact_value == F(1, 3) and est.samples == 10

    def test_a_sampled_estimate_of_zero_weight_drops_out(self):
        sampled = bernoulli_estimate(3, 10, 1)
        est = weighted_sum([F(1), F(0)], [exact_estimate(F(2, 7), 1), sampled])
        assert est.exact_value == F(2, 7) and est.samples == 11

    def test_sampled_terms_add_in_quadrature(self):
        a, b = bernoulli_estimate(3, 10, 1), exact_estimate(F(1, 2), 5)
        est = weighted_sum([F(1, 4), F(3, 4)], [a, b])
        assert not est.exact and est.samples == 15
        assert est.value == 0.25 * a.value + 0.75 * 0.5
        assert est.stderr == math.sqrt((0.25 * a.stderr) ** 2)
        assert est.ci95 == normal_estimate(est.value, est.stderr, 15).ci95

    def test_the_weights_and_estimates_pair_up(self):
        with pytest.raises(ValueError):
            weighted_sum([F(1)], [exact_estimate(F(1)), exact_estimate(F(0))])


class TestBlocks:
    def test_partition_is_fixed_and_complete(self):
        blocks = split_blocks(1700)
        assert [c for _, c in blocks] == [BLOCK_SAMPLES, BLOCK_SAMPLES,
                                          BLOCK_SAMPLES, 200]
        assert [i for i, _ in blocks] == [0, 1, 2, 3]
        assert split_blocks(1700) == blocks

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            split_blocks(0)


def _square(x):
    return x * x


def test_parallel_map_preserves_order():
    tasks = list(range(23))
    assert parallel_map(_square, tasks, workers=1) == [t * t for t in tasks]
    assert parallel_map(_square, tasks, workers=2) == [t * t for t in tasks]


def _uses_the_scope(_):
    """Whether parallel_map in the calling process would use the open scope's pool."""
    scope = mc._scope
    return scope is not None and scope.pid == os.getpid()


class TestWorkerPool:
    @pytest.fixture
    def pools(self, monkeypatch):
        """Every pool that parallel_map forks, in order, as (processes, pool)."""
        made, fork = [], mc._fork_pool

        def counted(processes):
            made.append((processes, fork(processes)))
            return made[-1][1]

        monkeypatch.setattr(mc, "_fork_pool", counted)
        return made

    def test_calls_in_a_scope_share_one_pool(self, pools, no_child_left):
        with worker_pool(2):
            assert pools == []  # forked at the first parallel call
            assert parallel_map(_square, range(5), workers=2) == [0, 1, 4, 9, 16]
            assert parallel_map(_square, range(7), workers=2) == [t * t for t in range(7)]
            with worker_pool(2):  # a nested scope reuses the outer one
                assert parallel_map(_square, range(3), workers=2) == [0, 1, 4]
            assert parallel_map(_uses_the_scope, range(4), workers=2) == [False] * 4
            assert _uses_the_scope(0)
            assert parallel_map(_square, range(3), workers=1) == [0, 1, 4]
            assert len(pools) == 1
        assert mc._scope is None
        assert no_child_left()

    def test_no_pool_outlives_its_scope(self, pools, no_child_left):
        for _ in range(2):
            with worker_pool(2):
                parallel_map(_square, range(4), workers=2)
            assert no_child_left()
        assert len(pools) == 2

    def test_an_error_in_the_scope_still_joins_the_pool(self, pools, no_child_left):
        with pytest.raises(ZeroDivisionError):
            with worker_pool(2):
                parallel_map(_square, range(4), workers=2)
                1 / 0
        assert len(pools) == 1 and mc._scope is None
        assert no_child_left()

    def test_outside_a_scope_each_call_has_its_own_pool(self, pools, no_child_left):
        with worker_pool(1):  # one worker opens no scope
            parallel_map(_square, range(4), workers=2)
        parallel_map(_square, range(4), workers=2)
        assert len(pools) == 2
        assert no_child_left()

    def test_a_call_in_a_scope_uses_its_pool_at_any_worker_count(self, pools, no_child_left):
        with worker_pool(2):
            assert parallel_map(_square, range(5), workers=3) == [0, 1, 4, 9, 16]
            assert parallel_map(_square, range(5), workers=2) == [0, 1, 4, 9, 16]
        assert [processes for processes, _ in pools] == [2]
        assert no_child_left()

    def test_outside_a_scope_a_call_forks_no_more_processes_than_tasks(self, pools, no_child_left):
        assert parallel_map(_square, [3, 4], workers=4) == [9, 16]
        assert [processes for processes, _ in pools] == [2]
        assert mc._scope is None
        assert no_child_left()


def _reject_from_three(x):
    if x >= 3:
        raise ValueError(f"task {x} rejected")
    return x


class _TwoArgumentError(Exception):
    """An exception that pickles but does not unpickle: its one arg is a
    message, its constructor takes two."""

    def __init__(self, a, b):
        super().__init__(f"{a} and {b}")


def _raise_unpicklable(x):
    raise _TwoArgumentError(x, "more")


def _python(script: str, **kwargs):
    """Start a Python process running script with this polydense on its path."""
    src = str(Path(polydense.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.Popen([sys.executable, "-c", script], env=env, **kwargs)


def _running(pid: int) -> bool:
    """Whether pid is a live process; a zombie has exited."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


class TestForkPool:
    @pytest.mark.parametrize("scoped", [False, True])
    def test_a_task_error_is_raised_with_its_type_and_message(self, scoped, no_child_left):
        with worker_pool(2 if scoped else 1):
            # the first task in task order that raised, as on one worker
            with pytest.raises(ValueError, match="^task 3 rejected$"):
                parallel_map(_reject_from_three, range(6), workers=2)
            # the pool that raised it still maps
            assert parallel_map(_reject_from_three, [1, 2], workers=2) == [1, 2]
        assert no_child_left()

    def test_an_exception_that_does_not_unpickle_becomes_a_runtime_error(self, no_child_left):
        with pytest.raises(RuntimeError, match=r"_TwoArgumentError\('0 and more'\)"):
            parallel_map(_raise_unpicklable, range(2), workers=2)
        assert no_child_left()

    def test_a_worker_that_exits_makes_the_map_raise(self):
        script = ("import os\n"
                  "from polydense.mc import parallel_map\n"
                  "def task(x):\n"
                  "    if x == 1:\n"
                  "        os._exit(3)\n"
                  "    return x\n"
                  "parallel_map(task, range(4), workers=2)\n")
        proc = _python(script, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        try:
            _, err = proc.communicate(timeout=30)
        finally:
            proc.kill()
        assert proc.returncode == 1
        assert "RuntimeError: pool worker" in err and "(exit status 3)" in err

    @pytest.mark.skipif(not os.path.exists("/proc/self/stat"), reason="needs /proc")
    def test_a_parent_killed_in_the_middle_of_a_map_leaves_no_live_worker(self):
        script = ("import os, time\n"
                  "from polydense.mc import parallel_map\n"
                  "def task(x):\n"
                  "    os.write(1, b'%d\\n' % os.getpid())  # one atomic line\n"
                  "    time.sleep(0.05)\n"
                  "    return x\n"
                  "parallel_map(task, range(10_000), workers=2)\n")
        proc = _python(script, stdout=subprocess.PIPE, bufsize=0)
        try:
            workers, deadline = set(), time.monotonic() + 60
            while len(workers) < 2:
                ready, _, _ = select.select([proc.stdout], [], [],
                                            max(0.0, deadline - time.monotonic()))
                line = proc.stdout.readline() if ready else b""
                assert line, "the workers stopped answering"
                workers.add(int(line))
            proc.send_signal(signal.SIGKILL)
            proc.wait(timeout=5)
            deadline = time.monotonic() + 5
            while any(map(_running, workers)) and time.monotonic() < deadline:
                time.sleep(0.05)
            assert not any(map(_running, workers))
        finally:
            proc.kill()
            proc.wait()
            proc.stdout.close()


class TestStreams:
    def test_same_key_same_stream(self):
        a = stream(5, "x", 3).integers(0, 1 << 30, size=8)
        b = stream(5, "x", 3).integers(0, 1 << 30, size=8)
        assert list(a) == list(b)

    def test_distinct_labels_decorrelate(self):
        a = list(stream(5, "x", 0).integers(0, 1 << 30, size=8))
        b = list(stream(5, "y", 0).integers(0, 1 << 30, size=8))
        c = list(stream(6, "x", 0).integers(0, 1 << 30, size=8))
        assert a != b and a != c

    def test_stream_id_stable(self):
        assert stream_id("tau:k=3:m=2", 7) == stream_id("tau:k=3:m=2", 7)
        assert stream_id("a", 0) != stream_id("a", 1)


class TestRandBits:
    def test_range(self):
        rng = stream(1, "bits")
        for nbits in (1, 7, 63, 64, 65, 128):
            for _ in range(50):
                x = rand_bits(rng, nbits)
                assert 0 <= x < (1 << nbits)

    def test_high_words_reached(self):
        rng = stream(2, "bits")
        assert any(rand_bits(rng, 128) >> 64 for _ in range(32))


class TestSampleIndices:
    def test_distinct_and_in_range(self):
        rng = stream(3, "idx")
        for pop, k in ((10, 3), (100, 60), (8, 8), (5, 0)):
            got = sample_indices(rng, pop, k)
            assert len(got) == k == len(set(got))
            assert all(0 <= i < pop for i in got)

    def test_uniform_on_both_paths(self):
        # k <= pop/2 takes rejection, k > pop/2 the partial shuffle
        for pop, k, label in ((6, 2, "rej"), (6, 5, "shuf")):
            rng = stream(4, label)
            counts = Counter()
            trials = 30_000
            for _ in range(trials):
                counts[frozenset(sample_indices(rng, pop, k))] += 1
            support = math.comb(pop, k)
            assert len(counts) == support
            p = 1 / support
            sigma = math.sqrt(trials * p * (1 - p))
            for c in counts.values():
                assert abs(c - trials * p) <= 4 * sigma

    def test_validation(self):
        with pytest.raises(ValueError):
            sample_indices(stream(0, "z"), 4, 5)

    def test_populations_beyond_int64(self):
        # above 2^63 the indices are rand_bits words, rejected when out of range
        rng = stream(5, "wide")
        for pop in (1 << 63, (1 << 64) + 1, 3 << 70, (1 << 70) - 2):
            got = sample_indices(rng, pop, 200)
            assert len(set(got)) == 200
            assert all(0 <= i < pop for i in got)
            if pop > 1 << 70:
                assert any(i >> 70 for i in got)

    def test_draws_and_stream_state_are_pinned(self):
        """The rejection path's draws, and the draw after them, as the
        sampler has always produced them at this seed."""
        rng = stream(20250809, "pin")
        got = sample_indices(rng, 16384, 1684)
        digest = hashlib.blake2b(repr(got).encode(), digest_size=16).hexdigest()
        assert digest == "3bcf81216cad1fdf870d0a8a23535a0f"
        assert int(rng.integers(0, 1 << 62)) == 2055610829105496260

    @pytest.mark.parametrize("pop, k, digest, after", [
        (4094, 18, "057583ed7eb0ba1f04c51f798aaca7af", 1641219961583044),
        (100, 60, "23add2658b7e4d446bd0fbfef3c5ad96", 3611574782125110686),
        ((1 << 64) + 7, 5, "8bef5190c0d9a08f8a4f98d3ace328ed", 1695374838734128137),
        (3 << 63, 40, "cda0be10b330a62cdc75f0e18af62d66", 4130748638596286185),
    ], ids=["rejection-one-batch", "fisher-yates", "rand-bits", "rand-bits-wide-k"])
    def test_the_other_branches_are_pinned(self, pop, k, digest, after):
        """As above for one rejection batch, the partial shuffle and the
        rand_bits words: a faster dedup or shuffle must consume and return
        exactly these draws."""
        rng = stream(20250809, "pin", pop)
        got = sample_indices(rng, pop, k)
        assert len(set(got)) == k
        assert hashlib.blake2b(repr(got).encode(), digest_size=16).hexdigest() == digest
        assert int(rng.integers(0, 1 << 62)) == after


class _CountingStream:
    """A stream that counts its integers calls (one per rejection batch, or
    per rand_bits word) and keeps the size each call asks for."""

    def __init__(self, rng):
        self.rng = rng
        self.calls = 0
        self.sizes = []

    def integers(self, *args, size=None, **kwargs):
        self.calls += 1
        self.sizes.append(size)
        return self.rng.integers(*args, size=size, **kwargs)


def _first_distinct_by_dict(rng, population, k):
    """The rejection sampler as an insertion-ordered dict over batches of
    max(64, missing) int64 draws: the first k distinct draws."""
    seen = {}
    while len(seen) < k:
        for x in rng.integers(0, population, size=max(64, k - len(seen))).tolist():
            if len(seen) == k:
                break
            seen[x] = None
    return list(seen)


def _sample_indices_by_definition(rng, population, k):
    """sample_indices as its docstring defines it, written plainly: a
    partial Fisher-Yates shuffle for k above population // 2, else the first
    k distinct draws of rejection batches, of max(64, missing) int64 draws
    or, above 2^63, of max(16, missing) rand_bits words kept when in range."""
    if k > population // 2:
        pool = list(range(population))
        for i in range(k):
            j = i + int(rng.integers(0, population - i))
            pool[i], pool[j] = pool[j], pool[i]
        return pool[:k]
    if population <= 1 << 63:
        return _first_distinct_by_dict(rng, population, k)
    nbits = (population - 1).bit_length()
    seen = {}
    while len(seen) < k:
        for x in [rand_bits(rng, nbits) for _ in range(max(16, k - len(seen)))]:
            if len(seen) == k:
                break
            if x < population:
                seen[x] = None
    return list(seen)


class TestSampleIndexArray:
    """sample_indices on every branch, each pinned by its integers calls.
    Above 64 int64 draws its dedup is the array one, _read_part, which the
    row readers share; the oracle here is the plain definition above."""

    @pytest.mark.parametrize("pop, k, calls", [
        (4094, 18, 1),
        (1 << 20, 64, 1),
        (200, 60, 2),
        (16384, 1684, 3),
        (200, 70, 2),
        (1 << 63, 100, 1),
        ((1 << 40) + 3, 100, 1),
        ((1 << 33) + 1, 70_000, 2),  # one batch wider than a refill: two calls
        (100, 60, 60),
        ((1 << 64) + 7, 5, 2 * 16),  # one batch of 65-bit words
        (3 << 63, 40, 2 * (40 + 16)),  # two batches
    ], ids=["one-batch-of-64", "k-64", "dict-multi-round", "numpy-multi-round",
            "numpy-uint8-keys", "numpy-uint64-keys", "numpy-64-bit-draws",
            "numpy-batch-past-a-refill", "fisher-yates", "rand-bits", "rand-bits-wide-k"])
    def test_same_draws_and_next_draw_as_sample_indices(self, pop, k, calls):
        """sample_indices draws what its definition draws and leaves the
        stream in the same state, on every branch.  calls counts the
        integers calls: one per batch of int64 draws, per Fisher-Yates step
        or per 64-bit word, and a batch asks for at most _REFILL_WORDS
        draws a call."""
        spy = _CountingStream(stream(20250809, "array", pop))
        got = sample_indices(spy, pop, k)
        rng = stream(20250809, "array", pop)
        assert got == _sample_indices_by_definition(rng, pop, k)
        assert spy.calls == calls
        assert all(size is None or size <= rng_module._REFILL_WORDS for size in spy.sizes)
        assert int(spy.rng.integers(0, 1 << 62)) == int(rng.integers(0, 1 << 62))

    def test_empty_draw(self):
        spy = _CountingStream(stream(0, "z"))
        assert sample_indices(spy, 10, 0) == []
        assert spy.calls == 0

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(st.integers(130, 70_000).flatmap(lambda pop: st.tuples(
        st.just(pop), st.integers(65, pop // 2), st.integers(0, 2 ** 32))))
    def test_numpy_dedup_keeps_the_first_distinct_draws(self, case):
        """Above 64 draws the batches are deduplicated by one sort of a span
        of draws: the result is still the first k distinct draws in draw
        order, and the stream ends where an insertion-ordered dict leaves
        it."""
        pop, k, seed = case
        rng = stream(seed, "dedup")
        ref = stream(seed, "dedup")
        assert sample_indices(rng, pop, k) == _first_distinct_by_dict(ref, pop, k)
        assert int(rng.integers(0, 1 << 62)) == int(ref.integers(0, 1 << 62))


class TestSampleIndexRows:
    @pytest.mark.parametrize("population", [30, 254, (1 << 31) + 12345, 1 << 32,
                                            (1 << 40) + 3, (1 << 62) + 5])
    def test_draws_over_one_range_compose(self, population):
        """The premise of sample_index_rows: Generator.integers calls over one
        range, split at any points, draw what one call of the total size
        draws and leave the stream in the same state (numpy 2.4.6).  The
        ranges cover numpy's 32-bit and 64-bit draws, and ranges just above
        a power of two, which reject often."""
        cuts = stream(11, "cuts", population)
        for trial in range(20):
            total = int(cuts.integers(0, 2000))
            points = np.sort(cuts.integers(0, total + 1, size=int(cuts.integers(1, 6))))
            sizes = np.diff(np.concatenate([[0], points, [total]])).tolist()
            whole, split = stream(trial, "compose", population), stream(trial, "compose", population)
            want = whole.integers(0, population, size=total)
            got = np.concatenate([split.integers(0, population, size=n) for n in sizes])
            assert np.array_equal(got, want), sizes
            assert int(split.integers(0, population)) == int(whole.integers(0, population))
            assert int(split.integers(0, 1 << 62)) == int(whole.integers(0, 1 << 62))

    @settings(max_examples=120, deadline=None, derandomize=True, database=None)
    @given(st.integers(1, 70_000).flatmap(lambda pop: st.integers(0, pop // 2).flatmap(
        lambda k: st.tuples(st.just(pop), st.just(k),
                            st.integers(0, min(600, 40_000 // max(k, 64))),
                            st.integers(0, 2 ** 32)))))
    @example((62, 30, 600, 1))
    @example((100, 50, 300, 2))
    @example((1000, 65, 200, 3))
    @example(((1 << 40) + 3, 80, 50, 4))  # 64-bit draws: windows of long rows
    @example(((1 << 40) + 3, 20, 300, 5))  # 64-bit draws: windows of rows
    def test_rows_are_successive_sample_indices(self, case):
        """The rows are count successive sample_indices draws, and the stream
        ends where those calls leave it.  Every case is on the rejection
        path, so the calls are drawn by an insertion-ordered dict: the row
        readers and sample_indices share _read_part above 64 draws."""
        pop, k, count, seed = case
        rng, ref = stream(seed, "rows"), stream(seed, "rows")
        rows = sample_index_rows(rng, pop, k, count)
        assert rows.dtype == np.int64 and rows.shape == (count, k)
        assert rows.tolist() == [_first_distinct_by_dict(ref, pop, k) for _ in range(count)]
        assert int(rng.integers(0, 1 << 62)) == int(ref.integers(0, 1 << 62))

    @pytest.mark.parametrize("pop, k, count, seed", [
        (62, 31, 600, 32),  # one short row
        (1022, 60, 300, 0),  # a few: windows after each
        (100, 50, 300, 0),  # most rows: read one at a time
        (4094, 72, 200, 0),  # a first batch of 72 draws, all distinct or short
    ])
    def test_short_rows_take_the_draws_after_their_first_batch(self, pop, k, count, seed):
        """A row whose first batch holds fewer than k distinct draws takes
        further batches, so the draws of the rows after it, and the stream,
        run past the one first call."""
        spy = _CountingStream(stream(seed, "short-rows"))
        ref = stream(seed, "short-rows")
        rows = sample_index_rows(spy, pop, k, count)
        assert spy.calls > 1
        assert rows.tolist() == [_first_distinct_by_dict(ref, pop, k) for _ in range(count)]
        assert int(spy.rng.integers(0, 1 << 62)) == int(ref.integers(0, 1 << 62))

    @pytest.mark.parametrize("pop, k, count, dtype", [
        (100, 60, 20, np.int64),  # Fisher-Yates
        (5, 5, 3, np.int64),
        ((1 << 64) + 7, 5, 10, object),  # rand_bits words
        (10, 0, 4, np.int64),
        (10, 3, 0, np.int64),
    ], ids=["fisher-yates", "whole-population", "rand-bits", "empty-rows", "no-rows"])
    def test_the_other_branches_draw_row_by_row(self, pop, k, count, dtype):
        rng, ref = stream(5, "other", pop), stream(5, "other", pop)
        rows = sample_index_rows(rng, pop, k, count)
        assert rows.dtype == dtype and rows.shape == (count, k)
        assert rows.tolist() == [sample_indices(ref, pop, k) for _ in range(count)]
        assert int(rng.integers(0, 1 << 62)) == int(ref.integers(0, 1 << 62))

    def test_validation(self):
        with pytest.raises(ValueError):
            sample_index_rows(stream(0, "v"), 5, 6, 1)


# ranges that numpy draws from 32-bit words: the edge 2^32, powers of two,
# which reject no word, and ranges that reject about a quarter and a half
_WORD_RANGES = [2, 3, 64, 202, 1 << 14, (1 << 32) - 1, 1 << 32, (3 << 30) + 1, (1 << 31) + 1]


def _per_sample_rows(rng, population, n, count):
    """The rows of sample_sets_and_pairs as the per-sample calls draw them,
    each call drawn by the plain definition of sample_indices."""
    return [(_sample_indices_by_definition(rng, population, n),
             _sample_indices_by_definition(rng, n, 2)) for _ in range(count)]


def _generated_rows(rng, population, n, count, chunk):
    rows = []
    for points, pairs in sample_sets_and_pairs(rng, population, n, count, chunk):
        assert points.dtype == pairs.dtype == np.int64
        assert points.shape == (len(pairs), n) and pairs.shape[1] == 2
        assert 0 < len(points) <= chunk
        rows += zip(points.tolist(), pairs.tolist())
    return rows


def _reader_rows(reader, rng, population, k, count, chunk):
    """The rows of one of the two row readers: sample_index_rows ("index")
    or sample_sets_and_pairs ("sets")."""
    if reader == "index":
        rows = sample_index_rows(rng, population, k, count)
        assert rows.dtype == np.int64 and rows.shape == (count, k)
        return rows.tolist()
    return _generated_rows(rng, population, k, count, chunk)


def _per_call_rows(reader, rng, population, k, count):
    """The rows of _reader_rows as the per-sample calls draw them."""
    if reader == "index":
        return [_sample_indices_by_definition(rng, population, k) for _ in range(count)]
    return _per_sample_rows(rng, population, k, count)


class TestWordRule:
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(st.lists(st.tuples(st.one_of(st.sampled_from(_WORD_RANGES),
                                        st.integers(2, 1 << 32)),
                              st.integers(1, 300)), min_size=1, max_size=12),
           st.integers(0, 2 ** 32))
    def test_words_draw_what_integers_draws(self, calls, seed):
        """Interleaved draws over ranges up to 2^32, as a pi block makes
        them (vertex draws, then pair draws, over two ranges), read from one
        buffer of words by Lemire's rule, are the draws of the
        Generator.integers calls (numpy 2.4.6)."""
        words = rng_module._Words(stream(seed, "words"))
        words.floor = 1000  # read ahead across the calls
        ref = stream(seed, "words")
        for r, size in calls:
            got = words.draws(r, size)
            assert got.dtype == np.int64
            assert np.array_equal(got, ref.integers(0, r, size=size)), (r, size)


class TestSampleSetsAndPairs:
    @settings(max_examples=120, deadline=None, derandomize=True, database=None)
    @given(st.one_of(st.integers(3, 32).map(lambda d: 1 << d),
                     st.sampled_from(_WORD_RANGES[3:])).flatmap(
        lambda pop: st.tuples(st.just(pop), st.integers(4, min(pop // 2, 300)),
                              st.integers(0, 150), st.integers(1, 200),
                              st.integers(0, 2 ** 32))))
    @example(((1 << 6), 32, 150, 40, 1))
    @example(((1 << 8), 65, 60, 7, 2))
    def test_rows_are_the_per_sample_calls(self, case):
        """Every chunk row is the point set and the pair the per-sample
        calls draw, over populations up to 2^32, powers of two or not."""
        pop, n, count, chunk, seed = case
        rng, ref = stream(seed, "sets"), stream(seed, "sets")
        assert _generated_rows(rng, pop, n, count, chunk) == _per_sample_rows(ref, pop, n, count)
        assert int(rng.integers(0, 1 << 62)) == int(ref.integers(0, 1 << 62))

    @pytest.mark.parametrize("reader, pop, n, count", [
        ("sets", 1 << 7, 48, 300),  # 64 draws from 128 values: about half the rows are short
        ("sets", 1 << 7, 64, 100),  # every row short
        ("sets", (1 << 31) + 1, 10, 300),  # vertex words rejected half the time
        ("index", 100, 50, 300),  # most rows short: the rest read alone
    ], ids=["128-48-300", "128-64-100", "2147483649-10-300", "index-100-50-300"])
    def test_irregular_rows_are_read_alone(self, monkeypatch, reader, pop, n, count):
        """k <= 64: a row whose 64-draw batches do not hold k distinct values
        in each part, or reject a word, is read draw by draw, and the rows
        after it start later."""
        alone = []
        read_part = rng_module._read_part
        monkeypatch.setattr(rng_module, "_read_part",
                            lambda *args: alone.append(args[1:]) or read_part(*args))
        got = _reader_rows(reader, stream(0, "irregular"), pop, n, count, 1000)
        assert (pop, n) in alone
        assert got == _per_call_rows(reader, stream(0, "irregular"), pop, n, count)

    @pytest.mark.parametrize("pop, n, count", [
        (1 << 8, 65, 200),  # 65 draws from 256 values: nearly every row is short
        (1 << 10, 202, 100),
    ])
    def test_long_rows_walk_their_further_batches(self, pop, n, count):
        """n > 64: a row whose first batch of n draws holds fewer than n
        distinct values takes batches of max(64, missing) further draws.
        The spy counts the batches of the per-sample calls, so the rows
        match only if the walk over the batch ends ran."""
        spy = _CountingStream(stream(1, "long"))
        want = _per_sample_rows(spy, pop, n, count)
        assert spy.calls > 2 * count  # a vertex batch and a pair batch a row, and more
        assert _generated_rows(stream(1, "long"), pop, n, count, 64) == want

    @pytest.mark.parametrize("pop, n, count", [
        (1 << 34, 5, 30),  # 64-bit vertex draws
        (1 << 70, 5, 10),  # rand_bits words: object dtype
        (1 << 4, 3, 30),  # Fisher-Yates pairs
        (1 << 3, 8, 30),  # Fisher-Yates point sets
        (1 << 4, 9, 30),
    ])
    def test_the_fallback_makes_the_per_sample_calls(self, pop, n, count):
        chunks = list(sample_sets_and_pairs(stream(2, "fallback"), pop, n, count, 7))
        assert [len(p) for p, _ in chunks] == [7] * (count // 7) + [count % 7] * (count % 7 > 0)
        got = [(p, q) for points, pairs in chunks
               for p, q in zip(points.tolist(), pairs.tolist())]
        assert got == _per_sample_rows(stream(2, "fallback"), pop, n, count)

    @pytest.mark.parametrize("reader, pop, n, count", [
        ("sets", 1 << 8, 32, 2000),  # windows of rows: 256,000 words
        ("sets", 1 << 14, 1684, 100),  # rows one at a time: about 180,000 words
        ("sets", 1 << 32, 70_000, 2),  # one row's span wider than a refill
        ("index", (1 << 14) - 2, 1682, 100),  # a pi_k block's faces: 168,200 draws at least
    ], ids=["256-32-2000", "16384-1684-100", "4294967296-70000-2", "index-16382-1682-100"])
    def test_no_refill_asks_for_more_than_the_cap(self, reader, pop, n, count):
        """The words are read in integers calls of at most _REFILL_WORDS, so
        a block holds a bounded buffer whatever its rows need in all."""
        rng, sizes = stream(4, "refill"), []

        class Spy:
            def integers(self, *args, size=None, **kwargs):
                sizes.append(size)
                return rng.integers(*args, size=size, **kwargs)

        got = _reader_rows(reader, Spy(), pop, n, count, max(1, (1 << 16) // n))
        assert len(sizes) > 1 and max(sizes) <= rng_module._REFILL_WORDS
        assert got == _per_call_rows(reader, stream(4, "refill"), pop, n, count)

    def test_validation(self):
        with pytest.raises(ValueError):
            next(sample_sets_and_pairs(stream(0, "v"), 4, 5, 1, 1))


class _WordStub:
    """A stream of given 32-bit words, on which integers(0, r, size) draws
    by the word rule as numpy 2.4.6 does (TestWordRule), written plainly:
    a test can set the words one batch reads.  It keeps the range and the
    first word of each call."""

    def __init__(self, words):
        self.words = words.tolist()
        self.pos = 0
        self.calls = []

    def integers(self, low, high, size, dtype=np.int64):
        assert low == 0 and 2 <= high <= 1 << 32
        self.calls.append((high, self.pos))
        out = []
        while len(out) < size:
            w = self.words[self.pos]
            self.pos += 1
            if not high & (high - 1):
                out.append(w >> (33 - high.bit_length()))
            elif w * high % (1 << 32) >= (1 << 32) % high:
                out.append(w * high >> 32)
        return np.array(out, dtype=dtype)


class TestLongRowWindows:
    """Rows with a part of k > 64 are read in windows of words: each row
    walks its long part, and the window's short parts are decided at
    once."""

    @pytest.fixture
    def windows(self, monkeypatch):
        seen = []
        real = rng_module._long_window

        def spy(*args):
            seen.append(real(*args))
            return seen[-1]

        monkeypatch.setattr(rng_module, "_long_window", spy)
        return seen

    @pytest.mark.parametrize("d, n", [(10, 202), (12, 583), (14, 1684)])
    def test_the_density_cells_are_the_per_sample_calls(self, windows, d, n):
        """The long cells of the density sweep, 500 rows (a pi block) in
        chunks of pass_rows(n) = 324, 112 and 38 rows, which 500 is not a
        multiple of: the rows are the per-sample calls, the stream ends
        where they leave it, and nearly every row is read in a window."""
        from polydense.graph import pass_rows

        rng, ref = stream(20250809, f"pi:d={d}:n={n}"), stream(20250809, f"pi:d={d}:n={n}")
        assert 500 % pass_rows(n)
        got = _generated_rows(rng, 1 << d, n, 500, pass_rows(n))
        assert got == _per_sample_rows(ref, 1 << d, n, 500)
        assert int(rng.integers(0, 1 << 62)) == int(ref.integers(0, 1 << 62))
        assert sum(done for done, _ in windows) >= 450

    def test_a_row_straddles_a_refill(self, windows):
        """Index rows of k > 64 whose words come in refills of
        _REFILL_WORDS draws: some refill ends inside a row, and the rows
        still are the per-sample calls."""
        pop, k, count = (1 << 14) - 2, 1682, 120
        rng, sizes = stream(6, "straddle"), []

        class Spy:
            def integers(self, *args, size=None, **kwargs):
                sizes.append(size)
                return rng.integers(*args, size=size, **kwargs)

        got = sample_index_rows(Spy(), pop, k, count).tolist()
        ref = _CountingStream(stream(6, "straddle"))
        want, row_ends = [], set()
        for _ in range(count):
            want.append(_first_distinct_by_dict(ref, pop, k))
            row_ends.add(sum(ref.sizes))
        assert got == want
        assert int(rng.integers(0, 1 << 62)) == int(ref.rng.integers(0, 1 << 62))
        refill_ends = set(np.cumsum(sizes).tolist())
        assert refill_ends - row_ends and max(refill_ends) == max(row_ends)
        assert sum(done for done, _ in windows) >= count - 10

    def test_an_irregular_short_part_cuts_the_window(self, windows):
        """A pair batch of 64 equal words holds one distinct value, so its
        row is irregular: the window is kept up to it, the row is read
        alone, and the rows after it and the stream are still the
        per-sample calls'."""
        pop, n, count = 1 << 10, 202, 60
        words = stream(7, "stub").integers(0, 1 << 32, size=40_000, dtype=np.uint32)
        probe = _WordStub(words)
        _per_sample_rows(probe, pop, n, count)
        at = [pos for r, pos in probe.calls if r == n][20]  # the pair batch of row 20
        words[at:at + 64] = words[at]
        reader, ref = _WordStub(words), _WordStub(words)
        got = _generated_rows(reader, pop, n, count, count)
        assert got == _per_sample_rows(ref, pop, n, count)
        assert reader.pos == ref.pos
        assert windows[0] == (20, 1)
