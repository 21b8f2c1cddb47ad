"""Counter-based random streams keyed by (master_seed, stream_id).

Every sampling routine in the package draws from a Philox stream obtained
here.  A stream is addressed by the master seed plus a label/index pair, so
estimators can carve their sample budget into blocks whose streams do not
depend on scheduling or worker count.

The word rule (numpy 2.4.6, guarded by a test): Generator.integers draws an
integer below r <= 2^32 from 32-bit Philox words, one next_uint32 each, as
rng.integers(0, 2**32) reads them.  A draw is (w * r) >> 32 of the next word
w, reading one more word while (w * r) mod 2^32 < 2^32 mod r (Lemire 2019,
"Fast random integer generation in an interval").  For r = 2^d nothing is
rejected and the draw is w >> (32 - d).  So the 32-bit draws of several
ranges can be read from one buffer of words with the values the calls draw
(sample_sets_and_pairs).
"""

from __future__ import annotations

import hashlib
from typing import Callable, Iterator

import numpy as np

__all__ = ["stream", "stream_id", "rand_bits", "sample_indices", "sample_index_array",
           "sample_index_rows", "sample_sets_and_pairs"]

_WORD = 64
_MASK64 = (1 << 64) - 1


def stream_id(label: str, index: int = 0) -> int:
    """Derive a stable 64-bit stream id from a label and block index."""
    digest = hashlib.blake2b(f"{label}#{index}".encode(), digest_size=8).digest()
    return int.from_bytes(digest, "little")


def stream(master_seed: int, label: str, index: int = 0) -> np.random.Generator:
    """Return the Philox stream for (master_seed, label, index).

    Distinct (label, index) pairs give statistically independent streams for
    the same master seed; identical arguments always reproduce the stream.
    """
    key = np.array([master_seed & _MASK64, stream_id(label, index)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def rand_bits(rng: np.random.Generator, nbits: int) -> int:
    """Uniform integer in [0, 2**nbits) from ``rng``."""
    if nbits <= 0:
        raise ValueError("nbits must be positive")
    out = 0
    produced = 0
    while produced < nbits:
        take = min(_WORD, nbits - produced)
        word = int(rng.integers(0, 1 << take if take < _WORD else 1 << 64, dtype=np.uint64))
        out |= word << produced
        produced += take
    return out


# fewest draws in one rejection batch: int64 draws, and rand_bits words
# above 2^63, which cost a Python call each
_MIN_BATCH = 64
_MIN_WIDE_BATCH = 16


def _rejection_batch(rng: np.random.Generator, population: int,
                     missing: int) -> np.ndarray | list[int]:
    """One rejection batch for ``missing`` more indices: int64 draws, or
    the in-range rand_bits words of (population - 1).bit_length() bits
    when the population exceeds numpy's int64 draws."""
    wide = population > 1 << 63
    size = max(_MIN_WIDE_BATCH if wide else _MIN_BATCH, missing)
    if not wide:
        return rng.integers(0, population, size=size)
    nbits = (population - 1).bit_length()
    return [w for w in (rand_bits(rng, nbits) for _ in range(size)) if w < population]


def _unsigned_key(population: int) -> type:
    """The narrowest unsigned dtype that holds every index below population
    (a stable sort on 8 or 16 bits is a radix sort)."""
    bits = (population - 1).bit_length()
    return np.uint8 if bits <= 8 else np.uint16 if bits <= 16 else (
        np.uint32 if bits <= 32 else np.uint64)


def _first_in_rows(keys: np.ndarray) -> np.ndarray:
    """Where each row of the 2-D ``keys`` holds the first occurrence of a
    value: a stable sort of each row puts that occurrence first in its run
    of equal keys."""
    order = np.argsort(keys, axis=1, kind="stable")
    ranked = np.take_along_axis(keys, order, axis=1)
    first = np.empty(keys.shape, dtype=bool)
    first[:, 0] = True
    np.not_equal(ranked[:, 1:], ranked[:, :-1], out=first[:, 1:])
    out = np.empty_like(first)
    np.put_along_axis(out, order, first, axis=1)
    return out


def _first_distinct_in_numpy(batch: Callable[[int], np.ndarray], population: int,
                             k: int) -> np.ndarray:
    """_first_distinct, deduplicated in numpy: each batch is sorted stably
    on its unsigned keys, so the first of each run of equal keys is that
    value's first occurrence; draws already found are found in the sorted
    keys of the earlier batches."""
    key = _unsigned_key(population)
    pieces: list[np.ndarray] = []
    found = np.empty(0, dtype=key)  # sorted
    missing = k
    while True:
        draws = batch(missing)
        keys = draws.astype(key)
        order = np.argsort(keys, kind="stable")
        ranked = keys[order]
        first = np.empty(len(ranked), dtype=bool)
        first[0] = True
        np.not_equal(ranked[1:], ranked[:-1], out=first[1:])
        if len(found):
            at = np.minimum(np.searchsorted(found, ranked), len(found) - 1)
            first &= found[at] != ranked
        kept = np.zeros(len(draws), dtype=bool)
        kept[order[first]] = True
        new = draws[kept]  # in draw order
        if len(new) >= missing:
            pieces.append(new[:missing])
            return pieces[0] if len(pieces) == 1 else np.concatenate(pieces)
        pieces.append(new)
        missing -= len(new)
        found = (np.sort(np.concatenate([found, ranked[first]]), kind="stable")
                 if len(found) else ranked[first])


def _first_distinct(batch: Callable[[int], np.ndarray | list[int]], population: int,
                    k: int) -> np.ndarray | list[int]:
    """The first k distinct values of the rejection batches batch(missing),
    in draw order: deduplicated in numpy when a first batch is longer than
    64 int64 draws, as an array, and in an insertion-ordered dict
    otherwise, as a list."""
    if k > _MIN_BATCH and population <= 1 << 63:
        return _first_distinct_in_numpy(batch, population, k)
    seen: dict[int, None] = {}  # insertion-ordered: the distinct draws so far
    while len(seen) < k:
        draws = batch(k - len(seen))
        if not isinstance(draws, list):
            draws = draws.tolist()
        # slices of the number still missing: a small k stops after a few draws
        pos = 0
        if not seen:
            seen = dict.fromkeys(draws[:k])
            pos = k
        while len(seen) < k and pos < len(draws):
            take = k - len(seen)
            seen.update(dict.fromkeys(draws[pos:pos + take]))
            pos += take
    return list(seen)


def _sample(rng: np.random.Generator, population: int, k: int) -> np.ndarray | list[int]:
    """sample_indices' draws, as an int64 array where numpy deduplicated
    them and as a list otherwise."""
    if not 0 <= k <= population:
        raise ValueError(f"cannot draw {k} distinct indices from {population}")
    if k == 0:
        return []
    if k > population // 2:
        pool = list(range(population))
        for i in range(k):
            j = i + int(rng.integers(0, population - i))
            pool[i], pool[j] = pool[j], pool[i]
        return pool[:k]
    return _first_distinct(lambda missing: _rejection_batch(rng, population, missing),
                           population, k)


def sample_indices(rng: np.random.Generator, population: int, k: int) -> list[int]:
    """Sample k distinct indices uniformly from range(population).

    Rejection sampling while k is small relative to the population: the
    first k distinct draws of batches of max(64, missing) int64 draws, in
    draw order, deduplicated in an insertion-ordered dict for k <= 64 and in
    numpy above.  Partial Fisher-Yates over the full range otherwise.  A
    population above 2^63 exceeds numpy's int64 draws, so its indices are
    batches of max(16, missing) words of (population - 1).bit_length() bits
    from rand_bits, rejected when out of range.  Deterministic given the
    stream state.
    """
    out = _sample(rng, population, k)
    return out if isinstance(out, list) else out.tolist()


def sample_index_array(rng: np.random.Generator, population: int, k: int) -> np.ndarray:
    """sample_indices' draws, consuming the same stream, as an int64 array
    (object dtype for a population above 2^63)."""
    out = _sample(rng, population, k)
    if isinstance(out, list):
        return np.array(out, dtype=np.int64 if population <= 1 << 63 else object)
    return out


def sample_index_rows(rng: np.random.Generator, population: int, k: int,
                      count: int) -> np.ndarray:
    """The draws of count successive sample_indices(rng, population, k)
    calls as the rows of a (count, k) int64 array (object dtype for a
    population above 2^63), leaving the stream where those calls leave it.

    Where the calls draw by rejection from range(population) alone, their
    draws are one sequence, because numpy's integers calls over one range
    compose, so the rows are read from one buffer of draws.  One call of
    count * max(64, k) draws holds every row's first batch; a window of rows
    keeps each row's first k distinct draws at once (_first_in_rows on the
    unsigned keys) up to the first short row, one with fewer.  That row
    takes its further batches of max(64, missing) draws from the draws
    after its first batch, so the rows after it start that much later and
    the next window begins after it.  Where a window finds more than one
    short row in eight, the rest are read one row at a time.  Every draw
    made is one the calls make.  Fisher-Yates draws (k above
    population // 2) and rand_bits words (a population above 2^63) take one
    _sample call per row.
    """
    if not 0 <= k <= population:
        raise ValueError(f"cannot draw {k} distinct indices from {population}")
    word = np.int64 if population <= 1 << 63 else object
    if k == 0 or count == 0:
        return np.empty((count, k), dtype=word)
    if word is object or k > population // 2:
        return np.array([_sample(rng, population, k) for _ in range(count)],
                        dtype=word).reshape(count, k)
    width = max(_MIN_BATCH, k)
    key = _unsigned_key(population)
    # the draws made so far, and the position of the next one to read
    buf = rng.integers(0, population, size=count * width)
    pos = 0

    def take(size: int) -> np.ndarray:
        nonlocal buf, pos
        if pos + size > len(buf):
            more = rng.integers(0, population, size=pos + size - len(buf))
            buf, pos = np.concatenate([buf[pos:], more]), 0
        pos += size
        return buf[pos - size:pos]

    out = np.empty((count, k), dtype=np.int64)
    row, window = 0, count
    while row < count:
        n = min(window, count - row)
        batches = take(n * width).reshape(n, width)
        first = _first_in_rows(batches.astype(key))
        rank = np.cumsum(first, axis=1)
        short = np.flatnonzero(rank[:, -1] < k)
        done = short[0] if len(short) else n
        kept = first[:done] & (rank[:done] <= k)
        out[row:row + done] = batches[:done][kept].reshape(done, k)
        row += done
        if done == n:
            continue
        pos -= (n - done) * width  # the rows after the short row start later
        last = count if len(short) * 8 > n else row + 1
        while row < last:
            out[row] = _first_distinct(lambda missing: take(max(_MIN_BATCH, missing)),
                                       population, k)
            row += 1
        window = 2 * (done + 1)  # about twice the run of full rows found
    return out


# the most 32-bit words one refill of _Words asks the stream for
_REFILL_WORDS = 1 << 16
_WORD32 = 1 << 32


def _bounded(words: np.ndarray, r: int) -> tuple[np.ndarray, np.ndarray | None]:
    """numpy's draws below r, 2 <= r <= 2^32, from 32-bit words (Lemire's
    rule, see the module docstring): each word's value as int64, and which
    words are kept (None when r is a power of two, which keeps them all)."""
    if not r & (r - 1):
        return (words >> (33 - r.bit_length())).astype(np.int64), None
    scaled = words.astype(np.uint64) * np.uint64(r)
    return (scaled >> 32).astype(np.int64), scaled.astype(np.uint32) >= _WORD32 % r


class _Words:
    """The 32-bit words of a stream in draw order, read ahead of use in
    integers calls of at most _REFILL_WORDS words.  A refill reads what is
    asked for, or more, up to the ``expect`` words the caller plans to read
    in all."""

    def __init__(self, rng: np.random.Generator, expect: int):
        self.rng = rng
        self.left = expect  # words still expected beyond those read from the stream
        self.buf = np.empty(0, dtype=np.uint32)
        self.pos = 0

    def peek(self, size: int) -> np.ndarray:
        """The next size words, left unread."""
        short = self.pos + size - len(self.buf)
        if short > 0:
            want = max(short, min(self.left, _REFILL_WORDS))
            self.left -= want
            more = [self.rng.integers(0, _WORD32, size=min(_REFILL_WORDS, want - at),
                                      dtype=np.uint32)
                    for at in range(0, want, _REFILL_WORDS)]
            self.buf, self.pos = np.concatenate([self.buf[self.pos:], *more]), 0
        return self.buf[self.pos:self.pos + size]

    def read(self, size: int) -> np.ndarray:
        words = self.peek(size)
        self.pos += size
        return words

    def draws(self, r: int, size: int) -> np.ndarray:
        """What rng.integers(0, r, size=size) draws: a word gives at most one
        draw, so reading as many words as draws are missing never reads past
        the last one."""
        pieces = []
        while size:
            values, kept = _bounded(self.read(size), r)
            pieces.append(values if kept is None else values[kept])
            size -= len(pieces[-1])
        return pieces[0] if len(pieces) == 1 else np.concatenate(pieces)


def _row_words(population: int, n: int) -> int:
    """About the words a row of sample_sets_and_pairs reads: 128 for n <= 64,
    and for n > 64 the first batch of n vertex draws, room for the further
    batches that about n^2 / (2 population) repeats call for, and the pair."""
    if n <= _MIN_BATCH:
        return 2 * _MIN_BATCH
    return n + 2 * max(_MIN_BATCH, n * n // population)


def _read_alone(words: _Words, population: int, k: int) -> np.ndarray | list[int]:
    """sample_indices(rng, population, k) on the rejection path, draw by draw
    from the words."""
    return _first_distinct(lambda missing: words.draws(population, max(_MIN_BATCH, missing)),
                           population, k)


def _fill_short_rows(words: _Words, population: int, points: np.ndarray,
                     pairs: np.ndarray) -> None:
    """sample_sets_and_pairs' rows for n <= 64, where a row is regular when
    it reads 128 words: 64 vertex draws holding n distinct values and 64
    pair draws with no word rejected and two distinct values.  A window of
    rows is decided at once up to its first irregular row, which is read
    alone.  The next window is twice the last one when that was regular
    throughout, and about twice the run of regular rows found otherwise."""
    count, n = points.shape
    width = 2 * _MIN_BATCH
    key = _unsigned_key(population)
    row, window = 0, count
    while row < count:
        size = min(window, count - row, _REFILL_WORDS // width)
        block = words.peek(size * width).reshape(size, width)
        values, kept = _bounded(block[:, :_MIN_BATCH], population)
        first = _first_in_rows(values.astype(key))
        rank = np.cumsum(first, axis=1)
        regular = rank[:, -1] >= n
        if kept is not None:
            regular &= kept.all(axis=1)
        ends, ends_kept = _bounded(block[:, _MIN_BATCH:], n)
        other = ends != ends[:, :1]
        regular &= other.any(axis=1)
        if ends_kept is not None:
            regular &= ends_kept.all(axis=1)
        done = size if regular.all() else int(np.argmin(regular))
        points[row:row + done] = values[:done][first[:done] & (rank[:done] <= n)].reshape(done, n)
        pairs[row:row + done, 0] = ends[:done, 0]
        pairs[row:row + done, 1] = ends[np.arange(done), np.argmax(other[:done], axis=1)]
        words.read(done * width)
        row += done
        if done == size:
            window = 2 * size
            continue
        points[row] = _read_alone(words, population, n)
        pairs[row] = _read_alone(words, n, 2)
        row += 1
        window = 2 * (done + 1)


def _fill_long_rows(words: _Words, population: int, points: np.ndarray,
                    pairs: np.ndarray) -> None:
    """sample_sets_and_pairs' rows for n > 64, one at a time.  A stable sort
    of a window of vertex draws marks each value's first occurrence; the
    batches of max(64, missing) draws after the first batch of n end where
    the running count of first occurrences says, and the row keeps the first
    n of them.  A window too short for the batches is doubled."""
    count, n = points.shape
    key = _unsigned_key(population)
    span = _row_words(population, n)  # the vertex draws' window
    for row in range(count):
        while True:
            values, kept = _bounded(words.peek(span), population)
            at = None if kept is None else np.flatnonzero(kept)
            if at is not None:
                values = values[at]
            keys = values.astype(key)
            order = np.argsort(keys, kind="stable")
            ranked = keys[order]
            first = np.empty(len(keys), dtype=bool)
            first[order[0]] = True
            first[order[1:]] = ranked[1:] != ranked[:-1]
            running = np.cumsum(first)
            end = n
            while end <= len(running) and running[end - 1] < n:
                end += max(_MIN_BATCH, n - int(running[end - 1]))
            if end <= len(running):
                break
            span *= 2
        points[row] = values[:end][first[:end]][:n]
        words.read(end if at is None else int(at[end - 1]) + 1)
        ends, ends_kept = _bounded(words.peek(_MIN_BATCH), n)
        other = np.flatnonzero(ends != ends[0])
        if len(other) and (ends_kept is None or ends_kept.all()):
            pairs[row] = ends[0], ends[other[0]]
            words.read(_MIN_BATCH)
        else:
            pairs[row] = _read_alone(words, n, 2)


def sample_sets_and_pairs(rng: np.random.Generator, population: int, n: int, count: int,
                          chunk: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The draws of count successive (sample_index_array(rng, population, n),
    sample_indices(rng, n, 2)) calls, a point set of n distinct indices and
    the positions of a pair in it, as chunks of at most ``chunk`` rows: a
    (c, n) int64 array of point sets (object dtype above 2^63) and a (c, 2)
    int64 array of pairs.

    Where every draw is a 32-bit one (population <= 2^32) on the rejection
    path (4 <= n <= population // 2), the rows are read from one buffer of
    Philox words by the word rule (_Words), in refills of at most
    _REFILL_WORDS words: by windows of rows for n <= 64 (_fill_short_rows)
    and one row at a time above (_fill_long_rows).  The buffer reads ahead of
    the last draw, so the stream is for these rows alone.  Otherwise the rows
    are the per-sample calls: 64-bit draws share Philox's buffered half
    word with 32-bit ones, and n < 4 or n > population // 2 draws by
    Fisher-Yates.
    """
    if not 2 <= n <= population:
        raise ValueError(f"cannot draw {n} distinct indices from {population}")
    starts = range(0, count, chunk)
    if population > _WORD32 or not 4 <= n <= population // 2:
        word = np.int64 if population <= 1 << 63 else object
        for start in starts:
            rows = [(sample_index_array(rng, population, n), sample_indices(rng, n, 2))
                    for _ in range(min(chunk, count - start))]
            yield (np.array([p for p, _ in rows], dtype=word),
                   np.array([q for _, q in rows], dtype=np.int64))
        return
    fill = _fill_short_rows if n <= _MIN_BATCH else _fill_long_rows
    words = _Words(rng, count * _row_words(population, n))
    for start in starts:
        points = np.empty((min(chunk, count - start), n), dtype=np.int64)
        pairs = np.empty((len(points), 2), dtype=np.int64)
        fill(words, population, points, pairs)
        yield points, pairs
