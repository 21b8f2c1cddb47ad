"""Counter-based random streams keyed by (master_seed, stream_id).

Every sampling routine in the package draws from a Philox stream obtained
here.  A stream is addressed by the master seed plus a label/index pair, so
estimators can carve their sample budget into blocks whose streams do not
depend on scheduling or worker count.

sample_indices draws k distinct indices.  Two row readers return the draws
of many successive calls at once and leave the stream where those calls
leave it: sample_index_rows, the rows of sample_indices over one
population, and sample_sets_and_pairs, a point set and a pair in it a row.
Each regime of the rejection path has one dedup for a call read alone,
shared by the per-call draws and both readers: an insertion-ordered dict
for k <= 64 (_first_distinct) and one stable sort of a span of draws above
it (_read_part).  One reader, _fill_rows, fills both kinds of row from a
buffer that is never read past a word the calls would read.  The buffer
rests on two facts of numpy 2.4.6, each guarded by a test:

- Generator.integers calls over one range compose: split at any points,
  they draw what one call draws and leave the stream in the same state.  So
  index rows are read from one sequence of int64 draws (_Draws).
- The word rule: Generator.integers draws an integer below r <= 2^32 from
  32-bit Philox words, one next_uint32 each, as rng.integers(0, 2**32)
  reads them.  A draw is (w * r) >> 32 of the next word w, reading one more
  word while (w * r) mod 2^32 < 2^32 mod r (Lemire 2019, "Fast random
  integer generation in an interval").  For r = 2^d nothing is rejected and
  the draw is w >> (32 - d).  So the 32-bit draws of the two ranges of a
  sets row are read from one buffer of words (_Words).
"""
from __future__ import annotations

import hashlib
from typing import Callable, Iterator

import numpy as np

__all__ = ["stream", "stream_id", "rand_bits", "sample_indices", "sample_index_rows",
           "sample_sets_and_pairs"]

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
        word = int(rng.integers(0, 1 << take, dtype=np.uint64))
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


def _first_distinct(batch: Callable[[int], np.ndarray | list[int]], k: int) -> list[int]:
    """The first k distinct values of the rejection batches batch(missing),
    in draw order, deduplicated in an insertion-ordered dict."""
    seen: dict[int, None] = {}  # insertion-ordered: the distinct draws so far
    while len(seen) < k:
        draws = batch(k - len(seen))
        if not isinstance(draws, list):
            draws = draws.tolist()
        # slices of the number still missing: a small k stops after a few draws
        pos = 0
        while len(seen) < k and pos < len(draws):
            take = k - len(seen)
            seen.update(dict.fromkeys(draws[pos:pos + take]))
            pos += take
    return list(seen)


# the most words one refill of _Words asks the stream for
_REFILL_WORDS = 1 << 16
_WORD32 = 1 << 32


class _Words:
    """The 32-bit words of a stream in draw order, read ahead of use in
    integers calls of at most _REFILL_WORDS words, but no further than
    ``floor`` words past the next unread one: the fewest words its reader is
    sure to read, which each read counts down.  A read of more than that is
    one the reader is sure of, so no word is read that the calls it stands
    for would not read."""

    def __init__(self, rng: np.random.Generator):
        self.rng = rng
        self.floor = 0
        self.buf = np.empty(0, dtype=np.uint32)
        self.pos = 0

    def _more(self, size: int) -> np.ndarray:
        return self.rng.integers(0, _WORD32, size=size, dtype=np.uint32)

    def peek(self, size: int) -> np.ndarray:
        """The next size words, left unread."""
        short = self.pos + size - len(self.buf)
        if short > 0:
            want = max(short, min(self.pos + self.floor - len(self.buf), _REFILL_WORDS))
            more = [self._more(min(_REFILL_WORDS, want - at)) for at in range(0, want, _REFILL_WORDS)]
            self.buf, self.pos = np.concatenate([self.buf[self.pos:], *more]), 0
        return self.buf[self.pos:self.pos + size]

    def read(self, size: int) -> np.ndarray:
        words = self.peek(size)
        self.pos += size
        self.floor -= size
        return words

    def values(self, words: np.ndarray, r: int) -> tuple[np.ndarray, np.ndarray | None]:
        """numpy's draws below r, 2 <= r <= 2^32, from the words by the word
        rule (see the module docstring): each word's value as int64, and
        which words are kept (None when r is a power of two, which keeps
        them all)."""
        if not r & (r - 1):
            return (words >> (33 - r.bit_length())).astype(np.int64), None
        scaled = words.astype(np.uint64) * np.uint64(r)
        return (scaled >> 32).astype(np.int64), scaled.astype(np.uint32) >= _WORD32 % r

    def draws(self, r: int, size: int) -> np.ndarray:
        """What rng.integers(0, r, size=size) draws: a word gives at most one
        draw, so reading as many words as draws are missing never reads past
        the last one."""
        pieces = []
        while size:
            values, kept = self.values(self.read(size), r)
            pieces.append(values if kept is None else values[kept])
            size -= len(pieces[-1])
        return pieces[0] if len(pieces) == 1 else np.concatenate(pieces)


class _Draws(_Words):
    """The int64 draws of rng.integers(0, population) as the words, each
    its own value: numpy's integers calls over one range compose (guarded
    by a test), so they are one sequence however they are split."""

    def __init__(self, rng: np.random.Generator, population: int):
        super().__init__(rng)
        self.population = population

    def _more(self, size: int) -> np.ndarray:
        return self.rng.integers(0, self.population, size=size)

    def values(self, words: np.ndarray, r: int) -> tuple[np.ndarray, None]:
        return words, None


def _read_part(source: _Words, population: int, k: int) -> np.ndarray | list[int]:
    """The draws of sample_indices(rng, population, k) on the rejection
    path, read alone from the source: by _first_distinct for k <= 64, and
    above by one stable sort of a span of draws, which marks each value's
    first occurrence.  The first batch of k draws and the further batches
    of max(64, missing) then end where the running count of first
    occurrences says, and the part keeps the first k of them.  The span
    reaches no further than source.floor, and past it grows only by the
    draws the batches are found to need: at floor 0, as sample_indices
    reads it, exactly those batches."""
    if k <= _MIN_BATCH:
        return _first_distinct(
            lambda missing: source.draws(population, max(_MIN_BATCH, missing)), k)
    key = _unsigned_key(population)
    # the first batch, and about the further batches its repeats call for
    span = max(k, min(k + 2 * max(_MIN_BATCH, k * k // population), source.floor))
    while True:
        values, kept = source.values(source.peek(span), population)
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
        end = k
        while end <= len(running) and running[end - 1] < k:
            end += max(_MIN_BATCH, k - int(running[end - 1]))
        if end <= len(running):
            break
        span = max(min(2 * span, source.floor), span + end - len(running))
    source.read(end if at is None else int(at[end - 1]) + 1)
    return values[:end][first[:end]][:k]


def sample_indices(rng: np.random.Generator, population: int, k: int) -> list[int]:
    """Sample k distinct indices uniformly from range(population).

    Rejection sampling while k is small relative to the population: the
    first k distinct draws of batches of max(64, missing) int64 draws, in
    draw order, deduplicated in an insertion-ordered dict for k <= 64 and
    above by _read_part, which reads exactly those batches.  Partial
    Fisher-Yates over the full range otherwise.  A population above 2^63
    exceeds numpy's int64 draws, so its indices are batches of
    max(16, missing) words of (population - 1).bit_length() bits from
    rand_bits, rejected when out of range.  Deterministic given the stream
    state.
    """
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
    if k > _MIN_BATCH and population <= 1 << 63:
        return _read_part(_Draws(rng, population), population, k).tolist()
    return _first_distinct(lambda missing: _rejection_batch(rng, population, missing), k)


def _fill_rows(source: _Words, parts: list[tuple[int, int]], count: int,
               chunk: int) -> Iterator[list[np.ndarray]]:
    """count rows read from the source, a row holding the draws of one
    sample_indices(rng, population, k) call for each part (population, k)
    in turn, as one (c, k) int64 array per part for each chunk of at most
    ``chunk`` rows.

    A row reads at least max(64, k) words a part, and source.floor is kept
    at that many for the rows still to draw.  While every part has
    k <= 64, a window of rows (at most _REFILL_WORDS words) is decided at
    once: a row is regular when the 64-draw batch of each part rejects no
    word and holds k distinct values (_first_in_rows), and the window is
    kept up to its first irregular row, which is read alone (_read_part).
    The next window is twice the last one when that was regular throughout,
    and 2 * (regular rows + 1) otherwise.  After a window with more than one
    irregular row in eight, and wherever a part has k > 64, every row is
    read alone.
    """
    width = sum(max(_MIN_BATCH, k) for _, k in parts)  # the fewest words of a row
    alone = any(k > _MIN_BATCH for _, k in parts)
    window = count
    for start in range(0, count, chunk):
        outs = [np.empty((min(chunk, count - start), k), dtype=np.int64) for _, k in parts]
        row = 0
        while row < len(outs[0]):
            source.floor = (count - start - row) * width
            if not alone:
                size = min(window, len(outs[0]) - row, _REFILL_WORDS // width)
                block = source.peek(size * width).reshape(size, width)
                regular = np.ones(size, dtype=bool)
                picks = []
                for at, (population, k) in zip(range(0, width, _MIN_BATCH), parts):
                    values, kept = source.values(block[:, at:at + _MIN_BATCH], population)
                    first = _first_in_rows(values.astype(_unsigned_key(population)))
                    rank = np.cumsum(first, axis=1, dtype=np.uint8)
                    regular &= rank[:, -1] >= k
                    if kept is not None:
                        regular &= kept.all(axis=1)
                    picks.append((values, first & (rank <= k)))
                irregular = np.flatnonzero(~regular)
                done = irregular[0] if len(irregular) else size
                for out, (_, k), (values, pick) in zip(outs, parts, picks):
                    out[row:row + done] = values[:done][pick[:done]].reshape(done, k)
                source.read(done * width)
                row += done
                if done == size:
                    window = 2 * size
                    continue
                alone = len(irregular) * 8 > size
                window = 2 * (done + 1)
            for out, (population, k) in zip(outs, parts):
                out[row] = _read_part(source, population, k)
            row += 1
        yield outs


def sample_index_rows(rng: np.random.Generator, population: int, k: int,
                      count: int) -> np.ndarray:
    """The draws of count successive sample_indices(rng, population, k)
    calls as the rows of a (count, k) int64 array (object dtype for a
    population above 2^63), leaving the stream where those calls leave it.

    On the rejection path the calls' draws are one sequence of
    integers(0, population) draws, which _fill_rows reads (_Draws).
    Fisher-Yates draws (k above population // 2) and rand_bits words (a
    population above 2^63) take one sample_indices call per row.
    """
    if not 0 <= k <= population:
        raise ValueError(f"cannot draw {k} distinct indices from {population}")
    word = np.int64 if population <= 1 << 63 else object
    if k == 0 or count == 0:
        return np.empty((count, k), dtype=word)
    if word is object or k > population // 2:
        return np.array([sample_indices(rng, population, k) for _ in range(count)],
                        dtype=word).reshape(count, k)
    [rows] = next(_fill_rows(_Draws(rng, population), [(population, k)], count, count))
    return rows


def sample_sets_and_pairs(rng: np.random.Generator, population: int, n: int, count: int,
                          chunk: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The draws of count successive (sample_indices(rng, population, n),
    sample_indices(rng, n, 2)) calls, a point set of n distinct indices and
    the positions of a pair in it, as chunks of at most ``chunk`` rows: a
    (c, n) int64 array of point sets (object dtype above 2^63) and a (c, 2)
    int64 array of pairs.  The stream ends where those calls leave it.

    Where every draw is a 32-bit one (population <= 2^32) on the rejection
    path (4 <= n <= population // 2), _fill_rows reads the rows from the
    stream's words by the word rule (_Words).  Otherwise the rows are the
    per-sample calls: 64-bit draws share Philox's buffered half word with
    32-bit ones, and n < 4 or n > population // 2 draws by Fisher-Yates.
    Either way a point set read alone is deduplicated as sample_indices
    does it: in a dict for n <= 64 and by _read_part above.
    """
    if not 2 <= n <= population:
        raise ValueError(f"cannot draw {n} distinct indices from {population}")
    if population <= _WORD32 and 4 <= n <= population // 2:
        for points, pairs in _fill_rows(_Words(rng), [(population, n), (n, 2)], count, chunk):
            yield points, pairs
        return
    word = np.int64 if population <= 1 << 63 else object
    for start in range(0, count, chunk):
        rows = [(sample_indices(rng, population, n), sample_indices(rng, n, 2))
                for _ in range(min(chunk, count - start))]
        yield (np.array([p for p, _ in rows], dtype=word),
               np.array([q for _, q in rows], dtype=np.int64))
