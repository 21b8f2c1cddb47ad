"""Counter-based random streams keyed by (master_seed, stream_id).

Every sampling routine in the package draws from a Philox stream obtained
here.  A stream is addressed by the master seed plus a label/index pair, so
estimators can carve their sample budget into blocks whose streams do not
depend on scheduling or worker count.
"""

from __future__ import annotations

import hashlib
from typing import Callable

import numpy as np

__all__ = ["stream", "stream_id", "rand_bits", "sample_indices", "sample_index_array",
           "sample_index_rows"]

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
