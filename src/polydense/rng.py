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
buffer that is never read past a word the calls would read, a window of
rows at a time: rows whose parts all have k <= 64 are decided together
(_short_window), and a row with a part of k > 64 walks that part through
a window of words taken in one peek, whose short parts, such as the pair
of a sets row, are then decided together (_long_window).  A window ends
at its first irregular row, which is read alone.  The buffer rests on two
facts of numpy 2.4.6, each guarded by a test:

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
            if self.pos < len(self.buf):
                more.insert(0, self.buf[self.pos:])
            self.buf, self.pos = more[0] if len(more) == 1 else np.concatenate(more), 0
        return self.buf[self.pos:self.pos + size]

    def unread(self) -> int:
        """The words read ahead and not yet used."""
        return len(self.buf) - self.pos

    def read(self, size: int) -> np.ndarray:
        words = self.peek(size)
        self.pos += size
        self.floor -= size
        return words

    def values(self, words: np.ndarray, r: int,
               dtype: type = np.int64) -> tuple[np.ndarray, np.ndarray | None]:
        """numpy's draws below r, 2 <= r <= 2^32, from the words by the word
        rule (see the module docstring): each word's value as ``dtype``, and
        which words are kept (None when r is a power of two, which keeps
        them all)."""
        if not r & (r - 1):
            return (words >> (33 - r.bit_length())).astype(dtype), None
        scaled = words.astype(np.uint64) * np.uint64(r)
        return (scaled >> 32).astype(dtype), scaled.astype(np.uint32) >= _WORD32 % r

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

    def values(self, words: np.ndarray, r: int,
               dtype: type = np.int64) -> tuple[np.ndarray, None]:
        return words.astype(dtype, copy=False), None


def _span(population: int, k: int) -> int:
    """The draws a part (population, k > 64) is first sorted over: its
    first batch, and about the further batches its repeats call for."""
    return k + 2 * max(_MIN_BATCH, k * k // population)


def _walk(draws: np.ndarray, k: int, span: int) -> tuple[int, np.ndarray | None]:
    """A part (population, k > 64) read from the start of ``draws``: one
    stable sort of the first ``span`` draws marks each value's first
    occurrence, the first batch of k draws and the further batches of
    max(64, missing) end where the marks counted at each batch end say, and
    the part keeps the first k marked draws.  The span doubles, up to all
    the draws, while the batches run past it.  Returns the draws the
    batches take and the part, or, when the draws end first, the draws the
    batches need at least and None."""
    span = min(span, len(draws))
    while k <= span:
        seg = draws[:span]
        order = seg.argsort(kind="stable")
        ranked = seg[order]
        mark = np.empty(span, dtype=bool)
        mark[0] = True
        np.not_equal(ranked[1:], ranked[:-1], out=mark[1:])
        first = np.empty(span, dtype=bool)
        first[order] = mark
        end, got = k, np.count_nonzero(first[:k])
        while got < k and end + max(_MIN_BATCH, k - got) <= span:
            step = max(_MIN_BATCH, k - got)
            got += np.count_nonzero(first[end:end + step])
            end += step
        if got >= k:
            return end, seg[:end][first[:end]][:k]
        if span == len(draws):
            return end + max(_MIN_BATCH, k - got), None
        span = min(2 * span, len(draws))
    return k, None


def _read_part(source: _Words, population: int, k: int) -> np.ndarray | list[int]:
    """The draws of sample_indices(rng, population, k) on the rejection
    path, read alone from the source: by _first_distinct for k <= 64, and
    above by _walk over a span of draws.  The span reaches no further than
    source.floor, and past it grows only by the draws the batches are
    found to need: at floor 0, as sample_indices reads it, exactly those
    batches."""
    if k <= _MIN_BATCH:
        return _first_distinct(
            lambda missing: source.draws(population, max(_MIN_BATCH, missing)), k)
    key = _unsigned_key(population)
    span = max(k, min(_span(population, k), source.floor))
    while True:
        keys, kept = source.values(source.peek(span), population, key)
        at = None if kept is None else np.flatnonzero(kept)
        if at is not None:
            keys = keys[at]
        end, part = _walk(keys, k, len(keys))
        if part is not None:
            break
        span = max(min(2 * span, source.floor), span + end - len(keys))
    source.read(end if at is None else int(at[end - 1]) + 1)
    return part


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


def _short_batches(source: _Words, population: int, k: int,
                   batches: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """For a part (population, k <= 64) and one 64-word batch a row: whether
    each row is regular, its batch rejecting no word and holding k distinct
    values (_first_in_rows), with the batch's values and the k of them the
    part keeps where it is."""
    values, kept = source.values(batches, population, _unsigned_key(population))
    first = _first_in_rows(values)
    rank = np.cumsum(first, axis=1, dtype=np.uint8)
    regular = rank[:, -1] >= k
    if kept is not None:
        regular &= kept.all(axis=1)
    return regular, values, first & (rank <= k)


def _short_window(source: _Words, parts: list[tuple[int, int]], outs: list[np.ndarray],
                  row: int, size: int) -> tuple[int, int]:
    """Rows row..row + size of parts that all have k <= 64, decided at once
    from size * 64 words a part and kept up to the first irregular row:
    the rows kept and the irregular rows seen."""
    width = len(parts) * _MIN_BATCH
    block = source.peek(size * width).reshape(size, width)
    regular = np.ones(size, dtype=bool)
    picks = []
    for at, (population, k) in zip(range(0, width, _MIN_BATCH), parts):
        ok, values, pick = _short_batches(source, population, k, block[:, at:at + _MIN_BATCH])
        regular &= ok
        picks.append((values, pick))
    irregular = np.flatnonzero(~regular)
    done = irregular[0] if len(irregular) else size
    for out, (_, k), (values, pick) in zip(outs, parts, picks):
        out[row:row + done] = values[:done][pick[:done]].reshape(done, k)
    source.read(done * width)
    return done, len(irregular)


def _long_window(source: _Words, parts: list[tuple[int, int]], outs: list[np.ndarray],
                 row: int, size: int) -> tuple[int, int]:
    """Rows row..row + size, some part having k > 64, read from one peek
    within source.floor: of the buffer's unread words while they hold a
    row's spans, else of at most _REFILL_WORDS words, and of no more than
    the rows' spans.  Each row walks its long parts in turn (_walk, written
    into its out row) and takes 64 words for each short part, taken to be
    regular; the rows walked before the words run out then decide their
    short parts at once (_short_batches) and are kept up to the first
    irregular one.  Returns the rows kept and the irregular rows seen: none
    when the window ends at a row that runs past the words peeked."""
    spans = [_span(population, k) if k > _MIN_BATCH else _MIN_BATCH for population, k in parts]
    unread = source.unread()
    words = source.peek(min(source.floor, size * sum(spans),
                            unread if unread >= sum(spans) else _REFILL_WORDS))
    draws = {}  # population -> the long part's draws in the window, and their words
    for population, k in parts:
        if k > _MIN_BATCH and population not in draws:
            keys, kept = source.values(words, population, _unsigned_key(population))
            at = None if kept is None else np.flatnonzero(kept)
            draws[population] = (keys, None) if at is None else (keys[at], at)
    starts = [0]  # the word each row starts at
    batches: list[list[int]] = [[] for _ in parts]  # where each short part's batch starts
    at = 0
    for r in range(row, row + size):
        for i, ((population, k), span) in enumerate(zip(parts, spans)):
            if k <= _MIN_BATCH:
                if at + _MIN_BATCH > len(words):
                    break
                batches[i].append(at)
                at += _MIN_BATCH
                continue
            keys, where = draws[population]
            j = at if where is None else int(np.searchsorted(where, at))
            end, part = _walk(keys[j:], k, span)
            if part is None:
                break
            outs[i][r] = part
            at = j + end if where is None else int(where[j + end - 1]) + 1
        else:
            starts.append(at)
            continue
        break  # the row runs past the words peeked
    done = len(starts) - 1
    regular = np.ones(done, dtype=bool)
    picks = []
    for i, (population, k) in enumerate(parts):
        if k <= _MIN_BATCH:
            offsets = np.array(batches[i][:done], dtype=np.intp)
            block = words[offsets[:, None] + np.arange(_MIN_BATCH)]
            ok, values, pick = _short_batches(source, population, k, block)
            regular &= ok
            picks.append((i, values, pick))
    irregular = np.flatnonzero(~regular)
    if len(irregular):
        done = int(irregular[0])
    for i, values, pick in picks:
        outs[i][row:row + done] = values[:done][pick[:done]].reshape(done, parts[i][1])
    source.read(starts[done])
    return done, len(irregular)


def _fill_rows(source: _Words, parts: list[tuple[int, int]], count: int,
               chunk: int) -> Iterator[list[np.ndarray]]:
    """count rows read from the source, a row holding the draws of one
    sample_indices(rng, population, k) call for each part (population, k)
    in turn, as one (c, k) int64 array per part for each chunk of at most
    ``chunk`` rows.

    A row reads at least max(64, k) words a part, and source.floor is kept
    at that many for the rows still to draw.  Rows are read in windows.
    While every part has k <= 64, a window of rows (at most _REFILL_WORDS
    words) is decided at once (_short_window): a row is regular when the
    64-draw batch of each part rejects no word and holds k distinct values.
    Where a part has k > 64, a window is one peek of words that each row
    walks in turn (_long_window).  Either way the window is kept up to its
    first irregular row, which is read alone (_read_part); a long row that
    runs past the words peeked starts the next window, or is read alone
    when it is the window's first.  The next window is twice the last one
    when that was regular throughout, and 2 * (regular rows + 1) after an
    irregular row.  After a window with more than one irregular row in
    eight, every row is read alone.
    """
    width = sum(max(_MIN_BATCH, k) for _, k in parts)  # the fewest words of a row
    long = any(k > _MIN_BATCH for _, k in parts)
    alone = False
    window = count
    for start in range(0, count, chunk):
        outs = [np.empty((min(chunk, count - start), k), dtype=np.int64) for _, k in parts]
        row = 0
        while row < len(outs[0]):
            source.floor = (count - start - row) * width
            if not alone:
                size = min(window, len(outs[0]) - row)
                if long:
                    done, irregular = _long_window(source, parts, outs, row, size)
                else:
                    size = min(size, _REFILL_WORDS // width)
                    done, irregular = _short_window(source, parts, outs, row, size)
                row += done
                if done == size:
                    window = 2 * size
                    continue
                if irregular:
                    alone = irregular * 8 > size
                    window = 2 * (done + 1)
                elif done:
                    continue
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
