"""Counter-based random streams keyed by (master_seed, stream_id).

Every sampling routine in the package draws from a Philox stream obtained
here.  A stream is addressed by the master seed plus a label/index pair, so
estimators can carve their sample budget into blocks whose streams do not
depend on scheduling or worker count.
"""

from __future__ import annotations

import hashlib

import numpy as np

__all__ = ["stream", "stream_id", "rand_bits", "sample_indices"]

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


def sample_indices(rng: np.random.Generator, population: int, k: int) -> list[int]:
    """Sample k distinct indices uniformly from range(population).

    Rejection sampling while k is small relative to the population; partial
    Fisher-Yates over the full range otherwise.  A population above 2^63
    exceeds numpy's int64 draws, so its indices are words of
    (population - 1).bit_length() bits from rand_bits, rejected when out of
    range.  Deterministic given the stream state.
    """
    if not 0 <= k <= population:
        raise ValueError(f"cannot draw {k} distinct indices from {population}")
    if k == 0:
        return []
    if k <= population // 2:
        seen: dict[int, None] = {}  # insertion-ordered: the distinct draws so far
        while len(seen) < k:
            if population > 1 << 63:
                nbits = (population - 1).bit_length()
                batch = [w for w in (rand_bits(rng, nbits)
                                     for _ in range(max(16, k - len(seen))))
                         if w < population]
            else:
                batch = rng.integers(0, population, size=max(64, k - len(seen))).tolist()
            # slices of the number still missing: a small k stops after a few draws
            pos = 0
            if not seen:
                seen = dict.fromkeys(batch[:k])
                pos = k
            while len(seen) < k and pos < len(batch):
                take = k - len(seen)
                seen.update(dict.fromkeys(batch[pos:pos + take]))
                pos += take
        return list(seen)
    pool = list(range(population))
    for i in range(k):
        j = i + int(rng.integers(0, population - i))
        pool[i], pool[j] = pool[j], pool[i]
    return pool[:k]
