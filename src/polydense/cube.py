"""Vertices of the ±1-cube, Hamming geometry, subcube faces, and sampling.

A vertex of {-1,+1}^d is stored as an integer bitmask plus its dimension:
bit i set means coordinate i equals +1.  All values are immutable and safe
to share across processes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .errors import DegenerateInput, DimensionMismatch
from .rng import rand_bits, sample_indices

__all__ = [
    "CubeVertex",
    "VertexSet",
    "SubcubeFace",
    "hamming_distance",
    "antipode",
    "enumerate_face",
    "subcube_face",
    "sample_vertex_bits",
    "sample_vertex_set",
    "sample_pair",
    "cut_polytope_vertices",
    "from_01",
    "full_cube",
]


@dataclass(frozen=True, slots=True)
class CubeVertex:
    """A point of {-1,+1}^dim; bit i of ``bits`` set means coordinate i is +1."""

    dim: int
    bits: int

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError(f"dimension must be positive, got {self.dim}")
        if not 0 <= self.bits < (1 << self.dim):
            raise ValueError(f"bits 0x{self.bits:x} out of range for dim {self.dim}")

    def coords(self) -> tuple[int, ...]:
        """Coordinates as a tuple of -1/+1 integers."""
        return tuple(1 if self.bits >> i & 1 else -1 for i in range(self.dim))

    def antipode(self) -> "CubeVertex":
        return CubeVertex(self.dim, self.bits ^ ((1 << self.dim) - 1))


def antipode(v: CubeVertex) -> CubeVertex:
    return v.antipode()


def hamming_distance(v: CubeVertex, w: CubeVertex) -> int:
    """Number of coordinates where v and w differ."""
    if v.dim != w.dim:
        raise DimensionMismatch(f"dim {v.dim} != {w.dim}")
    return (v.bits ^ w.bits).bit_count()


@dataclass(frozen=True)
class VertexSet:
    """An ordered, duplicate-free set of cube vertices of one dimension."""

    dim: int
    members: tuple[CubeVertex, ...]

    def __post_init__(self):
        seen = set()
        for v in self.members:
            if v.dim != self.dim:
                raise DimensionMismatch(f"member dim {v.dim} != set dim {self.dim}")
            if v.bits in seen:
                raise ValueError(f"duplicate vertex 0x{v.bits:x}")
            seen.add(v.bits)
        object.__setattr__(self, "_bitset", frozenset(seen))

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self) -> Iterator[CubeVertex]:
        return iter(self.members)

    def __contains__(self, v: CubeVertex) -> bool:
        return v.dim == self.dim and v.bits in self._bitset


@dataclass(frozen=True)
class SubcubeFace:
    """Smallest cube face containing two distinct vertices.

    ``free_coords`` marks the coordinates where anchor and partner disagree;
    the face has 2**k points, k = popcount(free_coords).
    """

    anchor: CubeVertex
    partner: CubeVertex
    free_coords: int

    @property
    def k(self) -> int:
        return self.free_coords.bit_count()

    def contains_bits(self, bits: int) -> bool:
        """Whether a vertex (given as bitmask) lies on this face."""
        mask = (1 << self.anchor.dim) - 1
        return (bits ^ self.anchor.bits) & mask & ~self.free_coords == 0


def subcube_face(v: CubeVertex, w: CubeVertex) -> SubcubeFace:
    if v.dim != w.dim:
        raise DimensionMismatch(f"dim {v.dim} != {w.dim}")
    if v.bits == w.bits:
        raise DegenerateInput("v == w: face degenerates to a single vertex")
    return SubcubeFace(anchor=v, partner=w, free_coords=v.bits ^ w.bits)


def enumerate_face(v: CubeVertex, w: CubeVertex,
                   include_endpoints: bool = False) -> Iterator[CubeVertex]:
    """Yield the vertices of the smallest face containing v and w.

    With endpoints excluded this is the face minus {v, w}: 2**k - 2 points.
    Every yielded point agrees with v on the coordinates where v and w agree.
    """
    face = subcube_face(v, w)
    base = v.bits & ~face.free_coords
    free = face.free_coords
    sub = free
    while True:
        bits = base | sub
        if include_endpoints or (bits != v.bits and bits != w.bits):
            yield CubeVertex(v.dim, bits)
        if sub == 0:
            break
        sub = (sub - 1) & free


def sample_vertex_bits(d: int, n: int, rng: np.random.Generator) -> list[int]:
    """Uniform n-element subset of {-1,+1}^d as raw bitmasks, in draw order.

    Rejection sampling of fresh d-bit words while n is at most half the cube;
    full enumeration plus a partial shuffle beyond that.
    """
    if d < 1:
        raise ValueError("d must be positive")
    size = 1 << d
    if not 2 <= n <= size:
        raise ValueError(f"need 2 <= n <= 2^{d}, got n={n}")
    if n > size // 2:
        return sample_indices(rng, size, n)
    seen: set[int] = set()
    chosen: list[int] = []
    while len(chosen) < n:
        if d <= 63:
            batch = rng.integers(0, size, size=max(64, n - len(chosen)))
        else:
            batch = [rand_bits(rng, d) for _ in range(max(16, n - len(chosen)))]
        for word in batch:
            word = int(word)
            if word not in seen:
                seen.add(word)
                chosen.append(word)
                if len(chosen) == n:
                    break
    return chosen


def sample_vertex_set(d: int, n: int, rng: np.random.Generator) -> VertexSet:
    """Uniform n-element subset of {-1,+1}^d, in draw order."""
    return VertexSet(d, tuple(CubeVertex(d, b) for b in sample_vertex_bits(d, n, rng)))


def sample_pair(X: VertexSet, rng: np.random.Generator) -> tuple[CubeVertex, CubeVertex]:
    """Uniform unordered pair of distinct members of X."""
    n = len(X)
    if n < 2:
        raise ValueError("need at least two vertices to draw a pair")
    i, j = sample_indices(rng, n, 2)
    return X.members[i], X.members[j]


def cut_polytope_vertices(k: int) -> VertexSet:
    """The 2**(k-1) cut vectors of the complete graph on k nodes, in ±1 form.

    Coordinates are indexed by edges (i, j), i < j, in lexicographic order.
    A cut is induced by a node subset S not containing node 1; iterating over
    all S ⊆ {2, ..., k} produces each cut exactly once.  The empty cut maps
    to the all-minus-one vertex.
    """
    if not 3 <= k <= 7:
        raise ValueError(f"k must be in 3..7, got {k}")
    edges = [(i, j) for i in range(1, k + 1) for j in range(i + 1, k + 1)]
    d = len(edges)
    members = []
    for s_mask in range(1 << (k - 1)):
        in_s = {node for node in range(2, k + 1) if s_mask >> (node - 2) & 1}
        bits = 0
        for pos, (i, j) in enumerate(edges):
            if (i in in_s) != (j in in_s):
                bits |= 1 << pos
        members.append(CubeVertex(d, bits))
    return VertexSet(d, tuple(members))


def from_01(point: Sequence[int]) -> CubeVertex:
    """Map a 0/1 vector to the ±1 cube via x -> 2x - 1."""
    if len(point) == 0:
        raise ValueError("empty point")
    bits = 0
    for i, x in enumerate(point):
        if x == 1:
            bits |= 1 << i
        elif x != 0:
            raise ValueError(f"entry {x!r} at position {i} is not 0 or 1")
    return CubeVertex(len(point), bits)


def full_cube(d: int) -> VertexSet:
    """All 2**d vertices of the d-cube."""
    if d < 1:
        raise ValueError("d must be positive")
    return VertexSet(d, tuple(CubeVertex(d, b) for b in range(1 << d)))
