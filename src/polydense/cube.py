"""Vertices of the ±1-cube, vertex sets and the uniform vertex sampler.

A vertex of {-1,+1}^d is stored as an integer bitmask plus its dimension:
bit i set means coordinate i equals +1.  All values are immutable and safe
to share across processes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import DimensionMismatch
from .rng import sample_indices
# Not called here: perfbench/spans.py wraps cube.rand_bits by name and fails
# to install without it.
from .rng import rand_bits  # noqa: F401

__all__ = [
    "CubeVertex",
    "VertexSet",
    "sample_vertex_bits",
    "cut_polytope_vertices",
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


def sample_vertex_bits(d: int, n: int, rng: np.random.Generator) -> list[int]:
    """Uniform n-element subset of {-1,+1}^d as raw bitmasks, in draw order."""
    if d < 1:
        raise ValueError("d must be positive")
    if not 2 <= n <= 1 << d:
        raise ValueError(f"need 2 <= n <= 2^{d}, got n={n}")
    return sample_indices(rng, 1 << d, n)


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


def full_cube(d: int) -> VertexSet:
    """All 2**d vertices of the d-cube."""
    if d < 1:
        raise ValueError("d must be positive")
    return VertexSet(d, tuple(CubeVertex(d, b) for b in range(1 << d)))
