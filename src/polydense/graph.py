"""Edge oracle and graph-density computations for ±1-polytopes.

Two vertices v, w of conv(X) form an edge exactly when the segment [v, w]
misses the convex hull of the other points of X on the smallest cube face
containing v and w.  The obstruction set is collected by filtering X with a
bit mask (never by enumerating the 2**k face), and the test itself is
performed inside the face: dropping the coordinates where v and w agree and
flipping signs so that v maps to all-minus-one is an affine isometry of the
face, after which the query is a diagonal-versus-hull test in dimension k.

That test is decided on projected points.  A convex combination of the
face points y lies on the diagonal exactly when all its coordinates are
equal, that is when the same weights put the origin in the hull of
p(y) = ((y_i - y_0) / 2) for i = 1..k-1, a point of {-1, 0, 1}^(k-1) whose
entries are bit_i - bit_0 of the point's mask.  So the diagonal meets
conv(Y) iff origin_in_conv holds for the p(y): an LP of k rows (with the
convexity row) and m columns, where exactlp.segment_hull_intersect lifts
the same query to k + 2 rows and m + 2 columns.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import islice
from math import comb
from typing import Iterable

import numpy as np

from .cube import CubeVertex, VertexSet
from .errors import BudgetExceeded, DegenerateInput
from .exactlp import origin_in_conv, origin_in_conv_batch
# Not called here: perfbench/spans.py wraps graph.segment_hull_intersect by
# name and fails to install without it.
from .exactlp import segment_hull_intersect  # noqa: F401

__all__ = [
    "DensityReport",
    "long_edge_survives",
    "long_edges_survive",
    "edge_kernel",
    "is_edge",
    "graph_density_exact",
]


@dataclass(frozen=True)
class DensityReport:
    """Exact graph density |E| / C(n, 2)."""

    n: int
    edge_count: int
    density: Fraction

    def __post_init__(self):
        if not 0 <= self.density <= 1:
            raise ValueError("density out of [0, 1]")


def long_edge_survives(k: int, face_points: Iterable[int]) -> bool:
    """Whether the main diagonal of the k-cube is an edge against obstructions.

    ``face_points`` are interior face vertices given as k-bit masks (bit set
    means +1).  Survival means the segment from all-minus-one to all-ones
    misses the convex hull of the points.  A point together with its
    coordinatewise negation forces the midpoint onto both hulls, so that
    case short-circuits the feasibility solve; otherwise the sorted points'
    projections (see the module docstring) go to origin_in_conv.
    """
    pts = set(face_points)
    verdict = _verdict_without_lp(k, pts)
    if verdict is not None:
        return verdict
    S = [tuple((p >> i & 1) - (p & 1) for i in range(1, k)) for p in sorted(pts)]
    return not origin_in_conv(S, k - 1).feasible


def _verdict_without_lp(k: int, pts: set[int]) -> bool | None:
    """False for an antipodal pair, True for two points or fewer otherwise,
    None when an LP must decide; raises ValueError on a point that is not
    interior to the face.

    One interior point is never on the diagonal.  If a point of the segment
    between interior points p and q were, a coordinate where p and q agree
    would put it at an end of the diagonal, a cube vertex, which only p or
    q itself could be; with no such coordinate, q = -p, the antipodal pair.
    """
    mask = (1 << k) - 1
    for p in pts:
        if not 0 < p < mask:
            raise ValueError(f"face point 0x{p:x} is not interior to the {k}-face")
        if p ^ mask in pts:
            return False
    return None if len(pts) > 2 else True


# subsets read from the input at a time by long_edges_survive, which bounds
# the memory an exhaustive enumeration holds
_SUBSETS_PER_PASS = 4096


def long_edges_survive(k: int, subsets: Iterable[Iterable[int]]) -> list[bool]:
    """long_edge_survives(k, Y) for each subset Y, in order.

    Subsets of two points or fewer, antipodal pairs and points that are not
    interior are answered as there, with no LP.  The other subsets are
    grouped by size and each group's projected diagonal tests, points
    sorted as in long_edge_survives, are solved as one exact batch by
    origin_in_conv_batch.
    """
    bits = np.arange(1, k)
    word = np.int64 if k < 64 else object  # object arrays shift Python ints
    out: list[bool] = []
    it = iter(subsets)
    while chunk := list(islice(it, _SUBSETS_PER_PASS)):
        by_size: dict[int, tuple[list[int], list[list[int]]]] = {}
        for face_points in chunk:
            pts = set(face_points)
            verdict = _verdict_without_lp(k, pts)
            if verdict is None:
                where, rows = by_size.setdefault(len(pts), ([], []))
                where.append(len(out))
                rows.append(sorted(pts))
            out.append(verdict)
        for where, rows in by_size.values():
            words = np.array(rows, dtype=word)[:, :, None]
            projected = ((words >> bits & 1) - (words & 1)).astype(np.int8)
            for pos, meets in zip(where, origin_in_conv_batch(projected)):
                out[pos] = not meets
    return out


@lru_cache(maxsize=200_000)
def _long_edge_survives_cached(k: int, face_points: frozenset[int]) -> bool:
    return long_edge_survives(k, face_points)


def edge_kernel(d: int, v_bits: int, w_bits: int, points: Iterable[int],
                cached: bool = False) -> bool:
    """Whether {v, w} is an edge of the hull of ``points``; all raw bitmasks.

    Only the points that agree with v wherever v and w agree, other than v
    and w themselves, can obstruct the edge; the rest are dropped here, so a
    list already filtered this way gives the same verdict.
    """
    if v_bits == w_bits:
        raise DegenerateInput("v == w has no connecting edge")
    free = v_bits ^ w_bits
    agree = ((1 << d) - 1) & ~free
    obstructions = [u for u in points
                    if u != v_bits and u != w_bits and not (u ^ v_bits) & agree]
    positions = [i for i in range(d) if free >> i & 1]
    compressed = []
    for u in obstructions:
        rel = u ^ v_bits
        compressed.append(sum((rel >> pos & 1) << j for j, pos in enumerate(positions)))
    k = len(positions)
    if cached:
        return _long_edge_survives_cached(k, frozenset(compressed))
    return long_edge_survives(k, compressed)


def is_edge(X: VertexSet, v: CubeVertex, w: CubeVertex, cached: bool = False) -> bool:
    """Whether {v, w} is an edge of conv(X); exact."""
    if v not in X or w not in X:
        raise ValueError("v and w must belong to X")
    return edge_kernel(X.dim, v.bits, w.bits, [u.bits for u in X], cached=cached)


def graph_density_exact(X: VertexSet, max_pairs: int = 200_000) -> DensityReport:
    """Exact density: test every vertex pair of X."""
    n = len(X)
    if n < 2:
        raise ValueError("density needs at least two vertices")
    pairs = comb(n, 2)
    if pairs > max_pairs:
        raise BudgetExceeded(f"{pairs} pair tests exceed max_pairs={max_pairs}",
                             required=pairs)
    members = X.members
    edges = 0
    for i in range(n):
        for j in range(i + 1, n):
            if is_edge(X, members[i], members[j], cached=True):
                edges += 1
    return DensityReport(n=n, edge_count=edges, density=Fraction(edges, pairs))

