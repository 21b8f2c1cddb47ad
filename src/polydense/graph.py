"""Edge oracle and graph-density computations for ±1-polytopes.

Two vertices v, w of conv(X) form an edge exactly when the segment [v, w]
misses the convex hull of the other points of X on the smallest cube face
containing v and w.  The obstruction sets are collected by _face_points, the
one face filter, over a pass of point sets, each row with its own pair: one
masked comparison over the whole pass keeps a point when it matches v on the
coordinates where v and w agree (never enumerating the 2**k face), and only
the kept points are compressed, one numpy step per coordinate.  The test
itself is performed inside the face: dropping the coordinates where v and w
agree and flipping signs so that v maps to all-minus-one is an affine
isometry of the face, after which the query is a diagonal-versus-hull test
in dimension k.

That test is decided on projected points.  A convex combination of the
face points y lies on the diagonal exactly when all its coordinates are
equal, that is when the same weights put the origin in the hull of
p(y) = ((y_i - y_0) / 2) for i = 1..k-1, a point of {-1, 0, 1}^(k-1) whose
entries are bit_i - bit_0 of the point's mask.  So the diagonal meets
conv(Y) iff origin_in_conv holds for the p(y): an LP of k rows (with the
convexity row) and m columns, where exactlp.segment_hull_intersect lifts
the same query to k + 2 rows and m + 2 columns.  long_edges_survive solves
the LP faces of each pass of its input as one batch, padding the ragged
faces to the longest by repeating a point.  count_edges is the one loop
from (point set, pair) rows to an edge count: the exact densities here and
in estimators.pi_exact and the Monte-Carlo pi block all stream their rows
through it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, islice
from math import comb
from typing import Iterable, Sequence

import numpy as np

from .cube import CubeVertex, VertexSet
from .errors import BudgetExceeded, DegenerateInput
from .exactlp import origin_in_conv_batch
# Not called here: perfbench/spans.py wraps graph.segment_hull_intersect by
# name and fails to install without it.
from .exactlp import segment_hull_intersect  # noqa: F401

__all__ = [
    "DensityReport",
    "long_edge_survives",
    "long_edges_survive",
    "edge_kernel",
    "is_edge",
    "count_edges",
    "graph_density_exact",
]

DENSITY_EXACT_BUDGET = 200_000  # the most vertex pairs graph_density_exact tests


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
    misses the convex hull of the points.  This is long_edges_survive on a
    batch of one.
    """
    return long_edges_survive(k, [face_points])[0]


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
    """long_edge_survives(k, Y) for each subset Y, in order; every edge
    verdict is decided here.

    Subsets of two points or fewer, antipodal pairs and points that are not
    interior are answered by _verdict_without_lp, with no LP.  The other
    subsets of a pass are projected (see the module docstring) and solved as
    one exact batch by origin_in_conv_batch, each subset's sorted points
    padded to the pass's largest subset by repeating its first point, which
    leaves the hull, and so the verdict, unchanged.
    """
    bits = np.arange(1, k)
    word = np.int64 if k < 64 else object  # object arrays shift Python ints
    out: list[bool] = []
    it = iter(subsets)
    while chunk := list(islice(it, _SUBSETS_PER_PASS)):
        where: list[int] = []
        rows: list[list[int]] = []
        for face_points in chunk:
            pts = set(face_points)
            verdict = _verdict_without_lp(k, pts)
            if verdict is None:
                where.append(len(out))
                rows.append(sorted(pts))
            out.append(verdict)
        if rows:
            width = max(map(len, rows))
            words = np.array([row + row[:1] * (width - len(row)) for row in rows],
                             dtype=word)[:, :, None]
            projected = ((words >> bits & 1) - (words & 1)).astype(np.int8)
            for pos, meets in zip(where, origin_in_conv_batch(projected)):
                out[pos] = not meets
    return out


# Unused in polydense: perfbench reads its cache_info() and wraps it by name.
@lru_cache(maxsize=200_000)
def _long_edge_survives_cached(k: int, face_points: frozenset[int]) -> bool:
    return long_edge_survives(k, face_points)


def _face_points(d: int, points, pairs) -> list[tuple[int, list[int]]]:
    """For each row of a pass: the distance k of its pair v, w and the points
    that can obstruct their edge, as k-bit masks of the face's free
    coordinates, relative to v.

    ``points`` holds one point set of d-bit masks per row (rows that make an
    int64 array, or object dtype for d >= 64) and ``pairs`` each row's positions (i, j)
    of v and w in it.  The obstructions are the points other than v and w
    that agree with v wherever v and w agree: the interior points of the
    smallest face holding both.  One masked comparison over the pass keeps
    them; only the kept points are compressed, one numpy step per coordinate.
    """
    word = np.int64 if d < 64 else object  # object arrays shift Python ints
    points = np.asarray(points, dtype=word)
    pairs = np.asarray(pairs, dtype=np.intp)
    rows = np.arange(len(points))
    v = points[rows, pairs[:, 0]]
    free = v ^ points[rows, pairs[:, 1]]
    agree = ~free & ((1 << d) - 1)
    kept = np.flatnonzero(points & agree[:, None] == (v & agree)[:, None])
    row_of = kept // points.shape[1]
    rel = points.ravel()[kept] ^ v[row_of]
    spread = free[row_of]
    inner = (rel != 0) & (rel != spread)  # not v or w themselves
    row_of, rel, spread = row_of[inner], rel[inner], spread[inner]
    face = np.zeros_like(rel)
    at = np.zeros_like(rel)  # each point's next compressed bit
    for i in range(d):
        bit = spread >> i & 1
        face |= (rel >> i & bit) << at
        at += bit
    ks = [int(f).bit_count() for f in free]
    ends = np.cumsum(np.bincount(row_of, minlength=len(points))).tolist()
    flat = face.tolist()
    return [(k, flat[start:end]) for k, start, end in zip(ks, [0] + ends, ends)]


def edge_kernel(d: int, v_bits: int, w_bits: int, points: Iterable[int]) -> bool:
    """Whether {v, w} is an edge of the hull of ``points``; all raw bitmasks.

    Only the points on the open face of v and w can obstruct the edge
    (_face_points keeps those), so a list already filtered this way gives
    the same verdict.  This is a face-filter pass of one row.
    """
    if v_bits == w_bits:
        raise DegenerateInput("v == w has no connecting edge")
    row = [v_bits, w_bits, *points]
    return long_edge_survives(*_face_points(d, [row], [(0, 1)])[0])


def is_edge(X: VertexSet, v: CubeVertex, w: CubeVertex) -> bool:
    """Whether {v, w} is an edge of conv(X); exact."""
    if v not in X or w not in X:
        raise ValueError("v and w must belong to X")
    return edge_kernel(X.dim, v.bits, w.bits, [u.bits for u in X])


# the most point entries one face-filter pass of count_edges holds, and the
# most entries (one per face, plus its points) it files before deciding them
_ENTRIES_PER_PASS = 1 << 16


def count_edges(d: int, n: int, rows: Iterable[tuple[Sequence[int], Sequence[int]]]) -> int:
    """How many rows' pairs are edges: each row is a point set of n distinct
    d-bit masks and the positions (i, j) of a pair in it.

    The rows are read in face-filter passes of at most _ENTRIES_PER_PASS
    point entries, and the faces are filed by pair distance; whenever the
    filed faces reach the same cap, and once after the last row, they are
    decided with one long_edges_survive call per distance.
    """
    edges = filed = 0
    by_k: dict[int, list[list[int]]] = {}
    it = iter(rows)
    while chunk := list(islice(it, max(1, _ENTRIES_PER_PASS // n))):
        for k, face in _face_points(d, [points for points, _ in chunk],
                                    [pair for _, pair in chunk]):
            by_k.setdefault(k, []).append(face)
            filed += 1 + len(face)
        if filed >= _ENTRIES_PER_PASS:
            edges += sum(sum(long_edges_survive(k, faces)) for k, faces in by_k.items())
            filed, by_k = 0, {}
    return edges + sum(sum(long_edges_survive(k, faces)) for k, faces in by_k.items())


def _edge_count(d: int, point_sets: Iterable[Sequence[int]], n: int) -> int:
    """Edges of the hulls of point sets of n distinct d-bit masks each,
    summed over the sets: count_edges over every pair of every set, each
    set made an array once."""
    word = np.int64 if d < 64 else object
    sets = (np.array(points, dtype=word) for points in point_sets)
    return count_edges(d, n, ((points, pair) for points in sets
                              for pair in combinations(range(n), 2)))


def graph_density_exact(X: VertexSet) -> DensityReport:
    """Exact density: test every vertex pair of X."""
    n = len(X)
    if n < 2:
        raise ValueError("density needs at least two vertices")
    pairs = comb(n, 2)
    BudgetExceeded.check(pairs, DENSITY_EXACT_BUDGET, "pair tests")
    edges = _edge_count(X.dim, [[u.bits for u in X]], n)
    return DensityReport(n=n, edge_count=edges, density=Fraction(edges, pairs))
