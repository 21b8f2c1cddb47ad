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
the same query to k + 2 rows and m + 2 columns.  long_edges_survive reads
its input, faces or arrays of faces, in passes: each pass is one array,
padded to its longest face by repeating a point, screened at once for the
verdicts that need no LP (_screen), and its LP faces are solved as one
batch (_solve).  count_pass_edges is the one loop from passes of
(point set, pair) rows to an edge count: the exact densities here and in
estimators.pi_exact stream their rows through _edge_count, which cuts them
into passes, and the Monte-Carlo pi block hands it the passes it draws.  It
files faces of every pair distance and, at each flush, screens them all and
solves the LP faces of all distances as one batch, through the same _solve:
a projected face padded with zero coordinates keeps its verdict, since a
0 = 0 row leaves hull membership unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, islice
from math import comb
from typing import Iterable, Iterator, Sequence

import numpy as np

from .cube import CubeVertex, VertexSet
from .errors import BudgetExceeded, DegenerateInput
from .exactlp import _CHECK, origin_in_conv, origin_in_conv_batch
# Not called here: perfbench/spans.py wraps graph.segment_hull_intersect by
# name and fails to install without it.
from .exactlp import segment_hull_intersect  # noqa: F401

__all__ = [
    "DensityReport",
    "long_edge_survives",
    "long_edges_survive",
    "edge_kernel",
    "is_edge",
    "count_pass_edges",
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


# faces decided in one pass of long_edges_survive, which bounds the memory
# an exhaustive enumeration holds
_SUBSETS_PER_PASS = 4096


def _passes(k: int, subsets: Iterable) -> Iterator[np.ndarray]:
    """The faces of ``subsets`` as 2-D arrays of at most _SUBSETS_PER_PASS
    rows, one face a row.  An item of ``subsets`` is a face, or a 2-D
    integer array whose rows are faces.  Each face is padded to its pass's
    widest by repeating its first point, and an empty face is filled with
    the pass's first point: that keeps every point set, or makes an empty
    one a lone point, which has the same verdict."""
    word = np.int64 if k < 64 else object  # object arrays hold Python ints
    pieces: list = []  # 2-D arrays, and lists of loose faces
    rows = 0

    def assemble() -> np.ndarray:
        width = max(p.shape[1] if isinstance(p, np.ndarray) else max(map(len, p))
                    for p in pieces)
        out = np.empty((rows, width), dtype=word)
        empty = np.zeros(rows, dtype=bool)
        at = 0
        for p in pieces:
            block = out[at:at + len(p)]
            if not isinstance(p, np.ndarray):
                block[:] = [f + f[:1] * (width - len(f)) if f else [0] * width for f in p]
                empty[at:at + len(p)] = [not f for f in p]
            elif p.shape[1]:
                block[:, :p.shape[1]] = p
                block[:, p.shape[1]:] = p[:, :1]
            else:
                empty[at:at + len(p)] = True
            at += len(p)
        if width and empty.any():
            out[empty] = out[~empty][0, 0]
        pieces.clear()
        return out

    for item in subsets:
        if isinstance(item, np.ndarray) and item.ndim == 2:
            while len(item):
                take = item[:_SUBSETS_PER_PASS - rows]
                pieces.append(take)
                rows += len(take)
                item = item[len(take):]
                if rows == _SUBSETS_PER_PASS:
                    yield assemble()
                    rows = 0
            continue
        if not pieces or isinstance(pieces[-1], np.ndarray):
            pieces.append([])
        pieces[-1].append(list(item))
        rows += 1
        if rows == _SUBSETS_PER_PASS:
            yield assemble()
            rows = 0
    if rows:
        yield assemble()


def _screen(k: int, faces: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The verdicts of a pass (see _passes) that need no LP: a bool array
    a row, True for the rows left to the LP, with those rows' indices and
    their faces projected (see the module docstring), an int8 array shaped
    (rows, width, k - 1) when there are such rows.

    A point that is not interior raises ValueError, a face holding an
    antipodal pair fails, and a face of two points or fewer otherwise
    survives.  One interior point is never on the diagonal.  If a point of
    the segment between interior points p and q were, a coordinate where p
    and q agree would put it at an end of the diagonal, a cube vertex,
    which only p or q itself could be; with no such coordinate, q = -p, the
    antipodal pair.
    """
    if faces.shape[1] == 0:
        return (np.ones(len(faces), dtype=bool), np.empty(0, dtype=np.intp),
                np.empty((0, 0, 0), dtype=np.int8))
    mask = (1 << k) - 1
    outside = (faces <= 0) | (faces >= mask)
    if outside.any():
        p = int(faces[outside][0])
        raise ValueError(f"face point 0x{p:x} is not interior to the {k}-face")
    pts = np.sort(faces, axis=1)
    distinct = 1 + np.count_nonzero(pts[:, 1:] != pts[:, :-1], axis=1)
    # p and its antipode mask ^ p = mask - p share the class min(p, mask - p)
    cls = np.sort(np.minimum(pts, mask - pts), axis=1)
    classes = 1 + np.count_nonzero(cls[:, 1:] != cls[:, :-1], axis=1)
    verdict = classes == distinct
    lp = np.flatnonzero(verdict & (distinct > 2))
    words = pts[lp][:, :, None]
    projected = ((words >> np.arange(1, k) & 1) - (words & 1)).astype(np.int8)
    return verdict, lp, projected


def _merged(projected: list[np.ndarray]) -> np.ndarray:
    """Batches of projected faces, of any point counts and dimensions, as
    one int8 array shaped (faces, widest, highest): a face gets zero
    coordinates up to the highest dimension, since a 0 = 0 row leaves hull
    membership unchanged, and repeats its first point up to the widest, as
    _passes pads."""
    width = max(p.shape[1] for p in projected)
    dim = max(p.shape[2] for p in projected)
    out = np.zeros((sum(map(len, projected)), width, dim), dtype=np.int8)
    at = 0
    for p in projected:
        block = out[at:at + len(p)]
        block[:, :p.shape[1], :p.shape[2]] = p
        block[:, p.shape[1]:, :p.shape[2]] = p[:, :1]
        at += len(p)
    return out


def _solve(screened: list[tuple[np.ndarray, np.ndarray, np.ndarray]]) -> None:
    """Settle, in place, the rows that screened passes (_screen) leave to
    the LP: the faces left in all of them are merged (_merged) and solved
    in one origin_in_conv_batch call.  This is where every LP verdict of
    an edge is decided.  With POLYDENSE_LP_CHECK set, each merged verdict
    is checked against the checked scalar solve of its face unpadded."""
    projected = [p for _, lp, p in screened if len(lp)]
    if not projected:
        return
    inside = origin_in_conv_batch(_merged(projected))
    if _CHECK and inside != [origin_in_conv(S).feasible for p in projected
                             for S in p.tolist()]:
        raise ArithmeticError("a padded face's LP verdict differs from the face's own")
    at = 0
    for verdict, lp, _ in screened:
        verdict[lp] = np.logical_not(inside[at:at + len(lp)])
        at += len(lp)


def _flush_verdicts(faces_by_k: dict[int, list]) -> dict[int, list[bool]]:
    """long_edges_survive(k, faces) for each distance k of ``faces_by_k``,
    with every LP face of them all solved in one batch: each distance is
    read in passes (_passes) and screened (_screen), and all the passes
    are settled together (_solve)."""
    screened = {k: [_screen(k, faces) for faces in _passes(k, subsets)]
                for k, subsets in faces_by_k.items()}
    _solve([s for passes in screened.values() for s in passes])
    return {k: [v for verdict, _, _ in passes for v in verdict.tolist()]
            for k, passes in screened.items()}


def long_edges_survive(k: int, subsets: Iterable) -> list[bool]:
    """long_edge_survives(k, Y) for each face Y of ``subsets``, in order.

    An item of ``subsets`` is a face, an iterable of point masks, or a 2-D
    integer array whose rows are faces, so callers that draw or enumerate
    faces as arrays hand them over whole.  The faces are read in passes of
    at most _SUBSETS_PER_PASS (_passes), and each pass is screened as one
    array (_screen) and settled (_solve) before the next is read.
    """
    out: list[bool] = []
    for faces in _passes(k, subsets):
        screened = _screen(k, faces)
        _solve([screened])
        out.extend(screened[0].tolist())
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


# the most point entries one face-filter pass holds, and the most entries
# (one per face, plus its points) count_pass_edges files before deciding them
_ENTRIES_PER_PASS = 1 << 16


def pass_rows(n: int) -> int:
    """The rows of point sets of n entries in one face-filter pass."""
    return max(1, _ENTRIES_PER_PASS // n)


def count_pass_edges(d: int, passes: Iterable[tuple[Sequence, Sequence]]) -> int:
    """How many rows' pairs are edges, over rows already cut into
    face-filter passes: each pass is the point sets of its rows, one a row
    (n distinct d-bit masks), and each row's pair positions (i, j); drawn
    arrays are handed over whole.

    The faces are filed by pair distance; whenever the filed faces reach
    _ENTRIES_PER_PASS entries (one per face, plus its points), and once
    after the last pass, they are flushed: each distance is screened as
    long_edges_survive screens it, and the LP faces of every distance are
    solved in one origin_in_conv_batch call (_flush_verdicts, through
    _solve).
    """
    edges = filed = 0
    by_k: dict[int, list[list[int]]] = {}
    for points, pairs in passes:
        for k, face in _face_points(d, points, pairs):
            by_k.setdefault(k, []).append(face)
            filed += 1 + len(face)
        if filed >= _ENTRIES_PER_PASS:
            edges += sum(map(sum, _flush_verdicts(by_k).values()))
            filed, by_k = 0, {}
    return edges + sum(map(sum, _flush_verdicts(by_k).values()))


def _edge_count(d: int, point_sets: Iterable[Sequence[int]], n: int) -> int:
    """Edges of the hulls of point sets of n distinct d-bit masks each,
    summed over the sets: every pair of every set is a (point set, pair)
    row, each set made an array once, and the rows are cut into face-filter
    passes of pass_rows(n) rows, at most _ENTRIES_PER_PASS point entries,
    for count_pass_edges."""
    word = np.int64 if d < 64 else object
    sets = (np.array(points, dtype=word) for points in point_sets)
    rows = ((points, pair) for points in sets for pair in combinations(range(n), 2))
    chunks = iter(lambda: list(islice(rows, pass_rows(n))), [])
    return count_pass_edges(d, (([points for points, _ in chunk], [pair for _, pair in chunk])
                                for chunk in chunks))


def graph_density_exact(X: VertexSet) -> DensityReport:
    """Exact density: test every vertex pair of X."""
    n = len(X)
    if n < 2:
        raise ValueError("density needs at least two vertices")
    pairs = comb(n, 2)
    BudgetExceeded.check(pairs, DENSITY_EXACT_BUDGET, "pair tests")
    edges = _edge_count(X.dim, [[u.bits for u in X]], n)
    return DensityReport(n=n, edge_count=edges, density=Fraction(edges, pairs))
