"""Central hyperplane arrangements and the diagonal projection.

Covers the orthogonal projection of ±1-cube vertices onto the hyperplane
orthogonal to the all-one direction, the derived vector configurations,
chamber counting by deletion–restriction (Zaslavsky 1975) in integer
arithmetic with a brute-force LP oracle twin, partial binomial sums, the
Harding chamber bound, and the normal CDF limit of scaled binomial tails.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product
from typing import Iterable, Sequence

from .cube import CubeVertex
from .errors import BudgetExceeded, DegenerateInput
from .exactlp import _clear_denominators, _coerce_config, origin_in_conv
# Not called here: perfbench/spans.py wraps arrangements.strict_separation
# by name and fails to install without it.
from .exactlp import strict_separation  # noqa: F401

__all__ = [
    "VectorConfig",
    "ChamberCount",
    "DELETION_RESTRICTION",
    "BRUTE_FORCE",
    "phi_project",
    "half_cube_vector",
    "build_config_plus",
    "chamber_count",
    "chamber_count_bruteforce",
    "random_rational_config",
    "partial_binomial_sum",
    "harding_bound",
    "normal_cdf",
    "moivre_cutoff",
    "moivre_laplace_ratio",
]

DELETION_RESTRICTION = "deletion-restriction"
BRUTE_FORCE = "brute-force"
# caps: vectors of build_config_plus, and hyperplanes of chamber_count and
# of its brute force, which solves 2^m LPs
CONFIG_PLUS_BUDGET = 1_000_000
CHAMBER_BUDGET = 24
BRUTE_FORCE_BUDGET = 14


@dataclass(frozen=True)
class VectorConfig:
    """A finite set of nonzero rational vectors in R^r, duplicate-free."""

    r: int
    vectors: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        seen = set()
        for v in self.vectors:
            if len(v) != self.r:
                raise ValueError(f"vector of length {len(v)} in R^{self.r} config")
            if all(x == 0 for x in v):
                raise ValueError("configuration vectors must be nonzero")
            if v in seen:
                raise ValueError(f"duplicate vector {v}")
            seen.add(v)

    def __len__(self) -> int:
        return len(self.vectors)


@dataclass(frozen=True)
class ChamberCount:
    count: int
    method: str


def phi_project(v: CubeVertex) -> tuple[Fraction, ...]:
    """Project a ±1 vertex orthogonally onto the sum-zero hyperplane and
    drop the last coordinate.

    The image has exact rational coordinates with denominator dividing
    v.dim, and is nonzero for every vertex other than ±(all-ones).
    """
    d = v.dim
    if d < 2:
        raise ValueError("projection needs dimension at least 2")
    mask = (1 << d) - 1
    if v.bits in (0, mask):
        raise DegenerateInput("the two diagonal endpoints project to the origin")
    coord_sum = 2 * v.bits.bit_count() - d
    shift = Fraction(coord_sum, d)
    out = tuple((1 if v.bits >> i & 1 else -1) - shift for i in range(d - 1))
    assert any(x != 0 for x in out)
    return out


def half_cube_vector(r: int, i: int) -> tuple[Fraction, ...]:
    """Vector i of build_config_plus(r), 0 <= i < 2**r - 1, built alone: the
    image of the vertex of R^(r+1) with last coordinate +1 and low bits i."""
    return phi_project(CubeVertex(r + 1, 1 << r | i))


@lru_cache(maxsize=32)
def build_config_plus(r: int) -> VectorConfig:
    """The projected half configuration: images of all vertices with last
    coordinate +1, excluding the diagonal endpoint.  Exactly 2**r - 1
    pairwise distinct nonzero vectors.
    """
    if r < 1:
        raise ValueError("r must be positive")
    BudgetExceeded.check((1 << r) - 1, CONFIG_PLUS_BUDGET, "vectors")
    return VectorConfig(r=r, vectors=tuple(half_cube_vector(r, i) for i in range((1 << r) - 1)))


def _primitive(v: Sequence) -> tuple[int, ...]:
    """The primitive integer vector on the line through v (int or Fraction
    entries): denominators cleared, divided by the gcd, first nonzero entry
    positive.  Nonzero vectors give one hyperplane iff these agree."""
    ints, _ = _clear_denominators(v)
    g = math.gcd(*ints)
    if g == 0:
        raise ValueError("configuration vectors must be nonzero")
    if next(x for x in ints if x) < 0:
        g = -g
    return tuple(x // g for x in ints)


def _dedupe(S, cap: int) -> tuple[list[tuple[int, ...]], int | None]:
    """One primitive vector per distinct hyperplane of S, sorted, at most
    cap of them, and the dimension r of S (None for an empty S that is
    not a VectorConfig)."""
    vectors, r = (S.vectors, S.r) if isinstance(S, VectorConfig) else (S, None)
    vecs, r = _coerce_config(vectors, r)
    lines = sorted({_primitive(v) for v in vecs})
    BudgetExceeded.check(len(lines), cap, "hyperplanes")
    return lines, r


def _chambers(lines: list[tuple[int, ...]], dim: int) -> int:
    """Chambers of the hyperplanes v^⊥, v in lines, inside a dim-dimensional
    subspace that contains every v; lines are distinct primitive vectors.

    Deletion–restriction on the first line v: the chambers without v, plus
    those of the arrangement restricted to v^⊥, whose normals are the
    projections (v·v)u - (u·v)v of the other lines.  No projection is zero,
    since the lines are distinct; parallel projections merge into one.
    """
    if not lines:
        return 1
    if dim <= 2:
        # distinct lines through the origin of a plane (a line: at most one)
        return 2 * len(lines)
    v, rest = lines[0], lines[1:]
    vv = sum(x * x for x in v)
    uvs = [sum(a * b for a, b in zip(u, v)) for u in rest]
    restricted = {_primitive([vv * a - uv * b for a, b in zip(u, v)])
                  for u, uv in zip(rest, uvs)}
    return _chambers(rest, dim) + _chambers(list(restricted), dim - 1)


def chamber_count(S: "VectorConfig | Iterable[Sequence]") -> ChamberCount:
    """Number of chambers of the central arrangement defined by S.

    Vectors that are nonzero multiples of one another define the same
    hyperplane and are merged first.  The count then follows Zaslavsky's
    (1975) deletion–restriction identity r(A) = r(A - H) + r(A^H) in exact
    integer arithmetic, with no LP.
    """
    lines, r = _dedupe(S, CHAMBER_BUDGET)
    return ChamberCount(count=_chambers(lines, r or 0), method=DELETION_RESTRICTION)


def chamber_count_bruteforce(S: "VectorConfig | Iterable[Sequence]") -> ChamberCount:
    """Oracle twin of chamber_count: iterate all 2**m sign vectors and count
    those whose signed set misses the origin in its convex hull."""
    vecs, _ = _dedupe(S, BRUTE_FORCE_BUDGET)
    count = 0
    for signs in product((1, -1), repeat=len(vecs)):
        signed = [v if s == 1 else tuple(-x for x in v) for v, s in zip(vecs, signs)]
        if not origin_in_conv(signed).feasible:
            count += 1
    return ChamberCount(count=count, method=BRUTE_FORCE)


def random_rational_config(rng, r: int, m: int) -> list[tuple[Fraction, ...]]:
    """m nonzero vectors of R^r drawn from the numpy Generator rng, each
    coordinate p/q with p uniform on -9..9 and q on 1..9; an all-zero draw
    is drawn again."""
    vecs: list[tuple[Fraction, ...]] = []
    while len(vecs) < m:
        v = tuple(Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 10)))
                  for _ in range(r))
        if any(x != 0 for x in v):
            vecs.append(v)
    return vecs


def partial_binomial_sum(p: int, q: int) -> int:
    """Sum of binomial coefficients C(q, i) for i = 0..p, exactly.

    Saturates to 2**q for p >= q and is 0 for negative p.
    """
    if q < 0:
        raise ValueError("q must be nonnegative")
    if p < 0:
        return 0
    if p >= q:
        return 1 << q
    return sum(math.comb(q, i) for i in range(p + 1))


def harding_bound(r: int, m: int) -> int:
    """Upper bound 2 * b(r-1, m-1) on the chamber count of m central
    hyperplanes in R^r."""
    if r < 1 or m < 1:
        raise ValueError("need r >= 1 and m >= 1")
    return 2 * partial_binomial_sum(r - 1, m - 1)


def normal_cdf(x: float) -> float:
    """Standard normal cumulative distribution function."""
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def moivre_cutoff(q: int, mu: float) -> int:
    """floor(q/2 + mu*sqrt(q)); ValueError naming q and mu if that is not finite."""
    if q < 1:
        raise ValueError("q must be positive")
    cutoff = q / 2 + mu * math.sqrt(q)
    if not math.isfinite(cutoff):
        raise ValueError(f"cutoff q/2 + mu*sqrt(q) is not finite at q={q}, mu={mu}")
    return math.floor(cutoff)


def moivre_laplace_ratio(q: int, mu: float) -> float:
    """Exact big-integer ratio b(moivre_cutoff(q, mu), q) / 2**q.

    Converges to normal_cdf(2*mu) as q grows; monotone in mu for fixed q.
    """
    return float(Fraction(partial_binomial_sum(moivre_cutoff(q, mu), q), 1 << q))
