"""Central hyperplane arrangements and the diagonal projection.

Covers the orthogonal projection of ±1-cube vertices onto the hyperplane
orthogonal to the all-one direction, the derived vector configurations,
chamber counting via sign vectors, partial binomial sums, the Harding
chamber bound, and the normal CDF limit of scaled binomial tails.
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
from .exactlp import origin_in_conv, strict_separation

__all__ = [
    "VectorConfig",
    "ChamberCount",
    "SIGN_SEARCH",
    "BRUTE_FORCE",
    "phi_project",
    "build_config_plus",
    "chamber_count",
    "chamber_count_bruteforce",
    "partial_binomial_sum",
    "harding_bound",
    "normal_cdf",
    "moivre_laplace_ratio",
]

SIGN_SEARCH = "sign-search"
BRUTE_FORCE = "brute-force"


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


@lru_cache(maxsize=32)
def _config_plus_cached(r: int) -> VectorConfig:
    top = 1 << r
    vectors = []
    for low in range((1 << r) - 1):  # skip all-ones: that vertex is the diagonal tip
        vectors.append(phi_project(CubeVertex(r + 1, top | low)))
    return VectorConfig(r=r, vectors=tuple(vectors))


def build_config_plus(r: int, max_vectors: int = 1_000_000) -> VectorConfig:
    """The projected half configuration: images of all vertices with last
    coordinate +1, excluding the diagonal endpoint.  Exactly 2**r - 1
    pairwise distinct nonzero vectors.
    """
    if r < 1:
        raise ValueError("r must be positive")
    if (1 << r) - 1 > max_vectors:
        raise BudgetExceeded(f"2^{r} - 1 vectors exceed the budget", required=(1 << r) - 1)
    return _config_plus_cached(r)


def _canonical_ray(vec: Sequence) -> tuple[Fraction, ...]:
    """Representative of {c * vec : c != 0}: first nonzero entry becomes 1."""
    v = tuple(x if isinstance(x, (int, Fraction)) else Fraction(x) for x in vec)
    lead = next((x for x in v if x != 0), None)
    if lead is None:
        raise ValueError("configuration vectors must be nonzero")
    return tuple(Fraction(x) / lead for x in v)


def _integer_scaled(v: Sequence) -> tuple[int, ...]:
    """The least positive multiple of a rational vector with integer entries;
    it spans the same ray and has the same signs under every functional."""
    mult = math.lcm(*(x.denominator for x in v))
    return tuple(int(x * mult) for x in v)


def _dedupe(S) -> tuple[list[tuple[int, ...]], int | None]:
    """One integer vector per distinct ray of S, in canonical-ray order."""
    if isinstance(S, VectorConfig):
        vectors, r = S.vectors, S.r
    else:
        vectors = [tuple(x if isinstance(x, (int, Fraction)) else Fraction(x) for x in v)
                   for v in S]
        r = len(vectors[0]) if vectors else None
    canon = sorted({_canonical_ray(v) for v in vectors})
    return [_integer_scaled(v) for v in canon], r


def chamber_count(S: "VectorConfig | Iterable[Sequence]", max_m: int = 24) -> ChamberCount:
    """Number of chambers of the central arrangement defined by S.

    Counts sign assignments whose signed configuration admits a strict
    separator, by depth-first search over sign prefixes: an infeasible
    prefix cannot become feasible, so the subtree is pruned.  Vectors that
    are nonzero multiples of one another define the same hyperplane and are
    deduplicated first.  Rays are scaled to integer vectors, which keeps
    every sign and so every count; the separators strict_separation returns
    as witnesses are integer already.
    """
    vecs, r = _dedupe(S)
    m = len(vecs)
    if m > max_m:
        raise BudgetExceeded(f"sign search over {m} vectors exceeds max_m={max_m}",
                             required=m)
    if m == 0:
        return ChamberCount(count=1, method=SIGN_SEARCH)

    def dot(h, s):
        return sum(a * b for a, b in zip(h, s))

    prefix: list[tuple[int, ...]] = []

    def dfs(idx: int, witness) -> int:
        if idx == m:
            return 1
        total = 0
        base = vecs[idx]
        for sign in (1, -1):
            sv = base if sign == 1 else tuple(-x for x in base)
            if witness is not None and dot(witness, sv) > 0:
                prefix.append(sv)
                total += dfs(idx + 1, witness)
                prefix.pop()
                continue
            res = strict_separation(prefix + [sv], dim=r)
            if res.feasible:
                prefix.append(sv)
                total += dfs(idx + 1, res.witness)
                prefix.pop()
        return total

    return ChamberCount(count=dfs(0, None), method=SIGN_SEARCH)


def chamber_count_bruteforce(S: "VectorConfig | Iterable[Sequence]",
                             max_m: int = 14) -> ChamberCount:
    """Oracle twin of chamber_count: iterate all 2**m sign vectors and count
    those whose signed set misses the origin in its convex hull."""
    vecs, _ = _dedupe(S)
    m = len(vecs)
    if m > max_m:
        raise BudgetExceeded(f"2^{m} sign vectors exceed max_m={max_m}", required=m)
    if m == 0:
        return ChamberCount(count=1, method=BRUTE_FORCE)
    count = 0
    for signs in product((1, -1), repeat=m):
        signed = [v if s == 1 else tuple(-x for x in v) for v, s in zip(vecs, signs)]
        if not origin_in_conv(signed).feasible:
            count += 1
    return ChamberCount(count=count, method=BRUTE_FORCE)


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


def moivre_laplace_ratio(q: int, mu: float) -> float:
    """Exact big-integer ratio b(floor(q/2 + mu*sqrt(q)), q) / 2**q.

    Converges to normal_cdf(2*mu) as q grows; monotone in mu for fixed q.
    """
    if q < 1:
        raise ValueError("q must be positive")
    p = math.floor(q / 2 + mu * math.sqrt(q))
    return float(Fraction(partial_binomial_sum(p, q), 1 << q))
