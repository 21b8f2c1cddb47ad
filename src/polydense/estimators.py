"""Exact and Monte-Carlo estimators for the long-edge and edge probabilities.

tau(k, m) is the probability that the main diagonal of the k-cube stays an
edge against m uniformly random interior face points; alpha(k, m) is the
same probability conditioned on the point set containing no antipodal pair;
pi(d, n) is the probability that a uniformly random vertex pair of a random
n-point ±1-polytope is an edge.  The hypergeometric weights xi tie the two
levels together, decomposing pi over the pair distance k and the number m
of obstructing face points.

Every Monte-Carlo routine cuts its budget into fixed blocks with derived
RNG streams and merges integer block results, so results do not depend on
worker count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import comb
from typing import Mapping, Sequence

from .arrangements import build_config_plus, chamber_count, partial_binomial_sum
from .cube import sample_vertex_bits
from .errors import BudgetExceeded
from .graph import _long_edge_survives_cached, edge_kernel, long_edges_survive
# Not called here: perfbench/spans.py wraps estimators.long_edge_survives
# by name and fails to install without it.
from .graph import long_edge_survives  # noqa: F401
from .mc import (Z95, Estimate, bernoulli_estimate, exact_estimate, parallel_map,
                 split_blocks)
from .rng import rand_bits, sample_indices, stream

__all__ = [
    "PROV_EXHAUSTIVE",
    "PROV_MONTE_CARLO",
    "PROV_VIA_ALPHA",
    "PROV_STRUCTURAL_ZERO",
    "TauTable",
    "PiDecomposition",
    "MonotonicityReport",
    "TauSweepRow",
    "DensitySweepRow",
    "tau_exact",
    "tau_mc",
    "alpha_exact",
    "alpha_mc",
    "tau_from_alpha",
    "alpha_via_chambers",
    "alpha_via_chambers_exact",
    "tau_upper_bound",
    "tau_cell",
    "xi_exact",
    "build_tau_table",
    "pi_k_semianalytic",
    "pi_k_mc",
    "pi_k_exact",
    "pi_mc",
    "pi_exact",
    "pi_from_pk",
    "monotonicity_check",
    "tau_threshold_sweep",
    "density_threshold_sweep",
    "decompose_pi",
]

PROV_EXHAUSTIVE = "exhaustive"
PROV_MONTE_CARLO = "monte-carlo"
PROV_VIA_ALPHA = "via-alpha"
# m exceeds the number of antipodal classes: every subset contains an
# antipodal pair, so the value is exactly 0 without enumeration
PROV_STRUCTURAL_ZERO = "structural-zero"


def _comb0(n: int, k: int) -> int:
    return comb(n, k) if 0 <= k <= n else 0


def _check_tau_args(k: int, m: int) -> None:
    if k < 1:
        raise ValueError("k must be positive")
    if not 0 <= m <= (1 << k) - 2:
        raise ValueError(f"m must lie in 0..2^{k}-2, got {m}")


# ---------------------------------------------------------------------------
# tau and alpha, exact


@lru_cache(maxsize=4096)
def _tau_exact_fraction(k: int, m: int) -> Fraction:
    star = range(1, (1 << k) - 1)
    hits = sum(long_edges_survive(k, combinations(star, m)))
    return Fraction(hits, comb(len(star), m))


def tau_exact(k: int, m: int, max_subsets: int = 200_000) -> Estimate:
    """Exact long-edge probability by enumerating all m-subsets of the
    interior face points."""
    _check_tau_args(k, m)
    total = comb((1 << k) - 2, m)
    if total > max_subsets:
        raise BudgetExceeded(f"{total} subsets exceed max_subsets={max_subsets}",
                             required=total)
    return exact_estimate(_tau_exact_fraction(k, m), samples=total)


@lru_cache(maxsize=4096)
def _alpha_exact_fraction(k: int, m: int) -> Fraction:
    mask = (1 << k) - 1
    reps = range(1 << (k - 1), mask)
    outcomes = ([p ^ (mask if orient >> j & 1 else 0) for j, p in enumerate(combo)]
                for combo in combinations(reps, m) for orient in range(1 << m))
    hits = sum(long_edges_survive(k, outcomes))
    return Fraction(hits, comb(len(reps), m) << m)


def alpha_exact(k: int, m: int, max_subsets: int = 400_000) -> Estimate:
    """Exact conditional long-edge probability given no antipodal pair,
    by enumerating antipodal classes times orientations."""
    if k < 1:
        raise ValueError("k must be positive")
    classes = (1 << (k - 1)) - 1
    if not 0 <= m <= classes:
        raise ValueError(f"conditioning event is empty for m={m} > {classes}")
    total = comb(classes, m) * (1 << m)
    if total > max_subsets:
        raise BudgetExceeded(f"{total} outcomes exceed max_subsets={max_subsets}",
                             required=total)
    return exact_estimate(_alpha_exact_fraction(k, m), samples=total)


def tau_from_alpha(k: int, m: int, alpha: Estimate) -> Estimate:
    """tau via the antipodal-free decomposition: the exact rational
    prefactor C(2^(k-1)-1, m) * 2^m / C(2^k-2, m) times alpha.

    The prefactor is the probability that a random m-subset avoids all
    antipodal pairs; when m exceeds the class count it is 0 and tau is
    exactly 0 regardless of alpha.
    """
    _check_tau_args(k, m)
    classes = (1 << (k - 1)) - 1
    pref = Fraction(_comb0(classes, m) * (1 << m), comb((1 << k) - 2, m))
    if pref == 0:
        return exact_estimate(Fraction(0))
    if alpha.exact:
        return exact_estimate(pref * alpha.exact_value, samples=alpha.samples,
                              seed=alpha.seed)
    scale = float(pref)
    lo, hi = alpha.ci95
    return Estimate(value=scale * alpha.value, stderr=scale * alpha.stderr,
                    ci95=(scale * lo, scale * hi), samples=alpha.samples,
                    seed=alpha.seed, exact=False)


def tau_upper_bound(k: int, m: int) -> Fraction:
    """The chamber-count bound b(k-2, m-1) / 2^(m-1), reported raw (it may
    exceed 1 once the partial sum saturates)."""
    if m < 1:
        raise ValueError("the bound is defined for m >= 1")
    return Fraction(partial_binomial_sum(k - 2, m - 1), 1 << (m - 1))


def alpha_via_chambers_exact(k: int, m: int, max_subsets: int = 100_000) -> Estimate:
    """alpha through the arrangement identity, fully enumerated: average the
    chamber count over all m-subsets of the projected half configuration
    and divide by 2^m."""
    if k < 2:
        if k == 1 and m == 0:
            return exact_estimate(Fraction(1), samples=1)
        raise ValueError("chamber route needs k >= 2")
    cfg = build_config_plus(k - 1)
    classes = len(cfg)
    if not 0 <= m <= classes:
        raise ValueError(f"conditioning event is empty for m={m} > {classes}")
    total = comb(classes, m)
    if total > max_subsets:
        raise BudgetExceeded(f"{total} subsets exceed max_subsets={max_subsets}",
                             required=total)
    chi_sum = 0
    for subset in combinations(cfg.vectors, m):
        chi_sum += chamber_count(subset).count
    return exact_estimate(Fraction(chi_sum, total * (1 << m)), samples=total)


# ---------------------------------------------------------------------------
# Monte-Carlo blocks (module level so they pickle into worker processes)


def _sample_star_subset(rng, k: int, m: int) -> list[int]:
    """Uniform m-subset of the interior points of the k-cube (as bitmasks)."""
    return [i + 1 for i in sample_indices(rng, (1 << k) - 2, m)]


def _tau_block(args) -> int:
    k, m, count, seed, block = args
    rng = stream(seed, f"tau:k={k}:m={m}", block)
    return sum(long_edges_survive(k, [_sample_star_subset(rng, k, m)
                                      for _ in range(count)]))


def _alpha_block(args) -> int:
    k, m, count, seed, block = args
    rng = stream(seed, f"alpha:k={k}:m={m}", block)
    base = 1 << (k - 1)
    mask = (1 << k) - 1
    classes = base - 1
    draws = []
    for _ in range(count):
        idxs = sample_indices(rng, classes, m)
        orient = rand_bits(rng, m) if m else 0
        draws.append([(base + idx) ^ (mask if orient >> j & 1 else 0)
                      for j, idx in enumerate(idxs)])
    return sum(long_edges_survive(k, draws))


def _alpha_chambers_block(args) -> tuple[int, int]:
    k, m, count, seed, block = args
    rng = stream(seed, f"alphachi:k={k}:m={m}", block)
    vecs = build_config_plus(k - 1).vectors
    total = 0
    totalsq = 0
    for _ in range(count):
        idxs = sample_indices(rng, len(vecs), m)
        chi = chamber_count([vecs[i] for i in idxs]).count
        total += chi
        totalsq += chi * chi
    return total, totalsq


def _pi_block(args) -> int:
    d, n, count, seed, block = args
    rng = stream(seed, f"pi:d={d}:n={n}", block)
    hits = 0
    for _ in range(count):
        bits = sample_vertex_bits(d, n, rng)
        i, j = sample_indices(rng, n, 2)
        if edge_kernel(d, bits[i], bits[j], bits):
            hits += 1
    return hits


def _pik_block(args) -> int:
    d, n, k, count, seed, block = args
    rng = stream(seed, f"pik:d={d}:n={n}:k={k}", block)
    wb = (1 << k) - 1
    size = (1 << d) - 2
    faces = []
    for _ in range(count):
        face = []
        for idx in sample_indices(rng, size, n - 2):
            p = idx + 1
            if p >= wb:
                p += 1
            if not p & ~wb:  # on the open face spanned by the canonical pair
                face.append(p)
        faces.append(face)
    return sum(long_edges_survive(k, faces))


def _run_blocks(block_fn, params: tuple, samples: int, seed: int,
               workers: int) -> list:
    """block_fn's result for each fixed block of the budget, in block order."""
    tasks = [params + (count, seed, index) for index, count in split_blocks(samples)]
    return parallel_map(block_fn, tasks, workers)


def _run_binomial(block_fn, params: tuple, samples: int, seed: int,
                  workers: int) -> Estimate:
    hits = sum(_run_blocks(block_fn, params, samples, seed, workers))
    return bernoulli_estimate(hits, samples, seed)


def tau_mc(k: int, m: int, samples: int, seed: int, workers: int = 1) -> Estimate:
    """Monte-Carlo tau over uniform m-subsets of the interior face points."""
    _check_tau_args(k, m)
    return _run_binomial(_tau_block, (k, m), samples, seed, workers)


def alpha_mc(k: int, m: int, samples: int, seed: int, workers: int = 1) -> Estimate:
    """Monte-Carlo alpha, sampling the conditioning event directly: m of the
    antipodal classes, then an orientation for each (uniform on the event
    because it has C(2^(k-1)-1, m) * 2^m equally likely outcomes)."""
    classes = (1 << (k - 1)) - 1
    if not 0 <= m <= classes:
        raise ValueError(f"conditioning event is empty for m={m} > {classes}")
    return _run_binomial(_alpha_block, (k, m), samples, seed, workers)


def alpha_via_chambers(k: int, m: int, samples: int, seed: int,
                       workers: int = 1) -> Estimate:
    """alpha estimated as the mean chamber count of random m-subsets of the
    projected half configuration, divided by 2^m."""
    if k < 2:
        raise ValueError("chamber route needs k >= 2")
    classes = (1 << (k - 1)) - 1
    if not 0 <= m <= classes:
        raise ValueError(f"conditioning event is empty for m={m} > {classes}")
    parts = _run_blocks(_alpha_chambers_block, (k, m), samples, seed, workers)
    total = sum(p[0] for p in parts)
    totalsq = sum(p[1] for p in parts)
    mean_chi = total / samples
    var_chi = max(0.0, totalsq / samples - mean_chi * mean_chi)
    if samples > 1:
        var_chi *= samples / (samples - 1)
    denom = float(1 << m)
    value = mean_chi / denom
    se = math.sqrt(var_chi / samples) / denom
    if se == 0.0:
        se = Z95 / (2 * (samples + Z95 * Z95))  # conservative floor: no zero
    lo = max(0.0, value - Z95 * se)
    hi = min(1.0, value + Z95 * se)
    return Estimate(value=value, stderr=se, ci95=(lo, hi), samples=samples,
                    seed=seed, exact=False)


def pi_mc(d: int, n: int, samples: int, seed: int, workers: int = 1) -> Estimate:
    """Edge probability of a random pair in a random n-point ±1-polytope."""
    if not 2 <= n <= (1 << d):
        raise ValueError(f"need 2 <= n <= 2^{d}")
    return _run_binomial(_pi_block, (d, n), samples, seed, workers)


def pi_k_mc(d: int, n: int, k: int, samples: int, seed: int,
            workers: int = 1) -> Estimate:
    """Conditional edge probability at pair distance k.

    Fixes the canonical pair (all-minus-one and the vertex with the first k
    coordinates flipped); the conditional law is invariant under the cube
    symmetries, which act transitively on pairs at distance k.
    """
    if not 1 <= k <= d:
        raise ValueError("need 1 <= k <= d")
    if not 2 <= n <= (1 << d):
        raise ValueError(f"need 2 <= n <= 2^{d}")
    return _run_binomial(_pik_block, (d, n, k), samples, seed, workers)


# ---------------------------------------------------------------------------
# hypergeometric weights and the distance decomposition


def xi_exact(d: int, n: int, k: int, m: int) -> Fraction:
    """Probability that exactly m of the other n-2 points land on the open
    face of a distance-k pair (hypergeometric, exact)."""
    if not 1 <= k <= d:
        raise ValueError("need 1 <= k <= d")
    if not 2 <= n <= (1 << d):
        raise ValueError(f"need 2 <= n <= 2^{d}")
    if not 0 <= m <= min((1 << k) - 2, n - 2):
        raise ValueError(f"m={m} outside 0..min(2^{k}-2, n-2)")
    num = comb((1 << k) - 2, m) * _comb0((1 << d) - (1 << k), n - m - 2)
    return Fraction(num, comb((1 << d) - 2, n - 2))


@dataclass(frozen=True)
class TauTable:
    """tau(k, m) for m = 0..max_m with per-entry provenance."""

    k: int
    entries: dict[int, Estimate]
    provenance: dict[int, str]

    def __post_init__(self):
        if 0 in self.entries and self.entries[0].value != 1.0:
            raise ValueError("tau(k, 0) must be 1")

    @property
    def max_m(self) -> int:
        m = -1
        while m + 1 in self.entries:
            m += 1
        return m


def tau_cell(k: int, m: int, samples: int, seed: int, exact_budget: int = 20_000,
             method: str = "auto", workers: int = 1) -> tuple[Estimate, str]:
    """One tau(k, m) value with its provenance: exhaustive when the subset
    count fits the budget, the structural zero when m exceeds the antipodal
    class count, Monte Carlo (direct or through alpha) otherwise."""
    _check_tau_args(k, m)
    classes = (1 << (k - 1)) - 1
    if method in ("auto", "exact") and comb((1 << k) - 2, m) <= exact_budget:
        return tau_exact(k, m), PROV_EXHAUSTIVE
    if method == "exact":
        raise BudgetExceeded(f"tau({k},{m}) enumeration exceeds exact budget",
                             required=comb((1 << k) - 2, m))
    if m > classes:
        return exact_estimate(Fraction(0)), PROV_STRUCTURAL_ZERO
    if method == "via-alpha":
        a = alpha_mc(k, m, samples, seed, workers=workers)
        return tau_from_alpha(k, m, a), PROV_VIA_ALPHA
    return tau_mc(k, m, samples, seed, workers=workers), PROV_MONTE_CARLO


def _tau_cell_task(args) -> tuple[int, int, Estimate, str]:
    k, m, samples, seed, exact_budget, method = args
    est, prov = tau_cell(k, m, samples, seed, exact_budget, method)
    return k, m, est, prov


def _tau_tables(m_max: Mapping[int, int], samples: int, seed: int,
                exact_budget: int, workers: int, method: str) -> dict[int, TauTable]:
    """A TauTable for each k of ``m_max``, with m = 0..min(m_max[k], 2^k - 2),
    every cell of every table computed in one parallel_map."""
    if method not in ("auto", "exact", "mc", "via-alpha"):
        raise ValueError(f"unknown method {method!r}")
    tasks = [(k, m, samples, seed, exact_budget, method)
             for k, top in m_max.items() for m in range(min(top, (1 << k) - 2) + 1)]
    entries: dict[int, dict[int, Estimate]] = {k: {} for k in m_max}
    provenance: dict[int, dict[int, str]] = {k: {} for k in m_max}
    for k, m, est, prov in parallel_map(_tau_cell_task, tasks, workers):
        entries[k][m] = est
        provenance[k][m] = prov
    return {k: TauTable(k=k, entries=entries[k], provenance=provenance[k])
            for k in m_max}


def build_tau_table(k: int, m_max: int, samples: int, seed: int,
                    exact_budget: int = 20_000, workers: int = 1,
                    method: str = "auto") -> TauTable:
    """tau(k, m) for m = 0..m_max: exhaustive where the subset count fits
    the budget, Monte Carlo (or the alpha route) otherwise."""
    return _tau_tables({k: m_max}, samples, seed, exact_budget, workers, method)[k]


def pi_k_semianalytic(d: int, n: int, k: int, tau: TauTable) -> Estimate:
    """Conditional edge probability as the xi-weighted sum of tau values.

    If the table stops before the full support, the remaining tail lies in
    [0, tau(k, M) * leftover-weight] because tau is non-increasing in m; the
    midpoint is reported and the bracket is folded into the interval.
    """
    if tau.k != k:
        raise ValueError(f"tau table is for k={tau.k}, not {k}")
    m_target = min((1 << k) - 2, n - 2)
    table_top = tau.max_m
    if table_top < 0:
        raise ValueError("tau table has no contiguous entries from m=0")
    use = min(table_top, m_target)
    weights = [xi_exact(d, n, k, m) for m in range(use + 1)]
    entries = [tau.entries[m] for m in range(use + 1)]
    covered = sum(weights, start=Fraction(0))
    if use == m_target and all(e.exact for e in entries):
        total = sum((w * e.exact_value for w, e in zip(weights, entries)),
                    start=Fraction(0))
        return exact_estimate(total, samples=sum(e.samples for e in entries))
    value = sum(float(w) * e.value for w, e in zip(weights, entries))
    quad = math.sqrt(sum((float(w) * e.stderr) ** 2 for w, e in zip(weights, entries)))
    half = 0.0
    if use < m_target:
        rest = float(1 - covered)
        half = entries[use].value * rest / 2
        value += half
    lo = max(0.0, value - Z95 * quad - half)
    hi = min(1.0, value + Z95 * quad + half)
    se = (hi - lo) / (2 * Z95)
    if se == 0.0:
        se = Z95 / (2 * (max(1, sum(e.samples for e in entries)) + Z95 * Z95))
    return Estimate(value=value, stderr=se, ci95=(lo, hi),
                    samples=sum(e.samples for e in entries), seed=None, exact=False)


def pi_from_pk(d: int, n: int, pik: Mapping[int, Estimate]) -> Estimate:
    """Combine conditional edge probabilities over the distance distribution:
    pi = sum_k C(d, k) pi_k / (2^d - 1), with stderr by weighted quadrature."""
    missing = [k for k in range(1, d + 1) if k not in pik]
    if missing:
        raise ValueError(f"missing pi_k entries for k in {missing}")
    weights = {k: Fraction(comb(d, k), (1 << d) - 1) for k in range(1, d + 1)}
    ests = {k: pik[k] for k in range(1, d + 1)}
    samples = sum(e.samples for e in ests.values())
    if all(e.exact for e in ests.values()):
        total = sum((weights[k] * ests[k].exact_value for k in weights),
                    start=Fraction(0))
        return exact_estimate(total, samples=samples)
    value = sum(float(weights[k]) * ests[k].value for k in weights)
    se = math.sqrt(sum((float(weights[k]) * ests[k].stderr) ** 2 for k in weights))
    lo = max(0.0, value - Z95 * se)
    hi = min(1.0, value + Z95 * se)
    return Estimate(value=value, stderr=se, ci95=(lo, hi), samples=samples,
                    seed=None, exact=False)


@dataclass(frozen=True)
class PiDecomposition:
    """pi(d, n) assembled from per-distance estimates and exact weights."""

    d: int
    n: int
    pi_k: dict[int, Estimate]
    combined: Estimate


def decompose_pi(d: int, n: int, tau_samples: int, seed: int,
                 workers: int = 1) -> PiDecomposition:
    """Semianalytic pi(d, n): per-distance tau tables (cut off at m = 6k,
    tail bracketed by monotonicity) combined through the exact
    hypergeometric weights and the distance distribution."""
    # tau cells beyond m = 6k are left to pi_k_semianalytic's tail bracket
    m_cut = {k: min((1 << k) - 2, n - 2, 6 * k) for k in range(1, d + 1)}
    tables = _tau_tables(m_cut, tau_samples, seed, 20_000, workers, "auto")
    pik = {k: pi_k_semianalytic(d, n, k, table) for k, table in tables.items()}
    combined = pi_from_pk(d, n, pik)
    return PiDecomposition(d=d, n=n, pi_k=pik, combined=combined)


# ---------------------------------------------------------------------------
# exact enumeration over whole vertex-set ensembles (small d)


def pi_exact(d: int, n: int, max_work: int = 400_000) -> Estimate:
    """Exact pi(d, n) by enumerating every n-subset and every pair."""
    size = 1 << d
    if not 2 <= n <= size:
        raise ValueError(f"need 2 <= n <= 2^{d}")
    work = comb(size, n) * comb(n, 2)
    if work > max_work:
        raise BudgetExceeded(f"{work} edge tests exceed max_work={max_work}",
                             required=work)
    hits = 0
    for X in combinations(range(size), n):
        for i in range(n):
            for j in range(i + 1, n):
                if edge_kernel(d, X[i], X[j], X, cached=True):
                    hits += 1
    return exact_estimate(Fraction(hits, work), samples=work)


def pi_k_exact(d: int, n: int, k: int, max_subsets: int = 200_000) -> Estimate:
    """Exact conditional edge probability at distance k by enumerating every
    completion of the canonical pair."""
    if not 1 <= k <= d:
        raise ValueError("need 1 <= k <= d")
    size = 1 << d
    if not 2 <= n <= size:
        raise ValueError(f"need 2 <= n <= 2^{d}")
    total = comb(size - 2, n - 2)
    if total > max_subsets:
        raise BudgetExceeded(f"{total} completions exceed max_subsets={max_subsets}",
                             required=total)
    wb = (1 << k) - 1
    universe = [p for p in range(size) if p not in (0, wb)]
    hits = 0
    for rest in combinations(universe, n - 2):
        face = frozenset(p for p in rest if not p & ~wb)
        if _long_edge_survives_cached(k, face):
            hits += 1
    return exact_estimate(Fraction(hits, total), samples=total)


@dataclass(frozen=True)
class MonotonicityReport:
    d: int
    values: dict[int, Fraction]
    strictly_decreasing: bool
    violations: list[tuple[int, int]] = field(default_factory=list)


def monotonicity_check(d: int) -> MonotonicityReport:
    """Exact pi(d, n) for n = 3..2^d by full enumeration; reports whether the
    sequence strictly decreases."""
    if d > 3:
        raise BudgetExceeded("exact monotonicity mode is limited to d <= 3",
                             required=1 << d)
    values = {n: pi_exact(d, n).exact_value for n in range(3, (1 << d) + 1)}
    violations = [(n, n + 1) for n in range(3, 1 << d)
                  if not values[n] > values[n + 1]]
    return MonotonicityReport(d=d, values=values,
                              strictly_decreasing=not violations,
                              violations=violations)


# ---------------------------------------------------------------------------
# threshold sweeps


@dataclass(frozen=True)
class TauSweepRow:
    k: int
    ratio: float
    m: int
    estimate: Estimate | None
    note: str = ""


@dataclass(frozen=True)
class DensitySweepRow:
    d: int
    base: float
    n: int
    estimate: Estimate | None
    note: str = ""


def tau_threshold_sweep(k_list: Sequence[int], ratio_list: Sequence[float],
                        samples: int, seed: int, workers: int = 1) -> list[TauSweepRow]:
    """tau estimates at m = ceil(ratio * k) for each pair from the grids."""
    rows = []
    for k in k_list:
        for ratio in ratio_list:
            m = math.ceil(ratio * k)
            if m > (1 << k) - 2:
                rows.append(TauSweepRow(k=k, ratio=ratio, m=m, estimate=None,
                                        note="m exceeds 2^k - 2"))
                continue
            est = tau_mc(k, m, samples, seed, workers=workers)
            rows.append(TauSweepRow(k=k, ratio=ratio, m=m, estimate=est))
    return rows


def density_threshold_sweep(d_list: Sequence[int], base_list: Sequence[float],
                            samples: int, seed: int,
                            workers: int = 1) -> list[DensitySweepRow]:
    """Expected graph density at n = round(base**d) over the (d, base) grid."""
    rows = []
    for d in d_list:
        for base in base_list:
            n = round(base ** d)
            if not 2 <= n <= (1 << d):
                rows.append(DensitySweepRow(d=d, base=base, n=n, estimate=None,
                                            note="n out of range"))
                continue
            est = pi_mc(d, n, samples, seed, workers=workers)
            rows.append(DensitySweepRow(d=d, base=base, n=n, estimate=est))
    return rows
