"""Exact and Monte-Carlo estimators for the long-edge and edge probabilities.

tau(k, m) is the probability that the main diagonal of the k-cube stays an
edge against m uniformly random interior face points; alpha(k, m) is the
same probability conditioned on the point set containing no antipodal pair;
pi(d, n) is the probability that a uniformly random vertex pair of a random
n-point ±1-polytope is an edge.  The hypergeometric weights xi tie the two
levels together, decomposing pi over the pair distance k and the number m
of obstructing face points.

A tau or alpha cell is enumerated when its enumeration fits a budget
(EXACT_BUDGET by default) and sampled otherwise.  Every exhaustive routine
passes its enumeration size to BudgetExceeded.check before any edge test,
and caches nothing, so a repeated call enumerates again.

Every Monte-Carlo routine cuts its budget into fixed blocks with derived
RNG streams and merges integer block results, so results do not depend on
worker count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain, combinations, islice, product
from math import comb
from typing import Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .arrangements import (build_config_plus, chamber_count, half_cube_vector,
                           partial_binomial_sum)
from .errors import BudgetExceeded
from .graph import (_SUBSETS_PER_PASS, _edge_count, count_pass_edges, long_edges_survive,
                    pass_rows)
from .mc import (Z95, Estimate, bernoulli_estimate, exact_estimate, normal_estimate,
                 parallel_map, split_blocks, weighted_sum)
from .rng import sample_index_rows, sample_indices, sample_sets_and_pairs, stream
# Not called here: perfbench/spans.py wraps these names in estimators and
# fails to install without them.
from .cube import sample_vertex_bits  # noqa: F401
from .graph import _long_edge_survives_cached, edge_kernel, long_edge_survives  # noqa: F401
from .rng import rand_bits  # noqa: F401

__all__ = [
    "PROV_EXHAUSTIVE",
    "PROV_MONTE_CARLO",
    "PROV_VIA_ALPHA",
    "PROV_STRUCTURAL_ZERO",
    "PROV_CLOSED_FORM",
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
# tau at m <= 1, alpha at m <= 2, over the budget: no point, no single one and
# no pair that is not antipodal meets the diagonal (see graph._screen)
PROV_CLOSED_FORM = "closed-form"
# the enumeration size up to which tau_cell, and the CLI's alpha, enumerate
# a cell instead of sampling it
EXACT_BUDGET = 20_000
# the caps of alpha_via_chambers_exact, pi_k_exact and pi_exact
ALPHA_CHAMBERS_BUDGET = 100_000
PI_K_EXACT_BUDGET = 200_000
PI_EXACT_BUDGET = 400_000


def _comb0(n: int, k: int) -> int:
    return comb(n, k) if 0 <= k <= n else 0


def _check_tau_args(k: int, m: int) -> None:
    if k < 1:
        raise ValueError("k must be positive")
    if not 0 <= m <= (1 << k) - 2:
        raise ValueError(f"m must lie in 0..2^{k}-2, got {m}")


def _check_alpha_args(k: int, m: int) -> None:
    if k < 1:
        raise ValueError("k must be positive")
    classes = (1 << (k - 1)) - 1
    if not 0 <= m <= classes:
        raise ValueError(f"conditioning event is empty for m={m} > {classes}")


def _check_pi_args(d: int, n: int, k: int | None = None) -> None:
    """The (d, n) guard of the pi estimators, and 1 <= k <= d when k is given."""
    if d < 1:
        raise ValueError("d must be positive")
    if k is not None and not 1 <= k <= d:
        raise ValueError("need 1 <= k <= d")
    if not 2 <= n <= (1 << d):
        raise ValueError(f"need 2 <= n <= 2^{d}")


# ---------------------------------------------------------------------------
# tau and alpha, exact


def _subsets(pool: Iterable, m: int) -> Iterable[tuple]:
    """combinations(pool, m), except that m = 0 yields the empty subset
    without reading the pool (combinations copies all of it first)."""
    return combinations(pool, m) if m else iter([()])


def _exact_share(k: int, total: int, cap: int, what: str, faces: Callable) -> Estimate:
    """The share of the ``total`` face sets of faces() whose k-diagonal survives."""
    BudgetExceeded.check(total, cap, what)
    return exact_estimate(Fraction(sum(long_edges_survive(k, faces())), total),
                          samples=total)


def _tau_subsets(k: int, m: int) -> Iterator[np.ndarray]:
    """The m-subsets of the interior points of the k-cube in the order of
    combinations, as arrays of at most _SUBSETS_PER_PASS rows."""
    word = np.int64 if k < 64 else object
    it = _subsets(range(1, (1 << k) - 1), m)
    while rows := list(islice(it, _SUBSETS_PER_PASS)):
        yield np.array(rows, dtype=word).reshape(len(rows), m)


def tau_exact(k: int, m: int, max_subsets: int = 200_000) -> Estimate:
    """Exact long-edge probability by enumerating all m-subsets of the
    interior face points.

    Above 2^(k-1) - 1 points every subset holds an antipodal pair (the
    pigeonhole principle on the antipodal classes), so once the subset count
    fits the budget the value is the exact 0 over all of them, without
    enumerating.
    """
    _check_tau_args(k, m)
    total = comb((1 << k) - 2, m)
    if m > (1 << (k - 1)) - 1:
        BudgetExceeded.check(total, max_subsets, "subsets")
        return exact_estimate(Fraction(0), samples=total)
    return _exact_share(k, total, max_subsets, "subsets", lambda: _tau_subsets(k, m))


def alpha_exact(k: int, m: int, max_subsets: int = 400_000) -> Estimate:
    """Exact conditional long-edge probability given no antipodal pair,
    by enumerating antipodal classes times orientations."""
    _check_alpha_args(k, m)
    mask = (1 << k) - 1
    return _exact_share(k, comb((1 << (k - 1)) - 1, m) << m, max_subsets, "outcomes",
                        lambda: ([p ^ flip for p, flip in zip(combo, flips)]
                                 for combo in _subsets(range(1 << (k - 1), mask), m)
                                 for flips in product((0, mask), repeat=m)))


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
                    ci95=(scale * lo, scale * hi), samples=alpha.samples, seed=alpha.seed)


def tau_upper_bound(k: int, m: int) -> Fraction:
    """The chamber-count bound b(k-2, m-1) / 2^(m-1), reported raw (it may
    exceed 1 once the partial sum saturates)."""
    if m < 1:
        raise ValueError("the bound is defined for m >= 1")
    return Fraction(partial_binomial_sum(k - 2, m - 1), 1 << (m - 1))


def alpha_via_chambers_exact(k: int, m: int) -> Estimate:
    """alpha through the arrangement identity, fully enumerated: average the
    chamber count over all m-subsets of the 2^(k-1) - 1 vectors of the
    projected half configuration and divide by 2^m."""
    _check_alpha_args(k, m)
    total = comb((1 << (k - 1)) - 1, m)
    BudgetExceeded.check(total, ALPHA_CHAMBERS_BUDGET, "subsets")
    vectors = build_config_plus(k - 1).vectors if m else ()  # k = 1 forces m = 0
    chi_sum = sum(chamber_count(subset).count for subset in combinations(vectors, m))
    return exact_estimate(Fraction(chi_sum, total * (1 << m)), samples=total)


# ---------------------------------------------------------------------------
# Monte-Carlo blocks (module level so they pickle into worker processes)


def _sample_star_subset(rng, k: int, m: int) -> list[int]:
    """Uniform m-subset of the interior points of the k-cube (as bitmasks):
    one row of _tau_draws, drawn alone."""
    return [i + 1 for i in sample_indices(rng, (1 << k) - 2, m)]


def _tau_draws(k: int, m: int, count: int, seed: int, block: int) -> np.ndarray:
    """The count m-subsets of a tau(k, m) block from its stream, one a row:
    count successive _sample_star_subset draws."""
    rng = stream(seed, f"tau:k={k}:m={m}", block)
    return sample_index_rows(rng, (1 << k) - 2, m, count) + 1


def _tau_block(args) -> int:
    k, m, count, seed, block = args
    return sum(long_edges_survive(k, [_tau_draws(k, m, count, seed, block)]))


def _alpha_block(args) -> int:
    k, m, count, seed, block = args
    rng = stream(seed, f"alpha:k={k}:m={m}", block)
    word = np.int64 if k < 64 else object  # at k = 64 base + row reaches 2^64 - 2
    rows = sample_index_rows(rng, (1 << (k - 1)) - 1, m, count).astype(word)
    flips = rng.integers(0, 2, size=(count, m)).astype(word)
    return sum(long_edges_survive(k, [(rows + (1 << (k - 1))) ^ flips * ((1 << k) - 1)]))


def _alpha_chambers_block(args) -> tuple[int, int]:
    k, m, count, seed, block = args
    rng = stream(seed, f"alphachi:k={k}:m={m}", block)
    rows = sample_index_rows(rng, (1 << (k - 1)) - 1, m, count).tolist()
    chis = [chamber_count([half_cube_vector(k - 1, i) for i in row]).count for row in rows]
    return sum(chis), sum(chi * chi for chi in chis)


def _pi_block(args) -> int:
    d, n, count, seed, block = args
    rng = stream(seed, f"pi:d={d}:n={n}", block)
    return count_pass_edges(d, sample_sets_and_pairs(rng, 1 << d, n, count, pass_rows(n)))


def _pik_block(args) -> int:
    d, n, k, count, seed, block = args
    rng = stream(seed, f"pik:d={d}:n={n}:k={k}", block)
    wb = (1 << k) - 1
    # the n - 2 other points: indices of the cube minus the canonical pair
    points = sample_index_rows(rng, (1 << d) - 2, n - 2, count) + 1
    points += points >= wb
    on_face = np.asarray(points & ~wb == 0, dtype=bool)  # on the open face of the pair
    flat = points[on_face].tolist()
    ends = np.cumsum(np.count_nonzero(on_face, axis=1)).tolist()
    return sum(long_edges_survive(k, [flat[start:end] for start, end in zip([0] + ends, ends)]))


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
    _check_alpha_args(k, m)
    return _run_binomial(_alpha_block, (k, m), samples, seed, workers)


def alpha_via_chambers(k: int, m: int, samples: int, seed: int,
                       workers: int = 1) -> Estimate:
    """alpha estimated as the mean chamber count of random m-subsets of the
    projected half configuration, divided by 2^m."""
    _check_alpha_args(k, m)
    if k < 2:
        raise ValueError("chamber route needs k >= 2")
    parts = _run_blocks(_alpha_chambers_block, (k, m), samples, seed, workers)
    total, totalsq = map(sum, zip(*parts))
    mean_chi = total / samples
    var_chi = max(0.0, totalsq / samples - mean_chi * mean_chi)
    if samples > 1:
        var_chi *= samples / (samples - 1)
    denom = float(1 << m)
    return normal_estimate(mean_chi / denom, math.sqrt(var_chi / samples) / denom,
                           samples, seed)


def pi_mc(d: int, n: int, samples: int, seed: int, workers: int = 1) -> Estimate:
    """Edge probability of a random pair in a random n-point ±1-polytope."""
    _check_pi_args(d, n)
    return _run_binomial(_pi_block, (d, n), samples, seed, workers)


def pi_k_mc(d: int, n: int, k: int, samples: int, seed: int,
            workers: int = 1) -> Estimate:
    """Conditional edge probability at pair distance k.

    Fixes the canonical pair (all-minus-one and the vertex with the first k
    coordinates flipped); the conditional law is invariant under the cube
    symmetries, which act transitively on pairs at distance k.
    """
    _check_pi_args(d, n, k)
    return _run_binomial(_pik_block, (d, n, k), samples, seed, workers)


# ---------------------------------------------------------------------------
# hypergeometric weights and the distance decomposition


def xi_exact(d: int, n: int, k: int, m: int) -> Fraction:
    """Probability that exactly m of the other n-2 points land on the open
    face of a distance-k pair (hypergeometric, exact)."""
    _check_pi_args(d, n, k)
    if not 0 <= m <= min((1 << k) - 2, n - 2):
        raise ValueError(f"m={m} outside 0..min(2^{k}-2, n-2)")
    num = comb((1 << k) - 2, m) * _comb0((1 << d) - (1 << k), n - m - 2)
    return Fraction(num, comb((1 << d) - 2, n - 2))


@dataclass(frozen=True)
class TauTable:
    """tau(k, m) and its provenance, each a tuple indexed by m = 0..max_m."""

    k: int
    entries: tuple[Estimate, ...]
    provenance: tuple[str, ...]

    def __post_init__(self):
        if self.entries and self.entries[0].value != 1.0:
            raise ValueError("tau(k, 0) must be 1")

    @property
    def max_m(self) -> int:
        return len(self.entries) - 1


def _tau_provenance(k: int, m: int, exact_budget: int, method: str) -> str:
    """How tau(k, m) is settled.  Methods auto and exact enumerate when the
    subset count fits the budget (exhaustive, which tau_exact answers
    without enumerating above the antipodal class count) and take the
    closed form at m <= 1 otherwise; over the budget method exact raises.
    Then m above the antipodal class count is the structural zero, and any
    other cell is sampled: monte-carlo, or via-alpha for that method."""
    if method in ("auto", "exact"):
        total = comb((1 << k) - 2, m)
        if total <= exact_budget:
            return PROV_EXHAUSTIVE
        if m <= 1:
            return PROV_CLOSED_FORM
        if method == "exact":
            raise BudgetExceeded(f"tau({k},{m}) enumeration exceeds exact budget",
                                 required=total)
    if m > (1 << (k - 1)) - 1:
        return PROV_STRUCTURAL_ZERO
    return PROV_VIA_ALPHA if method == "via-alpha" else PROV_MONTE_CARLO


def tau_cell(k: int, m: int, samples: int, seed: int,
             exact_budget: int = EXACT_BUDGET, method: str = "auto",
             workers: int = 1) -> tuple[Estimate, str]:
    """One tau(k, m) value with its provenance (see _tau_provenance), the one
    map from a provenance to an estimate: enumerated, exactly 1 at m <= 1, the
    structural zero above the antipodal class count, or sampled."""
    _check_tau_args(k, m)
    if method not in ("auto", "exact", "mc", "via-alpha"):
        raise ValueError(f"unknown method {method!r}")
    prov = _tau_provenance(k, m, exact_budget, method)
    if prov == PROV_EXHAUSTIVE:
        return tau_exact(k, m, max_subsets=exact_budget), prov
    if prov == PROV_VIA_ALPHA:
        return tau_from_alpha(k, m, alpha_mc(k, m, samples, seed, workers=workers)), prov
    if prov == PROV_MONTE_CARLO:
        return tau_mc(k, m, samples, seed, workers=workers), prov
    return exact_estimate(Fraction(1 if prov == PROV_CLOSED_FORM else 0)), prov


def _tau_cell_task(args) -> list[tuple[Estimate, str]]:
    """tau_cell(k, m, samples, seed) for m = 0..top, one column per pool task.

    Every cell that needs edge tests hands its faces to one
    long_edges_survive call: an exhaustive cell its subsets as arrays of
    combinations, a sampled cell the blocks of tau_mc, drawn from its own
    streams.  The call reads them one pass at a time and batches faces of
    different m in one pass; its verdicts are split back into each cell's
    hit count.  Every other cell is tau_cell's.
    """
    k, top, samples, seed = args
    provs = [_tau_provenance(k, m, EXACT_BUDGET, "auto") for m in range(top + 1)]
    classes = (1 << (k - 1)) - 1
    tested = {m: comb((1 << k) - 2, m) if prov == PROV_EXHAUSTIVE else samples
              for m, prov in enumerate(provs)
              if prov == PROV_MONTE_CARLO or prov == PROV_EXHAUSTIVE and m <= classes}
    blocks = split_blocks(samples)
    verdicts = iter(long_edges_survive(k, chain.from_iterable(
        _tau_subsets(k, m) if provs[m] == PROV_EXHAUSTIVE
        else (_tau_draws(k, m, count, seed, block) for block, count in blocks)
        for m in tested)))
    cells = []
    for m, prov in enumerate(provs):
        if m not in tested:  # settled without an edge test
            cells.append(tau_cell(k, m, samples, seed))
            continue
        hits = sum(islice(verdicts, tested[m]))
        cells.append((exact_estimate(Fraction(hits, tested[m]), samples=tested[m])
                      if prov == PROV_EXHAUSTIVE else bernoulli_estimate(hits, samples, seed),
                      prov))
    return cells


def _tau_tables(m_max: Mapping[int, int], samples: int, seed: int,
                workers: int = 1) -> dict[int, TauTable]:
    """A TauTable for each k of ``m_max``, with m = 0..min(m_max[k], 2^k - 2),
    every column in one parallel_map with one task per k.

    The tasks go in descending k, so the heaviest columns start first; each
    cell's draws come from its own streams, so the tables are the same for
    any worker count.
    """
    tops = {k: min(top, (1 << k) - 2) for k, top in m_max.items()}
    order = sorted(tops, reverse=True)
    columns = dict(zip(order, parallel_map(_tau_cell_task,
                                           [(k, tops[k], samples, seed) for k in order],
                                           workers)))
    return {k: TauTable(k=k, entries=tuple(est for est, _ in columns[k]),
                        provenance=tuple(prov for _, prov in columns[k]))
            for k in tops}


def build_tau_table(k: int, m_max: int, samples: int, seed: int,
                    workers: int = 1) -> TauTable:
    """tau(k, m) for m = 0..m_max: exhaustive where the subset count fits
    EXACT_BUDGET, Monte Carlo otherwise."""
    return _tau_tables({k: m_max}, samples, seed, workers)[k]


def pi_k_semianalytic(d: int, n: int, tau: TauTable) -> Estimate:
    """Conditional edge probability at distance tau.k as the xi-weighted sum
    of the table's tau values.

    If the table stops before the full support, the remaining tail lies in
    [0, tau(k, M) * leftover-weight] because tau is non-increasing in m; the
    midpoint is reported and the bracket is folded into the interval, its
    upper end taken from the upper end of a sampled tau(k, M)'s interval;
    an exact tau(k, M) = 0 closes the bracket.
    """
    k = tau.k
    if not tau.entries:
        raise ValueError(f"tau table for k={k} is empty")
    m_target = min((1 << k) - 2, n - 2)
    use = min(tau.max_m, m_target)
    weights = [xi_exact(d, n, k, m) for m in range(use + 1)]
    mix = weighted_sum(weights, tau.entries[:use + 1])
    if mix.exact and (use == m_target or tau.entries[use].exact_value == 0):
        return mix
    last, leftover = tau.entries[use], float(1 - sum(weights))
    half = last.value * leftover / 2
    value = mix.value + half
    # above the midpoint, the tail reaches to leftover * tau(k, M), or to
    # leftover times the upper end of a sampled tau(k, M)'s interval
    reach = half if last.exact else leftover * last.ci95[1] - half
    lo = max(0.0, value - Z95 * mix.stderr - half)
    hi = min(1.0, value + Z95 * mix.stderr + reach)
    se = (hi - lo) / (2 * Z95)
    if se == 0.0 and mix.stderr == 0.0:
        return normal_estimate(value, 0.0, mix.samples)
    # an interval that collapses in float keeps the mix's own stderr
    return Estimate(value=value, stderr=se or mix.stderr, ci95=(lo, hi),
                    samples=mix.samples, seed=None)


def pi_from_pk(d: int, pik: Mapping[int, Estimate]) -> Estimate:
    """Combine conditional edge probabilities over the distance distribution:
    pi = sum_k C(d, k) pi_k / (2^d - 1), with stderr by weighted quadrature."""
    missing = [k for k in range(1, d + 1) if k not in pik]
    if missing:
        raise ValueError(f"missing pi_k entries for k in {missing}")
    return weighted_sum([Fraction(comb(d, k), (1 << d) - 1) for k in range(1, d + 1)],
                        [pik[k] for k in range(1, d + 1)])


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
    hypergeometric weights and the distance distribution.

    The tables are built by _tau_tables, one pool task per distance k; the
    draws, and so the result, are the same for any worker count.
    """
    # tau cells beyond m = 6k are left to pi_k_semianalytic's tail bracket
    m_cut = {k: min((1 << k) - 2, n - 2, 6 * k) for k in range(1, d + 1)}
    tables = _tau_tables(m_cut, tau_samples, seed, workers)
    pik = {k: pi_k_semianalytic(d, n, table) for k, table in tables.items()}
    return PiDecomposition(d=d, n=n, pi_k=pik, combined=pi_from_pk(d, pik))


# ---------------------------------------------------------------------------
# exact enumeration over whole vertex-set ensembles (small d)


def pi_exact(d: int, n: int) -> Estimate:
    """Exact pi(d, n) by enumerating every n-subset and every pair."""
    _check_pi_args(d, n)
    work = comb(1 << d, n) * comb(n, 2)
    BudgetExceeded.check(work, PI_EXACT_BUDGET, "edge tests")
    hits = _edge_count(d, combinations(range(1 << d), n), n)
    return exact_estimate(Fraction(hits, work), samples=work)


def pi_k_exact(d: int, n: int, k: int) -> Estimate:
    """Exact conditional edge probability at distance k by enumerating every
    completion of the canonical pair."""
    _check_pi_args(d, n, k)
    wb = (1 << k) - 1
    universe = (p for p in range(1, 1 << d) if p != wb)
    return _exact_share(k, comb((1 << d) - 2, n - 2), PI_K_EXACT_BUDGET, "completions",
                        lambda: ([p for p in rest if not p & ~wb]
                                 for rest in _subsets(universe, n - 2)))


@dataclass(frozen=True)
class MonotonicityReport:
    d: int
    values: dict[int, Fraction]
    strictly_decreasing: bool
    violations: list[tuple[int, int]] = field(default_factory=list)


def monotonicity_check(d: int) -> MonotonicityReport:
    """Exact pi(d, n) for n = 3..2^d by full enumeration; reports whether the
    sequence strictly decreases.  Those n-subsets hold C(2^d, 2) * (2^(2^d-2) - 1)
    pairs; d <= 12 keeps that count a small integer (1,233 digits at d = 12)."""
    if not 1 <= d <= 12:
        raise ValueError(f"d must lie in 1..12, got {d}")
    BudgetExceeded.check(comb(1 << d, 2) * ((1 << (1 << d) - 2) - 1), PI_EXACT_BUDGET,
                         "edge tests")
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
    ratio: float | None  # None for a cell given by its m
    m: int | None  # None when ratio * k is beyond the float range
    estimate: Estimate | None
    provenance: str = ""  # empty when there is no estimate
    note: str = ""


@dataclass(frozen=True)
class DensitySweepRow:
    d: int
    base: float
    n: int | None  # None when base ** d is beyond the float range
    estimate: Estimate | None
    note: str = ""


def tau_threshold_sweep(k_list: Sequence[int], ratio_list: Sequence[float],
                        samples: int, seed: int, workers: int = 1) -> list[TauSweepRow]:
    """tau_cell(k, ceil(ratio * k), method="mc") for each pair from the grids:
    sampled, or the structural zero above the antipodal class count."""
    if not all(ratio >= 0 for ratio in ratio_list):
        raise ValueError(f"ratios must be nonnegative, got {list(ratio_list)}")
    rows = []
    for k in k_list:
        for ratio in ratio_list:
            m = math.ceil(ratio * k) if ratio * k < math.inf else None
            if m is None or m > (1 << k) - 2:
                rows.append(TauSweepRow(k=k, ratio=ratio, m=m, estimate=None,
                                        note="m exceeds 2^k - 2"))
                continue
            est, prov = tau_cell(k, m, samples, seed, method="mc", workers=workers)
            rows.append(TauSweepRow(k=k, ratio=ratio, m=m, estimate=est, provenance=prov))
    return rows


def density_threshold_sweep(d_list: Sequence[int], base_list: Sequence[float],
                            samples: int, seed: int,
                            workers: int = 1) -> list[DensitySweepRow]:
    """Expected graph density at n = round(base**d) over the (d, base) grid."""
    if not all(base > 0 for base in base_list):
        raise ValueError(f"bases must be positive, got {list(base_list)}")
    rows = []
    for d in d_list:
        for base in base_list:
            try:
                n = round(base ** d)
            except OverflowError:
                n = None
            if n is None or not 2 <= n <= (1 << d):
                rows.append(DensitySweepRow(d=d, base=base, n=n, estimate=None,
                                            note="n out of range"))
                continue
            est = pi_mc(d, n, samples, seed, workers=workers)
            rows.append(DensitySweepRow(d=d, base=base, n=n, estimate=est))
    return rows
