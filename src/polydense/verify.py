"""The twelve criteria behind ``polydense verify`` and the acceptance suite.

Each criterion is one entry of ``CRITERIA``: a check that exercises one of
the package's exact identities, bounds, or Monte-Carlo trend properties and
returns ``(ok, detail)``, with two parameter sets stored as data.  The
``verify`` parameters are the small budgets of ``polydense verify``; the
``acceptance`` parameters are the larger ones of ``tests/test_acceptance.py``,
which also asserts each criterion's ``budget_s``.  The quick level runs
the exact criteria 1-7, the full level all twelve.

Checks call the estimators through the ``est`` module, so a test that
replaces an estimator there reaches every check.
"""

from __future__ import annotations

import io
import math
import time
from contextlib import redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from . import estimators as est
from .arrangements import (chamber_count, chamber_count_bruteforce, harding_bound,
                           moivre_laplace_ratio, normal_cdf, random_rational_config)
from .cube import cut_polytope_vertices, full_cube
from .graph import graph_density_exact
from .mc import exact_estimate
from .rng import stream

__all__ = ["Criterion", "CRITERIA", "run"]


def _cube_anchor(workers: int, seed: int):
    got = {d: graph_density_exact(full_cube(d)).density for d in (2, 3, 4)}
    ok = all(v == Fraction(d, (1 << d) - 1) for d, v in got.items())
    return ok, "density " + ", ".join(f"d={d}: {v}" for d, v in got.items())


def _cut_polytope(workers: int, seed: int):
    rep = graph_density_exact(cut_polytope_vertices(4))
    ok = rep.density == 1 and rep.edge_count == 28 and rep.n == 8
    return ok, f"{rep.edge_count}/28 pairs are edges, density {rep.density}"


def _tau_alpha_identity(workers: int, seed: int):
    cells = 0
    for k in (2, 3, 4):
        classes = (1 << (k - 1)) - 1
        for m in range(0, (1 << k) - 1):
            direct = est.tau_exact(k, m).exact_value
            if m <= classes:
                routed = est.tau_from_alpha(k, m, est.alpha_exact(k, m)).exact_value
            else:
                routed = Fraction(0)  # zero prefactor: every subset has an antipodal pair
            cells += 1
            if direct != routed:
                return False, f"k={k} m={m}: {direct} != {routed}"
    return True, f"exact equality at every feasible m ({cells} cells)"


def _tau_monotone_and_bound(workers: int, seed: int):
    for k in (2, 3, 4):
        vals = [est.tau_exact(k, m).exact_value for m in range(0, (1 << k) - 1)]
        for m in range(len(vals) - 1):
            if vals[m] < vals[m + 1]:
                return False, f"k={k}: increase at m={m}"
        for m in range(1, len(vals)):
            if vals[m] > est.tau_upper_bound(k, m):
                return False, f"k={k} m={m}: bound violated"
    return True, "tau non-increasing and below b(k-2,m-1)/2^(m-1), k<=4"


def _chamber_oracles(workers: int, seed: int, label: str, trials: int,
                     m_max: int):
    rng = stream(seed, label)
    max_chi = 0
    for trial in range(trials):
        r = int(rng.integers(1, 5))
        m = int(rng.integers(1, m_max + 1))
        vecs = random_rational_config(rng, r, m)
        a = chamber_count(vecs).count
        b = chamber_count_bruteforce(vecs).count
        max_chi = max(max_chi, a)
        if a != b or a > harding_bound(r, m):
            return False, f"trial {trial} (r={r}, m={m}): count {a}, brute {b}"
    return True, (f"{trials} configs agree exactly and respect the bound "
                  f"(max chi {max_chi})")


def _alpha_chamber_route(workers: int, seed: int):
    for k in (2, 3, 4):
        for m in range(0, min((1 << (k - 1)) - 1, 4) + 1):
            a = est.alpha_exact(k, m).exact_value
            b = est.alpha_via_chambers_exact(k, m).exact_value
            if a != b:
                return False, f"k={k} m={m}: {a} != {b}"
    return True, "double enumeration equality for r<=3, m<=4"


def _pi_decrease_and_reconstruction(workers: int, seed: int):
    rep = est.monotonicity_check(3)
    if not rep.strictly_decreasing:
        return False, f"violations at {rep.violations}"
    if rep.values[8] != Fraction(3, 7):
        return False, f"pi(3,8) = {rep.values[8]} != 3/7"
    for n in range(3, 9):
        pik = {k: est.pi_k_exact(3, n, k) for k in (1, 2, 3)}
        if est.pi_from_pk(3, pik).exact_value != rep.values[n]:
            return False, f"n={n}: distance reconstruction mismatch"
    return True, " > ".join(str(rep.values[n]) for n in range(3, 9))


def _cross_method(workers: int, seed: int, pi_samples: int, tau_samples: int):
    direct = est.pi_mc(8, 32, pi_samples, seed, workers=workers)
    dec = est.decompose_pi(8, 32, tau_samples=tau_samples, seed=seed,
                           workers=workers)
    diff = abs(direct.value - dec.combined.value)
    bound = 3 * math.hypot(direct.stderr, dec.combined.stderr)
    return diff <= bound, (
        f"mc {direct.value:.5f}±{direct.stderr:.5f}, "
        f"decomp {dec.combined.value:.5f}±{dec.combined.stderr:.5f}, "
        f"|diff| {diff:.5f} <= {bound:.5f}")


def _moivre(workers: int, seed: int):
    center = moivre_laplace_ratio(400, 0.0)
    ok = abs(center - 0.5) <= 0.05
    details = [f"ratio(400,0)={center:.4f}"]
    for mu in (-0.5, 0.0, 0.5):
        target = normal_cdf(2 * mu)
        d_small = abs(moivre_laplace_ratio(100, mu) - target)
        d_large = abs(moivre_laplace_ratio(1600, mu) - target)
        details.append(f"mu={mu}: {d_small:.4f}->{d_large:.4f}")
        if d_large >= d_small:
            ok = False
    return ok, "; ".join(details)


def _tau_trends(workers: int, seed: int, low_samples: int, high_samples: int,
                ceiling_sigmas: float):
    # Either side of m/k = 2.  Sub-threshold: tau(k, 1.5k) grows in k beyond
    # 2 sigma per step.  In m at k = 8: tau does not rise beyond a 0.05
    # slack.  Super-threshold: tau <= P(no antipodal pair) * alpha
    # <= prefactor * b(k-2, m-1) / 2^(m-1), and the chamber bound on alpha
    # falls strictly in k.  tau(k, 3k) itself rises over these k, because
    # the prefactor does (a birthday effect).  ceiling_sigmas = +2 asks the
    # upper 2-sigma limit to lie under the ceiling; the verify budget uses
    # -2 (fail only an estimate beyond 2 sigma above it), because 2000
    # samples cannot put the upper limit under the k=6 ceiling (zero hits
    # still give 0.00098 > 0.00072).
    ks = (6, 8, 10, 12)
    low = [est.tau_mc(k, (3 * k) // 2, low_samples, seed, workers=workers)
           for k in ks]
    in_m = [est.tau_mc(8, m, 2000, seed, workers=workers).value
            for m in (8, 12, 16, 24)]
    high = [est.tau_mc(k, 3 * k, high_samples, seed, workers=workers) for k in ks]
    bounds = [est.tau_upper_bound(k, 3 * k) for k in ks]
    ceilings = [est.tau_from_alpha(k, 3 * k, exact_estimate(b)).exact_value
                for k, b in zip(ks, bounds)]
    problems = []
    if any(e.stderr > 0.01 for e in low + high):
        problems.append("stderr above 0.01")
    for (ka, a), (kb, b) in zip(zip(ks, low), zip(ks[1:], low[1:])):
        if not b.value - a.value > 2 * math.hypot(a.stderr, b.stderr):
            problems.append(f"sub-threshold not increasing beyond 2sigma at {ka}->{kb}")
    if any(a < b - 0.05 for a, b in zip(in_m, in_m[1:])):
        problems.append(f"tau(8,m) not decreasing in m: {in_m}")
    for ka, kb, a, b in zip(ks, ks[1:], bounds, bounds[1:]):
        if not b < a:
            problems.append(f"chamber bound not decreasing at {ka}->{kb} "
                            f"({float(a):.5f} -> {float(b):.5f})")
    for k, e, ceiling in zip(ks, high, ceilings):
        if e.value + ceiling_sigmas * e.stderr > ceiling:
            problems.append(f"tau({k},{3 * k}) = {e.value:.4f}±{e.stderr:.4f} "
                            f"against its chamber ceiling {float(ceiling):.5f}")
    details = [f"k={k}: tau({k},{(3 * k) // 2})={a.value:.4f}±{a.stderr:.4f}, "
               f"tau({k},{3 * k})={e.value:.4f}±{e.stderr:.4f} "
               f"(ceiling {float(c):.5f})"
               for k, a, e, c in zip(ks, low, high, ceilings)]
    details.append("tau(8,m) at m=8,12,16,24: " + "/".join(f"{v:.3f}" for v in in_m))
    return not problems, "; ".join(problems + details)


def _density_trend(workers: int, seed: int, samples: int):
    gaps = []
    problems = []
    details = []
    for d in (10, 12, 14):
        lo = est.pi_mc(d, math.floor(1.2 ** d), samples, seed, workers=workers)
        hi = est.pi_mc(d, math.ceil(1.7 ** d), samples, seed, workers=workers)
        if lo.stderr > 0.02 or hi.stderr > 0.02:
            problems.append(f"d={d}: stderr above 0.02")
        gaps.append(lo.value - hi.value)
        details.append(f"d={d}: {lo.value:.3f} - {hi.value:.3f} = {gaps[-1]:.3f}")
        if gaps[-1] < 0.3:
            problems.append(f"d={d}: gap below 0.3")
    if not all(a <= b + 1e-12 for a, b in zip(gaps, gaps[1:])):
        problems.append("gap not non-decreasing in d")
    return not problems, "; ".join(problems + details)


def _byte_determinism(workers: int, seed: int, commands: list[list[str]]):
    from .cli import main as cli_main  # cli imports this module

    def csv_without_wall_time(w: int) -> str:
        lines = []
        for argv in commands:
            buf = io.StringIO()
            with redirect_stdout(buf):
                code = cli_main(argv + ["--seed", str(seed), "--workers", str(w)])
            if code != 0:
                raise RuntimeError(f"{' '.join(argv)} exited {code}")
            lines += [line.rsplit(",", 1)[0] for line in buf.getvalue().splitlines()]
        return "\n".join(lines)

    outputs = [csv_without_wall_time(w) for w in (1, 2, 1)]
    if outputs[0] != outputs[1]:
        return False, "worker count changed the output bytes"
    if outputs[0] != outputs[2]:
        return False, "rerun changed the output bytes"
    return True, (f"{len(outputs[0].splitlines())} lines identical for reruns "
                  "and any worker count")


@dataclass(frozen=True)
class Criterion:
    """One acceptance criterion: ``check(workers, seed, **params)`` returns
    ``(ok, detail)``; ``verify`` and ``acceptance`` are its parameters at the
    two levels; ``budget_s`` bounds the acceptance run's wall time."""

    number: int
    name: str
    check: Callable[..., tuple[bool, str]]
    quick: bool
    verify: dict
    acceptance: dict
    budget_s: float


CRITERIA = (
    Criterion(1, "cube density anchor (d=2..4, exact)", _cube_anchor,
              True, {}, {}, 10),
    Criterion(2, "cut-polytope completeness (k=4, exact)", _cut_polytope,
              True, {}, {}, 10),
    Criterion(3, "tau equals prefactor times alpha (k<=4, exact)",
              _tau_alpha_identity, True, {}, {}, 300),
    Criterion(4, "tau monotone in m + chamber-sum bound (k<=4, exact)",
              _tau_monotone_and_bound, True, {}, {}, 300),
    Criterion(5, "chamber count: deletion–restriction vs brute force", _chamber_oracles,
              True,
              {"label": "verify:chambers", "trials": 40, "m_max": 8},
              {"label": "acc:chambers", "trials": 200, "m_max": 12},
              300),
    Criterion(6, "alpha via chamber averages (double enumeration)",
              _alpha_chamber_route, True, {}, {}, 120),
    Criterion(7, "pi(3,n) strictly decreasing + distance decomposition (exact)",
              _pi_decrease_and_reconstruction, True, {}, {}, 600),
    Criterion(8, "cross-method consistency pi(8,32)", _cross_method, False,
              {"pi_samples": 4000, "tau_samples": 1500},
              {"pi_samples": 10_000, "tau_samples": 3000}, 600),
    Criterion(9, "binomial tail vs normal limit", _moivre, False, {}, {}, 60),
    Criterion(10, "long-edge threshold trends (Monte Carlo)", _tau_trends, False,
              {"low_samples": 3000, "high_samples": 2000, "ceiling_sigmas": -2},
              {"low_samples": 20_000, "high_samples": 20_000, "ceiling_sigmas": 2},
              1200),
    Criterion(11, "graph-density threshold gap (Monte Carlo)", _density_trend,
              False, {"samples": 1200}, {"samples": 2500}, 3600),
    Criterion(12, "byte-identical CSV across reruns and workers",
              _byte_determinism, False,
              {"commands": [["density", "--d", "8", "--base", "1.3",
                             "--samples", "600"]]},
              {"commands": [["density", "--d", "7,8", "--base", "1.25",
                             "--samples", "400"],
                            ["tau", "--k", "5", "--ratio", "1.5,2.5",
                             "--samples", "500"]]},
              300),
)


def run(level: str = "quick", workers: int = 1, seed: int = 20250809,
        out=None) -> int:
    """Run the verification suite; returns a nonzero exit code on failure."""
    import sys
    out = out or sys.stdout
    if level not in ("quick", "full"):
        raise ValueError("level must be 'quick' or 'full'")
    criteria = [c for c in CRITERIA if c.quick or level == "full"]
    failures = 0
    t_start = time.time()
    for c in criteria:
        t0 = time.time()
        try:
            ok, detail = c.check(workers, seed, **c.verify)
        except Exception as exc:  # a crash counts as a failure, not an abort
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        status = "PASS" if ok else "FAIL"
        if not ok:
            failures += 1
        print(f"{status}  {c.name}  [{time.time() - t0:.1f}s]  {detail}", file=out)
    total = len(criteria)
    print(f"{total - failures}/{total} checks passed in {time.time() - t_start:.1f}s",
          file=out)
    return 1 if failures else 0
