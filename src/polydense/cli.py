"""Command-line surface: seeded experiments, CSV emission, verification.

Every subcommand writes CSV with a fixed header, 12-significant-digit
numeric fields, exact rationals duplicated as "p/q" strings, and a trailing
wall-time column that is informational only (strip it before comparing
outputs byte for byte).  Identical configuration and seed produce identical
bytes for any worker count.

A --config file is read through the same parser as the command line: each
``key=value`` line becomes the flag ``--key=value``, placed ahead of the
command line's own flags, so argparse checks both sources alike and an
explicit flag wins.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
import time

from . import verify as verify_mod
from .arrangements import (build_config_plus, chamber_count,
                           chamber_count_bruteforce, harding_bound,
                           moivre_laplace_ratio, normal_cdf, random_rational_config)
from .errors import BudgetExceeded, PolydenseError
from .estimators import (alpha_exact, alpha_mc, alpha_via_chambers, decompose_pi,
                         density_threshold_sweep, pi_mc, tau_cell,
                         tau_threshold_sweep)
from .mc import Estimate, default_workers, parse_workers
from .rng import sample_indices, stream

__all__ = ["main"]

DEFAULT_SEED = 20250809
# tau_cell's and alpha's enumeration budget when --exact-budget is not given
EXACT_BUDGET = 20_000


def _fmt(x) -> str:
    if x is None:
        return ""
    return f"{float(x):.12g}"


def _fmt_exact(e: Estimate | None) -> str:
    if e is None or e.exact_value is None:
        return ""
    return str(e.exact_value)


def _est_fields(e: Estimate | None) -> list[str]:
    """estimate, stderr, ci_lo, ci_hi, exact_value, samples columns."""
    if e is None:
        return ["", "", "", "", "", ""]
    return [_fmt(e.value), _fmt(e.stderr), _fmt(e.ci95[0]), _fmt(e.ci95[1]),
            _fmt_exact(e), str(e.samples)]


# argparse types.  An ArgumentTypeError's message is printed after the flag's
# name; a ValueError (from int or float) is reported as an invalid value.

def _fields(text: str) -> list[str]:
    """The nonempty comma-separated fields of text; an error if none."""
    fields = [part.strip() for part in text.split(",") if part.strip()]
    if not fields:
        raise argparse.ArgumentTypeError(f"no values in {text!r}")
    return fields


def _parse_ints(text: str) -> list[int]:
    """Comma list and inclusive a:b ranges: "3,5,7" or "0:6" or "1,4:6"."""
    out: list[int] = []
    for part in _fields(text):
        if ":" in part:
            lo, hi = (int(x) for x in part.split(":", 1))
            if lo > hi:
                raise argparse.ArgumentTypeError(f"range {part!r} is descending")
            out.extend(range(lo, hi + 1))
        else:
            out.append(int(part))
    return out


def _parse_floats(text: str) -> list[float]:
    return [float(part) for part in _fields(text)]


def _parse_bool(text: str) -> bool:
    value = text.lower()
    if value not in ("1", "true", "yes", "0", "false", "no"):
        raise argparse.ArgumentTypeError(
            f"expected 1/true/yes or 0/false/no, got {text!r}")
    return value in ("1", "true", "yes")


def _nonnegative(text: str) -> int:
    n = int(text)
    if n < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {n}")
    return n


def _worker_count(text: str) -> int:
    try:
        return parse_workers(int(text))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def load_config(path: str) -> dict[str, str]:
    """Flat key=value file; '#' starts a comment, blank lines ignored."""
    values: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value")
            key, value = line.split("=", 1)
            values[key.strip()] = value.strip()
    return values


def _emit(path: str | None, header: list[str], rows: list[list[str]]) -> None:
    if path:
        fh = open(path, "w", newline="", encoding="utf-8")
    else:
        fh = sys.stdout
    try:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    finally:
        if path:
            fh.close()


_SHARED_FLAGS = {
    "seed": dict(type=int, default=DEFAULT_SEED, help="master seed (64-bit)"),
    "samples": dict(type=int, help="Monte-Carlo sample budget"),
    "workers": dict(type=_worker_count,
                    help="worker processes (default: POLYDENSE_WORKERS or 1)"),
    "out": dict(help="output CSV path (default: stdout)"),
    "config": dict(help="flat key=value file; each line is read as --key=value "
                        "ahead of the command line's flags"),
}


def _shared_flags(sub: argparse.ArgumentParser, *names: str) -> None:
    """Add the named shared flags, and --config, to a subcommand that reads them."""
    for name in names + ("config",):
        sub.add_argument(f"--{name}", **_SHARED_FLAGS[name])


def cmd_density(ns: argparse.Namespace) -> int:
    workers = ns.workers or default_workers()
    header = ["experiment", "d", "base", "n", "estimate", "stderr", "ci_lo",
              "ci_hi", "exact_value", "samples", "seed", "note", "wall_time_s"]
    rows = []
    for d in ns.d:
        for base in ns.base:
            t0 = time.time()
            row = density_threshold_sweep([d], [base], samples=ns.samples,
                                          seed=ns.seed, workers=workers)[0]
            rows.append(["density", str(d), _fmt(base), str(row.n)]
                        + _est_fields(row.estimate)
                        + [str(ns.seed), row.note, f"{time.time() - t0:.3f}"])
    _emit(ns.out, header, rows)
    return 0


def cmd_tau(ns: argparse.Namespace) -> int:
    workers = ns.workers or default_workers()
    if ns.ratio is not None:
        given = [flag for flag, value in (("--m", ns.m), ("--method", ns.method),
                                          ("--exact-budget", ns.exact_budget))
                 if value is not None]
        if given:
            raise ValueError("--ratio runs Monte Carlo at m = ceil(ratio * k) "
                             f"and takes no {', '.join(given)}")
    exact_budget = EXACT_BUDGET if ns.exact_budget is None else ns.exact_budget
    header = ["experiment", "k", "m", "ratio", "provenance", "estimate", "stderr",
              "ci_lo", "ci_hi", "exact_value", "samples", "seed", "note",
              "wall_time_s"]
    rows = []
    for k in ns.k:
        if ns.ratio is not None:
            for ratio in ns.ratio:
                t0 = time.time()
                row = tau_threshold_sweep([k], [ratio], samples=ns.samples,
                                          seed=ns.seed, workers=workers)[0]
                prov = "monte-carlo" if row.estimate is not None else ""
                rows.append(["tau", str(k), str(row.m), _fmt(ratio), prov]
                            + _est_fields(row.estimate)
                            + [str(ns.seed), row.note, f"{time.time() - t0:.3f}"])
        else:
            ms = ns.m if ns.m is not None else list(range(0, (1 << k) - 1))
            for m in ms:
                t0 = time.time()
                estv, prov = tau_cell(k, m, samples=ns.samples, seed=ns.seed,
                                      exact_budget=exact_budget,
                                      method=ns.method or "auto", workers=workers)
                rows.append(["tau", str(k), str(m), "", prov] + _est_fields(estv)
                            + [str(ns.seed), "", f"{time.time() - t0:.3f}"])
    _emit(ns.out, header, rows)
    return 0


def cmd_alpha(ns: argparse.Namespace) -> int:
    workers = ns.workers or default_workers()
    if ns.method == "chambers" and ns.exact_budget is not None:
        raise ValueError("--method chambers takes no --exact-budget")
    exact_budget = EXACT_BUDGET if ns.exact_budget is None else ns.exact_budget
    header = ["experiment", "k", "m", "method", "estimate", "stderr", "ci_lo",
              "ci_hi", "exact_value", "samples", "seed", "wall_time_s"]
    rows = []
    for k in ns.k:
        classes = (1 << (k - 1)) - 1
        ms = ns.m if ns.m is not None else list(range(0, classes + 1))
        for m in ms:
            t0 = time.time()
            size = math.comb(classes, m) * (1 << m)
            if ns.method == "chambers":
                estv, how = alpha_via_chambers(k, m, ns.samples, ns.seed,
                                               workers=workers), "chambers"
            elif ns.method in ("auto", "exact") and size <= exact_budget:
                estv, how = alpha_exact(k, m), "exhaustive"
            elif ns.method == "exact":
                raise BudgetExceeded(
                    f"alpha({k},{m}) enumeration exceeds exact budget",
                    required=size)
            else:
                estv, how = alpha_mc(k, m, ns.samples, ns.seed, workers=workers), \
                    "monte-carlo"
            rows.append(["alpha", str(k), str(m), how] + _est_fields(estv)
                        + [str(ns.seed), f"{time.time() - t0:.3f}"])
    _emit(ns.out, header, rows)
    return 0


def cmd_pi(ns: argparse.Namespace) -> int:
    workers = ns.workers or default_workers()
    d, n, seed = ns.d, ns.n, ns.seed
    header = ["experiment", "d", "n", "k", "method", "estimate", "stderr",
              "ci_lo", "ci_hi", "exact_value", "samples", "seed", "wall_time_s"]
    rows = []
    if ns.method in ("mc", "both"):
        t0 = time.time()
        estv = pi_mc(d, n, ns.samples, seed, workers=workers)
        rows.append(["pi", str(d), str(n), "", "mc"] + _est_fields(estv)
                    + [str(seed), f"{time.time() - t0:.3f}"])
    if ns.method in ("decomp", "both"):
        t0 = time.time()
        dec = decompose_pi(d, n, tau_samples=ns.tau_samples, seed=seed,
                           workers=workers)
        wall = f"{time.time() - t0:.3f}"
        rows.append(["pi", str(d), str(n), "", "decomp"]
                    + _est_fields(dec.combined) + [str(seed), wall])
        for k in sorted(dec.pi_k):
            rows.append(["pi_k", str(d), str(n), str(k), "decomp"]
                        + _est_fields(dec.pi_k[k]) + [str(seed), wall])
    _emit(ns.out, header, rows)
    return 0


def cmd_chambers(ns: argparse.Namespace) -> int:
    r, m, source, seed = ns.r, ns.m, ns.source, ns.seed
    header = ["experiment", "config_id", "source", "r", "m", "chambers", "method",
              "harding_bound", "bound_ok", "bruteforce", "seed", "wall_time_s"]
    rows = []
    bound = harding_bound(r, m)
    for i in range(ns.configs):
        rng = stream(seed, f"chambers:r={r}:m={m}:src={source}", i)
        if source == "halfcube":
            cfg = build_config_plus(r)
            if m > len(cfg):
                raise ValueError(f"m={m} exceeds the {len(cfg)} half-cube vectors")
            vecs = [cfg.vectors[j] for j in sample_indices(rng, len(cfg), m)]
        else:
            vecs = random_rational_config(rng, r, m)
        t0 = time.time()
        cc = chamber_count(vecs)
        bf = str(chamber_count_bruteforce(vecs).count) if ns.crosscheck else ""
        rows.append(["chambers", str(i), source, str(r), str(m), str(cc.count),
                     cc.method, str(bound), str(cc.count <= bound).lower(), bf,
                     str(seed), f"{time.time() - t0:.3f}"])
    _emit(ns.out, header, rows)
    return 0


def cmd_moivre(ns: argparse.Namespace) -> int:
    header = ["experiment", "q", "mu", "cutoff", "ratio", "limit_value",
              "abs_dev", "wall_time_s"]
    rows = []
    for q in ns.q:
        for mu in ns.mu:
            t0 = time.time()
            ratio = moivre_laplace_ratio(q, mu)
            limit = normal_cdf(2 * mu)
            cutoff = math.floor(q / 2 + mu * math.sqrt(q))
            rows.append(["moivre", str(q), _fmt(mu), str(cutoff), _fmt(ratio),
                         _fmt(limit), _fmt(abs(ratio - limit)),
                         f"{time.time() - t0:.3f}"])
    _emit(ns.out, header, rows)
    return 0


def cmd_verify(ns: argparse.Namespace) -> int:
    workers = ns.workers or default_workers()
    return verify_mod.run(level=ns.level, workers=workers, seed=ns.seed)


def build_parser() -> argparse.ArgumentParser:
    # no prefix matching: a config key or flag must be spelt out in full
    parser = argparse.ArgumentParser(
        prog="polydense", allow_abbrev=False,
        description="Graph-density experiments on random ±1-polytopes")
    subs = parser.add_subparsers(dest="command", required=True)

    def add(name: str, summary: str) -> argparse.ArgumentParser:
        return subs.add_parser(name, help=summary, allow_abbrev=False)

    sub = add("density", "expected graph density over a (d, base) grid")
    sub.add_argument("--d", type=_parse_ints, default=[10, 12, 14],
                     help="dimensions, e.g. 10,12,14")
    sub.add_argument("--base", type=_parse_floats, default=[1.2, 1.7],
                     help="growth bases, e.g. 1.2,1.7 (n = round(base^d))")
    _shared_flags(sub, "seed", "samples", "workers", "out")
    sub.set_defaults(func=cmd_density, samples=1000)

    # --m, --method and --exact-budget default to None so that cmd_tau can
    # tell whether they were given with --ratio
    sub = add("tau", "long-edge probability tables and sweeps")
    sub.add_argument("--k", type=_parse_ints, default=[3],
                     help="face dimensions, e.g. 3 or 6,8,10,12")
    sub.add_argument("--m", type=_parse_ints,
                     help="obstruction counts, e.g. 0:6 (default: all)")
    sub.add_argument("--ratio", type=_parse_floats,
                     help="m = ceil(ratio*k) sweep, e.g. 1.5,2,2.5,3")
    sub.add_argument("--method", choices=["auto", "exact", "mc", "via-alpha"],
                     help="default: auto")
    sub.add_argument("--exact-budget", type=int,
                     help=f"max subsets for exhaustive cells (default: {EXACT_BUDGET})")
    _shared_flags(sub, "seed", "samples", "workers", "out")
    sub.set_defaults(func=cmd_tau, samples=20_000)

    sub = add("alpha", "antipodal-free conditional probability")
    sub.add_argument("--k", type=_parse_ints, default=[3], help="face dimensions")
    sub.add_argument("--m", type=_parse_ints, help="class counts, e.g. 0:7")
    sub.add_argument("--method", choices=["auto", "exact", "mc", "chambers"],
                     default="auto")
    sub.add_argument("--exact-budget", type=int,
                     help=f"max subsets for exhaustive cells (default: {EXACT_BUDGET})")
    _shared_flags(sub, "seed", "samples", "workers", "out")
    sub.set_defaults(func=cmd_alpha, samples=20_000)

    sub = add("pi", "edge probability pi(d, n)")
    sub.add_argument("--d", type=int, default=8)
    sub.add_argument("--n", type=int, default=32)
    sub.add_argument("--method", choices=["mc", "decomp", "both"], default="both")
    sub.add_argument("--tau-samples", type=int, default=3000,
                     help="Monte-Carlo budget per tau table cell")
    _shared_flags(sub, "seed", "samples", "workers", "out")
    sub.set_defaults(func=cmd_pi, samples=10_000)

    sub = add("chambers", "chamber counts of sampled arrangements")
    sub.add_argument("--r", type=int, default=3)
    sub.add_argument("--m", type=int, default=8)
    sub.add_argument("--configs", type=_nonnegative, default=100,
                     help="number of sampled configurations")
    sub.add_argument("--source", choices=["random", "halfcube"], default="random")
    sub.add_argument("--crosscheck", type=_parse_bool, nargs="?", const=True,
                     default=False,
                     help="also run the brute-force count per config "
                          "(--crosscheck=no turns it off)")
    _shared_flags(sub, "seed", "out")
    sub.set_defaults(func=cmd_chambers)

    sub = add("moivre", "binomial tail ratios vs the normal limit")
    sub.add_argument("--q", type=_parse_ints, default=[100, 400, 1600],
                     help="tail sizes, e.g. 100,400,1600")
    sub.add_argument("--mu", type=_parse_floats, default=[-0.5, 0.0, 0.5],
                     help="offsets, e.g. --mu=-0.5,0,0.5 (a leading minus "
                          "needs the = form)")
    _shared_flags(sub, "out")
    sub.set_defaults(func=cmd_moivre)

    sub = add("verify", "run the verification suite")
    sub.add_argument("--level", choices=["quick", "full"], default="quick")
    _shared_flags(sub, "seed", "workers")
    sub.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand and return the exit status: 2 on bad input, from a
    flag or a config line, with the error on stderr and nothing on stdout."""
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
        if ns.config:
            # argv[0] is the subcommand: the top-level parser has no flags
            lines = [f"--{key}={value}" for key, value in load_config(ns.config).items()]
            ns = parser.parse_args(argv[:1] + lines + argv[1:])
        return ns.func(ns)
    except SystemExit as exc:  # argparse has printed usage and the error
        return exc.code
    except (PolydenseError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
