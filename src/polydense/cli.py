"""Command-line surface: seeded experiments, CSV emission, verification.

Every subcommand but verify is a generator that yields its CSV header and
then its rows: fixed columns, 12-significant-digit numeric fields and exact
rationals as "p/q" strings.  main resolves the worker count once, runs a
command on more than one worker inside one mc.worker_pool scope, and hands
the rows to one writer, which appends a wall_time_s column (the seconds
spent producing each row, informational only: strip it before comparing
outputs byte for byte) and writes only after the last row, so a command that
fails writes nothing.  Identical configuration and seed produce identical
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
from contextlib import nullcontext
from fractions import Fraction
from typing import Iterator

from .arrangements import (chamber_count, chamber_count_bruteforce, half_cube_vector,
                           harding_bound, moivre_cutoff, moivre_laplace_ratio, normal_cdf,
                           random_rational_config)
from .errors import BudgetExceeded, PolydenseError
from .estimators import (EXACT_BUDGET, PROV_CLOSED_FORM, PROV_EXHAUSTIVE, PROV_MONTE_CARLO,
                         TauSweepRow, alpha_exact, alpha_mc, alpha_via_chambers,
                         decompose_pi, density_threshold_sweep, pi_mc, tau_cell,
                         tau_threshold_sweep)
from .mc import Estimate, default_workers, exact_estimate, parse_workers, worker_pool
from .rng import sample_indices, stream

__all__ = ["main"]

DEFAULT_SEED = 20250809


def _fmt(x) -> str:
    if x is None:
        return ""
    return f"{float(x):.12g}"


def _est_fields(e: Estimate | None) -> list[str]:
    """estimate, stderr, ci_lo, ci_hi, exact_value, samples columns."""
    if e is None:
        return ["", "", "", "", "", ""]
    return [_fmt(e.value), _fmt(e.stderr), _fmt(e.ci95[0]), _fmt(e.ci95[1]),
            "" if e.exact_value is None else str(e.exact_value), str(e.samples)]


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
    values = [float(part) for part in _fields(text)]
    if not all(map(math.isfinite, values)):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return values


def _parse_positive_floats(text: str) -> list[float]:
    """_parse_floats, each value positive."""
    values = _parse_floats(text)
    if not all(x > 0 for x in values):
        raise argparse.ArgumentTypeError(f"must be positive, got {text!r}")
    return values


def _parse_nonnegative_floats(text: str) -> list[float]:
    """_parse_floats, each value nonnegative."""
    values = _parse_floats(text)
    if not all(x >= 0 for x in values):
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {text!r}")
    return values


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


def _positive(text: str) -> int:
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be positive, got {n}")
    return n


def _parse_positive_ints(text: str) -> list[int]:
    """_parse_ints, each value positive."""
    return [_positive(str(n)) for n in _parse_ints(text)]


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


def _write_csv(rows: Iterator[list[str]], path: str | None) -> None:
    """Write a command's header and rows, each row ending in the seconds spent
    producing it.  Every row is produced before anything is written, so a
    command that fails on any row leaves no output and no --out file."""
    table = [next(rows) + ["wall_time_s"]]
    start = time.perf_counter()
    for row in rows:
        now = time.perf_counter()
        table.append(row + [f"{now - start:.3f}"])
        start = now
    # stdout is looked up now, so a caller's redirect_stdout is honoured
    out = open(path, "w", newline="", encoding="utf-8") if path else nullcontext(sys.stdout)
    with out as fh:
        csv.writer(fh, lineterminator="\n").writerows(table)


_SHARED_FLAGS = {
    "seed": dict(type=int, default=DEFAULT_SEED, help="master seed (64-bit)"),
    "samples": dict(type=_positive, help="Monte-Carlo sample budget"),
    "workers": dict(type=_worker_count,
                    help="worker processes (default: POLYDENSE_WORKERS or 1)"),
    "out": dict(help="output CSV path (default: stdout)"),
    "exact-budget": dict(type=_nonnegative,
                         help="max enumeration size of an exhaustive cell "
                              f"(default: {EXACT_BUDGET})"),
    "config": dict(help="flat key=value file; each line is read as --key=value "
                        "ahead of the command line's flags"),
}


def _shared_flags(sub: argparse.ArgumentParser, *names: str) -> None:
    """Add the named shared flags, and --config, to a subcommand that reads them."""
    for name in names + ("config",):
        sub.add_argument(f"--{name}", **_SHARED_FLAGS[name])


def _check_default_m(ns: argparse.Namespace) -> None:
    """Without --m, every m of each k (about 2^k cells) runs: require --m above k = 16."""
    if ns.m is None and max(ns.k) > 16:
        raise ValueError(f"--m is needed for k > 16, got k={max(ns.k)}")


def cmd_density(ns: argparse.Namespace) -> Iterator[list[str]]:
    yield ["experiment", "d", "base", "n", "estimate", "stderr", "ci_lo", "ci_hi",
           "exact_value", "samples", "seed", "note"]
    for d in ns.d:
        for base in ns.base:
            row = density_threshold_sweep([d], [base], samples=ns.samples,
                                          seed=ns.seed, workers=ns.workers)[0]
            yield (["density", str(d), _fmt(base), "" if row.n is None else str(row.n)]
                   + _est_fields(row.estimate) + [str(ns.seed), row.note])


def cmd_tau(ns: argparse.Namespace) -> Iterator[list[str]]:
    yield ["experiment", "k", "m", "ratio", "provenance", "estimate", "stderr",
           "ci_lo", "ci_hi", "exact_value", "samples", "seed", "note"]
    if ns.ratio is not None:
        given = [flag for flag, value in (("--m", ns.m), ("--method", ns.method),
                                          ("--exact-budget", ns.exact_budget))
                 if value is not None]
        if given:
            raise ValueError("--ratio settles each cell at m = ceil(ratio * k) as "
                             f"--method mc does and takes no {', '.join(given)}")
        rows = (tau_threshold_sweep([k], [ratio], samples=ns.samples, seed=ns.seed,
                                    workers=ns.workers)[0]
                for k in ns.k for ratio in ns.ratio)
    else:
        _check_default_m(ns)
        exact_budget = EXACT_BUDGET if ns.exact_budget is None else ns.exact_budget
        rows = (TauSweepRow(k, None, m, *tau_cell(k, m, samples=ns.samples, seed=ns.seed,
                                                  exact_budget=exact_budget,
                                                  method=ns.method or "auto",
                                                  workers=ns.workers))
                for k in ns.k for m in ns.m or range((1 << k) - 1))
    for row in rows:
        yield (["tau", str(row.k), "" if row.m is None else str(row.m), _fmt(row.ratio),
                row.provenance] + _est_fields(row.estimate) + [str(ns.seed), row.note])


def cmd_alpha(ns: argparse.Namespace) -> Iterator[list[str]]:
    yield ["experiment", "k", "m", "method", "estimate", "stderr", "ci_lo", "ci_hi",
           "exact_value", "samples", "seed"]
    if ns.method == "chambers" and ns.exact_budget is not None:
        raise ValueError("--method chambers takes no --exact-budget")
    _check_default_m(ns)
    exact_budget = EXACT_BUDGET if ns.exact_budget is None else ns.exact_budget
    for k in ns.k:
        for m in ns.m or range(1 << (k - 1)):
            estv = None
            if ns.method == "chambers":
                estv, how = alpha_via_chambers(k, m, ns.samples, ns.seed,
                                               workers=ns.workers), "chambers"
            elif ns.method in ("auto", "exact"):
                try:
                    estv, how = alpha_exact(k, m, max_subsets=exact_budget), PROV_EXHAUSTIVE
                except BudgetExceeded as exc:
                    if m <= 2:  # alpha(k, m) = 1: see PROV_CLOSED_FORM
                        estv, how = exact_estimate(Fraction(1)), PROV_CLOSED_FORM
                    elif ns.method == "exact":
                        raise BudgetExceeded(
                            f"alpha({k},{m}) enumeration exceeds exact budget",
                            required=exc.required) from None
            if estv is None:
                estv, how = alpha_mc(k, m, ns.samples, ns.seed,
                                     workers=ns.workers), PROV_MONTE_CARLO
            yield ["alpha", str(k), str(m), how] + _est_fields(estv) + [str(ns.seed)]


def cmd_pi(ns: argparse.Namespace) -> Iterator[list[str]]:
    d, n, seed = ns.d, ns.n, ns.seed
    yield ["experiment", "d", "n", "k", "method", "estimate", "stderr", "ci_lo",
           "ci_hi", "exact_value", "samples", "seed"]
    if ns.method in ("mc", "both"):
        estv = pi_mc(d, n, ns.samples, seed, workers=ns.workers)
        yield ["pi", str(d), str(n), "", "mc"] + _est_fields(estv) + [str(seed)]
    if ns.method in ("decomp", "both"):
        dec = decompose_pi(d, n, tau_samples=ns.tau_samples, seed=seed,
                           workers=ns.workers)
        yield ["pi", str(d), str(n), "", "decomp"] + _est_fields(dec.combined) + [str(seed)]
        for k in sorted(dec.pi_k):
            yield (["pi_k", str(d), str(n), str(k), "decomp"]
                   + _est_fields(dec.pi_k[k]) + [str(seed)])


def cmd_chambers(ns: argparse.Namespace) -> Iterator[list[str]]:
    r, m, source, seed = ns.r, ns.m, ns.source, ns.seed
    yield ["experiment", "config_id", "source", "r", "m", "chambers", "method",
           "harding_bound", "bound_ok", "bruteforce", "seed"]
    bound = harding_bound(r, m)
    for i in range(ns.configs):
        rng = stream(seed, f"chambers:r={r}:m={m}:src={source}", i)
        if source == "halfcube":
            size = (1 << r) - 1
            if m > size:
                raise ValueError(f"m={m} exceeds the {size} half-cube vectors")
            vecs = [half_cube_vector(r, j) for j in sample_indices(rng, size, m)]
        else:
            vecs = random_rational_config(rng, r, m)
        cc = chamber_count(vecs)
        bf = str(chamber_count_bruteforce(vecs).count) if ns.crosscheck else ""
        yield ["chambers", str(i), source, str(r), str(m), str(cc.count), cc.method,
               str(bound), str(cc.count <= bound).lower(), bf, str(seed)]


def cmd_moivre(ns: argparse.Namespace) -> Iterator[list[str]]:
    yield ["experiment", "q", "mu", "cutoff", "ratio", "limit_value", "abs_dev"]
    for q in ns.q:
        for mu in ns.mu:
            cutoff = moivre_cutoff(q, mu)
            ratio = moivre_laplace_ratio(q, mu)
            limit = normal_cdf(2 * mu)
            yield ["moivre", str(q), _fmt(mu), str(cutoff), _fmt(ratio), _fmt(limit),
                   _fmt(abs(ratio - limit))]


def build_parser() -> argparse.ArgumentParser:
    # no prefix matching: a config key or flag must be spelt out in full
    parser = argparse.ArgumentParser(
        prog="polydense", allow_abbrev=False,
        description="Graph-density experiments on random ±1-polytopes")
    subs = parser.add_subparsers(dest="command", required=True)

    def add(name: str, summary: str) -> argparse.ArgumentParser:
        return subs.add_parser(name, help=summary, allow_abbrev=False)

    sub = add("density", "expected graph density over a (d, base) grid")
    sub.add_argument("--d", type=_parse_positive_ints, default=[10, 12, 14],
                     help="dimensions, e.g. 10,12,14")
    sub.add_argument("--base", type=_parse_positive_floats, default=[1.2, 1.7],
                     help="growth bases, e.g. 1.2,1.7 (n = round(base^d))")
    _shared_flags(sub, "seed", "samples", "workers", "out")
    sub.set_defaults(func=cmd_density, samples=1000)

    # --m, --method and --exact-budget default to None so that cmd_tau can
    # tell whether they were given with --ratio
    sub = add("tau", "long-edge probability tables and sweeps")
    sub.add_argument("--k", type=_parse_positive_ints, default=[3],
                     help="face dimensions, e.g. 3 or 6,8,10,12")
    sub.add_argument("--m", type=_parse_ints,
                     help="obstruction counts, e.g. 0:6 (default: all, for k <= 16)")
    sub.add_argument("--ratio", type=_parse_nonnegative_floats,
                     help="m = ceil(ratio*k) sweep, e.g. 1.5,2,2.5,3")
    sub.add_argument("--method", choices=["auto", "exact", "mc", "via-alpha"],
                     help="default: auto")
    _shared_flags(sub, "exact-budget", "seed", "samples", "workers", "out")
    sub.set_defaults(func=cmd_tau, samples=20_000)

    sub = add("alpha", "antipodal-free conditional probability")
    sub.add_argument("--k", type=_parse_positive_ints, default=[3],
                     help="face dimensions")
    sub.add_argument("--m", type=_parse_ints,
                     help="class counts, e.g. 0:7 (default: all, for k <= 16)")
    sub.add_argument("--method", choices=["auto", "exact", "mc", "chambers"],
                     default="auto")
    _shared_flags(sub, "exact-budget", "seed", "samples", "workers", "out")
    sub.set_defaults(func=cmd_alpha, samples=20_000)

    sub = add("pi", "edge probability pi(d, n)")
    sub.add_argument("--d", type=_positive, default=8)
    sub.add_argument("--n", type=int, default=32)
    sub.add_argument("--method", choices=["mc", "decomp", "both"], default="both")
    sub.add_argument("--tau-samples", type=_positive, default=3000,
                     help="Monte-Carlo budget per tau table cell")
    _shared_flags(sub, "seed", "samples", "workers", "out")
    sub.set_defaults(func=cmd_pi, samples=10_000)

    sub = add("chambers", "chamber counts of sampled arrangements")
    sub.add_argument("--r", type=_positive, default=3)
    sub.add_argument("--m", type=_positive, default=8)
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
    sub.add_argument("--q", type=_parse_positive_ints, default=[100, 400, 1600],
                     help="tail sizes, e.g. 100,400,1600")
    sub.add_argument("--mu", type=_parse_floats, default=[-0.5, 0.0, 0.5],
                     help="offsets, e.g. --mu=-0.5,0,0.5 (a leading minus "
                          "needs the = form)")
    _shared_flags(sub, "out")
    sub.set_defaults(func=cmd_moivre)

    sub = add("verify", "run the verification suite")
    sub.add_argument("--level", choices=["quick", "full"], default="quick")
    _shared_flags(sub, "seed", "workers")

    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand and return the exit status: 2 on bad input, from a
    flag or a config line, with the error on stderr and nothing on stdout.
    A command run on more than one worker runs inside one worker_pool
    scope."""
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
        if ns.config:
            # argv[0] is the subcommand: the top-level parser has no flags
            lines = [f"--{key}={value}" for key, value in load_config(ns.config).items()]
            ns = parser.parse_args(argv[:1] + lines + argv[1:])
        if "workers" in ns:
            ns.workers = ns.workers or default_workers()
        # one pool serves every parallel_map of the command and ends with it
        with worker_pool(getattr(ns, "workers", 1)):
            if ns.command == "verify":
                from . import verify  # only this command needs it

                return verify.run(level=ns.level, workers=ns.workers, seed=ns.seed)
            _write_csv(ns.func(ns), ns.out)
        return 0
    except SystemExit as exc:  # argparse has printed usage and the error
        return exc.code
    except (PolydenseError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
