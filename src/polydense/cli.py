"""Command-line surface: seeded experiments, CSV emission, verification.

Every subcommand writes CSV with a fixed header, 12-significant-digit
numeric fields, exact rationals duplicated as "p/q" strings, and a trailing
wall-time column that is informational only (strip it before comparing
outputs byte for byte).  Identical configuration and seed produce identical
bytes for any worker count.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
import time
from fractions import Fraction

from . import verify as verify_mod
from .arrangements import (build_config_plus, chamber_count,
                           chamber_count_bruteforce, harding_bound,
                           moivre_laplace_ratio, normal_cdf)
from .errors import BudgetExceeded, PolydenseError
from .estimators import (alpha_exact, alpha_mc, alpha_via_chambers, decompose_pi,
                         density_threshold_sweep, pi_mc, tau_cell,
                         tau_threshold_sweep)
from .mc import Estimate, default_workers, parse_workers
from .rng import sample_indices, stream

__all__ = ["main"]

DEFAULT_SEED = 20250809

# --method choices per subcommand; argparse checks the flag, _method the
# value a config file supplies.
_METHODS = {
    "tau": ("auto", "exact", "mc", "via-alpha"),
    "alpha": ("auto", "exact", "mc", "chambers"),
    "pi": ("mc", "decomp", "both"),
}


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


def _fields(text: str) -> list[str]:
    """The nonempty comma-separated fields of text; ValueError if none."""
    fields = [part.strip() for part in str(text).split(",") if part.strip()]
    if not fields:
        raise ValueError(f"no values in {text!r}")
    return fields


def _parse_ints(text: str) -> list[int]:
    """Comma list and inclusive a:b ranges: "3,5,7" or "0:6" or "1,4:6"."""
    out: list[int] = []
    for part in _fields(text):
        if ":" in part:
            lo, hi = (int(x) for x in part.split(":", 1))
            if lo > hi:
                raise ValueError(f"range {part!r} is descending")
            out.extend(range(lo, hi + 1))
        else:
            out.append(int(part))
    return out


def _parse_floats(text: str) -> list[float]:
    return [float(part) for part in _fields(text)]


def _parse_bool(text: str) -> bool:
    value = str(text).lower()
    if value not in ("1", "true", "yes", "0", "false", "no"):
        raise ValueError(f"expected 1/true/yes or 0/false/no, got {text!r}")
    return value in ("1", "true", "yes")


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


class _Params:
    """Flag/config/default resolution: explicit flags win, then the config
    file, then hard defaults."""

    def __init__(self, ns: argparse.Namespace):
        self.ns = ns
        self.config = load_config(ns.config) if getattr(ns, "config", None) else {}

    def get(self, key: str, parse, default):
        cli_val = getattr(self.ns, key.replace("-", "_"), None)
        if cli_val is not None:
            return parse(cli_val)
        if key in self.config:
            return parse(self.config[key])
        return default


def _method(p: _Params, command: str, default: str) -> str:
    """--method, else the config file, else the default; one of _METHODS[command]."""
    method = p.get("method", str, default)
    if method not in _METHODS[command]:
        raise ValueError(f"method must be one of {', '.join(_METHODS[command])}, "
                         f"got {method!r}")
    return method


def _workers(p: _Params) -> int:
    """--workers, else the config file, else POLYDENSE_WORKERS, else 1."""
    workers = p.get("workers", parse_workers, None)
    return default_workers() if workers is None else workers


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
    "seed": dict(type=int, help="master seed (64-bit)"),
    "samples": dict(type=int, help="Monte-Carlo sample budget"),
    "workers": dict(type=int,
                    help="worker processes (default: POLYDENSE_WORKERS or 1)"),
    "out": dict(help="output CSV path (default: stdout)"),
    "config": dict(help="flat key=value config file"),
}


def _shared_flags(sub: argparse.ArgumentParser, *names: str) -> None:
    """Add the named shared flags, and --config, to a subcommand that reads them."""
    for name in names + ("config",):
        sub.add_argument(f"--{name}", **_SHARED_FLAGS[name])


def cmd_density(ns: argparse.Namespace) -> int:
    p = _Params(ns)
    d_list = p.get("d", _parse_ints, [10, 12, 14])
    bases = p.get("base", _parse_floats, [1.2, 1.7])
    samples = p.get("samples", int, 1000)
    seed = p.get("seed", int, DEFAULT_SEED)
    workers = _workers(p)
    header = ["experiment", "d", "base", "n", "estimate", "stderr", "ci_lo",
              "ci_hi", "exact_value", "samples", "seed", "note", "wall_time_s"]
    rows = []
    for d in d_list:
        for base in bases:
            t0 = time.time()
            row = density_threshold_sweep([d], [base], samples=samples, seed=seed,
                                          workers=workers)[0]
            rows.append(["density", str(d), _fmt(base), str(row.n)]
                        + _est_fields(row.estimate)
                        + [str(seed), row.note, f"{time.time() - t0:.3f}"])
    _emit(p.get("out", str, None), header, rows)
    return 0


def cmd_tau(ns: argparse.Namespace) -> int:
    p = _Params(ns)
    k_list = p.get("k", _parse_ints, [3])
    ratios = p.get("ratio", _parse_floats, None)
    m_list = p.get("m", _parse_ints, None)
    samples = p.get("samples", int, 20_000)
    seed = p.get("seed", int, DEFAULT_SEED)
    workers = _workers(p)
    method = _method(p, "tau", "auto")
    exact_budget = p.get("exact-budget", int, 20_000)
    if ratios is not None:
        given = [f"--{key}" for key in ("m", "method", "exact-budget")
                 if p.get(key, str, None) is not None]
        if given:
            raise ValueError("--ratio runs Monte Carlo at m = ceil(ratio * k) "
                             f"and takes no {', '.join(given)}")
    header = ["experiment", "k", "m", "ratio", "provenance", "estimate", "stderr",
              "ci_lo", "ci_hi", "exact_value", "samples", "seed", "note",
              "wall_time_s"]
    rows = []
    for k in k_list:
        if ratios is not None:
            for ratio in ratios:
                t0 = time.time()
                row = tau_threshold_sweep([k], [ratio], samples=samples, seed=seed,
                                          workers=workers)[0]
                prov = "monte-carlo" if row.estimate is not None else ""
                rows.append(["tau", str(k), str(row.m), _fmt(ratio), prov]
                            + _est_fields(row.estimate)
                            + [str(seed), row.note, f"{time.time() - t0:.3f}"])
        else:
            ms = m_list if m_list is not None else list(range(0, (1 << k) - 1))
            for m in ms:
                t0 = time.time()
                estv, prov = tau_cell(k, m, samples=samples, seed=seed,
                                      exact_budget=exact_budget, method=method,
                                      workers=workers)
                rows.append(["tau", str(k), str(m), "", prov] + _est_fields(estv)
                            + [str(seed), "", f"{time.time() - t0:.3f}"])
    _emit(p.get("out", str, None), header, rows)
    return 0


def cmd_alpha(ns: argparse.Namespace) -> int:
    p = _Params(ns)
    k_list = p.get("k", _parse_ints, [3])
    m_list = p.get("m", _parse_ints, None)
    samples = p.get("samples", int, 20_000)
    seed = p.get("seed", int, DEFAULT_SEED)
    workers = _workers(p)
    method = _method(p, "alpha", "auto")
    exact_budget = p.get("exact-budget", int, 20_000)
    if method == "chambers" and p.get("exact-budget", str, None) is not None:
        raise ValueError("--method chambers takes no --exact-budget")
    header = ["experiment", "k", "m", "method", "estimate", "stderr", "ci_lo",
              "ci_hi", "exact_value", "samples", "seed", "wall_time_s"]
    rows = []
    for k in k_list:
        classes = (1 << (k - 1)) - 1
        ms = m_list if m_list is not None else list(range(0, classes + 1))
        for m in ms:
            t0 = time.time()
            size = math.comb(classes, m) * (1 << m)
            if method == "chambers":
                estv, how = alpha_via_chambers(k, m, samples, seed,
                                               workers=workers), "chambers"
            elif method in ("auto", "exact") and size <= exact_budget:
                estv, how = alpha_exact(k, m), "exhaustive"
            elif method == "exact":
                raise BudgetExceeded(
                    f"alpha({k},{m}) enumeration exceeds exact budget",
                    required=size)
            else:
                estv, how = alpha_mc(k, m, samples, seed, workers=workers), \
                    "monte-carlo"
            rows.append(["alpha", str(k), str(m), how] + _est_fields(estv)
                        + [str(seed), f"{time.time() - t0:.3f}"])
    _emit(p.get("out", str, None), header, rows)
    return 0


def cmd_pi(ns: argparse.Namespace) -> int:
    p = _Params(ns)
    d = p.get("d", int, 8)
    n = p.get("n", int, 32)
    samples = p.get("samples", int, 10_000)
    tau_samples = p.get("tau-samples", int, 3000)
    seed = p.get("seed", int, DEFAULT_SEED)
    workers = _workers(p)
    method = _method(p, "pi", "both")
    header = ["experiment", "d", "n", "k", "method", "estimate", "stderr",
              "ci_lo", "ci_hi", "exact_value", "samples", "seed", "wall_time_s"]
    rows = []
    if method in ("mc", "both"):
        t0 = time.time()
        estv = pi_mc(d, n, samples, seed, workers=workers)
        rows.append(["pi", str(d), str(n), "", "mc"] + _est_fields(estv)
                    + [str(seed), f"{time.time() - t0:.3f}"])
    if method in ("decomp", "both"):
        t0 = time.time()
        dec = decompose_pi(d, n, tau_samples=tau_samples, seed=seed,
                           workers=workers)
        wall = f"{time.time() - t0:.3f}"
        rows.append(["pi", str(d), str(n), "", "decomp"]
                    + _est_fields(dec.combined) + [str(seed), wall])
        for k in sorted(dec.pi_k):
            rows.append(["pi_k", str(d), str(n), str(k), "decomp"]
                        + _est_fields(dec.pi_k[k]) + [str(seed), wall])
    _emit(p.get("out", str, None), header, rows)
    return 0


def cmd_chambers(ns: argparse.Namespace) -> int:
    p = _Params(ns)
    r = p.get("r", int, 3)
    m = p.get("m", int, 8)
    n_configs = p.get("configs", int, 100)
    if n_configs < 0:
        raise ValueError(f"configs must be nonnegative, got {n_configs}")
    source = p.get("source", str, "random")
    seed = p.get("seed", int, DEFAULT_SEED)
    crosscheck = p.get("crosscheck", _parse_bool, False)
    header = ["experiment", "config_id", "source", "r", "m", "chambers", "method",
              "harding_bound", "bound_ok", "bruteforce", "seed", "wall_time_s"]
    if source not in ("random", "halfcube"):
        raise ValueError("source must be 'random' or 'halfcube'")
    rows = []
    bound = harding_bound(r, m)
    for i in range(n_configs):
        rng = stream(seed, f"chambers:r={r}:m={m}:src={source}", i)
        if source == "halfcube":
            cfg = build_config_plus(r)
            if m > len(cfg):
                raise ValueError(f"m={m} exceeds the {len(cfg)} half-cube vectors")
            vecs = [cfg.vectors[j] for j in sample_indices(rng, len(cfg), m)]
        else:
            vecs = []
            while len(vecs) < m:
                v = tuple(Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 10)))
                          for _ in range(r))
                if any(x != 0 for x in v):
                    vecs.append(v)
        t0 = time.time()
        cc = chamber_count(vecs)
        bf = str(chamber_count_bruteforce(vecs).count) if crosscheck else ""
        rows.append(["chambers", str(i), source, str(r), str(m), str(cc.count),
                     cc.method, str(bound), str(cc.count <= bound).lower(), bf,
                     str(seed), f"{time.time() - t0:.3f}"])
    _emit(p.get("out", str, None), header, rows)
    return 0


def cmd_moivre(ns: argparse.Namespace) -> int:
    p = _Params(ns)
    q_list = p.get("q", _parse_ints, [100, 400, 1600])
    mu_list = p.get("mu", _parse_floats, [-0.5, 0.0, 0.5])
    header = ["experiment", "q", "mu", "cutoff", "ratio", "limit_value",
              "abs_dev", "wall_time_s"]
    rows = []
    for q in q_list:
        for mu in mu_list:
            t0 = time.time()
            ratio = moivre_laplace_ratio(q, mu)
            limit = normal_cdf(2 * mu)
            cutoff = math.floor(q / 2 + mu * math.sqrt(q))
            rows.append(["moivre", str(q), _fmt(mu), str(cutoff), _fmt(ratio),
                         _fmt(limit), _fmt(abs(ratio - limit)),
                         f"{time.time() - t0:.3f}"])
    _emit(p.get("out", str, None), header, rows)
    return 0


def cmd_verify(ns: argparse.Namespace) -> int:
    p = _Params(ns)
    level = p.get("level", str, "quick")
    seed = p.get("seed", int, DEFAULT_SEED)
    workers = _workers(p)
    return verify_mod.run(level=level, workers=workers, seed=seed)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polydense",
        description="Graph-density experiments on random ±1-polytopes")
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("density", help="expected graph density over a (d, base) grid")
    sub.add_argument("--d", help="dimensions, e.g. 10,12,14")
    sub.add_argument("--base", help="growth bases, e.g. 1.2,1.7 (n = round(base^d))")
    _shared_flags(sub, "seed", "samples", "workers", "out")
    sub.set_defaults(func=cmd_density)

    sub = subs.add_parser("tau", help="long-edge probability tables and sweeps")
    sub.add_argument("--k", help="face dimensions, e.g. 3 or 6,8,10,12")
    sub.add_argument("--m", help="obstruction counts, e.g. 0:6 (default: all)")
    sub.add_argument("--ratio", help="m = ceil(ratio*k) sweep, e.g. 1.5,2,2.5,3")
    sub.add_argument("--method", choices=_METHODS["tau"])
    sub.add_argument("--exact-budget", type=int,
                     help="max subsets for exhaustive cells")
    _shared_flags(sub, "seed", "samples", "workers", "out")
    sub.set_defaults(func=cmd_tau)

    sub = subs.add_parser("alpha", help="antipodal-free conditional probability")
    sub.add_argument("--k", help="face dimensions")
    sub.add_argument("--m", help="class counts, e.g. 0:7")
    sub.add_argument("--method", choices=_METHODS["alpha"])
    sub.add_argument("--exact-budget", type=int)
    _shared_flags(sub, "seed", "samples", "workers", "out")
    sub.set_defaults(func=cmd_alpha)

    sub = subs.add_parser("pi", help="edge probability pi(d, n)")
    sub.add_argument("--d", type=int)
    sub.add_argument("--n", type=int)
    sub.add_argument("--method", choices=_METHODS["pi"])
    sub.add_argument("--tau-samples", type=int,
                     help="Monte-Carlo budget per tau table cell")
    _shared_flags(sub, "seed", "samples", "workers", "out")
    sub.set_defaults(func=cmd_pi)

    sub = subs.add_parser("chambers", help="chamber counts of sampled arrangements")
    sub.add_argument("--r", type=int)
    sub.add_argument("--m", type=int)
    sub.add_argument("--configs", type=int, help="number of sampled configurations")
    sub.add_argument("--source", choices=["random", "halfcube"])
    sub.add_argument("--crosscheck", action="store_const", const="true",
                     help="also run the brute-force count per config")
    _shared_flags(sub, "seed", "out")
    sub.set_defaults(func=cmd_chambers)

    sub = subs.add_parser("moivre", help="binomial tail ratios vs the normal limit")
    sub.add_argument("--q", help="tail sizes, e.g. 100,400,1600")
    sub.add_argument("--mu", help="offsets, e.g. -0.5,0,0.5")
    _shared_flags(sub, "out")
    sub.set_defaults(func=cmd_moivre)

    sub = subs.add_parser("verify", help="run the verification suite")
    sub.add_argument("--level", choices=["quick", "full"])
    _shared_flags(sub, "seed", "workers")
    sub.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    ns = parser.parse_args(argv)
    try:
        return ns.func(ns)
    except (PolydenseError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
