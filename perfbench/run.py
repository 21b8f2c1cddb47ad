"""End-to-end and per-layer benchmark of polydense through its CLI.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each workload is one ``polydense`` CLI invocation with a single client
process, run in a fresh interpreter because a CLI user pays cold caches on
every run.  ``--trace 0`` repeats the invocation while the next repetition
is predicted to end within ``--seconds`` (at least once) and reports the
end-to-end metrics as medians over repetitions, each time scaled by the
host's speed next to it (see calibrate.py).  ``--trace 1`` runs the
invocation once untraced and once with spans recorded around every layer
boundary (see spans.py), and reports the per-layer metrics.  Every CSV row
is checked byte for byte, with the informational wall_time_s column
stripped, against the reference in perfbench/reference/.

The last line of standard output is the result object; the line before it
holds the environment.  The exit code is nonzero if any output row differs
from its reference or an invocation fails.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import calibrate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference"

DEFAULT_SEED = 20250809  # the CLI's own default
# --seed n runs the CLI at REFERENCE_SEEDS[n % 10]; each has reference CSVs
# made by make_reference.py, so every run's output can be checked exactly.
REFERENCE_SEEDS = [DEFAULT_SEED + i for i in range(10)]

# Why each workload: tau-lp is kernel-bound on segment_hull_intersect and
# bypasses the sampler and the chamber search; density is the headline
# experiment, dominated by the vertex sampler and the obstruction filter;
# chambers drives strict_separation and bypasses segment_hull_intersect;
# decompose is the only one that starts process pools and runs the edge
# cache cold at scale.
WORKLOADS = {
    "tau-lp": (["tau", "--k", "12", "--m", "18,36", "--samples", "100"], 1),
    "density": (["density", "--d", "10,12,14", "--base", "1.2,1.7",
                 "--samples", "700"], 1),
    "chambers": (["alpha", "--k", "5", "--m", "8", "--method", "chambers",
                  "--samples", "10"], 1),
    "decompose": (["pi", "--d", "8", "--n", "32", "--method", "both",
                   "--samples", "600", "--tau-samples", "75"], 2),
}

SETUP_PER_REP = 1
SETUP_MIN = 5
PROC_TIMEOUT_S = 160
LAYERS = ("exactlp", "graph", "cube", "rng", "arrangements", "estimators", "cli")
LP_PRIMITIVES = ("segment_hull_intersect", "strict_separation", "origin_in_conv")


class BenchError(Exception):
    """The benchmark cannot run here (missing source or reference)."""


def cli_seed(seed: int) -> int:
    return REFERENCE_SEEDS[seed % len(REFERENCE_SEEDS)]


def cli_args(workload: str, seed: int, workers: int | None = None) -> list[str]:
    args, default_workers = WORKLOADS[workload]
    return args + ["--workers", str(workers or default_workers),
                   "--seed", str(cli_seed(seed))]


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items()
           if k not in ("POLYDENSE_WORKERS", "POLYDENSE_LP_CHECK")}
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def run_proc(cmd: list[str]) -> tuple[float, int, str, str]:
    """Run cmd to completion in its own session; (wall_s, rc, stdout, stderr).

    On timeout the whole session, pool workers included, is killed.
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=PROC_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, err = proc.communicate()
        err += f"\nkilled after {PROC_TIMEOUT_S} s"
    return time.perf_counter() - t0, proc.returncode, out, err


# ---------------------------------------------------------------------------
# output check


def strip_wall(csv_text: str) -> list[str]:
    """CSV rows, header first, re-serialized without the wall_time_s column."""
    rows = list(csv.reader(io.StringIO(csv_text)))
    if not rows:
        return []
    keep = [i for i, col in enumerate(rows[0]) if col != "wall_time_s"]
    out = []
    for row in rows:
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerow([row[i] for i in keep if i < len(row)])
        out.append(buf.getvalue())
    return out


def reference_path(workload: str, seed: int) -> Path:
    return REFERENCE / workload / f"{cli_seed(seed)}.csv"


def check_rows(csv_text: str, reference: str) -> tuple[int, int]:
    """(attempted, failed) over the reference's data rows.  A row fails when
    it differs from the reference byte for byte, is missing, or is extra; a
    wrong header fails every row."""
    want = reference.splitlines(keepends=True)
    got = strip_wall(csv_text)
    attempted = max(len(want), len(got)) - 1
    if not got or got[0] != want[0]:
        return attempted, attempted
    failed = sum(1 for i in range(1, attempted + 1)
                 if i >= len(want) or i >= len(got) or want[i] != got[i])
    return attempted, failed


def load_reference(workload: str, seed: int) -> str:
    path = reference_path(workload, seed)
    if not path.is_file():
        raise BenchError(f"no reference output {path.relative_to(ROOT)}")
    return path.read_text(encoding="utf-8")


def sample_count(csv_text: str) -> int:
    """Sum of the samples column, leaving out the combined decomposition
    row, whose count is the sum of the pi_k rows below it."""
    total = 0
    for row in csv.DictReader(io.StringIO(csv_text)):
        if row.get("method") == "decomp" and row.get("experiment") == "pi":
            continue
        total += int(row["samples"] or 0)
    return total


# ---------------------------------------------------------------------------
# end-to-end run (tracing off)


def import_cpu(module: str) -> float:
    """CPU time (user + system) a fresh interpreter spends importing module.

    CPU time rather than wall time, because on a shared host the wall time
    of a sub-second start-up follows the scheduling of other processes."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    _, rc, _, err = run_proc([sys.executable, "-c", f"import {module}"])
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    if rc != 0:
        raise BenchError(f"importing {module} failed:\n{err}")
    return (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)


def setup_probe() -> float:
    """Import time of the CLI, scaled by a numpy import right after it."""
    cli = import_cpu("polydense.cli")
    return cli * calibrate.IMPORT_REFERENCE_S / import_cpu("numpy")


def end_to_end(workload: str, seed: int, seconds: int) -> dict:
    """One checked warm-up invocation, then cycles of SETUP_PER_REP set-up
    probes and one timed invocation while the next cycle is predicted to
    end within `seconds`, then probe-only cycles up to SETUP_MIN probes.
    Timed invocation i runs at seed index seed + i, so that every run
    spreads over the reference seeds and no single seed's inputs set its
    time.  A calibration pass runs before the first cycle and after each
    one, and the wall time of a cycle's invocation is scaled by REFERENCE_S
    over the mean of the two passes around it (see calibrate.py)."""
    for index in range(seed, seed + len(REFERENCE_SEEDS)):
        load_reference(workload, index)  # fail early if one is missing
    workers = WORKLOADS[workload][1]
    attempted = failed = 0
    calib, setup, walls, rates, raw_walls = [], [], [], [], []

    def invoke(index: int) -> tuple[float, int] | None:
        """(wall_s, samples) of one checked invocation; None if it failed."""
        nonlocal attempted, failed
        wall, rc, out, err = run_proc([sys.executable, "-m", "polydense.cli",
                                       *cli_args(workload, index)])
        a, f = check_rows(out if rc == 0 else "", load_reference(workload, index))
        attempted += a
        failed += f
        if rc != 0:
            print(f"{workload}: CLI exited {rc}\n{err}", file=sys.stderr)
            return None
        return wall, sample_count(out)

    def cycle(timed: bool) -> bool:
        probes = [setup_probe() for _ in range(SETUP_PER_REP)]
        rep = invoke(seed + len(walls)) if timed else None
        calib.append(calibrate.measure(workers))
        setup.extend(probes)
        if rep is not None:
            raw_walls.append(rep[0])
            walls.append(rep[0] * calibrate.REFERENCE_S / ((calib[-2] + calib[-1]) / 2))
            rates.append(rep[1] / walls[-1])
        return rep is not None or not timed

    start = time.perf_counter()
    ok = invoke(seed) is not None
    calib.append(calibrate.measure(workers))
    cycles_start = time.perf_counter()
    while ok:
        ok = cycle(timed=True)
        now = time.perf_counter()
        if not ok or now - start + (now - cycles_start) / len(walls) > seconds:
            break
    while ok and len(setup) < SETUP_MIN:
        cycle(timed=False)
    # the largest single process of any invocation (pool workers are
    # separate processes and are not added up)
    peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    print(f"{workload}: {len(walls)} repetitions, raw wall_s "
          f"{[round(w, 3) for w in raw_walls]}, calibration wall_s "
          f"{[round(c, 3) for c in calib]}", file=sys.stderr)
    metrics = {}
    if ok:
        metrics = {"norm_samples_per_s": statistics.median(rates),
                   "norm_wall_s": statistics.median(walls),
                   "setup_s": statistics.median(setup),
                   "peak_rss_mb": peak_kb / 1024}
    return {"attempted": attempted, "failed": failed, "metrics": metrics}


# ---------------------------------------------------------------------------
# traced run


def run_child(workload: str, seed: int, workers: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "child.py"), "--trace", str(trace), "--",
           *cli_args(workload, seed, workers)]
    _, rc, out, err = run_proc(cmd)
    if rc != 0:
        print(f"{workload}: traced child exited {rc}\n{err}", file=sys.stderr)
        return {"rc": rc, "csv": ""}
    report = json.loads(out)
    if "spans" in report:
        names = report.pop("names")
        report["spans"] = [(names[s[0]], s[1], s[2], s[3], s[4])
                           for s in report["spans"]]
    return report


def layer_metrics(summary: dict, cache: list[int], pool_ms: float,
                  overhead: float, efficiency: float) -> dict:
    by_name = summary["by_name"]

    def get(name, key):
        return by_name.get(name, {}).get(key, 0)

    def ratio(a, b):
        return a / b if b else 0.0

    m = {f"{layer}.self_s": summary["layer_self_s"].get(layer, 0.0) for layer in LAYERS}
    m["exactlp.calls"] = summary["layer_calls"].get("exactlp", 0)
    for prim in LP_PRIMITIVES:
        name = f"exactlp.{prim}"
        m[f"{name}.ms_per_call"] = ratio(get(name, "total_s") * 1e3, get(name, "calls"))
        m[f"{name}.feasible_ratio"] = ratio(get(name, "value"), get(name, "calls"))
    m["exactlp.origin_in_conv.calls"] = get("exactlp.origin_in_conv", "calls")
    m["graph.calls"] = summary["layer_calls"].get("graph", 0)
    m["graph.lp_ratio"] = ratio(get("exactlp.segment_hull_intersect", "calls"),
                                summary["graph_top_calls"])
    m["graph.cache_hit_ratio"] = ratio(cache[0], cache[0] + cache[1])
    m["cube.us_per_vertex"] = ratio(m["cube.self_s"] * 1e6,
                                    get("cube.sample_vertex_bits", "value"))
    m["rng.calls"] = summary["layer_calls"].get("rng", 0)
    m["arrangements.lp_per_count"] = ratio(summary["lp_under_arrangements"],
                                           get("arrangements.chamber_count", "calls"))
    m["estimators.exhaustive_s"] = get("estimators.tau_exact", "total_s")
    m["estimators.mc_s"] = get("estimators.tau_mc", "total_s")
    m["mc.parallel_map.calls"] = get("mc.parallel_map", "calls")
    m["mc.tasks"] = get("mc.parallel_map", "value")
    m["mc.pool_start_ms"] = pool_ms
    m["mc.efficiency_2w"] = efficiency
    m["trace.overhead_ratio"] = overhead
    return m


def traced(workload: str, seed: int) -> dict:
    """Per-layer metrics.  Spans recorded in forked pool workers are lost, so
    a workload that runs a pool is traced twice: at workers=1 for the layer
    times and at its own worker count for the parallel_map wall time."""
    from spans import summarize

    reference = load_reference(workload, seed)
    workers = WORKLOADS[workload][1]
    runs = {"untraced": run_child(workload, seed, workers, 0),
            "traced": run_child(workload, seed, workers, 1)}
    if workers > 1:
        runs["traced_w1"] = run_child(workload, seed, 1, 1)
    attempted = failed = 0
    for run in runs.values():
        a, f = check_rows(run["csv"] if run["rc"] == 0 else "", reference)
        attempted += a
        failed += f
    if any(run["rc"] != 0 for run in runs.values()):
        return {"attempted": attempted, "failed": failed, "metrics": {}}
    layers = runs.get("traced_w1", runs["traced"])
    summary = summarize(layers["spans"])
    overhead = runs["traced"]["main_s"] / runs["untraced"]["main_s"]
    efficiency = 0.0
    if workers > 1:
        pool_s = summarize(runs["traced"]["spans"])["pool_s"]
        efficiency = summary["task_s"] / (workers * pool_s)
    metrics = layer_metrics(summary, layers["cache"], runs["traced"]["pool_start_ms"],
                            overhead, efficiency)
    total = summary["self_total_s"]
    print(f"{workload}: traced cli.main {layers['main_s']:.3f} s, sum of self "
          f"times {total:.3f} s, untraced {runs['untraced']['main_s']:.3f} s, "
          f"edge cache hits/misses {layers['cache']}", file=sys.stderr)
    for layer in LAYERS:
        share = summary["layer_self_s"].get(layer, 0.0) / total
        print(f"  {layer:<13}{share:7.1%}", file=sys.stderr)
    return {"attempted": attempted, "failed": failed, "metrics": metrics}


# ---------------------------------------------------------------------------


def git_revision() -> str:
    """HEAD of the checkout, or "unknown" outside a git repository (the
    ceiling keeps git from finding a repository above the checkout)."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment(workload: str, seed: int) -> dict:
    return {"python": platform.python_version(), "numpy": metadata.version("numpy"),
            "nproc": len(os.sched_getaffinity(0)), "git_revision": git_revision(),
            "workload": workload, "workers": WORKLOADS[workload][1],
            "seed": seed, "cli_seed": cli_seed(seed)}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    ns = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"]
             for m in spec["per_layer" if ns.trace else "end_to_end"]}
    try:
        if not (ROOT / "src" / "polydense" / "cli.py").is_file():
            raise BenchError("polydense sources not found under src/")
        if ns.trace:
            result = traced(ns.workload, ns.seed)
        else:
            result = end_to_end(ns.workload, ns.seed, ns.seconds)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    values = result["metrics"]
    if values and set(values) != set(units):
        raise RuntimeError(f"metrics {sorted(set(values) ^ set(units))} do not match "
                         "BENCHMARK.json")
    correct = result["failed"] == 0 and bool(values)
    print(json.dumps({"environment": environment(ns.workload, ns.seed)}))
    print(json.dumps({
        "correct": correct,
        "attempted": max(1, result["attempted"]),
        "failed": result["failed"],
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units if name in values},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
