"""Run one polydense CLI invocation inside this interpreter and report it.

Usage: python3 perfbench/child.py --trace 0|1 -- <polydense cli arguments>

Prints one JSON object: the exit code, the CSV the CLI wrote, the duration
of ``polydense.cli.main``, and with ``--trace 1`` the recorded spans, the
edge-cache statistics and a pool start-up probe.  ``src`` must be on
PYTHONPATH.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import statistics
import sys
import time

POOL_PROBES = 5


def _noop(x):
    return x


def pool_start_ms() -> float:
    """Median wall time of parallel_map on two trivial tasks at workers=2."""
    from polydense.mc import parallel_map

    times = []
    for _ in range(POOL_PROBES):
        t0 = time.perf_counter()
        parallel_map(_noop, [0, 1], workers=2)
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e3


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    ns = parser.parse_args()
    cli_args = ns.cli_args[1:] if ns.cli_args[:1] == ["--"] else ns.cli_args

    from polydense import cli, graph

    report = {}
    recorder = None
    if ns.trace:
        import spans

        report["pool_start_ms"] = pool_start_ms()
        recorder = spans.Recorder()
        spans.install(recorder)
    out = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out):
        if recorder is not None:
            rc = recorder.span("cli.main", cli.main, cli_args)
        else:
            rc = cli.main(cli_args)
    report["main_s"] = time.perf_counter() - t0
    report["rc"] = rc
    report["csv"] = out.getvalue()
    if recorder is not None:
        info = graph._long_edge_survives_cached.cache_info()
        report["cache"] = [info.hits, info.misses]
        names = sorted({s[0] for s in recorder.spans})
        index = {n: i for i, n in enumerate(names)}
        report["names"] = names
        report["spans"] = [[index[s[0]], s[1] - t0, s[2] - t0, s[3], s[4]]
                           for s in recorder.spans]
    json.dump(report, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
