"""Write the reference CSVs the benchmark checks every output row against.

Usage (from the repository root): python3 perfbench/make_reference.py

Runs each workload's CLI invocation once per reference seed and stores its
CSV, with the informational wall_time_s column stripped, as
perfbench/reference/<workload>/<cli seed>.csv.  Verdicts are exact, so a
correct change to the program leaves every stored byte valid; regenerate
only when the workloads themselves change.
"""

from __future__ import annotations

import sys

import run


def main() -> int:
    for workload in sorted(run.WORKLOADS):
        for index in range(len(run.REFERENCE_SEEDS)):
            wall, rc, out, err = run.run_proc([sys.executable, "-m", "polydense.cli",
                                               *run.cli_args(workload, index)])
            if rc != 0:
                print(f"{workload} seed index {index}: exit {rc}\n{err}", file=sys.stderr)
                return 1
            path = run.reference_path(workload, index)
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text("".join(run.strip_wall(out)), encoding="utf-8")
            print(f"{path.relative_to(run.ROOT)}  {wall:.2f} s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
