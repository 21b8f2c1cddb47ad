"""Names that other code looks up by string must exist.

``__all__`` is read by star imports, and the benchmark's span recorder
rebinds the functions in ``perfbench/spans.py``'s ``WRAP`` with a bare
``getattr``, so a deleted or renamed name there breaks every traced run.
A traced run also reads ``graph._long_edge_survives_cached.cache_info()``.

Importing the package also keeps OpenBLAS at one thread unless the caller
has set ``OPENBLAS_NUM_THREADS``; every CLI process and pool worker relies
on that default.
"""

import importlib
import importlib.util
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import polydense

MODULES = sorted(m.name for m in pkgutil.iter_modules(polydense.__path__))
ROOT = Path(__file__).resolve().parents[1]


def _load_spans():
    path = ROOT / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"polydense.{name}")
    missing = [attr for attr in getattr(module, "__all__", [])
               if not hasattr(module, attr)]
    assert not missing


def test_benchmark_wrap_names_exist():
    missing = [f"{namespace}.{attr}"
               for namespace, names in _load_spans().WRAP.items()
               for attr in names
               if not hasattr(importlib.import_module(f"polydense.{namespace}"), attr)]
    assert not missing


def test_a_traced_run_installs_every_wrap_and_reads_the_edge_cache():
    """What a traced benchmark run does before and after the command, in a
    fresh interpreter so that the wrappers stay out of this one."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), str(ROOT / "perfbench")]))
    script = ("import spans; from polydense import graph; "
              "spans.install(spans.Recorder()); "
              "info = graph._long_edge_survives_cached.cache_info(); "
              "print(info.hits, info.misses)")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "0"]


def _fresh_import(script, **env):
    """stdout of ``script`` run after ``import polydense.cli`` in a fresh
    interpreter, whose environment lacks OPENBLAS_NUM_THREADS (this process
    imported polydense, which set it) unless given in ``env``."""
    base = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    base["PYTHONPATH"] = str(ROOT / "src")
    proc = subprocess.run([sys.executable, "-c", "import polydense.cli, os; " + script],
                          capture_output=True, text=True, env={**base, **env})
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_import_keeps_openblas_single_threaded():
    assert _fresh_import("print(os.environ['OPENBLAS_NUM_THREADS'])") == "1"


@pytest.mark.skipif(not Path("/proc/self/task").is_dir(), reason="needs Linux /proc")
def test_import_starts_no_blas_thread():
    assert _fresh_import("print(len(os.listdir('/proc/self/task')))") == "1"


def test_a_caller_set_openblas_thread_count_stands():
    script = "print(os.environ['OPENBLAS_NUM_THREADS'])"
    assert _fresh_import(script, OPENBLAS_NUM_THREADS="2") == "2"
