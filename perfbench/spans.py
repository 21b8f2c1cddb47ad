"""In-memory span recorder for the traced benchmark run.

Spans are recorded from outside the program: ``install`` replaces the
public functions of each polydense layer, in the module namespaces that
import them, with wrappers that record one span per call.  A span is
``(name, start, end, parent, value)``; ``name`` is ``<layer>.<function>``
with the layer taken from the module that defines the function, ``parent``
is the index of the enclosing span (-1 for none) and ``value`` is an
optional integer outcome (LP feasibility, vertices sampled, tasks mapped).
Spans stay in memory until the traced process exits.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict

# namespace module -> names rebound there.  Cross-layer imports are wrapped
# where they are imported, so calls inside a layer's own module stay part of
# that layer's self time.  estimators also gets its own tau_exact/tau_mc and
# block functions, so block bodies count as estimator time, not as mc time.
WRAP = {
    "graph": ["segment_hull_intersect"],
    "arrangements": ["strict_separation", "origin_in_conv"],
    "cube": ["sample_indices", "rand_bits"],
    "estimators": [
        "long_edge_survives", "edge_kernel", "_long_edge_survives_cached",
        "chamber_count", "build_config_plus", "sample_vertex_bits",
        "sample_indices", "rand_bits", "stream", "parallel_map",
        "tau_exact", "tau_mc",
        "_tau_block", "_alpha_block", "_alpha_chambers_block", "_pi_block",
        "_pik_block", "_tau_cell_task",
    ],
    "cli": [
        "tau_cell", "tau_threshold_sweep", "density_threshold_sweep",
        "alpha_exact", "alpha_mc", "alpha_via_chambers", "pi_mc", "decompose_pi",
    ],
}

POOL = "mc.parallel_map"

# span name -> integer outcome recorded from the return value
VALUES = {
    "exactlp.segment_hull_intersect": int,
    "exactlp.strict_separation": lambda r: int(r.feasible),
    "exactlp.origin_in_conv": lambda r: int(r.feasible),
    "cube.sample_vertex_bits": len,
    POOL: len,
}


class Recorder:
    """Spans of one process, appended in start order."""

    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self.stack
        value_of = VALUES.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(idx)
            start = clock()
            out = None
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                end = clock()
                stack.pop()
                value = value_of(out) if value_of and out is not None else None
                spans[idx] = (name, start, end, parent, value)

        return wrapper

    def span(self, name: str, fn, *args):
        """Call fn(*args) inside a span (used for the root span)."""
        return self.wrap(name, fn)(*args)


def install(recorder: Recorder) -> None:
    """Rebind every function named in WRAP to a recording wrapper."""
    for namespace, names in WRAP.items():
        module = importlib.import_module(f"polydense.{namespace}")
        for attr in names:
            fn = getattr(module, attr)
            layer = fn.__module__.rsplit(".", 1)[-1]
            setattr(module, attr, recorder.wrap(f"{layer}.{fn.__name__}", fn))


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children = defaultdict(list)
    for i, s in enumerate(spans):
        if s[3] >= 0:
            children[s[3]].append(i)
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for c in sorted(children.get(i, ()), key=lambda c: spans[c][1]):
            lo = max(spans[c][1], reach)
            hi = min(spans[c][2], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(end - start - covered)
    return out


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def summarize(spans) -> dict:
    """Per-name and per-layer totals, plus the parent-child counts the
    per-layer ratios need."""
    selfs = self_times(spans)
    by_name: dict = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                         "value": 0})
    layer_self: dict = defaultdict(float)
    layer_calls: dict = defaultdict(int)
    graph_top = 0
    lp_under_arrangements = 0
    # tasks nested in a pool task run inside the worker, so only the
    # outermost parallel_map calls and their direct tasks are counted
    in_pool = []
    pool_s = task_s = 0.0
    for s, self_s in zip(spans, selfs):
        name, start, end, parent, value = s
        in_pool.append(parent >= 0 and (in_pool[parent]
                                        or spans[parent][0] == POOL))
        if name == POOL and not in_pool[-1]:
            pool_s += end - start
        if parent >= 0 and spans[parent][0] == POOL and not in_pool[parent]:
            task_s += end - start
        layer = layer_of(name)
        entry = by_name[name]
        entry["calls"] += 1
        entry["total_s"] += end - start
        entry["self_s"] += self_s
        entry["value"] += value or 0
        layer_self[layer] += self_s
        layer_calls[layer] += 1
        parent_name = spans[parent][0] if parent >= 0 else ""
        if layer == "graph" and layer_of(parent_name) != "graph":
            graph_top += 1
        if layer == "exactlp" and layer_of(parent_name) == "arrangements":
            lp_under_arrangements += 1
    return {"by_name": dict(by_name), "layer_self_s": dict(layer_self),
            "layer_calls": dict(layer_calls), "graph_top_calls": graph_top,
            "lp_under_arrangements": lp_under_arrangements, "pool_s": pool_s,
            "task_s": task_s,
            "self_total_s": sum(selfs)}
