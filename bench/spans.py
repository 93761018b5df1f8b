"""In-memory span tracer around the public functions of the dynsc layers.

``Tracer.installed()`` swaps each traced function for a timing wrapper in
every loaded ``dynsc`` module that holds a reference to it, so calls made
from ``dynsc.experiments`` and from inside a layer (``spectral_cluster``
calling ``kmeans``) are seen, and puts the originals back on exit. The
library itself is not modified. Counters are computed from arguments and
results after the span has closed; the time they take is kept apart as
``trace.counter_s`` and subtracted from the enclosing span's self time.

A root span wraps each unit of benchmark work (a set-up repetition, the
sequence load, one op). The part of a root not covered by layer spans or by
counter bookkeeping is ``experiments.self_s``: the glue in
``dynsc.experiments`` and in the benchmark itself.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import sys
import time
from collections import defaultdict

import numpy as np


def _dir_bytes(path) -> int:
    return sum(entry.stat().st_size for entry in os.scandir(path) if entry.is_file())


def _sample_bytes(args, kwargs, result) -> dict:
    # p is read once; n^2 float64 uniforms, then two n^2 boolean masks
    p = args[0] if args else kwargs["p"]
    n = result.n
    return {"edges": result.edge_count, "bytes_computed": p.nbytes + 10 * n * n}


def _isolated(args, kwargs, result) -> dict:
    # a zero row of D^-1/2 M D^-1/2 is exactly a zero-degree node of M
    return {"isolated_nodes": int(result.shape[0] - result.any(axis=1).sum())}


#: layer name -> (module, function names, counter function or None)
LAYERS = {
    "dynamics.gen_sequence": ("dynsc.dynamics",
                              ("gen_deterministic_sequence", "gen_markov_sequence"), None),
    "dynamics.save_sequence": ("dynsc.dynamics", ("save_sequence",),
                               lambda a, kw, r: {"bytes": _dir_bytes(r)}),
    "dynamics.load_sequence": ("dynsc.dynamics", ("load_sequence",),
                               lambda a, kw, r: {"bytes": _dir_bytes(a[0])}),
    "sbm.build_probability_matrix": ("dynsc.sbm", ("build_probability_matrix",),
                                     lambda a, kw, r: {"bytes_computed": r.nbytes}),
    "sbm.sample_adjacency": ("dynsc.sbm", ("sample_adjacency",), _sample_bytes),
    "sbm.normalized_laplacian": ("dynsc.sbm", ("normalized_laplacian",), _isolated),
    "smoothing.weighted_smooth": ("dynsc.smoothing", ("weighted_smooth",),
                                  lambda a, kw, r: {"nnz": int(np.count_nonzero(r))}),
    "smoothing.exp_smooth_update": ("dynsc.smoothing", ("exp_smooth_update",), None),
    "spectral.top_k_eigenpairs": ("dynsc.spectral", ("top_k_eigenpairs",),
                                  lambda a, kw, r: {"gap_degenerate": int(r.gap_degenerate)}),
    "spectral.spectral_norm": ("dynsc.spectral", ("spectral_norm",), None),
    "spectral.kmeans": ("dynsc.spectral", ("kmeans",),
                        lambda a, kw, r: {"restarts": r.restarts_used,
                                          "degenerate": int(r.degenerate)}),
    "metrics.score": ("dynsc.metrics", ("adjusted_rand_index", "misclassification_error"),
                      None),
}

#: extra counters per layer, beyond busy_s, self_s and calls, with units
COUNTERS = {
    "dynamics.save_sequence": (("bytes", "bytes"),),
    "dynamics.load_sequence": (("bytes", "bytes"),),
    "sbm.build_probability_matrix": (("bytes_computed", "bytes"),),
    "sbm.sample_adjacency": (("edges", "count"), ("bytes_computed", "bytes")),
    "sbm.normalized_laplacian": (("isolated_nodes", "count"),),
    "smoothing.weighted_smooth": (("nnz", "count"),),
    "spectral.top_k_eigenpairs": (("gap_degenerate", "count"),),
    "spectral.kmeans": (("restarts", "count"), ("degenerate", "count"),
                        ("useful_ratio", "ratio")),
}

#: run-level trace figures, filled in by the runner
RUN_METRICS = (
    ("experiments.self_s", "s"),
    ("trace.counter_s", "s"),
    ("trace.root_s", "s"),
    ("trace.ops", "count"),
    ("trace.traced_op_ms_p50", "ms"),
    ("trace.plain_op_ms_p50", "ms"),
    ("trace.overhead_ms", "ms"),
)


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name, in report order, with its unit."""
    units = {}
    for layer in LAYERS:
        units.update({f"{layer}.busy_s": "s", f"{layer}.self_s": "s",
                      f"{layer}.calls": "count"})
        units.update({f"{layer}.{key}": unit for key, unit in COUNTERS.get(layer, ())})
    units.update(RUN_METRICS)
    return units


ROOT = "root"


class Tracer:
    """Spans ``(name, start, end, parent, op_id)`` and counters, kept in memory.

    ``parent`` is the index of the enclosing span in ``spans``, or ``None``
    for a root span.
    """

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: dict[str, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self.counter_s = 0.0
        self._counter_in: dict[int | None, float] = defaultdict(float)
        self._stack: list[int] = []
        self._op_id = None

    @contextlib.contextmanager
    def root(self, op_id: str):
        """Root span around one unit of benchmark work."""
        self._op_id = op_id
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[idx] = (ROOT, start, end, None, op_id)
            self._op_id = None

    def _wrap(self, layer: str, fn, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            self.spans.append(None)
            parent = self._stack[-1] if self._stack else None
            self._stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[idx] = (layer, start, end, parent, self._op_id)
            counts = self.counts[layer]
            counts["calls"] += 1
            if counter is not None:
                for key, value in counter(args, kwargs, result).items():
                    counts[key] += value
                spent = time.perf_counter() - end
                self.counter_s += spent
                self._counter_in[parent] += spent
            return result
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Route calls to the traced functions through timing wrappers."""
        swaps = []
        for layer, (module_name, names, counter) in LAYERS.items():
            home = sys.modules[module_name]
            for name in names:
                original = getattr(home, name)
                wrapper = self._wrap(layer, original, counter)
                for mod_name, mod in list(sys.modules.items()):
                    if mod is None or not (mod_name == "dynsc" or mod_name.startswith("dynsc.")):
                        continue
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            swaps.append((mod, attr, original))
        try:
            yield self
        finally:
            for mod, attr, original in swaps:
                setattr(mod, attr, original)

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer busy and self time, counts, and the root-time balance."""
        busy = defaultdict(float)
        covered = defaultdict(float)  # child time inside each span, by span index
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                covered[parent] += end - start
            if name != ROOT:
                busy[name] += end - start
        self_time = defaultdict(float)
        root_s = glue_s = 0.0
        for idx, (name, start, end, _, _) in enumerate(self.spans):
            own = (end - start) - covered[idx] - self._counter_in[idx]
            if name == ROOT:
                root_s += end - start
                glue_s += own
            else:
                self_time[name] += own
        out = {}
        for layer in LAYERS:
            counts = self.counts.get(layer, {})
            out[f"{layer}.busy_s"] = busy[layer]
            out[f"{layer}.self_s"] = self_time[layer]
            out[f"{layer}.calls"] = counts.get("calls", 0)
            for key, _ in COUNTERS.get(layer, ()):
                out[f"{layer}.{key}"] = counts.get(key, 0)
        restarts = out["spectral.kmeans.restarts"]
        out["spectral.kmeans.useful_ratio"] = (
            out["spectral.kmeans.calls"] / restarts if restarts else 0.0)
        out["experiments.self_s"] = glue_s
        out["trace.counter_s"] = self.counter_s
        out["trace.root_s"] = root_s
        return out

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, op_id in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op_id}) + "\n")
