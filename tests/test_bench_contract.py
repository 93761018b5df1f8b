"""The benchmark's tracer wraps dynsc functions by name; each must still exist and
its counters must still evaluate on what the function returns."""

import dataclasses
import importlib
import importlib.util
import math
import sys
from pathlib import Path

import pytest

from dynsc import ExperimentConfig, run_sweep
from dynsc.smoothing import SPARSE_OPERATOR_SHARE

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


@pytest.fixture
def spans(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave bench/ untouched
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_layer_functions_resolve(spans):
    missing = [f"{module}.{name}"
               for module, names, _ in spans.LAYERS.values()
               for name in names
               if not callable(getattr(importlib.import_module(module), name, None))]
    assert missing == []


def _without_wall_ms(records):
    return [dataclasses.replace(rec, wall_ms=0.0) for rec in records]


def _traced_trial(spans, n: int, seed: int, lambda_grid=(0.3, 1.0), r_grid=()):
    """One trial of the sparse2k regime at size ``n``, run plain and traced.

    Checks that tracing leaves the records unchanged and that every layer
    counter evaluates; returns the config and the per-layer metrics.
    """
    cfg = ExperimentConfig(mode="deterministic", n=n, k=2, tau=0.1, alpha_log_scale=None,
                           alpha_inv_scale=8.0, epsilon=1.0 / math.log(n) ** 2, t_len=6,
                           n_min=int(0.4 * n), n_max=int(0.6 * n), lambda_grid=lambda_grid,
                           r_grid=r_grid, matrix="both", trials=1, seed=seed, restarts=5)
    plain = run_sweep(cfg)
    tracer = spans.Tracer()
    with tracer.installed():
        traced = run_sweep(cfg)
    assert _without_wall_ms(traced) == _without_wall_ms(plain)

    got = tracer.layer_metrics()
    layer_keys = set(spans.per_layer_units()) - {name for name, _ in spans.RUN_METRICS}
    assert layer_keys <= set(got)
    assert all(math.isfinite(value) for value in got.values())
    cells = len(cfg.grid()) * len(cfg.matrix_kinds())
    assert got["sbm.build_probability_matrix.calls"] == 0
    assert got["spectral.spectral_norm.calls"] == cells
    assert got["spectral.top_k_eigenpairs.calls"] == cells
    assert got["spectral.kmeans.calls"] == cells
    assert cells <= got["spectral.kmeans.restarts"] <= cells * cfg.restarts
    return cfg, got


def test_tracer_counters_on_sparse_trial(spans):
    # sparse enough that the smoothed matrix and its Laplacian are built as
    # CSR, outside the traced functions
    n = 600
    _, got = _traced_trial(spans, n, seed=7)
    assert got["smoothing.weighted_smooth.calls"] == 0
    assert got["sbm.normalized_laplacian.calls"] == 0


def test_tracer_counters_on_dense_trial(spans):
    # a smoothed matrix more than 10% nonzero is built dense, so the traced dense
    # smoother and Laplacian run and their counters are evaluated on what they
    # return; at alpha = 8/n a snapshot has about 4.4 edges per node, which at
    # n = 22 fill about 20% of the entries, and seed 7's last snapshot (the
    # lambda = 1 cell) leaves a node isolated
    n = 22
    cfg, got = _traced_trial(spans, n, seed=7, lambda_grid=(1.0,), r_grid=(2,))
    assert got["smoothing.weighted_smooth.calls"] == len(cfg.grid())
    assert SPARSE_OPERATOR_SHARE * n * n * len(cfg.grid()) < (
        got["smoothing.weighted_smooth.nnz"]) <= n * n * len(cfg.grid())
    assert got["sbm.normalized_laplacian.calls"] == len(cfg.grid())
    assert got["sbm.normalized_laplacian.isolated_nodes"] > 0  # the lambda = 1 snapshot has some
