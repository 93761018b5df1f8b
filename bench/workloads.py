"""The benchmark's workloads, built only from the public dynsc API.

Each workload is set up from the workload seed alone; the library receives
only the generated inputs. One *op* is the unit whose latency is reported:

* ``preset_sweep`` and ``sparse2k``: one trial of a sweep, i.e. the
  ``generate_trial_sequence`` plus ``evaluate_smoothed`` calls a serial
  ``run_sweep`` makes for one trial index;
* ``stream_replay``: one step of an online estimator replaying a persisted
  sequence (one exponential update, then spectral error, clustering and
  scores for both matrix kinds).

Quality metrics come from a fixed prefix of ops (``quality_ops``), so they are
deterministic given the code and the seed however many ops the timed window
holds.
"""

from __future__ import annotations

import math
import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from dynsc import dynamics, experiments, metrics, sbm, smoothing, spectral
from dynsc.experiments import ExperimentConfig, RunRecord
from dynsc.util import subseed

PRESET_LAMBDAS = (0.04, 0.0536, 0.0719, 0.0964, 0.129, 0.173, 0.232, 0.311, 0.417,
                  0.559, 0.749, 1.0)
PRESET_RS = (1, 2, 3, 4, 5, 7, 9, 12, 16, 22, 30, 45)

_TAG_STREAM_CLUSTER = 31
_WARMUP_SEED = 0x3A17


def warm_up(cfg: ExperimentConfig) -> None:
    """First BLAS / eigensolver calls of the process, on an n x n matrix of the regime.

    The matrix is the expected adjacency of a balanced labelling plus a small
    symmetric perturbation. It does not depend on the workload seed, so every
    set-up repetition and every seed does the same work.
    """
    rng = np.random.default_rng(_WARMUP_SEED)
    labels = sbm.CommunityLabels(np.arange(cfg.n) % cfg.k, cfg.k)
    noise = rng.standard_normal((cfg.n, cfg.n)) * (1e-3 * cfg.resolved_alpha)
    m = sbm.build_probability_matrix(labels, cfg.model()) + (noise + noise.T)
    spectral.spectral_norm(m)
    spectral.top_k_eigenpairs(m, cfg.k)


def check_records(records: list[RunRecord], expected: int) -> str | None:
    """Reason the op's output is wrong, or None when every record is valid."""
    if len(records) != expected:
        return f"{len(records)} records, expected {expected}"
    for rec in records:
        if not math.isfinite(rec.spec_err):
            return f"non-finite spec_err in {rec}"
        if not -1.0 <= rec.ari <= 1.0:
            return f"ari outside [-1, 1] in {rec}"
        if not 0.0 <= rec.e_value <= 2.0:
            return f"e_value outside [0, 2] in {rec}"
    return None


def deterministic(records: list[RunRecord]) -> list[tuple]:
    """Every column except the timing."""
    return [tuple(getattr(r, c) for c in experiments.CSV_COLUMNS if c != "wall_ms")
            for r in records]


@dataclass
class Sweep:
    """Trials of a serial sweep; the op is one trial index."""

    name: str
    cfg: ExperimentConfig
    quality_ops: int
    # the tuned lambda whose cells feed quality and the c12 claim; None: every cell
    quality_lambda: float | None = None

    max_ops = None

    @property
    def expected_records(self) -> int:
        return len(self.cfg.grid()) * len(self.cfg.matrix_kinds())

    def setup(self, workdir: Path) -> None:
        warm_up(self.cfg)

    def begin(self):
        return None

    def check_begin(self, ctx) -> str | None:
        return None

    def op(self, ctx, i: int) -> list[RunRecord]:
        seq, snaps = experiments.generate_trial_sequence(self.cfg, i)
        return experiments.evaluate_smoothed(self.cfg, i, seq, snaps)

    def quality_cells(self, records: list[RunRecord]) -> list[RunRecord]:
        if self.quality_lambda is None:
            return records
        return [r for r in records
                if r.grid_param_kind == "lambda" and r.grid_param_value == self.quality_lambda]

    def claims(self, records: list[RunRecord]) -> dict:
        """c12 payoff: smoothed-adjacency median ARI >= static median + 0.2."""
        if self.quality_lambda is None:
            return {}
        adj = [r for r in records if r.grid_param_kind == "lambda"
               and r.matrix_kind == "adjacency"]
        smooth = float(np.median([r.ari for r in adj
                                  if r.grid_param_value == self.quality_lambda]))
        static = float(np.median([r.ari for r in adj if r.grid_param_value == 1.0]))
        return {"c12_payoff": {"smoothed_median_ari": smooth, "static_median_ari": static,
                               "trials": len(adj) // 2, "ok": smooth >= static + 0.2}}


class StreamState:
    """A loaded sequence and the one dense smoothing state a replay keeps."""

    def __init__(self, seq, snaps, model):
        self.seq, self.snaps, self.model = seq, snaps, model
        self.state = snaps.snapshots[0].to_dense()


@dataclass
class StreamReplay:
    """Online exponential smoothing over a persisted Markov sequence; op = one step."""

    name: str
    cfg: ExperimentConfig
    quality_ops: int

    def __post_init__(self):
        self.lam = self.cfg.lambda_grid[0]
        self.seq = self.snaps = self.directory = None

    @property
    def max_ops(self) -> int:
        return self.cfg.t_len

    expected_records = 2

    def setup(self, workdir: Path) -> None:
        warm_up(self.cfg)
        self.seq, self.snaps = experiments.generate_trial_sequence(self.cfg, 0)
        self.directory = workdir / "sequence"
        if self.directory.exists():
            shutil.rmtree(self.directory)
        dynamics.save_sequence(self.directory, self.seq, self.snaps, self.cfg.model(),
                               self.cfg.seed)

    def begin(self) -> StreamState:
        seq, snaps, model, _ = dynamics.load_sequence(self.directory)
        return StreamState(seq, snaps, model)

    def check_begin(self, ctx: StreamState) -> str | None:
        """Loaded labels and edge sets must equal the generated ones."""
        if len(ctx.seq.thetas) != len(self.seq.thetas):
            return "loaded sequence length differs from the generated one"
        for t, (got, want) in enumerate(zip(ctx.seq.thetas, self.seq.thetas)):
            if not np.array_equal(got.labels, want.labels):
                return f"labels of step {t} differ after the round trip"
        for t, (got, want) in enumerate(zip(ctx.snaps.snapshots, self.snaps.snapshots)):
            if not (np.array_equal(got.rows, want.rows) and np.array_equal(got.cols, want.cols)):
                return f"edges of step {t} differ after the round trip"
        return None

    def op(self, ctx: StreamState, i: int) -> list[RunRecord]:
        t = i + 1
        smoothing.exp_smooth_update(ctx.state, ctx.snaps.snapshots[t], self.lam)
        truth = ctx.seq.thetas[t]
        p_t = sbm.build_probability_matrix(truth, ctx.model)
        lap_p = sbm.normalized_laplacian(p_t)
        records = []
        for kidx, kind in enumerate(("adjacency", "laplacian")):
            if kind == "adjacency":
                err = spectral.spectral_norm(ctx.state - p_t)
                cluster_input = ctx.state
            else:
                cluster_input = sbm.normalized_laplacian(ctx.state, zero_degree="zero-row")
                err = spectral.spectral_norm(cluster_input - lap_p)
            cseed = subseed(self.cfg.seed, _TAG_STREAM_CLUSTER, t, kidx)
            result = spectral.spectral_cluster(cluster_input, self.cfg.k,
                                               restarts=self.cfg.restarts, seed=cseed)
            records.append(RunRecord(
                trial=0, t=t, grid_param_kind="lambda", grid_param_value=self.lam,
                matrix_kind=kind, spec_err=err,
                ari=metrics.adjusted_rand_index(result.labels, truth),
                e_value=metrics.misclassification_error(result.labels, truth).e_value,
                kmeans_cost=result.cost, eigengap=result.eigengap, seed=cseed, wall_ms=0.0))
        return records

    def quality_cells(self, records: list[RunRecord]) -> list[RunRecord]:
        return records

    def claims(self, records: list[RunRecord]) -> dict:
        return {}


def _sparse_cfg(n: int, t_len: int, seed: int) -> ExperimentConfig:
    alpha = 8.0 / n
    eps = 1.0 / math.log(n) ** 2
    n_min, n_max = int(0.4 * n), int(0.6 * n)
    model = sbm.ConnectivityModel.planted_partition(2, alpha, 0.1)
    prof = sbm.effective_sizes(model, n, n_min, n_max)
    lam = smoothing.tuning_profile(n, alpha, eps, prof.nbar_max).optimal_lambda
    return ExperimentConfig(mode="deterministic", n=n, k=2, tau=0.1, alpha_log_scale=None,
                            alpha_inv_scale=8.0, epsilon=eps, t_len=t_len, n_min=n_min,
                            n_max=n_max, lambda_grid=(lam, 1.0), matrix="both", seed=seed)


def _stream_cfg(n: int, t_len: int, seed: int) -> ExperimentConfig:
    alpha = 4.0 * math.log(n) / n
    # Markov sizes are unconstrained, so nbar_max is n, as in experiments
    lam = smoothing.tuning_profile(n, alpha, 0.01, float(n)).optimal_lambda
    return ExperimentConfig(mode="markov", n=n, k=4, tau=0.3, alpha_log_scale=4.0,
                            epsilon=0.01, t_len=t_len, lambda_grid=(lam,), matrix="both",
                            seed=seed)


WORKLOADS = ("preset_sweep", "sparse2k", "stream_replay")


def make(name: str, seed: int, tiny: bool = False):
    """The named workload; ``tiny`` shrinks it to n = 60 for self-tests."""
    if name == "preset_sweep":
        if tiny:
            cfg = ExperimentConfig(n=60, t_len=6, lambda_grid=PRESET_LAMBDAS[::4],
                                   r_grid=(1, 2, 3), seed=seed)
        else:
            cfg = ExperimentConfig(n=500, k=3, tau=0.3, alpha_log_scale=3.0, epsilon=0.01,
                                   t_len=60, lambda_grid=PRESET_LAMBDAS, r_grid=PRESET_RS,
                                   matrix="both", seed=seed)
        return Sweep(name, cfg, quality_ops=2 if tiny else 5)
    if name == "sparse2k":
        cfg = _sparse_cfg(60, 6, seed) if tiny else _sparse_cfg(2000, 30, seed)
        return Sweep(name, cfg, quality_ops=2 if tiny else 4,
                     quality_lambda=cfg.lambda_grid[0])
    if name == "stream_replay":
        cfg = _stream_cfg(60, 6, seed) if tiny else _stream_cfg(1000, 120, seed)
        return StreamReplay(name, cfg, quality_ops=3 if tiny else 40)
    raise ValueError(f"unknown workload {name!r}; choose one of {', '.join(WORKLOADS)}")
