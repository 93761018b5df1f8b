"""Monte Carlo sweep harness.

A sweep runs ``trials`` independent dynamic-SBM realizations and, for each
smoother grid point (forgetting factors and/or window sizes) and matrix kind
(adjacency / normalized Laplacian), records the spectral estimation error at
the final time step together with the clustering metrics of the spectral
algorithm run on the smoothed input. The smoothed input of each grid point is
:func:`dynsc.smoothing.smoothed_matrix`, dense or CSR, and every later layer of
the cell keeps its form.

Rows are reproducible in isolation: every record carries the sub-seed that
drove its clustering, and sequences are regenerable from ``(seed, trial)``.
Trials may run in a process pool; records are sorted before writing so the
output does not depend on scheduling.
"""

from __future__ import annotations

import csv
import io
import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from .dynamics import (
    DeterministicDsbmConfig,
    MarkovDsbmConfig,
    MembershipSequence,
    SnapshotSequence,
    gen_deterministic_sequence,
    gen_markov_sequence,
    sample_snapshot_sequence,
)
from .errors import InvalidInputError, ZeroDegreeError
from .metrics import adjusted_rand_index, misclassification_error
from .sbm import (
    CommunityLabels,
    ConnectivityModel,
    SizeProfile,
    effective_sizes,
    normalized_laplacian,
    normalized_laplacian_csr,
)
from .smoothing import Exponential, SmootherKind, Uniform, smoothed_matrix
from .spectral import spectral_cluster, spectral_norm
from .util import subseed

CSV_SCHEMA_VERSION = "dynsc-sweep-csv v1"
CSV_COLUMNS = ("trial", "t", "grid_param_kind", "grid_param_value", "matrix_kind",
               "spec_err", "ari", "e_value", "kmeans_cost", "eigengap", "seed", "wall_ms")

_TAG_TRIAL_MEMBERSHIP = 11
_TAG_TRIAL_SNAPSHOTS = 12
_TAG_CLUSTER = 13

DEFAULT_LAMBDA_GRID = tuple(float(x) for x in np.geomspace(0.04, 1.0, 12))

# text parsers by field annotation (annotations are strings in this module)
_CASTS = {"int": int, "float": float, "str": str}
_GRID_CASTS = {"lambda_grid": float, "r_grid": int}


@dataclass(frozen=True)
class ExperimentConfig:
    """Parameter space of a sweep; defaults follow the mid-scale preset.

    Exactly one of ``alpha`` (absolute), ``alpha_log_scale``
    (``alpha = c * log(n) / n``) or ``alpha_inv_scale`` (``alpha = c / n``)
    must be set.
    """

    mode: str = "deterministic"
    n: int = 500
    k: int = 3
    tau: float = 0.3
    alpha: float | None = None
    alpha_log_scale: float | None = 3.0
    alpha_inv_scale: float | None = None
    epsilon: float = 0.01
    t_len: int = 60
    n_min: int | None = None
    n_max: int | None = None
    lambda_grid: tuple = DEFAULT_LAMBDA_GRID
    r_grid: tuple = ()
    matrix: str = "both"
    trials: int = 20
    seed: int = 0
    threads: int = 1
    restarts: int = 20

    def __post_init__(self):
        set_scales = [v is not None for v in (self.alpha, self.alpha_log_scale,
                                              self.alpha_inv_scale)]
        if sum(set_scales) != 1:
            raise InvalidInputError(
                "exactly one of alpha, alpha_log_scale, alpha_inv_scale must be set")
        if self.mode not in ("deterministic", "markov"):
            raise InvalidInputError(f"unknown mode {self.mode!r}")
        if self.matrix not in ("adjacency", "laplacian", "both"):
            raise InvalidInputError(f"unknown matrix kind {self.matrix!r}")
        if self.n < 2:
            raise InvalidInputError(f"n must be >= 2, got {self.n}")
        if not self.lambda_grid and not self.r_grid:
            raise InvalidInputError("smoother grid must be non-empty")
        for name in ("trials", "threads", "restarts"):
            if getattr(self, name) < 1:
                raise InvalidInputError(f"{name} must be >= 1, got {getattr(self, name)}")
        if any(r > self.t_len + 1 for r in self.r_grid):
            raise InvalidInputError("window sizes must not exceed t_len + 1")
        object.__setattr__(self, "lambda_grid", tuple(float(v) for v in self.lambda_grid))
        object.__setattr__(self, "r_grid", tuple(int(v) for v in self.r_grid))
        for point in self.grid():
            _grid_smoother(*point)  # rejects a bad grid value before any trial runs

    @property
    def resolved_alpha(self) -> float:
        if self.alpha is not None:
            return float(self.alpha)
        if self.alpha_log_scale is not None:
            return float(self.alpha_log_scale) * math.log(self.n) / self.n
        return float(self.alpha_inv_scale) / self.n

    @property
    def resolved_n_min(self) -> int:
        return self.n_min if self.n_min is not None else int(math.floor(0.8 * self.n / self.k))

    @property
    def resolved_n_max(self) -> int:
        return self.n_max if self.n_max is not None else int(math.ceil(1.2 * self.n / self.k))

    def model(self) -> ConnectivityModel:
        return ConnectivityModel.planted_partition(self.k, self.resolved_alpha, self.tau)

    def size_profile(self) -> SizeProfile:
        """The community sizes behind every regime quantity of this config.

        Deterministic sizes stay within the resolved bounds. Markov sizes are
        unconstrained, so ``nbar_max = n`` and ``mu_b = n / nbar_min``; the
        other fields come from the resolved bounds.
        """
        prof = effective_sizes(self.model(), self.n, self.resolved_n_min, self.resolved_n_max)
        if self.mode == "deterministic":
            return prof
        nbar_max = float(self.n)
        return replace(prof, nbar_max=nbar_max,
                       mu_b=nbar_max / prof.nbar_min if prof.nbar_min > 0 else math.inf)

    def matrix_kinds(self) -> tuple[str, ...]:
        return ("adjacency", "laplacian") if self.matrix == "both" else (self.matrix,)

    def grid(self) -> tuple[tuple[str, float], ...]:
        points = [("lambda", lam) for lam in self.lambda_grid]
        points += [("r", float(r)) for r in self.r_grid]
        return tuple(points)

    def to_kv(self) -> dict:
        out = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if value is None:
                continue
            if isinstance(value, tuple):  # repr round-trips a float exactly
                value = ",".join(map(repr, value))
            # float() first: a numpy float's repr is "np.float64(...)", which from_kv rejects
            out[f.name] = repr(float(value)) if isinstance(value, float) else value
        return out

    @classmethod
    def from_kv(cls, kv: dict) -> "ExperimentConfig":
        types = {f.name: f.type.removesuffix(" | None") for f in fields(cls)}
        kwargs = {}
        for key, value in kv.items():
            if key not in types:
                raise InvalidInputError(f"unknown config key {key!r}")
            try:
                kwargs[key] = (tuple(_GRID_CASTS[key](v) for v in value.split(",") if v.strip())
                               if key in _GRID_CASTS else _CASTS[types[key]](value))
            except ValueError as exc:  # the casts raise no InvalidInputError to re-wrap
                raise InvalidInputError(f"config key {key!r}: {exc}") from None
        if "alpha" in kwargs or "alpha_inv_scale" in kwargs:
            kwargs.setdefault("alpha_log_scale", None)
        if "alpha" in kwargs and "alpha_inv_scale" in kwargs:
            raise InvalidInputError("set only one alpha parameterization")
        return cls(**kwargs)


def _grid_smoother(gkind: str, gvalue: float) -> SmootherKind:
    """The smoother of one :meth:`ExperimentConfig.grid` point."""
    return Exponential(gvalue) if gkind == "lambda" else Uniform(int(gvalue))


@dataclass(frozen=True)
class RunRecord:
    """One sweep measurement: a (trial, grid point, matrix kind) cell."""

    trial: int
    t: int
    grid_param_kind: str
    grid_param_value: float
    matrix_kind: str
    spec_err: float
    ari: float
    e_value: float
    kmeans_cost: float
    eigengap: float
    seed: int
    wall_ms: float


def membership_sequence(cfg: ExperimentConfig, seed: int) -> MembershipSequence:
    """The config's membership dynamics, drawn from ``seed``."""
    if cfg.mode == "deterministic":
        return gen_deterministic_sequence(DeterministicDsbmConfig.from_epsilon(
            n=cfg.n, model=cfg.model(), t_len=cfg.t_len, epsilon=cfg.epsilon,
            n_min=cfg.resolved_n_min, n_max=cfg.resolved_n_max, seed=seed))
    return gen_markov_sequence(MarkovDsbmConfig(n=cfg.n, model=cfg.model(), t_len=cfg.t_len,
                                                epsilon=cfg.epsilon, seed=seed))


def generate_trial_sequence(cfg: ExperimentConfig, trial: int):
    """Membership + snapshots for one trial, seeded by ``(cfg.seed, trial)``."""
    seq = membership_sequence(cfg, subseed(cfg.seed, _TAG_TRIAL_MEMBERSHIP, trial))
    snaps = sample_snapshot_sequence(seq, cfg.model(),
                                     subseed(cfg.seed, _TAG_TRIAL_SNAPSHOTS, trial))
    return seq, snaps


def reference_matrices(truth: CommunityLabels, model: ConnectivityModel,
                       kinds) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """What each matrix kind is measured against, as rank-K factors ``(U, C)`` of ``U C Uᵀ``.

    With ``Z`` the one-hot labels and ``C = alpha * b0``, the adjacency
    reference ``P_t = Z C Zᵀ`` has ``U = Z``, and the Laplacian reference
    ``L(P_t)`` has ``U = D^{-1/2} Z`` with ``d`` the row sums of ``P_t``,
    diagonal included. ``P_t`` itself is never built.
    """
    if truth.k != model.k:
        raise InvalidInputError(f"labels declare k={truth.k}, model has k={model.k}")
    z = truth.one_hot()
    c = model.alpha * model.b0
    refs = {"adjacency": (z, c)}
    if "laplacian" in kinds:
        d = (c @ truth.sizes())[truth.labels]
        if np.any(d <= 0.0):
            raise ZeroDegreeError("expected probability matrix has a non-positive row sum")
        refs["laplacian"] = (z * (1.0 / np.sqrt(d))[:, None], c)
    return refs


def evaluate_cell(smoothed, kind: str, ref: tuple[np.ndarray, np.ndarray],
                  truth: CommunityLabels, k: int, *, seed: int,
                  restarts: int) -> tuple[dict, CommunityLabels]:
    """Evaluate one :func:`smoothed_matrix` as ``kind`` against the final labelling ``truth``.

    The adjacency kind uses ``smoothed`` itself; the Laplacian kind uses
    ``L(smoothed)`` with isolated nodes zeroed, in the same dense or CSR
    form. ``ref`` is the matching entry of :func:`reference_matrices`.
    Returns the scores, keyed by their :class:`RunRecord` field names, and
    the predicted labels.
    """
    if kind == "adjacency":
        target = smoothed
    elif isinstance(smoothed, np.ndarray):
        target = normalized_laplacian(smoothed, zero_degree="zero-row")
    else:
        target = normalized_laplacian_csr(smoothed, zero_degree="zero-row")
    spec_err = spectral_norm(target, minus=ref)
    result = spectral_cluster(target, k, restarts=restarts, seed=seed)
    scores = {
        "spec_err": spec_err,
        "ari": adjusted_rand_index(result.labels, truth),
        "e_value": misclassification_error(result.labels, truth).e_value,
        "kmeans_cost": result.cost,
        "eigengap": result.eigengap,
    }
    return scores, result.labels


def evaluate_smoothed(cfg: ExperimentConfig, trial: int, seq: MembershipSequence,
                      snaps: SnapshotSequence) -> list[RunRecord]:
    """Evaluate every grid point and matrix kind on one realized sequence."""
    truth = seq.thetas[-1]
    kinds = cfg.matrix_kinds()
    refs = reference_matrices(truth, cfg.model(), kinds)
    records = []
    for gidx, (gkind, gvalue) in enumerate(cfg.grid()):
        smoothed = smoothed_matrix(snaps, _grid_smoother(gkind, gvalue))
        for kidx, kind in enumerate(kinds):
            cseed = subseed(cfg.seed, _TAG_CLUSTER, trial, gidx, kidx)
            start = time.perf_counter()
            scores, _ = evaluate_cell(smoothed, kind, refs[kind], truth, cfg.k, seed=cseed,
                                      restarts=cfg.restarts)
            wall_ms = (time.perf_counter() - start) * 1e3
            records.append(RunRecord(
                trial=trial,
                t=seq.t_len,
                grid_param_kind=gkind,
                grid_param_value=gvalue,
                matrix_kind=kind,
                **scores,
                seed=cseed,
                wall_ms=wall_ms,
            ))
        del smoothed  # so the next grid point's matrix is built without this one alive
    return records


def _run_trial(cfg: ExperimentConfig, trial: int) -> list[RunRecord]:
    seq, snaps = generate_trial_sequence(cfg, trial)
    return evaluate_smoothed(cfg, trial, seq, snaps)


def run_sweep(cfg: ExperimentConfig) -> list[RunRecord]:
    """All records of a sweep, canonically ordered.

    With ``cfg.threads > 1`` trials run in a process pool; per-trial seeding
    makes the result identical to the serial run.
    """
    if cfg.threads > 1:
        with ProcessPoolExecutor(max_workers=cfg.threads) as pool:
            chunks = list(pool.map(_run_trial, [cfg] * cfg.trials, range(cfg.trials)))
    else:
        chunks = [_run_trial(cfg, trial) for trial in range(cfg.trials)]
    records = [rec for chunk in chunks for rec in chunk]
    records.sort(key=lambda r: (r.trial, r.grid_param_kind, r.grid_param_value,
                                r.matrix_kind))
    return records


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------

def median_by_grid(records: list[RunRecord], matrix_kind: str, grid_kind: str,
                   value_field: str) -> dict[float, float]:
    """Median of ``value_field`` across trials, per grid value."""
    groups: dict[float, list[float]] = {}
    for rec in records:
        if rec.matrix_kind == matrix_kind and rec.grid_param_kind == grid_kind:
            groups.setdefault(rec.grid_param_value, []).append(getattr(rec, value_field))
    return {v: float(np.median(vals)) for v, vals in sorted(groups.items())}


def _fit_rate_constant(med_err: dict[float, float], cfg: ExperimentConfig,
                       prof: SizeProfile, matrix_kind: str) -> float:
    """Least-squares constant c in ``median_err ~ c * shape(beta_max)``.

    The shape is the two-term bound with unit constants:
    ``sqrt(n a b) + a sqrt(n nbar eps / b)`` for the adjacency, scaled by
    ``mu_B / (nbar_min a)`` for the Laplacian, with ``nbar``, ``mu_B`` and
    ``nbar_min`` from ``prof``, the config's :meth:`~ExperimentConfig.size_profile`.
    """
    alpha = cfg.resolved_alpha
    xs, ys = [], []
    for beta_max, err in med_err.items():
        shape = math.sqrt(cfg.n * alpha * beta_max)
        if cfg.epsilon > 0:
            shape += alpha * math.sqrt(cfg.n * prof.nbar_max * cfg.epsilon / beta_max)
        if matrix_kind == "laplacian":
            shape *= prof.mu_b / (prof.nbar_min * alpha)
        xs.append(shape)
        ys.append(err)
    xs = np.asarray(xs)
    ys = np.asarray(ys)
    denom = float((xs * xs).sum())
    return float((xs * ys).sum() / denom) if denom > 0 else float("nan")


def summarize(records: list[RunRecord], cfg: ExperimentConfig) -> dict:
    """Grid argmins/argmaxes per matrix kind and smoother family.

    The grid value minimizing the median spectral error and the one
    maximizing the median ARI are reported separately: they are observed to
    disagree slightly, so conflating them would hide that effect.
    """
    out: dict[str, object] = {"schema": CSV_SCHEMA_VERSION}
    prof = cfg.size_profile()
    norm = math.sqrt(cfg.resolved_alpha * cfg.n * cfg.epsilon) if cfg.epsilon > 0 else None
    for kind in cfg.matrix_kinds():
        for gkind in ("lambda", "r"):
            med_err = median_by_grid(records, kind, gkind, "spec_err")
            if not med_err:
                continue
            med_ari = median_by_grid(records, kind, gkind, "ari")
            star_err = min(med_err, key=med_err.get)
            star_ari = max(med_ari, key=med_ari.get)
            prefix = f"{kind}.{gkind}"
            out[f"{prefix}.star_err"] = star_err
            out[f"{prefix}.min_median_err"] = med_err[star_err]
            out[f"{prefix}.star_ari"] = star_ari
            out[f"{prefix}.best_median_ari"] = med_ari[star_ari]
            if gkind == "lambda":
                if norm:
                    out[f"{prefix}.star_err_normalized"] = star_err / norm
                    out[f"{prefix}.star_ari_normalized"] = star_ari / norm
                beta_err = med_err
            else:
                beta_err = {1.0 / r: e for r, e in med_err.items()}
            out[f"{prefix}.fitted_rate_constant"] = _fit_rate_constant(beta_err, cfg, prof, kind)
    return out


# ---------------------------------------------------------------------------
# CSV round trip
# ---------------------------------------------------------------------------

def _format_cell(value) -> str:
    if isinstance(value, float):
        return format(value, ".12g")
    return str(value)


def records_to_csv(records: list[RunRecord]) -> str:
    buf = io.StringIO()
    buf.write(f"# {CSV_SCHEMA_VERSION}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for rec in records:
        writer.writerow([_format_cell(getattr(rec, col)) for col in CSV_COLUMNS])
    return buf.getvalue()


def write_records_csv(records: list[RunRecord], path) -> None:
    Path(path).write_text(records_to_csv(records))


def read_records_csv(path) -> list[RunRecord]:
    lines = [ln for ln in Path(path).read_text().splitlines() if not ln.startswith("#")]
    return [RunRecord(**{f.name: _CASTS[f.type](row[f.name]) for f in fields(RunRecord)})
            for row in csv.DictReader(lines)]


def plot_data_by_grid(records: list[RunRecord], cfg: ExperimentConfig) -> str:
    """Figure-style CSV: per grid point and matrix kind, the median error and ARI.

    ``normalized_value`` rescales the smoothing intensity (``lambda``, or
    ``1/r`` for windows) by ``sqrt(alpha n epsilon)``, the scale on which the
    optimum is predicted to sit; empty when ``epsilon = 0``.
    """
    norm = math.sqrt(cfg.resolved_alpha * cfg.n * cfg.epsilon) if cfg.epsilon > 0 else None
    buf = io.StringIO()
    buf.write(f"# {CSV_SCHEMA_VERSION} plot-data\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["grid_param_kind", "grid_param_value", "normalized_value",
                     "matrix_kind", "median_spec_err", "median_ari"])
    for kind in cfg.matrix_kinds():
        for gkind in ("lambda", "r"):
            med_err = median_by_grid(records, kind, gkind, "spec_err")
            med_ari = median_by_grid(records, kind, gkind, "ari")
            for gvalue in med_err:
                intensity = gvalue if gkind == "lambda" else 1.0 / gvalue
                writer.writerow([gkind, _format_cell(gvalue),
                                 _format_cell(intensity / norm) if norm else "",
                                 kind, _format_cell(med_err[gvalue]),
                                 _format_cell(med_ari[gvalue])])
    return buf.getvalue()
