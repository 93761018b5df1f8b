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

from .bounds import bound_terms
from .dynamics import (
    DeterministicDsbmConfig,
    MarkovDsbmConfig,
    MembershipSequence,
    SnapshotSequence,
    gen_deterministic_sequence,
    gen_markov_sequence,
    sample_snapshot_sequence,
)
from .errors import InvalidInputError
from .metrics import adjusted_rand_index, misclassification_error
from .sbm import (
    CommunityLabels,
    ConnectivityModel,
    SizeProfile,
    _inverse_sqrt_degrees,
    _trusted,
    effective_sizes,
    expectation_factors,
    normalized_laplacian,
    normalized_laplacian_csr,
)
from .smoothing import (Exponential, SmootherKind, TuningProfile, Uniform, smoothed_matrix,
                        tuning_profile)
from .spectral import spectral_cluster, spectral_norm
from .util import subseed

CSV_SCHEMA_VERSION = "dynsc-sweep-csv v2"

_TAG_TRIAL_MEMBERSHIP = 11
_TAG_TRIAL_SNAPSHOTS = 12
_TAG_CLUSTER = 13

DEFAULT_LAMBDA_GRID = tuple(float(x) for x in np.geomspace(0.04, 1.0, 12))

# text parsers by field annotation (annotations are strings in this module)
_CASTS = {"int": int, "float": float, "str": str}
_GRID_CASTS = {"lambda_grid": lambda v: "star" if v.strip() == "star" else float(v),
               "r_grid": int}


@dataclass(frozen=True)
class ExperimentConfig:
    """Parameter space of a sweep; defaults follow the mid-scale preset.

    Exactly one of ``alpha`` (absolute), ``alpha_log_scale``
    (``alpha = c * log(n) / n``) or ``alpha_inv_scale`` (``alpha = c / n``)
    must be set. A ``lambda_grid`` entry may be the token ``"star"``, which
    resolves once, to ``tuning().optimal_lambda``.
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
        self.size_profile()  # rejects infeasible size bounds and a smallest expected degree of 0
        object.__setattr__(self, "lambda_grid", tuple(
            self.tuning().optimal_lambda if v == "star" else float(v) for v in self.lambda_grid))
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
        other fields come from the resolved bounds. A ``nbar_min`` of 0, which
        the Laplacian rates divide by, is rejected.
        """
        prof = effective_sizes(self.model(), self.n, self.resolved_n_min, self.resolved_n_max)
        if prof.nbar_min == 0:
            raise InvalidInputError(
                f"the smallest expected degree is 0 (k={self.k}, tau={self.tau}, community "
                f"sizes down to n_min={self.resolved_n_min}); raise n, tau or n_min")
        if self.mode == "deterministic":
            return prof
        return replace(prof, nbar_max=float(self.n), mu_b=self.n / prof.nbar_min)

    def tuning(self) -> TuningProfile:
        """The tuning of this config's regime, at its :meth:`size_profile`'s ``nbar_max``."""
        nbar_max = self.size_profile().nbar_max
        return tuning_profile(self.n, self.resolved_alpha, self.epsilon, nbar_max)

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


CSV_COLUMNS = tuple(f.name for f in fields(RunRecord))


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

    The adjacency reference ``P_t`` has ``U = Z``, the one-hot labels as a dense
    array, and ``C = alpha * b0``: the :func:`expectation_factors` of
    ``[(1.0, truth)]``. The Laplacian reference ``L(P_t)`` has ``U = D^{-1/2} Z``
    with ``d`` the row sums of ``P_t``, diagonal included. ``P_t`` itself is never built.
    """
    z, c = expectation_factors([(1.0, truth)], model)
    z = z.toarray()
    refs = {"adjacency": (z, c)}
    if "laplacian" in kinds:
        inv = _inverse_sqrt_degrees((c @ truth.sizes())[truth.labels], "error")
        refs["laplacian"] = (z * inv[:, None], c)
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

    ``smoothed`` must be a :func:`smoothed_matrix` result, exactly symmetric by
    construction, as ``ref`` and the Laplacian are: the layers below skip their
    symmetry checks on these objects, and only on them.
    """
    with _trusted(smoothed):
        if kind == "adjacency":
            target = smoothed
        elif isinstance(smoothed, np.ndarray):
            target = normalized_laplacian(smoothed, zero_degree="zero-row")
        else:
            target = normalized_laplacian_csr(smoothed, zero_degree="zero-row")
    with _trusted(target, ref[1]):
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

    The shape is the sum of :func:`dynsc.bounds.bound_terms` at ``prof``, the
    config's :meth:`~ExperimentConfig.size_profile`.
    """
    xs = np.asarray([sum(bound_terms(prof, cfg.resolved_alpha, cfg.epsilon, beta_max,
                                     matrix_kind)) for beta_max in med_err])
    ys = np.asarray(list(med_err.values()))
    denom = float((xs * xs).sum())
    return float((xs * ys).sum() / denom) if denom > 0 else float("nan")


def _grid_medians(records: list[RunRecord], cfg: ExperimentConfig) -> tuple[float | None, list]:
    """``cfg.tuning().optimal_lambda`` (None at ``epsilon = 0``) and, per matrix kind and smoother
    family with records, ``(kind, gkind, median spec_err, median ARI)`` keyed by grid value."""
    norm = cfg.tuning().optimal_lambda if cfg.epsilon > 0 else None
    families = [(kind, gkind, median_by_grid(records, kind, gkind, "spec_err"),
                 median_by_grid(records, kind, gkind, "ari"))
                for kind in cfg.matrix_kinds() for gkind in ("lambda", "r")]
    return norm, [family for family in families if family[2]]


def summarize(records: list[RunRecord], cfg: ExperimentConfig) -> dict:
    """Grid argmins/argmaxes per matrix kind and smoother family.

    The grid value minimizing the median spectral error and the one
    maximizing the median ARI are reported separately: they are observed to
    disagree slightly, so conflating them would hide that effect.
    """
    out: dict[str, object] = {"schema": CSV_SCHEMA_VERSION}
    prof = cfg.size_profile()
    norm, families = _grid_medians(records, cfg)
    for kind, gkind, med_err, med_ari in families:
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


def plot_data_by_grid(records: list[RunRecord], cfg: ExperimentConfig) -> str:
    """Figure-style CSV: per grid point and matrix kind, the median error and ARI.

    ``normalized_value`` rescales the smoothing intensity (``lambda``, or
    ``1/r`` for windows) by the tuned lambda*, ``cfg.tuning().optimal_lambda``,
    so 1.0 is the ``star`` grid point; empty when ``epsilon = 0``.
    """
    buf = io.StringIO()
    buf.write(f"# {CSV_SCHEMA_VERSION} plot-data\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["grid_param_kind", "grid_param_value", "normalized_value",
                     "matrix_kind", "median_spec_err", "median_ari"])
    norm, families = _grid_medians(records, cfg)
    for kind, gkind, med_err, med_ari in families:
        for gvalue in med_err:
            intensity = gvalue if gkind == "lambda" else 1.0 / gvalue
            writer.writerow([gkind, _format_cell(gvalue),
                             _format_cell(intensity / norm) if norm else "",
                             kind, _format_cell(med_err[gvalue]), _format_cell(med_ari[gvalue])])
    return buf.getvalue()
