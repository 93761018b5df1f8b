"""Temporally smoothed adjacency estimators and their tuning theory.

Both the uniform window estimator (mean of the last ``r`` snapshots) and the
exponential estimator (recursive update with forgetting factor ``lambda``) are
special cases of a weighted sum ``sum_k beta_k A_{t-k}``, built as a dense
array (:func:`weighted_smooth`) or, bit for bit equal, as a CSR array
(:func:`weighted_smooth_csr`). The weight
conditions certifying concentration are checked numerically by
:func:`validate_weights`; the optimal amount of smoothing is
``rho = min(1, sqrt(nbar_max * alpha * epsilon))``, evaluated by
:func:`tuning_profile` together with the warm-up horizons ``t_min``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np
import scipy.sparse

from .errors import InvalidInputError, MemoryBudgetError
from .sbm import AdjacencySnapshot
from .spectral import DENSE_EIGEN_LIMIT
from .util import available_memory

WEIGHT_SUM_TOL = 1e-12
# n x n float64 arrays the sweep and cluster paths hold at their peak: the
# smoothed matrix, and the scale matrix and result of its Laplacian, with room
# for the boolean temporaries of the symmetry checks
DENSE_WORKSPACE_MATRICES = 4
# Above DENSE_EIGEN_LIMIT, a smoothed matrix at most this share nonzero is built
# and multiplied as CSR, and a denser one as a dense array multiplied by BLAS
# dsymv. Measured with 1 BLAS thread on a 2-core x86 machine: at n = 1000-4000
# a CSR product costs 0.3-0.45 dsymv at 10% nonzero and breaks even near
# 20-25%; at n = 500, where the array fits in cache, CSR breaks even near 8%
# and costs 1.2 dsymvs at 10%.
SPARSE_OPERATOR_SHARE = 0.1


@dataclass(frozen=True)
class Uniform:
    """Sliding-window smoother: mean of the last ``r`` snapshots."""

    r: int

    def __post_init__(self):
        if self.r < 1:
            raise InvalidInputError(f"window size must be >= 1, got {self.r}")


@dataclass(frozen=True)
class Exponential:
    """Streaming smoother ``A_t = (1 - lam) * A_{t-1} + lam * A_t`` with ``A_0`` the first snapshot."""

    lam: float

    def __post_init__(self):
        if not 0.0 < self.lam <= 1.0:
            raise InvalidInputError(f"forgetting factor must be in (0, 1], got {self.lam}")


SmootherKind = Union[Uniform, Exponential]


@dataclass(frozen=True)
class SmoothingWeights:
    """Weight sequence ``beta_0..beta_t`` with the constants claimed for it.

    ``beta_max``, ``c_beta`` and ``c_beta_prime`` are the constants under
    which the weight conditions are claimed to hold; :func:`weights_of`
    attaches the certified values (uniform: ``1/r, 1, 1``; exponential:
    ``lam, 3/2, 2``).
    """

    betas: np.ndarray
    beta_max: float
    c_beta: float
    c_beta_prime: float

    def __post_init__(self):
        betas = np.asarray(self.betas, dtype=float)
        object.__setattr__(self, "betas", betas)
        if betas.ndim != 1 or betas.size == 0:
            raise InvalidInputError("betas must be a non-empty 1-d sequence")
        if betas.min() < 0.0:
            raise InvalidInputError("weights must be non-negative")
        if abs(betas.sum() - 1.0) > WEIGHT_SUM_TOL:
            raise InvalidInputError(f"weights must sum to 1, got {betas.sum()!r}")

    @property
    def t_len(self) -> int:
        return self.betas.size - 1


def weights_of(kind: SmootherKind, t: int) -> SmoothingWeights:
    """Exact weight sequence of a smoother after a history of length ``t``.

    Index ``k`` weights ``A_{t-k}``. Uniform windows require ``t + 1 >= r``.
    """
    if t < 0:
        raise InvalidInputError("history length must be >= 0")
    if isinstance(kind, Uniform):
        if t + 1 < kind.r:
            raise InvalidInputError(f"window r={kind.r} exceeds history t+1={t + 1}")
        betas = np.zeros(t + 1)
        betas[:kind.r] = 1.0 / kind.r
        return SmoothingWeights(betas, beta_max=1.0 / kind.r, c_beta=1.0, c_beta_prime=1.0)
    if isinstance(kind, Exponential):
        lam = kind.lam
        ks = np.arange(t + 1, dtype=float)
        betas = lam * (1.0 - lam) ** ks
        betas[t] = (1.0 - lam) ** t
        return SmoothingWeights(betas, beta_max=lam, c_beta=1.5, c_beta_prime=2.0)
    raise InvalidInputError(f"unknown smoother kind {kind!r}")


def prefers_csr(n: int, nnz: int) -> bool:
    """Whether an n x n smoothed matrix with ``nnz`` nonzeros should be built as CSR.

    True above ``DENSE_EIGEN_LIMIT`` when at most ``SPARSE_OPERATOR_SHARE`` of
    the entries are nonzero. The Laplacian and the eigensolver keep the form
    the matrix is built in.
    """
    return n > DENSE_EIGEN_LIMIT and nnz <= SPARSE_OPERATOR_SHARE * n * n


def _check_dense_fits(n: int) -> None:
    """Raise :class:`MemoryBudgetError` when the dense workspace for size ``n`` exceeds free memory.

    Skipped when free memory cannot be read.
    """
    need = DENSE_WORKSPACE_MATRICES * 8 * n * n
    free = available_memory()
    if free is not None and need > free:
        raise MemoryBudgetError(
            f"n={n} needs about {need / 2**30:.1f} GiB for {DENSE_WORKSPACE_MATRICES} dense "
            f"n x n float64 matrices but {free / 2**30:.1f} GiB is available; sweep and "
            f"cluster smooth into a sparse (CSR) matrix instead, but only above n="
            f"{DENSE_EIGEN_LIMIT} and while the weighted snapshots' edges fill at most "
            f"{SPARSE_OPERATOR_SHARE:.0%} of the entries, so reduce n, alpha or the "
            "smoothing window")


def _checked_history(snapshots: Sequence[AdjacencySnapshot],
                     betas: np.ndarray) -> tuple[list[AdjacencySnapshot], int, np.ndarray]:
    """The snapshots as a list, their common ``n`` and ``betas`` as floats, checked."""
    snaps = list(snapshots)
    if not snaps:
        raise InvalidInputError("need at least one snapshot")
    if not all(isinstance(s, AdjacencySnapshot) for s in snaps):
        raise InvalidInputError("expected AdjacencySnapshot inputs")
    n = snaps[0].n
    if any(s.n != n for s in snaps):
        raise InvalidInputError("snapshots must share n")
    betas = np.asarray(betas, dtype=float)
    if betas.size > len(snaps):
        raise InvalidInputError(f"{betas.size} weights but only {len(snaps)} snapshots")
    return snaps, n, betas


def weighted_smooth(snapshots: Sequence[AdjacencySnapshot], betas: np.ndarray) -> np.ndarray:
    """General weighted sum ``sum_k betas[k] * A_{t-k}`` over the given history.

    ``snapshots`` is ordered by time (oldest first); ``betas[k]`` weights the
    snapshot ``k`` steps before the last one. Before allocating, the dense
    workspace of the evaluation path is checked against free memory, and
    :class:`MemoryBudgetError` is raised if it does not fit.
    """
    snaps, n, betas = _checked_history(snapshots, betas)
    _check_dense_fits(n)
    upper = np.zeros((n, n))
    for k, beta in enumerate(betas):
        if beta == 0.0:
            continue
        snap = snaps[len(snaps) - 1 - k]
        upper[snap.rows, snap.cols] += beta
    return upper + upper.T


def _upper_csr(snaps: list[AdjacencySnapshot], n: int,
               betas: np.ndarray) -> scipy.sparse.csr_array:
    """The strict upper triangle of ``sum_k betas[k] * A_{t-k}`` as a canonical CSR array.

    Each entry adds its weights in the order of :func:`weighted_smooth`'s
    loop, starting from zero, so the values match it bit for bit.
    """
    live = [(beta, snaps[len(snaps) - 1 - k]) for k, beta in enumerate(betas) if beta != 0.0]
    keys = np.concatenate([np.empty(0, dtype=np.int64)]
                          + [snap.rows * n + snap.cols for _, snap in live])
    weights = np.repeat([beta for beta, _ in live], [snap.edge_count for _, snap in live])
    # the stable sort keeps each key's weights in loop order, and bincount adds them
    # in array order (a COO sum_duplicates sorts unstably and would reorder them)
    order = np.argsort(keys, kind="stable")
    keys, weights = keys[order], weights[order]
    first = np.ones(keys.size, dtype=bool)
    first[1:] = keys[1:] != keys[:-1]
    values = np.bincount(np.cumsum(first) - 1, weights)
    rows, cols = np.divmod(keys[first], n)
    index = np.int32 if max(n, values.size) < 2**31 else np.int64  # halves the index bytes
    indptr = np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=n))))
    return scipy.sparse.csr_array((values, cols.astype(index), indptr.astype(index)),
                                  shape=(n, n))


def weighted_smooth_csr(snapshots: Sequence[AdjacencySnapshot],
                        betas: np.ndarray) -> scipy.sparse.csr_array:
    """:func:`weighted_smooth` as a CSR array, in O(n + edges) memory.

    ``toarray()`` of the result equals :func:`weighted_smooth` bit for bit.
    There is no memory guard: nothing n x n is allocated.
    """
    snaps, n, betas = _checked_history(snapshots, betas)
    upper = _upper_csr(snaps, n, betas)  # its edge-sized temporaries are freed by now
    return upper + upper.T


def exp_smooth_update(state: np.ndarray, a_t: AdjacencySnapshot, lam: float) -> np.ndarray:
    """One streaming update ``state <- (1 - lam) * state + lam * A_t``, in place.

    Keeps exactly one dense n-by-n state and no history. The state array is
    mutated and returned.
    """
    if not 0.0 < lam <= 1.0:
        raise InvalidInputError(f"forgetting factor must be in (0, 1], got {lam}")
    state = np.asarray(state)
    if state.shape != (a_t.n, a_t.n):
        raise InvalidInputError(f"state shape {state.shape} does not match n={a_t.n}")
    state *= 1.0 - lam
    state[a_t.rows, a_t.cols] += lam
    state[a_t.cols, a_t.rows] += lam
    return state


# ---------------------------------------------------------------------------
# Weight conditions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WeightReport:
    """Numerical evaluation of the four weight conditions.

    Conditions, for claimed constants ``(beta_max, c_beta, c_beta_prime)``:
    sum to one; ``beta_k <= beta_max``; ``sum beta_k^2 <= c_beta * beta_max``;
    ``sum beta_k * min(1, sqrt(k * eps)) <= c_beta_prime * sqrt(eps / beta_max)``.
    ``c_beta_tight`` / ``c_beta_prime_tight`` are the smallest constants that
    would pass given the claimed ``beta_max``.
    """

    sum_ok: bool
    bound_ok: bool
    square_ok: bool
    decay_ok: bool
    sum_beta: float
    max_beta: float
    sum_beta_sq: float
    decay_sum: float
    beta_max: float
    c_beta: float
    c_beta_prime: float
    c_beta_tight: float
    c_beta_prime_tight: float

    @property
    def all_ok(self) -> bool:
        return self.sum_ok and self.bound_ok and self.square_ok and self.decay_ok

    def to_kv(self) -> dict:
        return {
            "sum_ok": self.sum_ok, "bound_ok": self.bound_ok,
            "square_ok": self.square_ok, "decay_ok": self.decay_ok,
            "sum_beta": self.sum_beta, "max_beta": self.max_beta,
            "sum_beta_sq": self.sum_beta_sq, "decay_sum": self.decay_sum,
            "beta_max": self.beta_max, "c_beta": self.c_beta,
            "c_beta_prime": self.c_beta_prime,
            "c_beta_tight": self.c_beta_tight,
            "c_beta_prime_tight": self.c_beta_prime_tight,
        }


def validate_weights(w: SmoothingWeights, epsilon_n: float) -> WeightReport:
    """Evaluate the weight conditions for ``w`` at regularity ``epsilon_n``.

    The claimed constants are those carried by ``w``. All comparisons use a
    1e-12 absolute slack: the weights are analytically exact, so only
    rounding noise is expected.
    """
    if not 0.0 < epsilon_n <= 1.0:
        raise InvalidInputError(f"epsilon_n must be in (0, 1], got {epsilon_n}")
    beta_max, c_beta, c_beta_prime = w.beta_max, w.c_beta, w.c_beta_prime
    betas = w.betas
    ks = np.arange(betas.size, dtype=float)
    sum_beta = float(betas.sum())
    max_beta = float(betas.max())
    sum_beta_sq = float((betas ** 2).sum())
    decay_sum = float((betas * np.minimum(1.0, np.sqrt(ks * epsilon_n))).sum())
    decay_rhs = c_beta_prime * math.sqrt(epsilon_n / beta_max)
    tol = WEIGHT_SUM_TOL
    return WeightReport(
        sum_ok=abs(sum_beta - 1.0) <= tol,
        bound_ok=max_beta <= beta_max + tol,
        square_ok=sum_beta_sq <= c_beta * beta_max + tol,
        decay_ok=decay_sum <= decay_rhs + tol,
        sum_beta=sum_beta,
        max_beta=max_beta,
        sum_beta_sq=sum_beta_sq,
        decay_sum=decay_sum,
        beta_max=beta_max,
        c_beta=c_beta,
        c_beta_prime=c_beta_prime,
        c_beta_tight=sum_beta_sq / beta_max,
        c_beta_prime_tight=decay_sum / math.sqrt(epsilon_n / beta_max),
    )


# ---------------------------------------------------------------------------
# Tuning
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TuningProfile:
    """Optimal smoothing intensity and warm-up horizons for a regime.

    ``rho_n = min(1, sqrt(nbar_max * alpha * epsilon))`` and
    ``rho_coarse = min(1, sqrt(n * alpha * epsilon))`` (the coarser variant with
    ``n`` in place of ``nbar_max``). Smoothing helps iff ``rho_n < 1``; the
    nominal tunings are ``r = ceil(1 / rho_n)`` and ``lambda = rho_n``.

    Two warm-up horizons appear in the theory; ``t_min`` is their maximum,
    which satisfies both statements.
    """

    rho_n: float
    rho_coarse: float
    t_min_regime: float
    t_min_weights: float
    optimal_r: int
    optimal_lambda: float

    @property
    def t_min(self) -> float:
        return max(self.t_min_regime, self.t_min_weights)

    def to_kv(self) -> dict:
        return {
            "rho_n": self.rho_n, "rho_coarse": self.rho_coarse,
            "t_min_regime": self.t_min_regime,
            "t_min_weights": self.t_min_weights, "t_min": self.t_min,
            "optimal_r": self.optimal_r, "optimal_lambda": self.optimal_lambda,
        }


def t_min_regime(n: int, alpha_n: float, rho_n: float) -> float:
    """Warm-up horizon ``log(rho / (alpha * n)) / (2 log(1 - rho))``.

    Defined as 0 when ``rho = 1`` (no smoothing required) or when the formula
    is non-positive.
    """
    if rho_n >= 1.0:
        return 0.0
    value = math.log(rho_n / (alpha_n * n)) / (2.0 * math.log(1.0 - rho_n))
    return max(0.0, value)


def t_min_weights(beta_max: float, epsilon_n: float) -> float:
    """Warm-up horizon ``min(log(eps / beta_max), log beta_max) / (2 log(1 - beta_max))``.

    This is the certified horizon for the exponential weights with
    ``lambda = beta_max``: it makes the square and decay conditions hold with
    the certified constants. Defined as 0 when ``beta_max = 1``.

    Note that it does not control the per-weight bound condition: the residual
    weight ``(1 - lambda)^t`` on the oldest snapshot only drops below
    ``lambda`` itself after :func:`t_min_weight_bound`, which can be up to
    twice as long. :func:`validate_weights` evaluates all conditions honestly,
    so checking at this horizon alone can report ``bound_ok=False``.
    """
    if beta_max >= 1.0:
        return 0.0
    num = min(math.log(epsilon_n / beta_max), math.log(beta_max))
    value = num / (2.0 * math.log(1.0 - beta_max))
    return max(0.0, value)


def t_min_weight_bound(beta_max: float) -> float:
    """Horizon after which the residual exponential weight is at most ``beta_max``.

    Solves ``(1 - lambda)^t <= lambda`` for ``lambda = beta_max``; together
    with :func:`t_min_weights` this makes all four weight conditions hold with
    the certified constants.
    """
    if beta_max >= 1.0:
        return 0.0
    return max(0.0, math.log(beta_max) / math.log(1.0 - beta_max))


def tuning_profile(n: int, alpha_n: float, epsilon_n: float, nbar_max: float) -> TuningProfile:
    """Closed-form tuning quantities for the given regime."""
    if n < 1 or alpha_n <= 0.0 or nbar_max <= 0.0:
        raise InvalidInputError("n, alpha_n and nbar_max must be positive")
    if not 0.0 < epsilon_n <= 1.0:
        raise InvalidInputError(f"epsilon_n must be in (0, 1], got {epsilon_n}")
    rho_n = min(1.0, math.sqrt(nbar_max * alpha_n * epsilon_n))
    rho_coarse = min(1.0, math.sqrt(n * alpha_n * epsilon_n))
    return TuningProfile(
        rho_n=rho_n,
        rho_coarse=rho_coarse,
        t_min_regime=t_min_regime(n, alpha_n, rho_n),
        t_min_weights=t_min_weights(rho_n, epsilon_n),
        optimal_r=max(1, math.ceil(1.0 / rho_n)),
        optimal_lambda=rho_n,
    )
