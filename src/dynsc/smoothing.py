"""Temporally smoothed adjacency estimators and their tuning theory.

Both the uniform window estimator (mean of the last ``r`` snapshots) and the
exponential estimator (recursive update with forgetting factor ``lambda``) are
special cases of a weighted sum ``sum_k beta_k A_{t-k}``: :func:`weights_of`
gives the ``beta_k``, and :func:`weighted_history` pairs each nonzero one with
its step for every such sum, here and in :mod:`dynsc.bounds`. The sum is built
as a dense array (:func:`weighted_smooth`) or, bit for bit equal, as a CSR array
(:func:`weighted_smooth_csr`); :func:`smoothed_matrix` picks the form, and checks
that it fits in free memory, for the sweep and ``cluster``. The four weight
conditions certifying concentration, for the constants a :class:`SmoothingWeights`
claims, are: the weights sum to one; ``beta_k <= beta_max``;
``sum beta_k^2 <= c_beta * beta_max``; and
``sum beta_k * min(1, sqrt(k * eps)) <= c_beta_prime * sqrt(eps / beta_max)``. The
optimal amount of smoothing is ``rho = min(1, sqrt(nbar_max * alpha * epsilon))``,
evaluated by :func:`tuning_profile` together with the warm-up horizons ``t_min``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np
import scipy.sparse

from .dynamics import SnapshotSequence
from .errors import InvalidInputError, MemoryBudgetError
from .sbm import AdjacencySnapshot
from .util import available_memory

WEIGHT_SUM_TOL = 1e-12
# n x n float64 arrays reserved for the sweep and cluster paths: the smoothed
# matrix and its Laplacian (the measured peak, about 2.2 of them), and the
# copies the dense eigensolver fallback makes on top
DENSE_WORKSPACE_MATRICES = 4
# bytes per weighted-snapshot edge and per node reserved for the same paths in
# CSR form. The tracemalloc peak over build, Laplacian and checked Lanczos
# operand is 88 per edge on the sparse2k lambda* history (n = 2000, seed 7), 92
# at n = 20000, alpha = 8/n, T = 30, and 100 on one snapshot, whose edges are
# all distinct; the sweep cell, which checks nothing, peaks at 65 per edge. The
# Lanczos vectors and k-means arrays add 270-375 per node at K = 2 and 340 at
# K = 4 (smoothed_matrix plus both evaluate_cell kinds, one snapshot,
# n = 200-20000), and about 70 more per community above that
CSR_BYTES_PER_EDGE = 104
CSR_BYTES_PER_NODE = 400
_MIRROR_BLOCK = 64  # rows per block of weighted_smooth's in-place mirror
# The one form rule, at every n: a smoothed matrix at most this share nonzero is
# built and multiplied as CSR, and a denser one as a dense array multiplied by
# BLAS dsymv. Measured with 1 BLAS thread on a 2-core x86 machine: at
# n = 1000-4000 a CSR product costs 0.3-0.45 dsymv at 10% nonzero and breaks
# even near 20-25%; at n = 500, where the array fits in cache, CSR breaks even
# near 8% and costs 1.2 dsymvs at 10%.
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


def weighted_history(items: Sequence, betas) -> list:
    """The ``(beta, item)`` pairs of ``sum_k betas[k] * items[t - k]`` with a nonzero weight.

    ``items`` is ordered by time (oldest first) and ``betas[k]`` weights the
    item ``k`` steps before the last one, so the pairs come newest first.
    """
    if len(betas) > len(items):
        raise InvalidInputError(f"{len(betas)} weights but only {len(items)} steps")
    return [(beta, items[-1 - k]) for k, beta in enumerate(betas) if beta != 0.0]


def _checked_history(snapshots: Sequence[AdjacencySnapshot], betas) -> tuple[int, list]:
    """The snapshots' common ``n`` and their :func:`weighted_history` under float ``betas``."""
    snaps = list(snapshots)
    if not snaps:
        raise InvalidInputError("need at least one snapshot")
    if not all(isinstance(s, AdjacencySnapshot) for s in snaps):
        raise InvalidInputError("expected AdjacencySnapshot inputs")
    n = snaps[0].n
    if any(s.n != n for s in snaps):
        raise InvalidInputError("snapshots must share n")
    return n, weighted_history(snaps, np.asarray(betas, dtype=float))


def weighted_smooth(snapshots: Sequence[AdjacencySnapshot], betas: np.ndarray) -> np.ndarray:
    """General weighted sum ``sum_k betas[k] * A_{t-k}`` over the given history, as a dense array.

    ``snapshots`` is ordered by time (oldest first); ``betas[k]`` weights the
    snapshot ``k`` steps before the last one. Nothing is checked against free
    memory here: :func:`smoothed_matrix` does that for both forms.
    """
    n, live = _checked_history(snapshots, betas)
    out = np.zeros((n, n))
    for beta, snap in live:
        out.reshape(-1)[snap.keys()] += beta  # a flat view, cheaper to index
    # mirror the strict upper triangle into the zero lower one, a row block at a
    # time: each entry becomes acc + 0.0 or 0.0 + acc, the bits of upper + upper.T,
    # without a second n x n array
    for i in range(0, n, _MIRROR_BLOCK):
        out[i:, i:i + _MIRROR_BLOCK] += out[i:i + _MIRROR_BLOCK, i:].T
    return out


def _upper_csr(live: list, n: int) -> scipy.sparse.csr_array:
    """The strict upper triangle of a :func:`weighted_history` sum as a canonical CSR array.

    Each entry adds its weights in the order of :func:`weighted_smooth`'s
    loop, starting from zero, so the values match it bit for bit.
    """
    keys = np.concatenate([np.empty(0, dtype=np.int64)] + [snap.keys() for _, snap in live])
    weights = np.repeat([beta for beta, _ in live], [snap.edge_count for _, snap in live])
    # bincount adds each key's weights in array order, which is loop order (a COO
    # sum_duplicates sorts unstably and would reorder them)
    keys, inverse = np.unique(keys, return_inverse=True)
    values = np.bincount(inverse, weights)
    rows, cols = np.divmod(keys, n)
    index = np.int32 if max(n, values.size) < 2**31 else np.int64  # halves the index bytes
    indptr = np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=n))))
    return scipy.sparse.csr_array((values, cols.astype(index), indptr.astype(index)),
                                  shape=(n, n))


def weighted_smooth_csr(snapshots: Sequence[AdjacencySnapshot],
                        betas: np.ndarray) -> scipy.sparse.csr_array:
    """:func:`weighted_smooth` as a CSR array, in O(n + edges) memory.

    ``toarray()`` of the result equals :func:`weighted_smooth` bit for bit.
    """
    n, live = _checked_history(snapshots, betas)
    upper = _upper_csr(live, n)  # its edge-sized temporaries are freed by now
    return upper + upper.T


def smoothed_matrix(snaps: SnapshotSequence, smoother: SmootherKind):
    """The final-step estimate of ``smoother`` over ``snaps``, in the form every later layer keeps.

    Form and memory follow from the edge count of the weighted snapshots, before
    anything is built. When twice that count (a bound on the nonzeros) is at
    most ``SPARSE_OPERATOR_SHARE`` of the entries, the matrix is a CSR array
    (:func:`weighted_smooth_csr`) needing ``CSR_BYTES_PER_EDGE`` per edge plus
    ``CSR_BYTES_PER_NODE`` per node, at every n; else a dense one
    (:func:`weighted_smooth`) needing ``DENSE_WORKSPACE_MATRICES`` n x n float64
    arrays. A need above free memory raises :class:`MemoryBudgetError`; the
    check is skipped where free memory cannot be read.
    """
    n, betas = snaps.n, weights_of(smoother, snaps.t_len).betas
    edges = sum(snap.edge_count for _, snap in weighted_history(snaps.snapshots, betas))
    if 2 * edges <= SPARSE_OPERATOR_SHARE * n * n:
        form, build = "CSR", weighted_smooth_csr
        need = CSR_BYTES_PER_EDGE * edges + CSR_BYTES_PER_NODE * n
    else:
        form, need, build = "dense", DENSE_WORKSPACE_MATRICES * 8 * n * n, weighted_smooth
    free = available_memory()
    if free is not None and need > free:
        raise MemoryBudgetError(
            f"{form} smoothing at n={n} with {edges} weighted edges needs {need} bytes but "
            f"{free} are available; the sparse (CSR) form, {CSR_BYTES_PER_EDGE} bytes per "
            f"edge and {CSR_BYTES_PER_NODE} per node, is used while twice the edges fill at "
            f"most {SPARSE_OPERATOR_SHARE:.0%} of the entries; reduce n, alpha or the "
            f"smoothing window")
    return build(snaps.snapshots, betas)


def exp_smooth_update(state: np.ndarray, a_t: AdjacencySnapshot, lam: float) -> np.ndarray:
    """One streaming update ``state <- (1 - lam) * state + lam * A_t``, in place.

    Keeps exactly one dense n-by-n state and no history. The state array is
    mutated and returned.
    """
    Exponential(lam)  # validates the forgetting factor
    state = np.asarray(state)
    if state.shape != (a_t.n, a_t.n):
        raise InvalidInputError(f"state shape {state.shape} does not match n={a_t.n}")
    state *= 1.0 - lam
    state[a_t.rows, a_t.cols] += lam
    state[a_t.cols, a_t.rows] += lam
    return state


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

    The paper's two warm-up horizons are ``t_min_regime`` and ``t_min_weights``;
    ``t_min_weight_bound`` is the one its weight horizon leaves out (see
    :func:`t_min_weights`). ``t_min`` is the maximum of the three: the first
    horizon at which both of the paper's statements and all four weight
    conditions (see the module docstring) hold for ``lambda = rho_n``.
    """

    rho_n: float
    rho_coarse: float
    t_min_regime: float
    t_min_weights: float
    t_min_weight_bound: float
    optimal_r: int
    optimal_lambda: float

    @property
    def t_min(self) -> float:
        return max(self.t_min_regime, self.t_min_weights, self.t_min_weight_bound)

    def to_kv(self) -> dict:
        return {
            "rho_n": self.rho_n, "rho_coarse": self.rho_coarse,
            "t_min_regime": self.t_min_regime, "t_min_weights": self.t_min_weights,
            "t_min_weight_bound": self.t_min_weight_bound, "t_min": self.t_min,
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

    This is the paper's horizon for the exponential weights with
    ``lambda = beta_max``: it makes the square and decay conditions hold with
    the certified constants. Defined as 0 when ``beta_max = 1``.

    It does not control the per-weight bound condition: the residual weight
    ``(1 - lambda)^t`` on the oldest snapshot only drops below ``lambda``
    after :func:`t_min_weight_bound`, which can be up to twice as long, so at
    this horizon alone the bound condition can fail. :attr:`TuningProfile.t_min`
    takes both.
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
        raise InvalidInputError(f"epsilon must be in (0, 1], got {epsilon_n}")
    rho_n = min(1.0, math.sqrt(nbar_max * alpha_n * epsilon_n))
    rho_coarse = min(1.0, math.sqrt(n * alpha_n * epsilon_n))
    return TuningProfile(
        rho_n=rho_n,
        rho_coarse=rho_coarse,
        t_min_regime=t_min_regime(n, alpha_n, rho_n),
        t_min_weights=t_min_weights(rho_n, epsilon_n),
        t_min_weight_bound=t_min_weight_bound(rho_n),
        optimal_r=max(1, math.ceil(1.0 / rho_n)),
        optimal_lambda=rho_n,
    )
