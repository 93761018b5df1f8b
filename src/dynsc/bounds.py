"""Closed-form rate evaluation and empirical checkers for the concentration theory.

All universal constants in the rates are set to 1 and the values are
shape-only: the theory never instantiates them, so experiments fit constants
empirically instead of asserting them. Conditions are reported as LHS/RHS
ratios (satisfied when >= 1 with unit constants) so margins can be studied,
not just booleans.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import MembershipSequence, SnapshotSequence
from .errors import InvalidInputError
from .sbm import (
    CommunityLabels,
    ConnectivityModel,
    build_probability_matrix,
    check_symmetric,
    effective_sizes,
    normalized_laplacian,
)
from .smoothing import SmoothingWeights
from .spectral import DENSE_FALLBACK_LIMIT, spectral_norm


@dataclass(frozen=True)
class RegimeInputs:
    """Model and size quantities entering the rates."""

    n: int
    k: int
    alpha: float
    epsilon: float
    n_min: int
    n_max: int
    n_prime_max: int
    nbar_min: float
    nbar_max: float
    mu_b: float
    gamma: float
    delta: float = 0.0   # k-means cost-ratio proxy
    nu: float = 1.0      # confidence exponent: failure probability n^-nu

    def __post_init__(self):
        if self.n < 1 or self.alpha <= 0.0:
            raise InvalidInputError("n and alpha must be positive")
        if not 0.0 < self.epsilon <= 1.0:
            raise InvalidInputError(f"epsilon must be in (0, 1], got {self.epsilon}")
        if self.nbar_min <= 0.0 or self.nbar_max < self.nbar_min:
            raise InvalidInputError("need 0 < nbar_min <= nbar_max")

    @classmethod
    def from_model(cls, model: ConnectivityModel, n: int, n_min: int, n_max: int,
                   epsilon: float, delta: float = 0.0, nu: float = 1.0) -> "RegimeInputs":
        prof = effective_sizes(model, n, n_min, n_max)
        return cls(n=n, k=model.k, alpha=model.alpha, epsilon=epsilon,
                   n_min=prof.n_min, n_max=prof.n_max, n_prime_max=prof.n_prime_max,
                   nbar_min=prof.nbar_min, nbar_max=prof.nbar_max, mu_b=prof.mu_b,
                   gamma=prof.gamma, delta=delta, nu=nu)


@dataclass(frozen=True)
class RateCard:
    """Concentration rates (unit constants) and condition margins for a regime.

    ``recovery_*_coeff`` are the recovery-bound coefficients per unit squared
    spectral error: multiply by the measured ``|estimator - target|^2`` to get
    the misclassification bound shape. ``cond_*`` fields are LHS/RHS ratios of
    the corresponding sparsity/regularity conditions.
    """

    rho_n: float
    rho_coarse: float
    adj_static_rate: float            # sqrt(n * alpha)
    adj_static_improved_rate: float   # sqrt(nbar_max * alpha)
    lap_static_rate: float            # mu_B * sqrt(n) / (nbar_min * sqrt(alpha))
    adj_dyn_rate: float               # sqrt(n * alpha * rho_n)
    adj_dyn_markov_rate: float        # sqrt(n * alpha * rho_coarse)
    lap_dyn_rate: float               # mu_B * sqrt(n * rho_n / (nbar_min^2 * alpha))
    recovery_adj_coeff: float
    recovery_lap_coeff: float
    recovery_available: bool
    cond_adj_dyn: float               # (alpha/rho_n) vs log(n)/n
    cond_markov_eps: float            # epsilon vs sqrt(log(n)/n)
    cond_lap_dyn: float               # (alpha/rho_n) vs mu_B log(n)/nbar_min
    cond_lap_static: float            # alpha vs mu_B log(n)/nbar_min
    cond_adj_static_improved: float   # alpha vs log(n)/nbar_min

    def to_kv(self) -> dict:
        out = {}
        for name in ("rho_n", "rho_coarse", "adj_static_rate", "adj_static_improved_rate",
                     "lap_static_rate", "adj_dyn_rate", "adj_dyn_markov_rate",
                     "lap_dyn_rate", "recovery_adj_coeff", "recovery_lap_coeff",
                     "recovery_available"):
            out[name] = getattr(self, name)
        for name in ("cond_adj_dyn", "cond_markov_eps", "cond_lap_dyn",
                     "cond_lap_static", "cond_adj_static_improved"):
            ratio = getattr(self, name)
            out[name + "_ratio"] = ratio
            out[name + "_ok"] = ratio >= 1.0
        return out


def rate_card(inp: RegimeInputs) -> RateCard:
    """Evaluate every rate and condition margin for the given regime."""
    n, alpha, eps = inp.n, inp.alpha, inp.epsilon
    logn = math.log(n)
    rho_n = min(1.0, math.sqrt(inp.nbar_max * alpha * eps))
    rho_coarse = min(1.0, math.sqrt(n * alpha * eps))
    if inp.gamma > 0.0:
        recovery_adj = (1.0 + inp.delta) * inp.n_prime_max * inp.k / (
            n * alpha ** 2 * inp.n_min ** 2 * inp.gamma ** 2)
        recovery_lap = (1.0 + inp.delta) * inp.n_prime_max * inp.k * inp.nbar_max ** 2 / (
            n * inp.n_min ** 2 * inp.gamma ** 2)
        available = True
    else:
        recovery_adj = float("nan")
        recovery_lap = float("nan")
        available = False
    adj_static = math.sqrt(n * alpha)
    lap_static = inp.mu_b * math.sqrt(n) / (inp.nbar_min * math.sqrt(alpha))
    return RateCard(
        rho_n=rho_n,
        rho_coarse=rho_coarse,
        adj_static_rate=adj_static,
        adj_static_improved_rate=math.sqrt(inp.nbar_max * alpha),
        lap_static_rate=lap_static,
        # written as static * sqrt(rho) so the rho = 1 reduction is exact
        adj_dyn_rate=adj_static * math.sqrt(rho_n),
        adj_dyn_markov_rate=adj_static * math.sqrt(rho_coarse),
        lap_dyn_rate=lap_static * math.sqrt(rho_n),
        recovery_adj_coeff=recovery_adj,
        recovery_lap_coeff=recovery_lap,
        recovery_available=available,
        cond_adj_dyn=(alpha / rho_n) / (logn / n),
        cond_markov_eps=eps / math.sqrt(logn / n),
        cond_lap_dyn=(alpha / rho_n) / (inp.mu_b * logn / inp.nbar_min),
        cond_lap_static=alpha / (inp.mu_b * logn / inp.nbar_min),
        cond_adj_static_improved=alpha / (logn / inp.nbar_min),
    )


# ---------------------------------------------------------------------------
# Deterministic Laplacian perturbation inequality
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LaplacianPerturbationCheck:
    lhs: float
    rhs: float
    d_min: float
    holds: bool


def _opnorm(m: np.ndarray) -> float:
    """Operator 2-norm of a (possibly non-symmetric) dense matrix."""
    if m.shape[0] > DENSE_FALLBACK_LIMIT:
        raise InvalidInputError("matrix too large for a dense norm")
    return float(np.linalg.svd(m, compute_uv=False)[0])


def laplacian_perturbation_check(a: np.ndarray, p: np.ndarray,
                                 tol: float = 1e-9) -> LaplacianPerturbationCheck:
    """Check ``|L(A) - L(P)| <= |A - P| / d_min + |(D - D_P) P| / d_min^2``.

    Both matrices must be symmetric and non-negative with strictly positive
    row sums; ``d_min`` is the minimum over the row sums of both.
    """
    a = check_symmetric(a, "a")
    p = check_symmetric(p, "p")
    if a.shape != p.shape:
        raise InvalidInputError("shape mismatch")
    if a.min() < 0.0 or p.min() < 0.0:
        raise InvalidInputError("matrices must be non-negative")
    da = a.sum(axis=1)
    dp = p.sum(axis=1)
    d_min = float(min(da.min(), dp.min()))
    if d_min <= 0.0:
        raise InvalidInputError("zero row sum")
    lhs = spectral_norm(normalized_laplacian(a) - normalized_laplacian(p))
    rhs = spectral_norm(a - p) / d_min + _opnorm((da - dp)[:, None] * p) / d_min ** 2
    return LaplacianPerturbationCheck(lhs=lhs, rhs=rhs, d_min=d_min,
                                      holds=bool(lhs <= rhs + tol))


# ---------------------------------------------------------------------------
# Smoothed degree deviations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DegreeDeviationStats:
    """Max deviation of smoothed degrees from their expectation, both normalizations."""

    max_abs_deviation: float
    c_n_alpha: float          # deviation / (n * alpha)
    c_nbar_alpha: float       # deviation / (nbar_min * alpha)


def degree_deviation_stats(seq: SnapshotSequence, weights: SmoothingWeights,
                           expected_degrees: np.ndarray, alpha: float,
                           nbar_min: float) -> DegreeDeviationStats:
    """Deviation of ``sum_k beta_k d_{i,t-k}`` from its expectation.

    ``expected_degrees[j]`` must hold the expected sampled degrees (diagonal
    excluded) under the labeling of snapshot ``j``.
    """
    snaps = seq.snapshots
    betas = weights.betas
    if betas.size > len(snaps):
        raise InvalidInputError(f"{betas.size} weights but only {len(snaps)} snapshots")
    expected_degrees = np.asarray(expected_degrees, dtype=float)
    if expected_degrees.shape != (len(snaps), seq.n):
        raise InvalidInputError("expected_degrees must be (t+1, n)")
    smoothed = np.zeros(seq.n)
    expected = np.zeros(seq.n)
    last = len(snaps) - 1
    for k, beta in enumerate(betas):
        if beta == 0.0:
            continue
        smoothed += beta * snaps[last - k].degrees()
        expected += beta * expected_degrees[last - k]
    dev = float(np.abs(smoothed - expected).max())
    return DegreeDeviationStats(
        max_abs_deviation=dev,
        c_n_alpha=dev / (seq.n * alpha),
        c_nbar_alpha=dev / (nbar_min * alpha),
    )


# ---------------------------------------------------------------------------
# Smoothing bias
# ---------------------------------------------------------------------------

def frobenius_diff_sq(a: CommunityLabels, b: CommunityLabels,
                      model: ConnectivityModel) -> float:
    """Exact squared Frobenius norm of ``P(a) - P(b)`` via joint-label counts.

    Nodes are grouped by their label pair; the n-by-n sum collapses to a
    K^2-by-K^2 sum over pair counts, avoiding the dense matrices.
    """
    if a.n != b.n or a.k != b.k or a.k != model.k:
        raise InvalidInputError("label shapes must match the model")
    k = model.k
    joint = np.bincount(a.labels * k + b.labels, minlength=k * k).reshape(k, k).astype(float)
    # diff[(x, y), (u, v)] = b0[x, u] - b0[y, v] over joint classes
    b0 = model.b0
    diff = b0[:, None, :, None] - b0[None, :, None, :]
    weight = joint[:, :, None, None] * joint[None, None, :, :]
    return float(model.alpha ** 2 * (weight * diff ** 2).sum())


def frobenius_trajectory(seq: MembershipSequence, model: ConnectivityModel) -> np.ndarray:
    """``|P_{t-k} - P_t|_F^2`` for ``k = 0..t``, at the final time step."""
    last = seq.thetas[-1]
    return np.array([frobenius_diff_sq(seq.thetas[-1 - k], last, model)
                     for k in range(len(seq.thetas))])


@dataclass(frozen=True)
class SmoothingBiasCheck:
    """Exact smoothing bias against its analytic bound.

    ``frob_sq[k]`` is the exact ``|P_{t-k} - P_t|_F^2`` and ``frob_sq_bound[k]``
    the instance-wise bound ``8 alpha^2 nbar_max min(n, k s)``;
    ``frobenius_ok`` asserts the whole chain. The spectral bound is
    ``c_beta_prime * alpha * sqrt(n * nbar_max * eps / beta_max)``.
    """

    spectral_err: float
    spectral_bound: float
    frob_sq: np.ndarray
    frob_sq_bound: np.ndarray
    frobenius_ok: bool
    epsilon: float
    nbar_max: float


def smoothing_bias_check(seq: MembershipSequence, model: ConnectivityModel,
                         weights: SmoothingWeights) -> SmoothingBiasCheck:
    """Compare ``|P_smooth - P_t|`` and the per-step Frobenius chain with their bounds."""
    if seq.mode != "deterministic":
        raise InvalidInputError("bias check requires a deterministic-mode sequence")
    if weights.betas.size > len(seq.thetas):
        raise InvalidInputError("more weights than labelings")
    n, s = seq.n, seq.s
    prof = effective_sizes(model, n, seq.n_min, seq.n_max)
    alpha = model.alpha
    eps = seq.epsilon

    frob_sq = frobenius_trajectory(seq, model)[:weights.betas.size]
    ks = np.arange(frob_sq.size)
    frob_bound = 8.0 * alpha ** 2 * prof.nbar_max * np.minimum(n, ks * s)
    frobenius_ok = bool((frob_sq <= frob_bound + 1e-9).all())

    p_last = build_probability_matrix(seq.thetas[-1], model)
    p_smooth = np.zeros_like(p_last)
    last = len(seq.thetas) - 1
    for k, beta in enumerate(weights.betas):
        if beta == 0.0:
            continue
        p_smooth += beta * build_probability_matrix(seq.thetas[last - k], model)
    spectral_err = spectral_norm(p_smooth - p_last)
    if eps > 0:
        spectral_bound = weights.c_beta_prime * alpha * math.sqrt(
            n * prof.nbar_max * eps / weights.beta_max)
    else:
        spectral_bound = 0.0
    return SmoothingBiasCheck(
        spectral_err=spectral_err,
        spectral_bound=spectral_bound,
        frob_sq=frob_sq,
        frob_sq_bound=frob_bound,
        frobenius_ok=frobenius_ok,
        epsilon=eps,
        nbar_max=prof.nbar_max,
    )
