"""Closed-form rate evaluation and empirical checkers for the concentration theory.

All universal constants in the rates are set to 1 and the values are
shape-only: the theory never instantiates them, so experiments fit constants
empirically instead of asserting them. Conditions are reported as LHS/RHS
ratios (satisfied when >= 1 with unit constants) so margins can be studied,
not just booleans.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np
import scipy.sparse

from .dynamics import MembershipSequence, SnapshotSequence
from .errors import InvalidInputError
from .sbm import (CommunityLabels, ConnectivityModel, SizeProfile, effective_sizes,
                  expectation_factors, expected_degrees)
from .smoothing import SmoothingWeights, tuning_profile, weighted_history
from .spectral import spectral_norm


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
        """Rates as they are; each ``cond_*`` as its ``_ratio`` and ``_ok`` (ratio >= 1)."""
        out = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name.startswith("cond_"):
                out.update({f.name + "_ratio": value, f.name + "_ok": value >= 1.0})
            else:
                out[f.name] = value
        return out


def rate_card(sizes: SizeProfile, alpha: float, epsilon: float, delta: float = 0.0) -> RateCard:
    """Every rate and condition margin for community sizes ``sizes`` (see
    :func:`effective_sizes`), density ``alpha`` and regularity ``epsilon``.

    ``rho_n`` and ``rho_coarse`` are :func:`tuning_profile`'s; ``delta`` is the
    k-means cost-ratio proxy.
    """
    tuning = tuning_profile(sizes.n, alpha, epsilon, sizes.nbar_max)
    if sizes.nbar_min <= 0.0 or sizes.nbar_max < sizes.nbar_min:
        raise InvalidInputError("need 0 < nbar_min <= nbar_max")
    n, rho_n, rho_coarse = sizes.n, tuning.rho_n, tuning.rho_coarse
    logn = math.log(n)
    available = sizes.gamma > 0.0
    recovery_adj = recovery_lap = float("nan")
    if available:
        recovery_adj = (1.0 + delta) * sizes.n_prime_max * sizes.k / (
            n * alpha ** 2 * sizes.n_min ** 2 * sizes.gamma ** 2)
        recovery_lap = (1.0 + delta) * sizes.n_prime_max * sizes.k * sizes.nbar_max ** 2 / (
            n * sizes.n_min ** 2 * sizes.gamma ** 2)

    def variance(beta_max: float, kind: str = "adjacency") -> float:  # static rates: at 1
        return bound_terms(sizes, alpha, epsilon, beta_max, kind)[0]

    return RateCard(
        rho_n=rho_n,
        rho_coarse=rho_coarse,
        adj_static_rate=variance(1.0),
        adj_static_improved_rate=math.sqrt(sizes.nbar_max * alpha),
        lap_static_rate=variance(1.0, "laplacian"),
        adj_dyn_rate=variance(rho_n),
        adj_dyn_markov_rate=variance(rho_coarse),
        lap_dyn_rate=variance(rho_n, "laplacian"),
        recovery_adj_coeff=recovery_adj,
        recovery_lap_coeff=recovery_lap,
        recovery_available=available,
        cond_adj_dyn=(alpha / rho_n) / (logn / n),
        cond_markov_eps=epsilon / math.sqrt(logn / n),
        cond_lap_dyn=(alpha / rho_n) / (sizes.mu_b * logn / sizes.nbar_min),
        cond_lap_static=alpha / (sizes.mu_b * logn / sizes.nbar_min),
        cond_adj_static_improved=alpha / (logn / sizes.nbar_min),
    )


def bound_terms(sizes: SizeProfile, alpha: float, epsilon: float, beta_max: float,
                kind: str = "adjacency") -> tuple[float, float]:
    """The bound on ``|estimator - target|`` as its two terms ``(variance, bias)``, unit constants.

    For the adjacency the variance is ``sqrt(n alpha beta_max)`` and the smoothing bias
    ``alpha sqrt(n nbar_max epsilon / beta_max)``, exactly 0.0 at ``epsilon = 0``; the
    Laplacian kind scales both by ``mu_B / (nbar_min alpha)``. They balance at
    ``beta_max = sqrt(nbar_max alpha epsilon)``, the tuned ``optimal_lambda`` below its cap.
    """
    if kind not in ("adjacency", "laplacian"):
        raise InvalidInputError(f"unknown matrix kind {kind!r}")
    scale = sizes.mu_b / (sizes.nbar_min * alpha) if kind == "laplacian" else 1.0
    return (scale * math.sqrt(sizes.n * alpha * beta_max),
            scale * alpha * math.sqrt(sizes.n * sizes.nbar_max * epsilon / beta_max))


# ---------------------------------------------------------------------------
# Smoothed degree deviations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DegreeDeviationStats:
    """Max deviation of smoothed degrees from their expectation, both normalizations."""

    max_abs_deviation: float
    c_n_alpha: float          # deviation / (n * alpha)
    c_nbar_alpha: float       # deviation / (nbar_min * alpha)


def degree_deviation_stats(snaps: SnapshotSequence, thetas, model: ConnectivityModel,
                           weights: SmoothingWeights, nbar_min: float) -> DegreeDeviationStats:
    """Deviation of ``sum_k beta_k d_{i,t-k}`` from its expectation under ``model``.

    ``thetas[j]`` is the labeling snapshot ``j`` was sampled from; the expectation
    weighs each labeling's :func:`expected_degrees` as its snapshot is weighed.
    """
    if len(thetas) != len(snaps.snapshots) or any(theta.n != snaps.n for theta in thetas):
        raise InvalidInputError(f"need one labeling of n={snaps.n} per snapshot, got "
                                f"{len(thetas)} labelings for {len(snaps.snapshots)} snapshots")
    smoothed = np.zeros(snaps.n)
    expected = np.zeros(snaps.n)
    for beta, (snap, theta) in weighted_history(list(zip(snaps.snapshots, thetas)),
                                                weights.betas):
        smoothed += beta * snap.degrees()
        expected += beta * expected_degrees(theta, model)
    dev = float(np.abs(smoothed - expected).max())
    return DegreeDeviationStats(
        max_abs_deviation=dev,
        c_n_alpha=dev / (snaps.n * model.alpha),
        c_nbar_alpha=dev / (nbar_min * model.alpha),
    )


# ---------------------------------------------------------------------------
# Smoothing bias
# ---------------------------------------------------------------------------

def frobenius_diff_sq(a: CommunityLabels, b: CommunityLabels,
                      model: ConnectivityModel) -> float:
    """Exact squared Frobenius norm of ``P(a) - P(b)`` via joint-label counts.

    Nodes are grouped by the m label pairs ``(x, y)`` that occur, ``w`` nodes each; with
    ``D[p, q] = b0[x_p, x_q] - b0[y_p, y_q]`` the n-by-n sum is ``alpha^2 wᵀ (D∘D) w``,
    nonnegative terms only, and exactly 0.0 for equal labelings.
    """
    if a.n != b.n or a.k != b.k or a.k != model.k:
        raise InvalidInputError("label shapes must match the model")
    codes, w = np.unique(a.labels.astype(np.int64) * a.k + b.labels, return_counts=True)
    x, y = np.divmod(codes, a.k)
    d = model.b0[np.ix_(x, x)] - model.b0[np.ix_(y, y)]
    return float(model.alpha ** 2 * (w @ (d * d) @ w))


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
    ``c_beta_prime`` times the bias term of :func:`bound_terms`.
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
    """Compare ``|P_smooth - P_t|`` and the per-step Frobenius chain with their bounds.

    With ``P_smooth = sum_k beta_k P_{t-k}``, ``P_smooth - P_t`` is the ``U B Uᵀ`` of
    :func:`expectation_factors` (``U`` stores n * g ones, g <= T + 1 distinct labelings),
    normed factored by :func:`spectral_norm`. A static sequence gives ``B = 0``, bias 0.0.
    """
    if seq.mode != "deterministic":
        raise InvalidInputError("bias check requires a deterministic-mode sequence")
    history = weighted_history(seq.thetas, weights.betas) + [(-1.0, seq.thetas[-1])]
    n, s = seq.n, seq.s
    prof = effective_sizes(model, n, seq.n_min, seq.n_max)
    alpha, eps = model.alpha, seq.epsilon

    frob_sq = frobenius_trajectory(seq, model)[:weights.betas.size]
    ks = np.arange(frob_sq.size)
    frob_bound = 8.0 * alpha ** 2 * prof.nbar_max * np.minimum(n, ks * s)
    frobenius_ok = bool((frob_sq <= frob_bound + 1e-9).all())

    spectral_err = spectral_norm(scipy.sparse.csr_array((n, n)),
                                 minus=expectation_factors(history, model))
    spectral_bound = weights.c_beta_prime * bound_terms(prof, alpha, eps, weights.beta_max)[1]
    return SmoothingBiasCheck(
        spectral_err=spectral_err,
        spectral_bound=spectral_bound,
        frob_sq=frob_sq,
        frob_sq_bound=frob_bound,
        frobenius_ok=frobenius_ok,
        epsilon=eps,
        nbar_max=prof.nbar_max,
    )
