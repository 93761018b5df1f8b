"""Shared test helpers: independent oracles used to freeze expected values.

The paper's two lemma checks live here too: :func:`validate_weights` evaluates
the four weight conditions on ``beta_k``, and :func:`laplacian_perturbation_check`
the deterministic perturbation inequality for the normalized Laplacian.
"""

import csv
import itertools
import math
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np
import pytest
from scipy.sparse.linalg import LinearOperator, eigsh

import dynsc.sbm
import dynsc.spectral
from dynsc import (
    CommunityLabels,
    ConnectivityModel,
    ErrorReport,
    InvalidInputError,
    SmoothingWeights,
    build_probability_matrix,
    confusion_matrix,
    normalized_laplacian,
    spectral_norm,
)
from dynsc.experiments import _CASTS, RunRecord
from dynsc.sbm import check_symmetric
from dynsc.smoothing import WEIGHT_SUM_TOL
from dynsc.spectral import DENSE_FALLBACK_LIMIT, KMeansResult
from dynsc.util import subseed


@pytest.fixture
def symmetric_checks(monkeypatch) -> list:
    """The matrices ``check_symmetric`` checks in full, in call order: those not taken on trust."""
    checked = []
    real = dynsc.sbm._check_symmetric

    def spy(m, name):
        checked.append(m)
        return real(m, name)

    monkeypatch.setattr(dynsc.sbm, "_check_symmetric", spy)
    return checked


def random_symmetric(n: int, rng: np.random.Generator, low=-1.0, high=1.0) -> np.ndarray:
    """Exactly symmetric dense matrix with uniform entries."""
    upper = np.triu(rng.uniform(low, high, size=(n, n)))
    return upper + np.triu(upper, 1).T


def random_nonneg_symmetric(n: int, rng: np.random.Generator, low=0.1, high=1.0) -> np.ndarray:
    return random_symmetric(n, rng, low, high)


def save_snapshot_oracle(snap, path) -> None:
    """Per-line edge-list writer, one f-string per edge: the bytes ``save_snapshot`` must write."""
    lines = [f"n={snap.n}"]
    lines.extend(f"{i} {j}" for i, j in zip(snap.rows.tolist(), snap.cols.tolist()))
    Path(path).write_text("\n".join(lines) + "\n")


def read_records_csv(path) -> list[RunRecord]:
    """Parse a sweep CSV back into records by field annotation: the oracle for what was written."""
    lines = [ln for ln in Path(path).read_text().splitlines() if not ln.startswith("#")]
    return [RunRecord(**{f.name: _CASTS[f.type](row[f.name]) for f in fields(RunRecord)})
            for row in csv.DictReader(lines)]


def upper_csr_oracle(live, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(data, indices, indptr)`` of the strict upper triangle of a ``weighted_history`` sum.

    A stable argsort keeps each key's weights in loop order, a first-of-run mask
    numbers the distinct keys, and ``bincount`` adds each key's weights in array
    order: the accumulation ``smoothing._upper_csr`` must match bit for bit.
    """
    keys = np.concatenate([np.empty(0, dtype=np.int64)] + [snap.keys() for _, snap in live])
    weights = np.repeat([beta for beta, _ in live], [snap.edge_count for _, snap in live])
    order = np.argsort(keys, kind="stable")
    keys, weights = keys[order], weights[order]
    first = np.ones(keys.size, dtype=bool)
    first[1:] = keys[1:] != keys[:-1]
    values = np.bincount(np.cumsum(first) - 1, weights)
    rows, cols = np.divmod(keys[first], n)
    return values, cols, np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=n))))


def save_labels_oracle(labels: np.ndarray, path) -> None:
    """``np.savetxt`` of a (T+1)-by-n label array: the bytes ``labels.csv`` must hold."""
    np.savetxt(path, labels, delimiter=",", fmt="%d")


def dense_probability_oracle(labels: CommunityLabels, model: ConnectivityModel) -> np.ndarray:
    """Entry-by-entry loop evaluation of P, independent of the vectorized path."""
    n = labels.n
    p = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            p[i, j] = model.alpha * model.b0[labels.labels[i], labels.labels[j]]
    return p


def dense_bias_oracle(seq, model: ConnectivityModel, weights) -> float:
    """``|sum_k beta_k P_{t-k} - P_t|`` summed over dense n-by-n probability matrices."""
    p_last = build_probability_matrix(seq.thetas[-1], model)
    p_smooth = np.zeros_like(p_last)
    last = len(seq.thetas) - 1
    for k, beta in enumerate(weights.betas):
        if beta == 0.0:
            continue
        p_smooth += beta * build_probability_matrix(seq.thetas[last - k], model)
    return spectral_norm(p_smooth - p_last)


def operator_bias_oracle(seq, model: ConnectivityModel, weights) -> float:
    """``|sum_k beta_k P_{t-k} - P_t|`` by Lanczos on the n-by-n operator, step by step.

    ``P x`` is applied as ``C[labels] @ bincount(labels, x)`` with ``C = alpha * b0``,
    so no P is built and nothing is grouped; suits the sizes the dense oracle cannot.
    """
    c = model.alpha * model.b0
    labels = [theta.labels for theta in seq.thetas]

    def apply(lab, x):
        return c[lab] @ np.bincount(lab, weights=x, minlength=model.k)

    def matvec(x):
        x = np.ravel(x)
        out = -apply(labels[-1], x)
        for k, beta in enumerate(weights.betas):
            if beta != 0.0:
                out += beta * apply(labels[-1 - k], x)
        return out

    op = LinearOperator((seq.n, seq.n), matvec=matvec, dtype=float)
    v0 = np.random.default_rng(0).standard_normal(seq.n)
    return float(np.abs(eigsh(op, k=1, v0=v0, tol=1e-12, return_eigenvectors=False)).max())


def enumerate_effective_sizes(b0: np.ndarray, n: int, n_min: int, n_max: int):
    """Brute-force Eq.-style extremal block sums over all integer size vectors."""
    k = b0.shape[0]
    best_max, best_min = -np.inf, np.inf
    for sizes in itertools.product(range(n_min, n_max + 1), repeat=k):
        if sum(sizes) != n:
            continue
        sizes = np.asarray(sizes, dtype=float)
        for row in range(k):
            val = float(b0[row] @ sizes)
            best_max = max(best_max, val)
            best_min = min(best_min, val)
    return best_min, best_max


def one_hot(labels: CommunityLabels) -> np.ndarray:
    """The n-by-k 0/1 membership matrix of ``labels``."""
    out = np.zeros((labels.n, labels.k))
    out[np.arange(labels.n), labels.labels] = 1.0
    return out


def random_labels(n: int, k: int, rng: np.random.Generator) -> CommunityLabels:
    return CommunityLabels(rng.integers(0, k, size=n), k)


def relabeled(labels: CommunityLabels, perm) -> CommunityLabels:
    """Apply a community permutation: the new label of node i is ``perm[labels[i]]``."""
    return CommunityLabels(np.asarray(perm)[labels.labels], labels.k)


def changed_counts(seq) -> np.ndarray:
    """Hamming distance between consecutive labelings of a membership sequence, one per step."""
    return np.array([int(np.count_nonzero(a.labels != b.labels))
                     for a, b in zip(seq.thetas, seq.thetas[1:])])


def misclassification_error_bruteforce(pred: CommunityLabels,
                                       truth: CommunityLabels) -> ErrorReport:
    """Exhaustive-permutation evaluation of the misclassification minimum (small K only).

    Independent of the assignment solver; used as its cross-check oracle.
    """
    conf = confusion_matrix(pred, truth)
    k = conf.shape[0]
    if k > 8:
        raise InvalidInputError("brute force limited to k <= 8")
    best_matched = -1
    best_perm = None
    for perm in itertools.permutations(range(k)):
        matched = sum(conf[p, perm[p]] for p in range(k))
        if matched > best_matched:
            best_matched = matched
            best_perm = perm
    frac = (pred.n - best_matched) / pred.n
    return ErrorReport(e_value=2.0 * frac, misclassified_fraction=frac,
                       best_permutation=np.array(best_perm, dtype=np.int64))


def kmeans_oracle_seeds(x: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """Distance-squared-weighted seeding of one run, drawn with ``rng.choice``."""
    n = x.shape[0]
    centers = np.empty((k, x.shape[1]))
    centers[0] = x[rng.integers(n)]
    d2 = ((x - centers[0]) ** 2).sum(axis=1)
    for j in range(1, k):
        total = d2.sum()
        idx = int(rng.integers(n)) if total <= 0.0 else int(rng.choice(n, p=d2 / total))
        centers[j] = x[idx]
        d2 = np.minimum(d2, ((x - centers[j]) ** 2).sum(axis=1))
    return centers


def _kmeans_oracle_run(x: np.ndarray, k: int, rng: np.random.Generator):
    """One seeded Lloyd run on its own, with per-cluster means.

    Returns (labels, centers, cost, degenerate, cost_history).
    """
    centers = kmeans_oracle_seeds(x, k, rng)

    def assign(centers):
        d2 = (centers ** 2).sum(axis=1) - 2.0 * (x @ centers.T)
        labels = d2.argmin(axis=1)
        return labels, ((x - centers[labels]) ** 2).sum(axis=1)

    history = []
    for _ in range(dynsc.spectral._KMEANS_MAX_ITER):
        labels, dist = assign(centers)
        history.append(float(dist.sum()))
        new_centers = centers.copy()
        counts = np.bincount(labels, minlength=k)
        for j in range(k):
            if counts[j] > 0:
                new_centers[j] = x[labels == j].mean(axis=0)
            else:
                new_centers[j] = x[int(np.argmax(dist))]
        movement = np.sqrt(((new_centers - centers) ** 2).sum(axis=1)).max()
        centers = new_centers
        if movement < dynsc.spectral._KMEANS_TOL:
            break
    labels, dist = assign(centers)
    cost = float(dist.sum())
    history.append(cost)
    degenerate = bool((np.bincount(labels, minlength=k) == 0).any())
    return labels, centers, cost, degenerate, history


def kmeans_oracle(points, k: int, restarts: int = 20, seed: int = 0) -> KMeansResult:
    """Sequential twin of ``dynsc.spectral.kmeans``: one restart at a time, same stop rule.

    Independent of the batched rounds; used as their bit-for-bit oracle.
    """
    x = np.asarray(points, dtype=float)
    best = None
    costs = []
    for ridx in range(restarts):
        rng = np.random.default_rng(subseed(seed, dynsc.spectral._KMEANS_TAG, ridx))
        labels, centers, cost, degenerate, _ = _kmeans_oracle_run(x, k, rng)
        costs.append(cost)
        if best is None or cost < best[2]:
            best = (labels, centers, cost, degenerate)
        repeats = np.count_nonzero(
            np.asarray(costs) <= best[2] * (1.0 + dynsc.spectral._KMEANS_REPEAT_RTOL))
        if best[2] == 0.0 or repeats >= dynsc.spectral._KMEANS_REPEATS:
            break
    labels, centers, cost, degenerate = best
    return KMeansResult(labels=labels, centroids=centers, cost=cost,
                        restarts_used=len(costs), degenerate=degenerate)


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
# Deterministic Laplacian perturbation inequality
# ---------------------------------------------------------------------------

PERTURBATION_TOL = 1e-9  # absolute slack of laplacian_perturbation_check


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


def laplacian_perturbation_check(a: np.ndarray, p: np.ndarray) -> LaplacianPerturbationCheck:
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
                                      holds=bool(lhs <= rhs + PERTURBATION_TOL))
