"""Shared test helpers: independent oracles used to freeze expected values."""

import itertools

import numpy as np

from dynsc import (
    CommunityLabels,
    ConnectivityModel,
    ErrorReport,
    InvalidInputError,
    confusion_matrix,
)


def random_symmetric(n: int, rng: np.random.Generator, low=-1.0, high=1.0) -> np.ndarray:
    """Exactly symmetric dense matrix with uniform entries."""
    upper = np.triu(rng.uniform(low, high, size=(n, n)))
    return upper + np.triu(upper, 1).T


def random_nonneg_symmetric(n: int, rng: np.random.Generator, low=0.1, high=1.0) -> np.ndarray:
    return random_symmetric(n, rng, low, high)


def dense_probability_oracle(labels: CommunityLabels, model: ConnectivityModel) -> np.ndarray:
    """Entry-by-entry loop evaluation of P, independent of the vectorized path."""
    n = labels.n
    p = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            p[i, j] = model.alpha * model.b0[labels.labels[i], labels.labels[j]]
    return p


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
