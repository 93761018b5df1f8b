"""Clustering quality measures.

The misclassification measure minimizes, over relabelings of the predicted
communities, the count of nonzero entries of the one-hot difference divided by
``n``; each misclassified node contributes two nonzero entries, so the value
lies in ``[0, 2]`` and equals twice the misclassified-node fraction. The
minimum is taken exactly, via an optimal assignment on the confusion matrix
(greedy matching can be off by a community swap). The assignment is solved by
``scipy.sparse.csgraph.min_weight_full_bipartite_matching`` on the CSR array
of the shifted confusion matrix, the LAPJV algorithm of Jonker & Volgenant
(Computing 38, 1987), which comes with the ``scipy.sparse`` stack the other
layers already load; ``scipy.optimize`` is never imported.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_array
from scipy.sparse.csgraph import min_weight_full_bipartite_matching

from .errors import InvalidInputError
from .sbm import CommunityLabels


@dataclass(frozen=True)
class ErrorReport:
    """Misclassification report: ``e_value = 2 * misclassified_fraction``.

    ``best_permutation[p]`` is the truth label matched to predicted label ``p``.
    """

    e_value: float
    misclassified_fraction: float
    best_permutation: np.ndarray


def _check_pair(pred: CommunityLabels, truth: CommunityLabels) -> int:
    if pred.n != truth.n:
        raise InvalidInputError(f"label lengths differ: {pred.n} vs {truth.n}")
    if pred.k != truth.k:
        raise InvalidInputError(f"community counts differ: {pred.k} vs {truth.k}")
    return pred.k


def _pair_counts(a: np.ndarray, ka: int, b: np.ndarray, kb: int) -> np.ndarray:
    """``ka``-by-``kb`` counts of the label pairs ``(a[i], b[i])``.

    The pair codes ``a * kb + b`` are formed in int64: in the labels' own
    narrow type (uint8 up to K = 256) they would wrap.
    """
    idx = a.astype(np.int64)
    idx *= kb
    idx += b
    return np.bincount(idx, minlength=ka * kb).reshape(ka, kb)


def confusion_matrix(pred: CommunityLabels, truth: CommunityLabels) -> np.ndarray:
    """K-by-K counts: entry ``(p, t)`` is the number of nodes with pred p, truth t."""
    k = _check_pair(pred, truth)
    return _pair_counts(pred.labels, k, truth.labels, k)


def misclassification_error(pred: CommunityLabels, truth: CommunityLabels) -> ErrorReport:
    """Exact minimum over community relabelings of the one-hot discrepancy.

    Solved as an optimal assignment maximizing the matched count on the
    confusion matrix. Predicted labels that are unused simply give empty
    confusion rows; the assignment stays well-posed. The matching runs on
    ``conf + 1``: every one of the K^2 pairs stays an edge (a sparse matrix
    drops zeros), and every full matching gains exactly K, so the optimum is
    that of ``conf``.
    """
    conf = confusion_matrix(pred, truth)
    rows, cols = min_weight_full_bipartite_matching(csr_array(conf + 1.0), maximize=True)
    matched = int(conf[rows, cols].sum())
    n = pred.n
    perm = np.empty(pred.k, dtype=np.int64)
    perm[rows] = cols
    frac = (n - matched) / n
    return ErrorReport(e_value=2.0 * frac, misclassified_fraction=frac, best_permutation=perm)


def adjusted_rand_index(pred: CommunityLabels, truth: CommunityLabels) -> float:
    """Pair-counting partition agreement, corrected for chance.

    1 for identical partitions, about 0 in expectation under independence.
    Two single-cluster partitions are identical, hence 1 by convention.
    """
    if pred.n != truth.n:
        raise InvalidInputError(f"label lengths differ: {pred.n} vs {truth.n}")
    n = pred.n
    if n < 2:
        raise InvalidInputError("adjusted Rand index needs at least 2 nodes")
    conf = _pair_counts(pred.labels, pred.k, truth.labels, truth.k)

    def comb2(a: np.ndarray) -> int:
        a = a.astype(object)  # python ints: no overflow for large n
        return int((a * (a - 1) // 2).sum())

    index = comb2(conf)
    sum_rows = comb2(conf.sum(axis=1))
    sum_cols = comb2(conf.sum(axis=0))
    total = n * (n - 1) // 2
    expected = sum_rows * sum_cols / total
    max_index = (sum_rows + sum_cols) / 2.0
    if max_index == expected:
        return 1.0  # both partitions trivial (single cluster or all singletons)
    return float((index - expected) / (max_index - expected))
