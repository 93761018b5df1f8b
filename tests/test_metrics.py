import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import misclassification_error_bruteforce, one_hot, random_labels, relabeled
from dynsc import (
    CommunityLabels,
    ConnectivityModel,
    InvalidInputError,
    adjusted_rand_index,
    confusion_matrix,
    frobenius_diff_sq,
    misclassification_error,
)


def _ari_contingency_oracle(pred, truth):
    """Direct pair-counting evaluation from the contingency table."""
    n = pred.n
    conf = np.zeros((pred.k, truth.k), dtype=int)
    for p, t in zip(pred.labels, truth.labels):
        conf[p, t] += 1

    def c2(x):
        return x * (x - 1) // 2

    index = sum(c2(int(v)) for v in conf.ravel())
    a = sum(c2(int(v)) for v in conf.sum(axis=1))
    b = sum(c2(int(v)) for v in conf.sum(axis=0))
    total = c2(n)
    expected = a * b / total
    maxi = (a + b) / 2
    if maxi == expected:
        return 1.0
    return (index - expected) / (maxi - expected)


# ---------------------------------------------------------------------------
# misclassification error
# ---------------------------------------------------------------------------

def test_identical_labelings_zero_error():
    lab = CommunityLabels([0, 1, 2, 0], 3)
    rep = misclassification_error(lab, lab)
    assert rep.e_value == 0.0
    assert rep.misclassified_fraction == 0.0


def test_global_swap_absorbed_by_permutation():
    truth = CommunityLabels([0, 0, 1, 1], 2)
    pred = CommunityLabels([1, 1, 0, 0], 2)
    rep = misclassification_error(pred, truth)
    assert rep.e_value == 0.0
    assert rep.best_permutation.tolist() == [1, 0]


def test_single_wrong_node_example():
    # brute force over both K=2 permutations: identity keeps 3 of 4 matched
    truth = CommunityLabels([0, 0, 1, 1], 2)
    pred = CommunityLabels([0, 1, 1, 1], 2)
    rep = misclassification_error(pred, truth)
    assert rep.e_value == 0.5  # one node wrong: ||.||_0 = 2, E = 2/4
    assert rep.misclassified_fraction == 0.25
    assert rep.best_permutation.tolist() == [0, 1]


def test_e_value_counts_one_hot_entries():
    # E equals (1/n) * nonzero entries of the one-hot difference under the best Q
    truth = CommunityLabels([0, 0, 1, 1, 2, 2], 3)
    pred = CommunityLabels([0, 1, 1, 2, 2, 0], 3)
    rep = misclassification_error(pred, truth)
    q = rep.best_permutation
    theta_hat = one_hot(pred)[:, np.argsort(q)]  # apply Q: column p -> column q[p]
    nonzero = np.count_nonzero(theta_hat - one_hot(truth))
    assert np.isclose(rep.e_value, nonzero / truth.n)


def test_mismatched_shapes_rejected():
    with pytest.raises(InvalidInputError):
        misclassification_error(CommunityLabels([0, 1], 2), CommunityLabels([0, 1, 0], 2))
    with pytest.raises(InvalidInputError):
        misclassification_error(CommunityLabels([0, 1], 2), CommunityLabels([0, 1], 3))
    with pytest.raises(InvalidInputError, match="label lengths differ"):
        adjusted_rand_index(CommunityLabels([0, 1], 2), CommunityLabels([0, 1, 0], 2))


def test_missing_predicted_labels_ok():
    truth = CommunityLabels([0, 1, 2], 3)
    pred = CommunityLabels([0, 0, 0], 3)
    rep = misclassification_error(pred, truth)
    assert np.isclose(rep.e_value, 2 * 2 / 3)


def test_assignment_equals_bruteforce_random():
    rng = np.random.default_rng(0)
    for _ in range(300):
        k = int(rng.integers(2, 7))
        n = int(rng.integers(k, 40))
        pred = random_labels(n, k, rng)
        truth = random_labels(n, k, rng)
        fast = misclassification_error(pred, truth)
        slow = misclassification_error_bruteforce(pred, truth)
        assert fast.e_value == slow.e_value


@pytest.mark.parametrize("k", range(1, 9))
def test_assignment_cross_check_with_ties_and_unused_labels(k):
    # few nodes per label, so many confusion entries tie and several
    # relabelings reach the optimum; half the draws predict only the first
    # `used` labels, leaving the others unused
    rng = np.random.default_rng(100 + k)
    for case in range(60 if k <= 6 else 4):
        n = int(rng.integers(1, 3 * k + 1))
        used = k if case % 2 else int(rng.integers(1, k + 1))
        pred = CommunityLabels(rng.integers(0, used, size=n), k)
        truth = random_labels(n, k, rng)
        fast = misclassification_error(pred, truth)
        slow = misclassification_error_bruteforce(pred, truth)
        assert fast.e_value == slow.e_value
        assert fast.misclassified_fraction == slow.misclassified_fraction
        perm = fast.best_permutation
        assert sorted(perm.tolist()) == list(range(k))
        matched = confusion_matrix(pred, truth)[np.arange(k), perm].sum()
        assert (n - matched) / n == fast.misclassified_fraction


def test_confusion_matrix_counts():
    pred = CommunityLabels([0, 0, 1], 2)
    truth = CommunityLabels([0, 1, 1], 2)
    assert confusion_matrix(pred, truth).tolist() == [[1, 1], [0, 1]]


def _int64_copy(lab: CommunityLabels) -> CommunityLabels:
    """``lab`` with its labels held in int64, the width they had before narrowing."""
    wide = CommunityLabels(lab.labels, lab.k)
    object.__setattr__(wide, "labels", lab.labels.astype(np.int64))
    return wide


def test_pair_codes_do_not_wrap_in_narrow_labels():
    # at K = 20 the pair codes a * 20 + b reach 399, past uint8's 255
    rng = np.random.default_rng(41)
    k = 20
    a, b = random_labels(400, k, rng), random_labels(400, k, rng)
    assert a.labels.dtype == b.labels.dtype == np.uint8
    wa, wb = _int64_copy(a), _int64_copy(b)
    assert np.array_equal(confusion_matrix(a, b), confusion_matrix(wa, wb))
    assert adjusted_rand_index(a, b) == adjusted_rand_index(wa, wb)
    model = ConnectivityModel.planted_partition(k, 0.5, 0.3)
    assert frobenius_diff_sq(a, b, model) == frobenius_diff_sq(wa, wb, model)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2 ** 31), st.integers(2, 5), st.integers(2, 30))
def test_error_invariant_under_relabeling(seed, k, n):
    rng = np.random.default_rng(seed)
    pred = random_labels(n, k, rng)
    truth = random_labels(n, k, rng)
    base = misclassification_error(pred, truth).e_value
    perm = rng.permutation(k)
    assert misclassification_error(relabeled(pred, perm), truth).e_value == base
    assert misclassification_error(pred, relabeled(truth, perm)).e_value == base
    assert 0.0 <= base <= 2.0


# ---------------------------------------------------------------------------
# adjusted rand index
# ---------------------------------------------------------------------------

def test_ari_identical_partitions():
    lab = CommunityLabels([0, 1, 0, 2, 1], 3)
    assert adjusted_rand_index(lab, lab) == 1.0


def test_ari_frozen_example():
    # contingency all ones: index 0, expected 2*2/6, max 2 -> -0.5
    a = CommunityLabels([0, 0, 1, 1], 2)
    b = CommunityLabels([0, 1, 0, 1], 2)
    assert math.isclose(adjusted_rand_index(a, b), -0.5, abs_tol=1e-12)


def test_ari_single_cluster_conventions():
    ones = CommunityLabels([0, 0, 0, 0], 1)
    assert adjusted_rand_index(ones, ones) == 1.0
    multi = CommunityLabels([0, 1, 0, 1], 2)
    assert math.isclose(adjusted_rand_index(ones, multi), 0.0, abs_tol=1e-12)


def test_ari_needs_two_nodes():
    with pytest.raises(InvalidInputError):
        adjusted_rand_index(CommunityLabels([0], 1), CommunityLabels([0], 1))


def test_ari_matches_contingency_oracle():
    rng = np.random.default_rng(1)
    for _ in range(200):
        k = int(rng.integers(2, 6))
        n = int(rng.integers(4, 50))
        a = random_labels(n, k, rng)
        b = random_labels(n, k, rng)
        assert math.isclose(adjusted_rand_index(a, b), _ari_contingency_oracle(a, b),
                            abs_tol=1e-12)


def test_ari_independent_labelings_near_zero():
    # permutation-null oracle: median |ARI| of independent K=2 labelings is small
    rng = np.random.default_rng(2)
    values = []
    for _ in range(100):
        a = random_labels(400, 2, rng)
        b = random_labels(400, 2, rng)
        values.append(abs(adjusted_rand_index(a, b)))
    assert np.median(values) <= 0.05


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2 ** 31), st.integers(1, 5), st.integers(2, 30))
def test_ari_symmetry_and_relabel_invariance(seed, k, n):
    rng = np.random.default_rng(seed)
    a = random_labels(n, k, rng)
    b = random_labels(n, k, rng)
    assert math.isclose(adjusted_rand_index(a, b), adjusted_rand_index(b, a),
                        abs_tol=1e-12)
    perm = rng.permutation(k)
    assert math.isclose(adjusted_rand_index(relabeled(a, perm), b),
                        adjusted_rand_index(a, b), abs_tol=1e-12)
