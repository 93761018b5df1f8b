import warnings

import numpy as np
import pytest
import scipy.sparse
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    dense_probability_oracle,
    enumerate_effective_sizes,
    one_hot,
    random_labels,
    random_symmetric,
    save_snapshot_oracle,
)
from dynsc import (
    AdjacencySnapshot,
    CommunityLabels,
    ConnectivityModel,
    InvalidInputError,
    ZeroDegreeError,
    build_probability_matrix,
    effective_sizes,
    expected_degrees,
    load_snapshot,
    normalized_laplacian,
    normalized_laplacian_csr,
    sample_adjacency,
    sample_sbm,
    save_snapshot,
)
from dynsc.sbm import (_SYMMETRY_BLOCK, _triu_decode, _trusted, check_symmetric,
                       expectation_factors)


# ---------------------------------------------------------------------------
# types
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("k, dtype", [(1, np.uint8), (256, np.uint8), (257, np.uint16),
                                      (300, np.uint16)])
def test_labels_take_the_narrowest_type_for_k(k, dtype):
    lab = CommunityLabels(np.arange(2 * k, dtype=np.int64) % k, k)
    assert lab.labels.dtype == dtype
    assert lab.labels.tolist() == [i % k for i in range(2 * k)]
    assert lab.sizes().tolist() == [2] * k


def test_labels_validation():
    with pytest.raises(InvalidInputError):
        CommunityLabels([0, 1, 2], 2)
    with pytest.raises(InvalidInputError):
        CommunityLabels([0, -1], 2)
    lab = CommunityLabels([0, 0, 1], 2)
    assert lab.n == 3
    assert lab.sizes().tolist() == [2, 1]


def test_model_validation():
    with pytest.raises(InvalidInputError):
        ConnectivityModel.planted_partition(2, 0.0, 0.3)
    with pytest.raises(InvalidInputError):
        ConnectivityModel.planted_partition(2, 0.5, 1.0)
    with pytest.raises(InvalidInputError):
        ConnectivityModel(2, 0.5, np.array([[1.0, 0.2], [0.3, 1.0]]))
    with pytest.raises(InvalidInputError):
        ConnectivityModel(2, 0.5, np.array([[1.2, 0.2], [0.2, 1.0]]))
    m = ConnectivityModel.planted_partition(3, 0.4, 0.25)
    assert m.b0[0, 0] == 1.0 and m.b0[0, 1] == 0.25
    assert m.gamma == 0.75


def test_model_gamma_general_kernel():
    b0 = np.array([[1.0, 0.2], [0.2, 0.6]])
    m = ConnectivityModel(2, 0.5, b0)
    assert np.isclose(m.gamma, np.linalg.eigvalsh(b0)[0])


def test_snapshot_validation():
    with pytest.raises(InvalidInputError):
        AdjacencySnapshot(3, np.array([1]), np.array([1]))  # self-loop
    with pytest.raises(InvalidInputError):
        AdjacencySnapshot(3, np.array([0, 0]), np.array([1, 1]))  # duplicate
    snap = AdjacencySnapshot(3, np.array([0, 1]), np.array([1, 2]))
    dense = snap.to_dense()
    assert np.array_equal(dense, dense.T)
    assert np.all(np.diag(dense) == 0)
    assert np.array_equal(np.nonzero(np.triu(dense, 1)), (snap.rows, snap.cols))


def test_snapshot_rejects_duplicate_edge_in_unsorted_input():
    # the repeated pair (1, 4) is neither first nor adjacent in input order
    rows, cols = np.array([2, 1, 0, 3, 1]), np.array([3, 4, 2, 4, 4])
    with pytest.raises(InvalidInputError, match="duplicate"):
        AdjacencySnapshot(5, rows, cols)
    assert AdjacencySnapshot(5, rows[:4], cols[:4]).edge_count == 4


def test_snapshot_rejects_duplicate_edge_in_sorted_input():
    # row-major order with the repeated pair (1, 4) adjacent, past the first edge
    rows, cols = np.array([0, 1, 1, 2]), np.array([1, 4, 4, 3])
    with pytest.raises(InvalidInputError, match="duplicate"):
        AdjacencySnapshot(5, rows, cols)
    assert AdjacencySnapshot(5, np.delete(rows, 2), np.delete(cols, 2)).edge_count == 3


def test_sorted_edges_are_validated_without_a_sort(monkeypatch):
    sorts = []
    real_sort = np.sort
    monkeypatch.setattr(np, "sort", lambda *a, **kw: sorts.append(1) or real_sort(*a, **kw))
    AdjacencySnapshot(5, np.array([0, 1, 2]), np.array([1, 4, 3]))
    AdjacencySnapshot(4, *np.nonzero(np.triu(np.ones((4, 4)), 1)))  # row-major
    assert sorts == []
    AdjacencySnapshot(5, np.array([1, 0]), np.array([4, 1]))  # valid, but out of order
    assert sorts == [1]


def test_snapshot_endpoints_are_range_checked_before_narrowing():
    # 2**32 + 1 would read as 1 in 32 bits
    with pytest.raises(InvalidInputError, match="out of range"):
        AdjacencySnapshot(10, np.array([0]), np.array([2**32 + 1]))


def test_snapshot_keeps_32_bit_endpoints_beyond_n_65536():
    n = 2**31 + 10
    snap = AdjacencySnapshot(n, np.array([2**31 + 1]), np.array([2**31 + 5]))
    assert snap.rows.dtype == snap.cols.dtype == np.uint32
    assert snap.keys().tolist() == [(2**31 + 1) * n + 2**31 + 5]


@pytest.mark.parametrize("n, dtype", [(256, np.uint8), (257, np.uint16),
                                      (65536, np.uint16), (65537, np.uint32)])
def test_snapshot_endpoint_width_at_type_boundaries(n, dtype):
    snap = AdjacencySnapshot(n, np.array([0, n - 3, n - 2]), np.array([n - 1, n - 2, n - 1]))
    assert snap.rows.dtype == snap.cols.dtype == dtype
    assert snap.keys().dtype == np.int64
    assert snap.keys().tolist() == [n - 1, (n - 3) * n + n - 2, (n - 2) * n + n - 1]


def test_snapshot_rejects_n_whose_edge_keys_overflow_int64(tmp_path):
    # 3_037_000_500 is the largest n with (n - 2) * n + (n - 1) < 2**63; one more
    # and keys() wraps negative, which breaks the duplicate check and the smoothers
    n = 3_037_000_500
    assert AdjacencySnapshot(n, [n - 2], [n - 1]).keys().tolist() == [(n - 2) * n + n - 1]
    with pytest.raises(InvalidInputError, match="fit int64"):
        AdjacencySnapshot(n + 1, [n - 1], [n])
    path = tmp_path / "huge.txt"
    path.write_text(f"n={n + 1}\n0 1\n")
    with pytest.raises(InvalidInputError, match="fit int64"):
        load_snapshot(path)


@pytest.mark.parametrize("source", ["sample_sbm", "load_snapshot", "int64_lists"])
def test_snapshot_stores_4_bytes_per_edge(tmp_path, source):
    lab = random_labels(1000, 3, np.random.default_rng(35))
    sampled = sample_sbm(lab, ConnectivityModel.planted_partition(3, 0.02, 0.4), 9)
    save_snapshot(sampled, tmp_path / "snap.txt")
    snap = {
        "sample_sbm": lambda: sampled,
        "load_snapshot": lambda: load_snapshot(tmp_path / "snap.txt"),
        "int64_lists": lambda: AdjacencySnapshot(sampled.n, sampled.rows.astype(np.int64).tolist(),
                                                 sampled.cols.astype(np.int64).tolist()),
    }[source]()
    assert snap.edge_count > 0
    assert snap.rows.dtype == snap.cols.dtype == np.uint16
    assert snap.rows.nbytes + snap.cols.nbytes == 4 * snap.edge_count
    assert np.array_equal(snap.keys(), sampled.keys())


# ---------------------------------------------------------------------------
# build_probability_matrix
# ---------------------------------------------------------------------------

def test_probability_matrix_planted_example():
    lab = CommunityLabels([0, 0, 1, 1], 2)
    model = ConnectivityModel.planted_partition(2, 0.5, 0.2)
    p = build_probability_matrix(lab, model)
    expected = np.array([
        [0.5, 0.5, 0.1, 0.1],
        [0.5, 0.5, 0.1, 0.1],
        [0.1, 0.1, 0.5, 0.5],
        [0.1, 0.1, 0.5, 0.5],
    ])
    assert np.allclose(p, expected)
    assert np.array_equal(p, p.T)


def test_probability_matrix_general_kernel_example():
    lab = CommunityLabels([0, 1], 2)
    model = ConnectivityModel(2, 0.1, np.array([[1.0, 0.3], [0.3, 0.8]]))
    p = build_probability_matrix(lab, model)
    assert np.allclose(p, [[0.1, 0.03], [0.03, 0.08]])


def test_probability_matrix_alpha_small_limit():
    lab = CommunityLabels([0, 1, 0], 2)
    model = ConnectivityModel.planted_partition(2, 1e-300, 0.2)
    assert np.allclose(build_probability_matrix(lab, model), 0.0, atol=1e-299)


def test_probability_matrix_matches_loop_oracle():
    rng = np.random.default_rng(3)
    lab = random_labels(17, 3, rng)
    b0 = np.array([[1.0, 0.3, 0.1], [0.3, 0.9, 0.2], [0.1, 0.2, 0.7]])
    model = ConnectivityModel(3, 0.4, b0)
    assert np.array_equal(build_probability_matrix(lab, model),
                          dense_probability_oracle(lab, model))


def test_probability_matrix_is_c_ordered():
    # row sums, hence the Laplacian of P, depend on the memory order
    lab = random_labels(50, 3, np.random.default_rng(4))
    p = build_probability_matrix(lab, ConnectivityModel.planted_partition(3, 0.4, 0.2))
    assert p.flags.c_contiguous


def test_probability_matrix_label_mismatch():
    with pytest.raises(InvalidInputError):
        build_probability_matrix(CommunityLabels([0, 1], 2),
                                 ConnectivityModel.planted_partition(3, 0.5, 0.2))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 31), st.integers(2, 4), st.integers(4, 20))
def test_probability_matrix_permutation_equivariant(seed, k, n):
    rng = np.random.default_rng(seed)
    lab = random_labels(n, k, rng)
    model = ConnectivityModel.planted_partition(k, 0.6, 0.2)
    p = build_probability_matrix(lab, model)
    pi = rng.permutation(n)
    permuted = CommunityLabels(lab.labels[pi], k)
    assert np.array_equal(build_probability_matrix(permuted, model), p[np.ix_(pi, pi)])


# ---------------------------------------------------------------------------
# expectation_factors
# ---------------------------------------------------------------------------

_FACTOR_MODEL = ConnectivityModel(
    3, 0.3, np.array([[1.0, 0.2, 0.05], [0.2, 0.7, 0.4], [0.05, 0.4, 0.9]]))


def test_expectation_factors_of_one_labeling_are_one_hot_and_kernel():
    lab = random_labels(40, 3, np.random.default_rng(31))
    u, b = expectation_factors([(1.0, lab)], _FACTOR_MODEL)
    assert u.toarray().tobytes() == one_hot(lab).tobytes()
    assert b.tobytes() == (_FACTOR_MODEL.alpha * _FACTOR_MODEL.b0).tobytes()
    u, _ = expectation_factors([(1.0, CommunityLabels([0, 0, 1], 2))],
                               ConnectivityModel.planted_partition(2, 0.5, 0.2))
    assert u.toarray().tolist() == [[1, 0], [1, 0], [0, 1]]


def test_expectation_factors_share_a_block_per_repeated_labeling():
    rng = np.random.default_rng(32)
    a, other = random_labels(60, 3, rng), random_labels(60, 3, rng)
    history = [(0.5, a), (0.3, other), (0.2, a)]
    u, b = expectation_factors(history, _FACTOR_MODEL)
    c = _FACTOR_MODEL.alpha * _FACTOR_MODEL.b0
    assert u.shape == (60, 6) and b.shape == (6, 6)
    assert u.nnz == 60 * 2  # one stored one per node and labeling
    assert np.array_equal(u.toarray(), np.hstack([one_hot(a), one_hot(other)]))
    assert np.array_equal(b[:3, :3], 0.5 * c + 0.2 * c)  # added in history order
    assert np.array_equal(b[3:, 3:], 0.3 * c)
    assert not b[:3, 3:].any() and not b[3:, :3].any()
    dense = sum(beta * build_probability_matrix(theta, _FACTOR_MODEL) for beta, theta in history)
    u = u.toarray()
    assert np.abs(u @ b @ u.T - dense).max() <= 1e-14 * np.abs(dense).max()


@pytest.mark.parametrize("k,g", [(200, 2), (20, 14)])
def test_expectation_factors_columns_do_not_wrap_in_narrow_labels(k, g):
    # column k * j + label passes uint8's 255 at the last labeling, k * (g - 1) + k > 256
    rng = np.random.default_rng(34)
    history = [(1.0, random_labels(50, k, rng)) for _ in range(g)]
    assert history[0][1].labels.dtype == np.uint8
    u, _ = expectation_factors(history, ConnectivityModel.planted_partition(k, 0.5, 0.2))
    assert np.array_equal(u.toarray(), np.hstack([one_hot(theta) for _, theta in history]))


def test_expectation_factors_cancel_to_an_exact_zero_block():
    lab = random_labels(30, 3, np.random.default_rng(33))
    _, b = expectation_factors([(0.5, lab), (0.5, lab), (-1.0, lab)], _FACTOR_MODEL)
    assert not b.any()


def test_expectation_factors_reject_a_labeling_of_another_k():
    history = [(1.0, CommunityLabels([0, 1, 2], 3)), (1.0, CommunityLabels([0, 1, 1], 2))]
    with pytest.raises(InvalidInputError, match="labels declare k=2, model has k=3"):
        expectation_factors(history, _FACTOR_MODEL)


# ---------------------------------------------------------------------------
# check_symmetric
# ---------------------------------------------------------------------------

_SYM_N = 3 * _SYMMETRY_BLOCK + 8  # the last block is partial


def test_check_symmetric_accepts_exactly_symmetric():
    m = random_symmetric(_SYM_N, np.random.default_rng(21))
    assert np.array_equal(check_symmetric(m), m)


@pytest.mark.parametrize("i, j", [
    (_SYM_N - 2, _SYM_N - 5),                    # only in the last, partial block
    (10, 20),                                    # only inside the first diagonal block
    (2 * _SYMMETRY_BLOCK + 1, 2 * _SYMMETRY_BLOCK + 63),  # inside a full diagonal block
    (_SYM_N - 1, 0),                             # far corner, off every diagonal block
], ids=["last-block", "first-diagonal-block", "inner-diagonal-block", "corner"])
def test_check_symmetric_finds_one_ulp_asymmetry(i, j):
    m = random_symmetric(_SYM_N, np.random.default_rng(22))
    m[i, j] = np.nextafter(m[i, j], np.inf)
    with pytest.raises(InvalidInputError, match="matrix is not symmetric"):
        check_symmetric(m)
    with pytest.raises(InvalidInputError, match="matrix is not symmetric"):
        check_symmetric(m.T)


@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize("i, j", [(3, 100), (100, 3), (_SYM_N - 1, 0)],
                         ids=["upper", "lower", "lower-corner"])
def test_check_symmetric_reports_one_non_finite_entry(i, j, value):
    m = random_symmetric(_SYM_N, np.random.default_rng(24))
    m[i, j] = value
    with pytest.raises(InvalidInputError, match="non-finite"):
        check_symmetric(m)


def test_check_symmetric_allocates_no_n_by_n_temporary():
    import tracemalloc

    # the check holds O(block * n) masks plus numpy's fixed 64 KiB iterator
    # buffers, about 250 KB here; one n x n boolean mask alone is n * n bytes
    n = 2000
    m = random_symmetric(n, np.random.default_rng(25))
    tracemalloc.start()
    try:
        check_symmetric(m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n * n // 8


def test_check_symmetric_reports_non_finite_before_asymmetry():
    m = random_symmetric(_SYM_N, np.random.default_rng(23))
    m[3, 100] += 1.0
    m[_SYM_N - 1, _SYM_N - 1] = np.nan
    with pytest.raises(InvalidInputError, match="non-finite"):
        check_symmetric(m)


def _asymmetric():
    m = random_symmetric(_SYM_N, np.random.default_rng(26))
    m[3, 100] += 1.0  # what a full check rejects and trust lets through
    return m


def test_trusted_scope_skips_exactly_its_objects(symmetric_checks):
    m, other = _asymmetric(), random_symmetric(_SYM_N, np.random.default_rng(27))
    with _trusted(m):
        assert check_symmetric(m) is m
        with _trusted(other):
            assert check_symmetric(other) is other
            assert check_symmetric(m) is m
        assert symmetric_checks == []
        check_symmetric(other)  # the inner block has ended
        with pytest.raises(InvalidInputError, match="not symmetric"):
            check_symmetric(m.copy())  # an equal copy is another object
        assert check_symmetric(m) is m
    with pytest.raises(InvalidInputError, match="not symmetric"):
        check_symmetric(m)
    assert len(symmetric_checks) == 3
    assert symmetric_checks[0] is other and symmetric_checks[2] is m


def test_trusted_scope_never_reaches_another_thread(symmetric_checks):
    import threading

    m, errors = _asymmetric(), []

    def check():
        try:
            check_symmetric(m)
        except InvalidInputError as exc:
            errors.append(exc)

    with _trusted(m):
        worker = threading.Thread(target=check)
        worker.start()
        worker.join()
        assert check_symmetric(m) is m
    assert len(errors) == 1 and len(symmetric_checks) == 1 and symmetric_checks[0] is m


# ---------------------------------------------------------------------------
# sample_adjacency
# ---------------------------------------------------------------------------

def test_sample_zero_matrix_gives_empty_graph():
    snap = sample_adjacency(np.zeros((6, 6)), 0)
    assert snap.edge_count == 0


def test_sample_probability_one_gives_complete_graph():
    p = np.ones((5, 5))
    snap = sample_adjacency(p, 0)
    assert snap.edge_count == 5 * 4 // 2


def test_sample_rejects_bad_probabilities():
    with pytest.raises(InvalidInputError):
        sample_adjacency(np.full((3, 3), 1.5), 0)


def test_sample_edge_count_binomial_oracle():
    # oracle: total edges ~ Binomial(n(n-1)/2, p); assert within 4 sd of the mean
    n, p = 200, 0.1
    pairs = n * (n - 1) // 2
    mean = pairs * p
    sd = np.sqrt(pairs * p * (1 - p))
    snap = sample_adjacency(np.full((n, n), p), 42)
    assert abs(snap.edge_count - mean) <= 4 * sd


def test_sample_determinism():
    p = np.full((30, 30), 0.3)
    a = sample_adjacency(p, 7)
    b = sample_adjacency(p, 7)
    assert np.array_equal(a.rows, b.rows) and np.array_equal(a.cols, b.cols)


def test_sampling_unbiasedness():
    # empirical edge frequency approaches P - diag(P), per entry within 4 sd
    rng = np.random.default_rng(5)
    n, m = 25, 400
    p = random_symmetric(n, rng, 0.05, 0.6)
    counts = np.zeros((n, n))
    for trial in range(m):
        counts += sample_adjacency(p, trial).to_dense()
    freq = counts / m
    target = p - np.diag(np.diag(p))
    bound = 4 * np.sqrt(target * (1 - target) / m) + 1e-12
    off = ~np.eye(n, dtype=bool)
    assert (np.abs(freq - target)[off] <= bound[off]).all()
    assert np.all(np.diag(freq) == 0)


# ---------------------------------------------------------------------------
# sample_sbm
# ---------------------------------------------------------------------------

# non-planted k=3 kernel with alpha=1: block (0, 0) at p=1, block (0, 2) at p=0
KERNEL3 = ConnectivityModel(
    3, 1.0, np.array([[1.0, 0.3, 0.0], [0.3, 0.5, 0.2], [0.0, 0.2, 0.6]]))


def test_sample_sbm_unbiasedness():
    # empirical edge frequency approaches P - diag(P), per entry within 4 sd
    lab = random_labels(25, 3, np.random.default_rng(31))
    p = build_probability_matrix(lab, KERNEL3)
    m = 400
    counts = np.zeros((25, 25))
    for trial in range(m):
        counts += sample_sbm(lab, KERNEL3, trial).to_dense()
    freq = counts / m
    target = p - np.diag(np.diag(p))
    bound = 4 * np.sqrt(target * (1 - target) / m) + 1e-12
    off = ~np.eye(25, dtype=bool)
    assert (np.abs(freq - target)[off] <= bound[off]).all()
    assert np.all(np.diag(freq) == 0)


def test_sample_sbm_block_edge_counts_binomial_oracle():
    # oracle: edges between blocks a <= b ~ Binomial(pairs, alpha * b0[a, b]), within 4 sd
    lab = random_labels(300, 3, np.random.default_rng(32))
    snap = sample_sbm(lab, KERNEL3, 33)
    sizes = lab.sizes()
    ba, bb = lab.labels[snap.rows], lab.labels[snap.cols]
    for a in range(3):
        for b in range(a, 3):
            pairs = sizes[a] * (sizes[a] - 1) // 2 if a == b else sizes[a] * sizes[b]
            p = KERNEL3.alpha * KERNEL3.b0[a, b]
            got = np.count_nonzero((np.minimum(ba, bb) == a) & (np.maximum(ba, bb) == b))
            assert abs(got - pairs * p) <= 4 * np.sqrt(pairs * p * (1 - p)), (a, b)


@pytest.mark.parametrize("size", range(61))
def test_triu_decode_matches_triu_indices(size):
    rows, cols = np.triu_indices(size, 1)
    i, j = _triu_decode(np.arange(rows.size, dtype=np.int64), size)
    assert np.array_equal(i, rows) and np.array_equal(j, cols)


@pytest.mark.parametrize("labels,k", [
    ([0, 1, 0, 1, 1, 0, 1], 3),   # community 2 is empty
    ([0, 2, 1, 0, 1, 1, 0], 3),   # community 2 is a singleton
    ([0] * 7, 1),
], ids=["empty", "singleton", "k1"])
def test_sample_sbm_zero_one_kernel_is_exact(labels, k):
    # with 0/1 probabilities the graph is determined: the strict upper triangle of P
    b0 = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0], [1.0, 1.0, 0.0]])[:k, :k]
    model = ConnectivityModel(k, 1.0, b0)
    lab = CommunityLabels(labels, k)
    snap = sample_sbm(lab, model, 0)
    rows, cols = np.nonzero(np.triu(build_probability_matrix(lab, model), k=1))
    assert np.array_equal(snap.rows, rows) and np.array_equal(snap.cols, cols)


def test_sample_sbm_determinism_and_order():
    lab = random_labels(80, 3, np.random.default_rng(34))
    model = ConnectivityModel.planted_partition(3, 0.3, 0.4)
    a, b = sample_sbm(lab, model, 7), sample_sbm(lab, model, 7)
    assert np.array_equal(a.rows, b.rows) and np.array_equal(a.cols, b.cols)
    assert a.edge_count > 0 and (a.rows < a.cols).all()
    assert (np.diff(a.keys()) > 0).all()  # row-major, as np.nonzero returns them
    assert not np.array_equal(a.keys(), sample_sbm(lab, model, 8).keys())


def test_sample_sbm_label_mismatch():
    with pytest.raises(InvalidInputError):
        sample_sbm(CommunityLabels([0, 1], 2), KERNEL3, 0)


def test_sample_sbm_memory_is_linear_in_edges():
    # a dense n^2 path would need > 3 GB here (n^2 float64 uniforms alone are 3.2 GB)
    import tracemalloc

    n = 20000
    lab = CommunityLabels(np.arange(n) % 2, 2)
    model = ConnectivityModel.planted_partition(2, 8.0 / n, 0.1)
    tracemalloc.start()
    try:
        snap = sample_sbm(lab, model, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 0 < snap.edge_count < 4 * n
    assert peak < 64 * 2**20


# ---------------------------------------------------------------------------
# degrees
# ---------------------------------------------------------------------------

def test_degrees_zero_and_complete():
    assert AdjacencySnapshot(4, [], []).degrees().tolist() == [0, 0, 0, 0]
    complete = AdjacencySnapshot(4, *np.nonzero(np.triu(np.ones((4, 4)), 1)))
    assert complete.degrees().tolist() == [3, 3, 3, 3]


def test_degrees_integer_valued_for_snapshots():
    snap = sample_adjacency(np.full((20, 20), 0.4), 3)
    d = snap.degrees()
    assert np.array_equal(d, np.round(d))
    assert np.array_equal(d, snap.to_dense().sum(axis=1))


# ---------------------------------------------------------------------------
# normalized_laplacian
# ---------------------------------------------------------------------------

def test_laplacian_complete_graph_n3():
    # hand computation: degrees 2, L = (J - I) / 2, eigenvalues {1, -1/2, -1/2}
    a = np.ones((3, 3)) - np.eye(3)
    lap = normalized_laplacian(a)
    assert np.allclose(lap, (np.ones((3, 3)) - np.eye(3)) / 2)
    assert np.allclose(np.sort(np.linalg.eigvalsh(lap)), [-0.5, -0.5, 1.0])


def test_laplacian_constant_matrix_rank_one():
    # hand computation: constant c on all pairs incl. diagonal -> L = M / (nc)
    n, c = 5, 0.4
    m = np.full((n, n), c)
    lap = normalized_laplacian(m)
    assert np.allclose(lap, m / (n * c))
    vals = np.sort(np.linalg.eigvalsh(lap))
    assert np.allclose(vals, [0, 0, 0, 0, 1], atol=1e-12)


def test_laplacian_single_edge():
    a = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert np.array_equal(normalized_laplacian(a), a)


def test_laplacian_zero_degree_policies():
    a = np.zeros((3, 3))
    a[0, 1] = a[1, 0] = 1.0
    with pytest.raises(ZeroDegreeError):
        normalized_laplacian(a)
    lap = normalized_laplacian(a, zero_degree="zero-row")
    assert np.all(lap[2] == 0) and np.all(lap[:, 2] == 0)
    assert np.isfinite(lap).all()  # NaN never emitted
    assert lap[0, 1] == 1.0


def test_laplacian_eigenvalues_within_unit_interval():
    rng = np.random.default_rng(2)
    a = (random_symmetric(40, rng, 0, 1) > 0.6).astype(float)
    np.fill_diagonal(a, 0)
    a = np.triu(a, 1) + np.triu(a, 1).T
    lap = normalized_laplacian(a, zero_degree="zero-row")
    vals = np.linalg.eigvalsh(lap)
    assert vals.min() >= -1 - 1e-9 and vals.max() <= 1 + 1e-9


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2 ** 31), st.floats(1e-6, 1e6))
def test_laplacian_scale_invariance(seed, c):
    rng = np.random.default_rng(seed)
    m = random_symmetric(8, rng, 0.1, 1.0)
    assert np.allclose(normalized_laplacian(c * m), normalized_laplacian(m),
                       atol=1e-12, rtol=1e-9)


def test_laplacian_of_planted_p_has_rank_k():
    # equal-sized planted partition, tau < 1: exactly k nonzero eigenvalues
    for k, n in ((2, 100), (5, 200)):
        lab = CommunityLabels(np.arange(n) % k, k)
        model = ConnectivityModel.planted_partition(k, 0.3, 0.4)
        lap = normalized_laplacian(build_probability_matrix(lab, model))
        vals = np.abs(np.linalg.eigvalsh(lap))
        assert int((vals > 1e-8).sum()) == k


def _sparse_graph_matrix(n, p, seed):
    """A weighted symmetric matrix on a sparse random graph, with isolated nodes."""
    rng = np.random.default_rng(seed)
    m = sample_adjacency(np.full((n, n), p), rng).to_dense() * random_symmetric(n, rng, 0.1, 1.0)
    m[:3] = m[:, :3] = 0.0
    return m


@pytest.mark.parametrize("n,p,seed", [(30, 0.05, 0), (80, 0.02, 1), (200, 0.2, 2)])
def test_laplacian_csr_matches_dense(n, p, seed):
    m = _sparse_graph_matrix(n, p, seed)
    isolated = ~m.any(axis=1)
    assert isolated.any()
    dense = normalized_laplacian(m, zero_degree="zero-row")
    lap = normalized_laplacian_csr(scipy.sparse.csr_array(m), zero_degree="zero-row")
    assert isinstance(lap, scipy.sparse.csr_array)
    assert (lap != lap.T).nnz == 0
    got = lap.toarray()
    assert np.all(np.abs(got - dense) <= 1e-14 * np.abs(dense))
    assert not got[isolated].any() and not got[:, isolated].any()
    assert np.array_equal(got != 0, dense != 0)


def test_laplacian_csr_shares_zero_degree_policies():
    a = np.zeros((3, 3))
    a[0, 1] = a[1, 0] = 1.0
    with pytest.raises(ZeroDegreeError):
        normalized_laplacian_csr(scipy.sparse.csr_array(a))
    with pytest.raises(InvalidInputError, match="policy"):
        normalized_laplacian_csr(scipy.sparse.csr_array(a), zero_degree="drop")
    negative = -a
    with pytest.raises(InvalidInputError, match="negative row sum"):
        normalized_laplacian_csr(scipy.sparse.csr_array(negative), zero_degree="zero-row")
    with pytest.raises(InvalidInputError, match="negative row sum"):
        normalized_laplacian(negative, zero_degree="zero-row")
    asymmetric = a.copy()
    asymmetric[2, 0] = 1.0
    with pytest.raises(InvalidInputError, match="not symmetric"):
        normalized_laplacian_csr(scipy.sparse.csr_array(asymmetric), zero_degree="zero-row")


# ---------------------------------------------------------------------------
# effective_sizes
# ---------------------------------------------------------------------------

def test_effective_sizes_planted_balanced_tau_zero():
    model = ConnectivityModel.planted_partition(4, 0.5, 0.0)
    prof = effective_sizes(model, 100, 25, 25)
    assert prof.nbar_max == 25 and prof.nbar_min == 25
    assert prof.mu_b == 1.0 and prof.gamma == 1.0
    assert prof.n_prime_max == 25


def test_effective_sizes_planted_closed_form():
    # (1 - tau) * n_max + n * tau when a community of size n_max is admissible
    model = ConnectivityModel.planted_partition(3, 0.5, 0.3)
    prof = effective_sizes(model, 300, 80, 120)
    assert np.isclose(prof.nbar_max, 0.7 * 120 + 300 * 0.3)
    assert np.isclose(prof.nbar_min, 0.7 * 80 + 300 * 0.3)


def test_effective_sizes_tau_near_one_approaches_n():
    n = 400
    model = ConnectivityModel.planted_partition(4, 0.5, 0.95)
    prof = effective_sizes(model, n, 100, 100)
    assert prof.nbar_max >= 0.95 * n
    assert np.isclose(prof.nbar_max, 0.05 * 100 + 0.95 * n)


def test_effective_sizes_identity_kernel_example():
    model = ConnectivityModel(2, 0.5, np.eye(2))
    prof = effective_sizes(model, 10, 4, 6)
    assert prof.nbar_max == 6.0 and prof.nbar_min == 4.0


def test_effective_sizes_one_community_has_no_second_largest():
    prof = effective_sizes(ConnectivityModel(1, 0.5, np.ones((1, 1))), 50, 50, 50)
    assert prof.n_prime_max == 0
    assert prof.nbar_max == prof.nbar_min == 50


def test_effective_sizes_matches_enumeration_oracle():
    rng = np.random.default_rng(17)
    for _ in range(15):
        k = int(rng.integers(2, 4))
        upper = np.triu(rng.uniform(0, 1, size=(k, k)))
        b0 = upper + np.triu(upper, 1).T
        n = int(rng.integers(3 * k, 6 * k))
        n_min = max(1, n // k - 2)
        n_max = n // k + 2
        if k * n_min > n or k * n_max < n:
            continue
        model = ConnectivityModel(k, 0.5, b0)
        prof = effective_sizes(model, n, n_min, n_max)
        lo, hi = enumerate_effective_sizes(b0, n, n_min, n_max)
        assert np.isclose(prof.nbar_max, hi)
        assert np.isclose(prof.nbar_min, lo)


def test_effective_sizes_infeasible_bounds():
    model = ConnectivityModel.planted_partition(3, 0.5, 0.2)
    with pytest.raises(InvalidInputError):
        effective_sizes(model, 100, 40, 45)  # 3*40 > 100
    with pytest.raises(InvalidInputError):
        effective_sizes(model, 100, 10, 20)  # 3*20 < 100


# ---------------------------------------------------------------------------
# expected degrees
# ---------------------------------------------------------------------------

def test_expected_degrees_match_dense():
    rng = np.random.default_rng(23)
    lab = random_labels(40, 3, rng)
    model = ConnectivityModel.planted_partition(3, 0.2, 0.35)
    p = build_probability_matrix(lab, model)
    assert np.allclose(expected_degrees(lab, model), p.sum(axis=1) - np.diag(p),
                       atol=1e-12)


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------

def test_snapshot_roundtrip(tmp_path):
    snap = sample_adjacency(np.full((25, 25), 0.3), 9)
    path = tmp_path / "snap.txt"
    save_snapshot(snap, path)
    assert path.read_text().startswith("n=25\n")
    back = load_snapshot(path)
    assert back.n == 25
    assert np.array_equal(back.rows, snap.rows) and np.array_equal(back.cols, snap.cols)


def _edge_snapshot(n: int, m: int, seed: int) -> AdjacencySnapshot:
    """No edges when ``m = 0``, else up to ``m`` random edges and ``(0, 1)``, ``(0, n - 1)``."""
    if n < 2 or m == 0:
        return AdjacencySnapshot(n, np.empty(0, np.int64), np.empty(0, np.int64))
    rng = np.random.default_rng(seed)
    i, j = rng.integers(0, n, size=(2, m))
    pairs = np.concatenate([np.column_stack([np.minimum(i, j), np.maximum(i, j)])[i != j],
                            [[0, 1], [0, n - 1]]])
    pairs = np.unique(pairs, axis=0)
    return AdjacencySnapshot(n, pairs[:, 0], pairs[:, 1])


@pytest.mark.parametrize("n, m", [(n, 500) for n in (1, 2, 9, 10, 11, 99, 100, 101, 1000, 100003)]
                         + [(10, 0), (100003, 0)])
def test_save_snapshot_matches_per_line_oracle(tmp_path, n, m):
    snap = _edge_snapshot(n, m, n)
    if snap.edge_count:
        assert snap.rows.min() == 0 and snap.cols.max() == n - 1
    save_snapshot(snap, tmp_path / "new.txt")
    save_snapshot_oracle(snap, tmp_path / "old.txt")
    assert (tmp_path / "new.txt").read_bytes() == (tmp_path / "old.txt").read_bytes()


def test_load_snapshot_rejects_malformed_edge_line(tmp_path):
    path = tmp_path / "snap.txt"
    for bad in ("0 1 2", "0", "0 x"):
        path.write_text(f"n=4\n0 1\n{bad}\n")
        with pytest.raises(InvalidInputError):
            load_snapshot(path)


def test_load_snapshot_header_only_is_empty(tmp_path):
    path = tmp_path / "snap.txt"
    save_snapshot(AdjacencySnapshot(5, np.empty(0, np.int64), np.empty(0, np.int64)), path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        back = load_snapshot(path)
    assert back.n == 5 and back.edge_count == 0


@pytest.mark.parametrize("body", ["0 1 2\n1 2 3\n", "0\n1\n"], ids=["three_columns", "one_column"])
def test_load_snapshot_rejects_uniform_wrong_column_count(tmp_path, body):
    path = tmp_path / "snap.txt"
    path.write_text(f"n=4\n{body}")
    with pytest.raises(InvalidInputError):
        load_snapshot(path)


def test_load_snapshot_skips_blank_lines(tmp_path):
    path = tmp_path / "snap.txt"
    path.write_text("n=4\n\n0 1\n   \n2\t3\n\n")
    back = load_snapshot(path)
    assert back.rows.tolist() == [0, 2] and back.cols.tolist() == [1, 3]


def _write_snapshot(tmp_path, text):
    path = tmp_path / "snap.txt"
    path.write_text(text)
    return path


@pytest.mark.parametrize("call, match", [
    (lambda tmp: check_symmetric(np.zeros((2, 3))), "must be square"),
    (lambda tmp: CommunityLabels(np.zeros((2, 2), dtype=int), 2), "1-d"),
    (lambda tmp: CommunityLabels([0, 0], 0), "k must be >= 1"),
    (lambda tmp: ConnectivityModel(0, 0.5, np.zeros((0, 0))), "k must be >= 1"),
    (lambda tmp: ConnectivityModel(2, 0.5, np.eye(3)), "b0 must be 2x2"),
    (lambda tmp: AdjacencySnapshot(4, [0, 1], [2]), "equal length"),
    (lambda tmp: expected_degrees(CommunityLabels([0, 1], 2),
                                  ConnectivityModel.planted_partition(3, 0.5, 0.2)),
     "labels declare k=2"),
    (lambda tmp: effective_sizes(ConnectivityModel.planted_partition(2, 0.5, 0.2), 10, -1, 6),
     "need 0 <= n_min <= n_max"),
    (lambda tmp: effective_sizes(ConnectivityModel.planted_partition(2, 0.5, 0.2), 10, 6, 5),
     "need 0 <= n_min <= n_max"),
    (lambda tmp: load_snapshot(_write_snapshot(tmp, "0 1\n")), "missing 'n=<n>' header"),
    (lambda tmp: load_snapshot(_write_snapshot(tmp, "n=four\n0 1\n")), "bad header"),
], ids=["check_symmetric_not_square", "labels_2d", "labels_k0", "model_k0", "b0_shape",
        "rows_cols_unequal", "expected_degrees_k", "sizes_negative_n_min",
        "sizes_n_max_below_n_min", "snapshot_no_header", "snapshot_bad_header"])
def test_sbm_input_checks(tmp_path, call, match):
    with pytest.raises(InvalidInputError, match=match):
        call(tmp_path)
