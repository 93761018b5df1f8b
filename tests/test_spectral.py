import numpy as np
import pytest
import scipy.sparse

import dynsc.spectral

from conftest import random_symmetric
from dynsc import (
    CommunityLabels,
    ConnectivityModel,
    EigenSolverError,
    InvalidInputError,
    build_probability_matrix,
    kmeans,
    misclassification_error,
    normalized_laplacian,
    sample_sbm,
    spectral_cluster,
    spectral_norm,
    top_k_eigenpairs,
)
from dynsc.spectral import _assign, _kmeans_single


# ---------------------------------------------------------------------------
# top_k_eigenpairs
# ---------------------------------------------------------------------------

def test_two_block_probability_matrix_spectrum():
    # two all-ones blocks of size 2: eigenvalues {2, 2, 0, 0}
    lab = CommunityLabels([0, 0, 1, 1], 2)
    p = build_probability_matrix(lab, ConnectivityModel.planted_partition(2, 1.0, 0.0))
    basis = top_k_eigenpairs(p, 2)
    assert np.allclose(basis.values, [2.0, 2.0])
    # eigenvectors span the indicator space: applying P scales rows by 2
    assert np.allclose(p @ basis.vectors, 2.0 * basis.vectors, atol=1e-9)


def test_scaled_identity_top1():
    with pytest.warns(RuntimeWarning):  # all eigenvalues tie, so the gap is zero
        basis = top_k_eigenpairs(3.5 * np.eye(6), 1)
    assert np.isclose(basis.values[0], 3.5)


def test_matches_dense_oracle_random50():
    rng = np.random.default_rng(0)
    m = random_symmetric(50, rng)
    basis = top_k_eigenpairs(m, 5)
    oracle = np.sort(np.abs(np.linalg.eigvalsh(m)))[::-1][:5]
    assert np.allclose(np.abs(basis.values), oracle, atol=1e-8)


def test_orthonormal_and_residual_invariants():
    rng = np.random.default_rng(1)
    m = random_symmetric(64, rng)
    basis = top_k_eigenpairs(m, 4)
    gram = basis.vectors.T @ basis.vectors
    assert np.abs(gram - np.eye(4)).max() <= 1e-8
    norm = spectral_norm(m)
    for i in range(4):
        resid = np.linalg.norm(m @ basis.vectors[:, i] - basis.values[i] * basis.vectors[:, i])
        assert resid <= 1e-8 * norm


def test_magnitude_selection_is_optimal():
    rng = np.random.default_rng(2)
    m = random_symmetric(60, rng)
    k = 6
    basis = top_k_eigenpairs(m, k)
    all_sq = np.sort(np.linalg.eigvalsh(m) ** 2)[::-1]
    assert np.isclose((basis.values ** 2).sum(), all_sq[:k].sum(), rtol=1e-10)


def test_iterative_path_matches_dense_oracle():
    rng = np.random.default_rng(3)
    m = random_symmetric(600, rng)  # above the dense eigensolver limit
    basis = top_k_eigenpairs(m, 3)
    oracle = np.sort(np.abs(np.linalg.eigvalsh(m)))[::-1][:3]
    assert np.allclose(np.abs(basis.values), oracle, rtol=1e-6)


def test_sign_canonicalization_deterministic():
    rng = np.random.default_rng(4)
    m = random_symmetric(30, rng)
    a = top_k_eigenpairs(m, 3)
    b = top_k_eigenpairs(m.copy(), 3)
    assert np.array_equal(a.vectors, b.vectors)
    for col in range(3):
        v = a.vectors[:, col]
        assert v[np.argmax(np.abs(v))] > 0


def test_eigengap_reported():
    m = np.diag([4.0, 3.0, 1.0, 0.5])
    basis = top_k_eigenpairs(m, 2)
    assert np.isclose(basis.gap, 2.0)
    assert not basis.gap_degenerate

def test_degenerate_gap_warns():
    with pytest.warns(RuntimeWarning):
        basis = top_k_eigenpairs(np.zeros((5, 5)), 2)
    assert basis.gap_degenerate


@pytest.mark.parametrize("n", [129, 300, 512])  # just above the dense limit
def test_lanczos_path_matches_eigh_oracle(n, eigsh_operators):
    m = _sparse_sbm_adjacency(n)
    values, vectors = np.linalg.eigh(m)
    top = np.argsort(-np.abs(values))[:3]
    basis = top_k_eigenpairs(m, 3)
    assert eigsh_operators == ["csr"]  # about 3% nonzero
    assert np.allclose(basis.values, values[top], rtol=1e-8, atol=0.0)
    proj_dist = np.linalg.norm(basis.vectors @ basis.vectors.T
                               - vectors[:, top] @ vectors[:, top].T, 2)
    assert proj_dist <= 1e-6


def test_spectral_norm_lanczos_path_matches_eigvalsh(eigsh_operators):
    m = random_symmetric(300, np.random.default_rng(15))
    assert np.isclose(spectral_norm(m), np.abs(np.linalg.eigvalsh(m)).max(), rtol=1e-6)
    assert eigsh_operators == ["dense"]


def test_degenerate_gap_warns_on_lanczos_path(eigsh_operators):
    # eigenvalues 6, 3, 3 above a bulk in [-1, 1]: the second and third tie
    n = 300
    rng = np.random.default_rng(16)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    m = (q * np.concatenate([[6.0, 3.0, 3.0], rng.uniform(-1.0, 1.0, n - 3)])) @ q.T
    m = np.triu(m) + np.triu(m, 1).T
    with pytest.warns(RuntimeWarning, match="degenerate"):
        basis = top_k_eigenpairs(m, 2)
    assert basis.gap_degenerate
    assert eigsh_operators == ["dense"]


def test_bad_k_rejected():
    with pytest.raises(InvalidInputError):
        top_k_eigenpairs(np.eye(3), 0)
    with pytest.raises(InvalidInputError):
        top_k_eigenpairs(np.eye(3), 4)


# ---------------------------------------------------------------------------
# kmeans
# ---------------------------------------------------------------------------

def test_kmeans_k_distinct_points_zero_cost():
    x = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    res = kmeans(x, 3, restarts=5, seed=0)
    assert res.cost == 0.0
    assert sorted(res.labels.tolist()) == [0, 1, 2]
    assert not res.degenerate


def test_kmeans_two_separated_blobs():
    # construction with known optimum: blobs 10 sigma apart
    rng = np.random.default_rng(5)
    sigma = 0.5
    a = rng.normal(0.0, sigma, size=(40, 2))
    b = rng.normal(0.0, sigma, size=(40, 2)) + [10 * sigma * np.sqrt(2), 0]
    x = np.vstack([a, b])
    truth = CommunityLabels(np.repeat([0, 1], 40), 2)
    for seed in range(5):
        res = kmeans(x, 2, restarts=1, seed=seed)
        pred = CommunityLabels(res.labels, 2)
        assert misclassification_error(pred, truth).e_value == 0.0


def test_kmeans_k1_closed_form():
    rng = np.random.default_rng(6)
    x = rng.normal(size=(30, 3))
    res = kmeans(x, 1, restarts=1, seed=0)
    assert np.allclose(res.centroids[0], x.mean(axis=0))
    assert np.isclose(res.cost, ((x - x.mean(axis=0)) ** 2).sum())


def test_kmeans_cost_monotone_descent():
    rng = np.random.default_rng(7)
    x = rng.normal(size=(200, 4))
    for ridx in range(5):
        run_rng = np.random.default_rng(ridx)
        _, _, _, _, history = _kmeans_single(x, 5, run_rng)
        diffs = np.diff(np.asarray(history))
        assert (diffs <= 1e-9).all()


def test_kmeans_cost_recomputed_from_output():
    rng = np.random.default_rng(8)
    x = rng.normal(size=(100, 3))
    res = kmeans(x, 4, restarts=3, seed=1)
    recomputed = sum(((x[i] - res.centroids[res.labels[i]]) ** 2).sum()
                     for i in range(100))
    assert np.isclose(res.cost, recomputed, rtol=1e-12)


def test_kmeans_tie_breaks_to_lowest_index():
    x = np.zeros((4, 1))
    res = kmeans(x, 2, restarts=1, seed=0)
    assert (res.labels == 0).all()
    assert res.degenerate  # one cluster necessarily empty


def test_kmeans_stops_once_best_cost_repeats(monkeypatch):
    # three tight, well-separated 2-d blobs
    rng = np.random.default_rng(17)
    x = np.vstack([rng.normal(mu, 0.05, size=(50, 2)) for mu in [(0, 0), (1, 0), (0, 1)]])
    res = kmeans(x, 3, restarts=20, seed=0)
    assert res.cost > 0.0
    assert dynsc.spectral._KMEANS_REPEATS <= res.restarts_used < 20
    monkeypatch.setattr(dynsc.spectral, "_KMEANS_REPEATS", 21)  # never stops early
    full = kmeans(x, 3, restarts=20, seed=0)
    assert full.restarts_used == 20
    assert np.array_equal(res.labels, full.labels)
    assert np.array_equal(res.centroids, full.centroids)
    assert res.cost == full.cost


def _scripted_costs(monkeypatch, costs):
    """Make each Lloyd run return the next of ``costs``, with labels naming the run."""
    runs = iter(range(len(costs)))

    def single(x, k, rng):
        i = next(runs)
        return np.full(x.shape[0], i), np.zeros((k, x.shape[1])), costs[i], False, [costs[i]]

    monkeypatch.setattr(dynsc.spectral, "_kmeans_single", single)


@pytest.mark.parametrize("costs,used,best", [
    ([5.0, 4.0, 3.0, 2.0, 1.0], 5, 4),  # all differ
    ([2.0, 1.0, 1.0 + 1e-11, 1.0 + 2e-11, 1.0, 0.5], 6, 5),  # near-repeats outside 1e-12
    ([3.0, 3.0, 2.0, 2.0, 1.0, 1.0, 1.5], 7, 4),  # each level reached only twice
    ([1.0 + 5e-13, 1.0, 2.0, 1.0 + 5e-13, 0.5, 0.5], 4, 1),  # three within 1e-12 of 1.0
])
def test_kmeans_early_stop_needs_three_repeats_of_the_best(monkeypatch, costs, used, best):
    _scripted_costs(monkeypatch, costs)
    res = kmeans(np.zeros((6, 2)), 2, restarts=len(costs), seed=0)
    assert res.restarts_used == used
    assert (res.labels == best).all()  # the first run of least cost
    assert res.cost == costs[best]


def test_kmeans_zero_cost_stops_at_once(monkeypatch):
    x = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    assert kmeans(x, 3, restarts=5, seed=0).restarts_used == 1
    _scripted_costs(monkeypatch, [1.0, 0.0, 0.0, 0.0])
    res = kmeans(np.zeros((6, 2)), 2, restarts=4, seed=0)
    assert (res.restarts_used, res.cost) == (2, 0.0)


@pytest.mark.parametrize("n,d,k,offset", [(300, 2, 3, 0.0), (500, 5, 8, 0.0),
                                          (200, 3, 4, 50.0), (40, 1, 2, 0.0)])
def test_assign_matches_broadcast_oracle(n, d, k, offset):
    rng = np.random.default_rng(n + d + k)
    x = rng.normal(size=(n, d)) + offset
    centers = x[rng.choice(n, k, replace=False)] + 0.1 * rng.normal(size=(k, d))
    d2 = ((x[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
    labels, dist = _assign(x, centers)
    assert np.array_equal(labels, d2.argmin(axis=1))
    assert np.array_equal(dist, d2[np.arange(n), labels])


def test_kmeans_determinism():
    rng = np.random.default_rng(9)
    x = rng.normal(size=(50, 2))
    a = kmeans(x, 3, seed=4)
    b = kmeans(x, 3, seed=4)
    assert np.array_equal(a.labels, b.labels)
    assert a.cost == b.cost


# ---------------------------------------------------------------------------
# spectral_cluster
# ---------------------------------------------------------------------------

def _balanced(n, k):
    return CommunityLabels(np.arange(n) % k, k)


@pytest.mark.parametrize("n,k,tau", [(60, 2, 0.0), (90, 3, 0.3), (100, 5, 0.3)])
def test_exact_recovery_on_noiseless_p(n, k, tau):
    truth = _balanced(n, k)
    model = ConnectivityModel.planted_partition(k, 0.6, tau)
    p = build_probability_matrix(truth, model)
    res = spectral_cluster(p, k, seed=0)
    assert misclassification_error(res.labels, truth).e_value == 0.0
    res_l = spectral_cluster(normalized_laplacian(p), k, seed=0)
    assert misclassification_error(res_l.labels, truth).e_value == 0.0


def test_zero_matrix_degenerate_but_deterministic():
    with pytest.warns(RuntimeWarning):
        a = spectral_cluster(np.zeros((8, 8)), 2, seed=3)
    with pytest.warns(RuntimeWarning):
        b = spectral_cluster(np.zeros((8, 8)), 2, seed=3)
    assert np.array_equal(a.labels.labels, b.labels.labels)
    assert a.eigen.gap_degenerate


def test_scale_invariance_of_labels():
    truth = _balanced(60, 3)
    model = ConnectivityModel.planted_partition(3, 0.5, 0.3)
    p = build_probability_matrix(truth, model)
    a = spectral_cluster(p, 3, seed=1)
    b = spectral_cluster(4.75 * p, 3, seed=1)
    assert np.array_equal(a.labels.labels, b.labels.labels)


def test_permutation_equivariance():
    rng = np.random.default_rng(10)
    truth = _balanced(48, 3)
    model = ConnectivityModel.planted_partition(3, 0.5, 0.2)
    p = build_probability_matrix(truth, model)
    base = spectral_cluster(p, 3, seed=2).labels
    for _ in range(3):
        pi = rng.permutation(48)
        permuted = spectral_cluster(p[np.ix_(pi, pi)], 3, seed=2).labels
        # permuted labels must equal the base labels on permuted nodes, up to relabeling
        pred = CommunityLabels(permuted.labels, 3)
        ref = CommunityLabels(base.labels[pi], 3)
        assert misclassification_error(pred, ref).e_value == 0.0


def test_cluster_exposes_cost_and_gap():
    truth = _balanced(40, 2)
    p = build_probability_matrix(truth, ConnectivityModel.planted_partition(2, 0.5, 0.2))
    res = spectral_cluster(p, 2, seed=0)
    assert res.cost >= 0.0
    assert res.eigengap > 0.0
    assert res.kmeans.restarts_used >= 1


# ---------------------------------------------------------------------------
# spectral_norm
# ---------------------------------------------------------------------------

def test_spectral_norm_zero():
    assert spectral_norm(np.zeros((4, 4))) == 0.0


def test_spectral_norm_constant_matrix():
    n, c = 7, 0.3
    assert np.isclose(spectral_norm(np.full((n, n), c)), n * c)


def test_spectral_norm_matches_dense_oracle():
    rng = np.random.default_rng(11)
    m = random_symmetric(100, rng)
    oracle = np.abs(np.linalg.eigvalsh(m)).max()
    assert np.isclose(spectral_norm(m), oracle, rtol=1e-6)


def test_spectral_norm_iterative_path():
    rng = np.random.default_rng(12)
    m = random_symmetric(700, rng)
    oracle = np.abs(np.linalg.eigvalsh(m)).max()
    assert np.isclose(spectral_norm(m), oracle, rtol=1e-6)


def test_spectral_norm_large_zero_matrix():
    assert spectral_norm(np.zeros((600, 600))) == 0.0


# ---------------------------------------------------------------------------
# Lanczos operator: CSR below the density threshold, dense gemv above it
# ---------------------------------------------------------------------------

def _sparse_sbm_adjacency(n=600, seed=41):
    """0/1 adjacency of a k=3 planted partition, about 3% nonzero, with a clear top-3 gap."""
    truth = CommunityLabels(np.arange(n) % 3, 3)
    model = ConnectivityModel.planted_partition(3, 0.08, 0.1)
    return sample_sbm(truth, model, seed).to_dense()


@pytest.fixture
def eigsh_operators(monkeypatch):
    """Record the operator type each ``eigsh`` call receives."""
    import scipy.sparse.linalg

    real = scipy.sparse.linalg.eigsh
    seen = []

    def spy(op, *args, **kwargs):
        if scipy.sparse.issparse(op):
            seen.append("csr")
        else:
            seen.append("dense" if isinstance(op, np.ndarray) else "operator")
        return real(op, *args, **kwargs)

    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", spy)
    return seen


def test_csr_operator_matches_dense_oracle(eigsh_operators):
    m = _sparse_sbm_adjacency()
    assert np.count_nonzero(m) <= dynsc.spectral.SPARSE_OPERATOR_SHARE * m.size
    values, vectors = np.linalg.eigh(m)
    top = np.argsort(-np.abs(values))[:3]
    basis = top_k_eigenpairs(m, 3)
    assert np.allclose(basis.values, values[top], rtol=1e-10)
    proj_dist = np.linalg.norm(basis.vectors @ basis.vectors.T
                               - vectors[:, top] @ vectors[:, top].T, 2)
    assert proj_dist <= 1e-8
    assert np.isclose(spectral_norm(m), np.abs(values).max(), rtol=1e-6)
    assert eigsh_operators == ["csr", "csr"]


def test_dense_matrix_keeps_dense_operator(eigsh_operators):
    m = random_symmetric(600, np.random.default_rng(42))
    spectral_norm(m)
    spectral_norm(m - _sparse_sbm_adjacency())
    assert eigsh_operators == ["dense", "dense"]


def _low_rank(n, r=3, seed=43):
    """Factors ``(U, C)`` of a symmetric rank-``r`` term of norm comparable to the matrices here."""
    rng = np.random.default_rng(seed)
    u = rng.standard_normal((n, r)) / np.sqrt(n)
    c = random_symmetric(r, rng) * 5.0
    return u, c


@pytest.mark.parametrize("n", [300, 600])  # at and above the dense-form limit
def test_csr_input_matches_dense_oracle(n):
    m = _sparse_sbm_adjacency(n)
    values, vectors = np.linalg.eigh(m)
    top = np.argsort(-np.abs(values))[:3]
    basis = top_k_eigenpairs(scipy.sparse.csr_array(m), 3)
    assert np.allclose(basis.values, values[top], rtol=1e-10)
    proj_dist = np.linalg.norm(basis.vectors @ basis.vectors.T
                               - vectors[:, top] @ vectors[:, top].T, 2)
    assert proj_dist <= 1e-8
    assert np.isclose(spectral_norm(scipy.sparse.csr_array(m)), np.abs(values).max(),
                      rtol=1e-6)


@pytest.mark.parametrize("n,rtol", [(300, 1e-12), (600, 1e-6)])
@pytest.mark.parametrize("form", ["dense", "csr"])
def test_spectral_norm_minus_low_rank_matches_dense_difference(n, rtol, form):
    m = _sparse_sbm_adjacency(n)
    u, c = _low_rank(n)
    product = u @ c @ u.T
    oracle = spectral_norm(m - (np.tril(product) + np.tril(product, -1).T))
    operand = scipy.sparse.csr_array(m) if form == "csr" else m
    assert np.isclose(spectral_norm(operand, minus=(u, c)), oracle, rtol=rtol, atol=0.0)


def test_spectral_norm_minus_applies_factors_without_product(eigsh_operators):
    n = 600
    m = _sparse_sbm_adjacency(n)
    spectral_norm(m, minus=_low_rank(n))
    assert eigsh_operators == ["operator"]  # U C Uᵀ applied in factored form


def test_spectral_norm_zero_matrix_minus_low_rank():
    u, c = _low_rank(40)
    oracle = np.abs(np.linalg.eigvalsh(u @ c @ u.T)).max()
    assert np.isclose(spectral_norm(np.zeros((40, 40)), minus=(u, c)), oracle, rtol=1e-12)
    assert spectral_norm(np.zeros((40, 40)), minus=(u, np.zeros((3, 3)))) == 0.0


def test_eigen_operand_rule():
    sparse = _sparse_sbm_adjacency(600)
    assert scipy.sparse.issparse(dynsc.spectral.eigen_operand(sparse))
    small = _sparse_sbm_adjacency(dynsc.spectral.DENSE_EIGEN_LIMIT)  # at the limit: kept dense
    assert dynsc.spectral.eigen_operand(small) is small
    dense = random_symmetric(600, np.random.default_rng(44))
    assert dynsc.spectral.eigen_operand(dense) is dense


def _asymmetric_csr():
    m = scipy.sparse.csr_array(_sparse_sbm_adjacency(600))
    m = m.tolil()
    m[0, 1] = 2.0  # m[1, 0] unchanged
    return m.tocsr()


def _nan_csr():
    m = scipy.sparse.csr_array(_sparse_sbm_adjacency(600))
    m.data[0] = np.nan
    return m


@pytest.mark.parametrize("bad", [_asymmetric_csr, _nan_csr,
                                 lambda: scipy.sparse.csr_array(np.ones((3, 4)))],
                         ids=["asymmetric", "nan", "non-square"])
def test_bad_csr_input_rejected(bad):
    with pytest.raises(InvalidInputError):
        top_k_eigenpairs(bad(), 2)
    with pytest.raises(InvalidInputError):
        spectral_norm(bad())


def test_bad_low_rank_factors_rejected():
    m = np.eye(5)
    u, c = _low_rank(5, r=2)
    with pytest.raises(InvalidInputError):
        spectral_norm(m, minus=(u[:4], c))
    with pytest.raises(InvalidInputError):
        spectral_norm(m, minus=(u, c + np.triu(np.ones((2, 2)), 1)))
    with pytest.raises(InvalidInputError):
        spectral_norm(m, minus=(np.full_like(u, np.nan), c))


# ---------------------------------------------------------------------------
# eigensolver fallback (ARPACK non-convergence)
# ---------------------------------------------------------------------------

@pytest.fixture
def arpack_fails(monkeypatch):
    """Make every ``eigsh`` call raise ``ArpackNoConvergence``; counts the calls."""
    import scipy.sparse.linalg

    calls = []

    def no_convergence(*args, **kwargs):
        calls.append(kwargs)
        raise scipy.sparse.linalg.ArpackNoConvergence("forced", np.array([]), np.array([]))

    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", no_convergence)
    return calls


def _check_fallback_matches_dense_oracle(m, calls):
    oracle = np.abs(np.linalg.eigvalsh(m))
    basis = top_k_eigenpairs(m, 3)
    assert np.allclose(np.abs(basis.values), np.sort(oracle)[::-1][:3], rtol=1e-10)
    gram = basis.vectors.T @ basis.vectors
    assert np.abs(gram - np.eye(3)).max() <= 1e-8
    assert np.isclose(spectral_norm(m), oracle.max(), rtol=1e-10)
    assert len(calls) == 2  # both went through eigsh first


def test_fallback_matches_dense_oracle(arpack_fails):
    rng = np.random.default_rng(13)
    m = random_symmetric(600, rng)  # above the dense-form limit, within the fallback limit
    _check_fallback_matches_dense_oracle(m, arpack_fails)


def test_fallback_matches_dense_oracle_sparse_input(arpack_fails):
    # the CSR operator fails too; the fallback decomposes the original dense array
    _check_fallback_matches_dense_oracle(_sparse_sbm_adjacency(), arpack_fails)


@pytest.mark.parametrize("form", ["dense", "csr"])
def test_fallback_with_low_rank_term_matches_dense_oracle(arpack_fails, form):
    n = 600
    m = _sparse_sbm_adjacency(n)
    u, c = _low_rank(n)
    oracle = np.abs(np.linalg.eigvalsh(m - u @ c @ u.T)).max()
    operand = scipy.sparse.csr_array(m) if form == "csr" else m
    assert np.isclose(spectral_norm(operand, minus=(u, c)), oracle, rtol=1e-10)
    assert len(arpack_fails) == 1


def test_fallback_above_limit_raises(arpack_fails, monkeypatch):
    import dynsc.spectral

    monkeypatch.setattr(dynsc.spectral, "DENSE_FALLBACK_LIMIT", 550)
    m = random_symmetric(600, np.random.default_rng(14))
    with pytest.raises(EigenSolverError):
        top_k_eigenpairs(m, 3)
    with pytest.raises(EigenSolverError):
        spectral_norm(m)


def test_spectral_norm_large_zero_matrix_skips_solver(arpack_fails):
    assert spectral_norm(np.zeros((600, 600))) == 0.0
    assert arpack_fails == []
