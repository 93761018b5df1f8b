import math
import warnings

import numpy as np
import pytest
import scipy.sparse

import dynsc.smoothing
import dynsc.spectral

from conftest import kmeans_oracle, kmeans_oracle_seeds, random_symmetric
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
from dynsc.experiments import ExperimentConfig, generate_trial_sequence, smoothed_matrix
from dynsc.sbm import normalized_laplacian_csr
from dynsc.smoothing import Exponential
from dynsc.spectral import _distances, _lloyd_round, _nearest, _seed_centroids


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
    m = random_symmetric(600, rng)
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


def _eigvalsh_gap(m, k):
    keys = np.sort(np.abs(np.linalg.eigvalsh(m)))[::-1]
    return keys[k - 1] - keys[k], keys[0]


@pytest.mark.parametrize("n", [129, 300, 512])
def test_lanczos_path_matches_eigh_oracle(n, eigsh_operators):
    m = _sparse_sbm_adjacency(n)
    values, vectors = np.linalg.eigh(m)
    top = np.argsort(-np.abs(values))[:3]
    basis = top_k_eigenpairs(m, 3)
    assert eigsh_operators == ["dsymv", "operator"]  # the pairs, then the deflated gap
    assert np.allclose(basis.values, values[top], rtol=1e-8, atol=0.0)
    proj_dist = np.linalg.norm(basis.vectors @ basis.vectors.T
                               - vectors[:, top] @ vectors[:, top].T, 2)
    assert proj_dist <= 1e-6
    gap, lead = _eigvalsh_gap(m, 3)
    assert abs(basis.gap - gap) <= 1e-6 * lead and not basis.gap_degenerate


def test_lanczos_path_solves_k_pairs_then_deflated_norm(monkeypatch):
    import scipy.sparse.linalg

    real = scipy.sparse.linalg.eigsh
    calls = []

    def spy(op, *args, **kwargs):
        calls.append(kwargs)
        return real(op, *args, **kwargs)

    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", spy)
    top_k_eigenpairs(_sparse_sbm_adjacency(300), 3)
    assert [(c["k"], c["tol"], c["return_eigenvectors"]) for c in calls] == [
        (3, dynsc.spectral.EIGENPAIR_TOL, True), (1, dynsc.spectral.NORM_TOL, False)]
    assert not np.array_equal(calls[0]["v0"], calls[1]["v0"])


def test_spectral_norm_lanczos_path_matches_eigvalsh(eigsh_operators):
    m = random_symmetric(300, np.random.default_rng(15))
    assert np.isclose(spectral_norm(m), np.abs(np.linalg.eigvalsh(m)).max(), rtol=1e-6)
    assert eigsh_operators == ["dsymv"]


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
    assert eigsh_operators == ["dsymv", "operator"]


def test_resolved_small_gap_is_not_flagged_on_lanczos_path(eigsh_operators):
    # eigenvalues 6, 3, 3 - 6e-5 above a bulk in [-1, 1]: a gap of 1e-5 relative, far above
    # the NORM_TOL ** 2 error of the deflated solve's Ritz value
    n = 300
    rng = np.random.default_rng(16)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    m = (q * np.concatenate([[6.0, 3.0, 3.0 - 6e-5], rng.uniform(-1.0, 1.0, n - 3)])) @ q.T
    m = np.triu(m) + np.triu(m, 1).T
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        basis = top_k_eigenpairs(m, 2)
    assert not basis.gap_degenerate
    assert abs(basis.gap - 6e-5) <= dynsc.spectral.NORM_TOL ** 2 * 6.0
    assert eigsh_operators == ["dsymv", "operator"]


@pytest.mark.parametrize("seed", [2, 3])
def test_norm_solves_in_a_tight_cluster_stay_within_their_residual(seed):
    # the top magnitudes of sparse2k's lambda* Laplacian (bench seed 11, trial 1): the first
    # discarded one heads a cluster 1.2e-4 wide. A NORM_TOL solve there need not come within
    # NORM_TOL ** 2 of an eigenvalue (3.9e-6 relative at seed 3), but it stays below the
    # norm and, by the residual bound, within NORM_TOL relative of an eigenvalue
    n, top = 300, [1.0, 0.76506599, 0.38083056, 0.38076127, 0.38071352]
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    values = np.concatenate([top, rng.uniform(-0.3, 0.3, n - 5)])
    m, cluster = ((q[:, i:] * values[i:]) @ q[:, i:].T for i in (0, 2))
    basis = top_k_eigenpairs(np.triu(m) + np.triu(m, 1).T, 2)
    solved = (abs(basis.values[-1]) - basis.gap,
              spectral_norm(np.triu(cluster) + np.triu(cluster, 1).T))
    for value in solved:
        assert value <= top[2] * (1.0 + 1e-12)
        assert np.abs(np.abs(values) - value).min() <= dynsc.spectral.NORM_TOL * value


def _static_sparse_laplacian():
    """The static (lambda = 1) Laplacian of trial 2 of a sparse2k-regime sweep at seed 3.

    At n = 2000 and alpha = 8/n the last snapshot has a giant component, one
    isolated edge and isolated nodes, so +1 occurs twice and -1 once: the
    three leading magnitudes tie.
    """
    n = 2000
    cfg = ExperimentConfig(mode="deterministic", n=n, k=2, tau=0.1, alpha_log_scale=None,
                           alpha_inv_scale=8.0, epsilon=1.0 / math.log(n) ** 2, t_len=30,
                           n_min=800, n_max=1200, lambda_grid=(1.0,), matrix="laplacian",
                           seed=3)
    _, snaps = generate_trial_sequence(cfg, 2)
    return normalized_laplacian_csr(smoothed_matrix(snaps, Exponential(1.0)),
                                    zero_degree="zero-row")


def test_static_sparse_laplacian_has_zero_gap():
    keys = np.sort(np.abs(np.linalg.eigvalsh(_static_sparse_laplacian().toarray())))[::-1]
    assert np.allclose(keys[:3], 1.0, rtol=0.0, atol=1e-12)


def test_lanczos_path_flags_repeated_leading_eigenvalue(eigsh_operators):
    # the eigenpair solve finds one copy of +1; the gap solve's own start vector finds another
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        basis = top_k_eigenpairs(_static_sparse_laplacian(), 2)
    assert eigsh_operators == ["csr", "operator"]
    assert np.allclose(np.abs(basis.values), 1.0, rtol=0.0, atol=1e-8)
    assert basis.gap_degenerate
    assert any("degenerate" in str(w.message) for w in caught)


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


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_kmeans_rejects_non_finite_points(bad):
    # a NaN once ran every restart and returned cost=nan with no error
    x = np.random.default_rng(0).normal(size=(50, 2))
    x[7, 1] = bad
    with pytest.raises(InvalidInputError, match="finite"):
        kmeans(x, 2, restarts=5, seed=0)


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


def test_kmeans_cost_monotone_descent(monkeypatch):
    # the cost each run returns after 1, 2, ..., 39 Lloyd iterations never rises
    rng = np.random.default_rng(7)
    x = rng.normal(size=(200, 4))
    costs = []
    for max_iter in range(1, 40):
        monkeypatch.setattr(dynsc.spectral, "_KMEANS_MAX_ITER", max_iter)
        rngs = [np.random.default_rng(ridx) for ridx in range(5)]
        costs.append([run[2] for run in _lloyd_round(x, 5, rngs)])
    costs = np.array(costs)
    assert (np.diff(costs, axis=0) <= 1e-9).all()
    assert (costs[-1] < costs[0]).all()  # every run descends


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

    def lloyd_round(x, k, rngs):
        return [(np.full(x.shape[0], i), np.zeros((k, x.shape[1])), costs[i], False)
                for _, i in zip(rngs, runs)]

    monkeypatch.setattr(dynsc.spectral, "_lloyd_round", lloyd_round)


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


def _blobs(seed, centers, sigma, size):
    rng = np.random.default_rng(seed)
    return np.vstack([rng.normal(mu, sigma, size=(size, len(mu))) for mu in centers])


# (points, k, restarts, seed); each is run through kmeans and the sequential oracle
_KMEANS_CASES = {
    "k1": (np.random.default_rng(1).normal(size=(30, 3)), 1, 5, 0),
    "k1_one_column": (np.random.default_rng(2).normal(size=(50, 1)), 1, 5, 3),
    "one_column": (np.random.default_rng(3).normal(size=(80, 1)) ** 3, 3, 20, 1),
    "k_equals_n": (np.random.default_rng(4).normal(size=(12, 2)), 12, 20, 2),
    "fewer_distinct_than_k": (np.repeat(np.eye(3), 4, axis=0), 5, 20, 0),
    "all_equal": (np.zeros((4, 1)), 2, 20, 0),
    "empty_cluster_reseed": (np.random.default_rng(2963).normal(size=(20, 2)) ** 3, 6, 3, 0),
    "zero_cost": (np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]), 3, 5, 0),
    "one_restart": (np.random.default_rng(5).normal(size=(100, 3)), 4, 1, 7),
    "blobs_early_stop": (_blobs(17, [(0, 0), (1, 0), (0, 1)], 0.05, 50), 3, 20, 0),
    "overlapping_all_restarts": (np.random.default_rng(6).normal(size=(150, 2)), 7, 20, 5),
    "d8": (np.random.default_rng(7).normal(size=(200, 8)), 5, 20, 1),
    "d12_offset": (np.random.default_rng(8).normal(size=(120, 12)) + 40.0, 4, 20, 2),
}


@pytest.mark.parametrize("case", list(_KMEANS_CASES))
def test_kmeans_equals_sequential_oracle(case, monkeypatch):
    x, k, restarts, seed = _KMEANS_CASES[case]
    empty_seen = []
    real_nearest = dynsc.spectral._nearest

    def nearest(x, centers):
        labels, offset = real_nearest(x, centers)
        empty_seen.append(any((np.bincount(run, minlength=k) == 0).any() for run in labels))
        return labels, offset

    monkeypatch.setattr(dynsc.spectral, "_nearest", nearest)
    got = kmeans(x, k, restarts=restarts, seed=seed)
    want = kmeans_oracle(x, k, restarts=restarts, seed=seed)
    assert np.array_equal(got.labels, want.labels)
    assert got.centroids.tobytes() == want.centroids.tobytes()
    assert got.cost == want.cost
    assert got.restarts_used == want.restarts_used
    assert got.degenerate == want.degenerate
    if case == "empty_cluster_reseed":  # a Lloyd step re-seeds an empty cluster
        assert any(empty_seen[:-1]) and not got.degenerate


def test_kmeans_oracle_cases_cover_the_stops():
    used = {case: kmeans_oracle(x, k, restarts=r, seed=s).restarts_used
            for case, (x, k, r, s) in _KMEANS_CASES.items()}
    assert used["zero_cost"] == 1 and used["one_restart"] == 1
    assert dynsc.spectral._KMEANS_REPEATS <= used["blobs_early_stop"] < 20
    assert used["overlapping_all_restarts"] == 20  # more than one round without a stop


@pytest.mark.parametrize("k", [2, 5])
def test_seeding_draws_what_rng_choice_draws(k):
    # rng.choice(n, p=d2 / total) against the cumulative-sum search, on the same streams
    for case, x in enumerate([np.random.default_rng(9).normal(size=(60, 3)) ** 3,
                              np.repeat(np.random.default_rng(10).normal(size=(3, 2)), 5, axis=0),
                              np.random.default_rng(11).exponential(size=(200, 9)) * 1e-150]):
        seeds = range(10 * case, 10 * case + 6)
        rngs = [np.random.default_rng(s) for s in seeds]
        twins = [np.random.default_rng(s) for s in seeds]
        got = _seed_centroids(x, k, rngs)
        want = np.stack([kmeans_oracle_seeds(x, k, rng) for rng in twins])
        assert got.tobytes() == want.tobytes()
        assert [rng.random() for rng in rngs] == [rng.random() for rng in twins]


@pytest.mark.parametrize("n,d,k,offset", [(300, 2, 3, 0.0), (500, 5, 8, 0.0),
                                          (200, 3, 4, 50.0), (40, 1, 2, 0.0)])
def test_assign_matches_broadcast_oracle(n, d, k, offset):
    rng = np.random.default_rng(n + d + k)
    x = rng.normal(size=(n, d)) + offset
    centers = x[rng.choice(n, k, replace=False)] + 0.1 * rng.normal(size=(k, d))
    d2 = ((x[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
    (labels,), offsets = _nearest(x, centers[None])
    (dist,) = _distances(x, centers[None], offsets)
    assert np.array_equal(labels, d2.argmin(axis=1))
    assert np.array_equal(dist, d2[np.arange(n), labels])


def test_nearest_follows_argmin_on_ties_and_nan():
    # duplicate centroids tie on every point (the lowest index wins), and a NaN
    # centroid takes argmin's first-NaN rule for every point of its run
    x = np.random.default_rng(12).normal(size=(50, 2))
    centers = np.stack([x[[3, 7, 3, 7]], x[[5, 5, 9, 2]], x[[1, 2, 4, 6]]])
    for nan_run in (None, 0, 2):
        runs = centers.copy()
        if nan_run is not None:
            runs[nan_run, 2, 1] = np.nan
        flat = runs.reshape(-1, 2)
        d2 = ((flat ** 2).sum(axis=1) - 2.0 * (x @ flat.T)).reshape(50, 3, 4)
        labels, offset = dynsc.spectral._nearest(x, runs)
        assert np.array_equal(labels, d2.argmin(axis=2).T)
        assert np.array_equal(offset, labels + np.array([[0], [4], [8]]))
    assert set(labels[0]) <= {0, 1} and (labels[2] == 2).all()


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
# Lanczos operator: CSR below the density threshold, dense dsymv above it
# ---------------------------------------------------------------------------

def _sparse_sbm_adjacency(n=600, seed=41):
    """0/1 adjacency of a k=3 planted partition, about 3% nonzero, with a clear top-3 gap."""
    truth = CommunityLabels(np.arange(n) % 3, 3)
    model = ConnectivityModel.planted_partition(3, 0.08, 0.1)
    return sample_sbm(truth, model, seed).to_dense()


@pytest.fixture
def eigsh_operators(monkeypatch):
    """Record the form of the ``_Operand`` each ``eigsh`` call receives.

    ``"dsymv"`` is a dense base multiplied by BLAS ``dsymv``, ``"csr"`` a CSR
    base (a sparse base by its format), ``"operator"`` either base less a
    factored ``minus=`` term; anything but an ``_Operand`` by its type name.
    """
    import scipy.sparse.linalg

    real = scipy.sparse.linalg.eigsh
    seen = []

    def spy(op, *args, **kwargs):
        if not isinstance(op, dynsc.spectral._Operand):
            seen.append(type(op).__name__)
        elif op.minus is not None:
            seen.append("operator")
        elif op.fortran is None:
            seen.append(op.m.format)  # "csr": a sparse base stays CSR
        else:
            seen.append("dsymv")
        return real(op, *args, **kwargs)

    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", spy)
    return seen


def test_csr_operator_matches_dense_oracle(eigsh_operators):
    m = _sparse_sbm_adjacency()
    assert np.count_nonzero(m) <= dynsc.smoothing.SPARSE_OPERATOR_SHARE * m.size
    values, vectors = np.linalg.eigh(m)
    top = np.argsort(-np.abs(values))[:3]
    csr = scipy.sparse.csr_array(m)
    basis = top_k_eigenpairs(csr, 3)
    assert np.allclose(basis.values, values[top], rtol=1e-10)
    proj_dist = np.linalg.norm(basis.vectors @ basis.vectors.T
                               - vectors[:, top] @ vectors[:, top].T, 2)
    assert proj_dist <= 1e-8
    assert np.isclose(spectral_norm(csr), np.abs(values).max(), rtol=1e-6)
    assert eigsh_operators == ["csr", "operator", "csr"]


def test_dense_matrix_keeps_dense_operator(eigsh_operators):
    m = random_symmetric(600, np.random.default_rng(42))
    spectral_norm(m)
    spectral_norm(m - _sparse_sbm_adjacency())
    assert eigsh_operators == ["dsymv", "dsymv"]


def test_sparse_ndarray_is_multiplied_without_csr_copy(eigsh_operators, monkeypatch):
    # the form is picked where a matrix is built, so an ndarray stays dense however sparse
    m = _sparse_sbm_adjacency(600)
    assert 0.02 <= np.count_nonzero(m) / m.size <= 0.04
    real = scipy.sparse.csr_array
    copies = []
    monkeypatch.setattr(scipy.sparse, "csr_array",
                        lambda *a, **kw: copies.append(1) or real(*a, **kw))
    top_k_eigenpairs(m, 3)
    spectral_norm(m)
    assert eigsh_operators == ["dsymv", "operator", "dsymv"]
    assert copies == []


@pytest.fixture
def dsymv_operands(monkeypatch):
    """Record the matrix each BLAS ``dsymv`` call of an ``_Operand`` product multiplies by."""
    real = dynsc.spectral.blas.dsymv
    seen = []

    def spy(alpha, a, x, *args, **kwargs):
        seen.append(a)
        return real(alpha, a, x, *args, **kwargs)

    monkeypatch.setattr(dynsc.spectral.blas, "dsymv", spy)
    return seen


def _symmetric_layout(m, layout):
    if layout == "F":
        return np.asfortranarray(m)
    if layout == "strided":  # every other row and column of a larger array: m itself
        return np.repeat(np.repeat(m, 2, axis=0), 2, axis=1)[::2, ::2]
    return m


@pytest.mark.parametrize("layout", ["C", "F", "strided", "factored", "csr", "column"])
def test_dense_product_matches_matmul(layout):
    """An ``_Operand`` product is ``(m - U C Uᵀ) @ x`` for each layout, form and shape of ``x``."""
    rng = np.random.default_rng(45)
    m = _symmetric_layout(random_symmetric(300, rng), layout)
    assert m.flags.c_contiguous == (layout not in ("F", "strided"))
    assert m.flags.f_contiguous == (layout == "F")
    x = rng.standard_normal(300)
    x = x[:, None] if layout == "column" else x
    minus = _low_rank(300) if layout == "factored" else None
    operand = scipy.sparse.csr_array(m) if layout == "csr" else m
    got = dynsc.spectral._Operand(operand, minus) @ x
    expected = (m if minus is None else m - minus[0] @ minus[1] @ minus[0].T) @ x
    assert got.shape == expected.shape
    assert np.abs(got - expected).max() <= 1e-13 * np.abs(expected).max()


@pytest.mark.parametrize("layout", ["C", "F"])
def test_dense_product_copies_nothing(layout, eigsh_operators, dsymv_operands, monkeypatch):
    checked = []
    real = dynsc.spectral.check_symmetric

    def spy(m, *args):
        checked.append(real(m, *args))
        return checked[-1]

    monkeypatch.setattr(dynsc.spectral, "check_symmetric", spy)
    m = _symmetric_layout(random_symmetric(300, np.random.default_rng(46)), layout)
    spectral_norm(m)
    top_k_eigenpairs(m, 3)
    assert len(checked) == 2 and len(dsymv_operands) > 10
    assert eigsh_operators == ["dsymv", "dsymv", "operator"]
    # F-ordered operands are passed to BLAS as they are, so every product reads the checked array
    assert all(a.flags.f_contiguous for a in dsymv_operands)
    assert all(np.shares_memory(a, checked[0]) and np.shares_memory(a, checked[1])
               for a in dsymv_operands)


def test_spectral_norm_minus_multiplies_dense_base_by_dsymv(eigsh_operators, dsymv_operands):
    n = 300
    m = random_symmetric(n, np.random.default_rng(47))
    u, c = _low_rank(n)
    oracle = np.abs(np.linalg.eigvalsh(m - u @ c @ u.T)).max()
    assert np.isclose(spectral_norm(m, minus=(u, c)), oracle, rtol=1e-6, atol=0.0)
    assert eigsh_operators == ["operator"]
    assert dsymv_operands and all(np.shares_memory(a, m) for a in dsymv_operands)


def test_spectral_norm_zero_test_counts_no_nonzeros(monkeypatch):
    """The zero test is ``any()``, not a full ``count_nonzero`` pass over the n-by-n matrix."""
    n = 300
    m = random_symmetric(n, np.random.default_rng(48))
    real = np.count_nonzero
    shapes = []

    def spy(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np, "count_nonzero", spy)
    oracle = np.abs(np.linalg.eigvalsh(m)).max()
    assert np.isclose(spectral_norm(m), oracle, rtol=1e-6)
    spectral_norm(m, minus=_low_rank(n))
    assert (n, n) not in shapes


def _low_rank(n, r=3, seed=43):
    """Factors ``(U, C)`` of a symmetric rank-``r`` term of norm comparable to the matrices here."""
    rng = np.random.default_rng(seed)
    u = rng.standard_normal((n, r)) / np.sqrt(n)
    c = random_symmetric(r, rng) * 5.0
    return u, c


@pytest.mark.parametrize("n", [300, 600])
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
    assert spectral_norm(np.zeros((40, 40)), minus=(np.zeros_like(u), c)) == 0.0


def test_spectral_norm_zero_test_ignores_signed_and_stored_zeros():
    assert spectral_norm(np.full((4, 4), -0.0)) == 0.0
    stored = scipy.sparse.csr_array((np.zeros(2), [1, 0], [0, 1, 2]), shape=(2, 2))
    assert stored.nnz == 2 and spectral_norm(stored) == 0.0
    u, c = _low_rank(40)
    oracle = np.abs(np.linalg.eigvalsh(u @ c @ u.T)).max()
    zero = scipy.sparse.csr_array((40, 40))
    assert np.isclose(spectral_norm(zero, minus=(u, c)), oracle, rtol=1e-12)


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
    oracle = np.abs(np.linalg.eigvalsh(m.toarray() if scipy.sparse.issparse(m) else m))
    basis = top_k_eigenpairs(m, 3)
    assert np.allclose(np.abs(basis.values), np.sort(oracle)[::-1][:3], rtol=1e-10)
    gram = basis.vectors.T @ basis.vectors
    assert np.abs(gram - np.eye(3)).max() <= 1e-8
    keys = np.sort(oracle)[::-1]
    assert abs(basis.gap - (keys[2] - keys[3])) <= 1e-8 * keys[0]
    assert np.isclose(spectral_norm(m), oracle.max(), rtol=1e-10)
    assert len(calls) == 2  # the eigenpair and norm solves; the gap comes from the decomposition


def test_fallback_matches_dense_oracle(arpack_fails):
    rng = np.random.default_rng(13)
    m = random_symmetric(600, rng)  # within the fallback limit
    _check_fallback_matches_dense_oracle(m, arpack_fails)


def test_fallback_matches_dense_oracle_sparse_input(arpack_fails):
    # the CSR operator fails too; the fallback decomposes the densified array
    _check_fallback_matches_dense_oracle(scipy.sparse.csr_array(_sparse_sbm_adjacency()),
                                         arpack_fails)


@pytest.mark.parametrize("form", ["dense", "csr"])
def test_fallback_with_low_rank_term_matches_dense_oracle(arpack_fails, form):
    n = 600
    m = _sparse_sbm_adjacency(n)
    u, c = _low_rank(n)
    oracle = np.abs(np.linalg.eigvalsh(m - u @ c @ u.T)).max()
    operand = scipy.sparse.csr_array(m) if form == "csr" else m
    assert np.isclose(spectral_norm(operand, minus=(u, c)), oracle, rtol=1e-10)
    assert len(arpack_fails) == 1


def test_gap_solve_non_convergence_falls_back_to_dense(monkeypatch):
    import scipy.sparse.linalg

    real = scipy.sparse.linalg.eigsh
    calls = []

    def gap_solve_fails(op, *args, **kwargs):
        calls.append(kwargs["k"])
        if kwargs["k"] == 1:
            raise scipy.sparse.linalg.ArpackNoConvergence("forced", np.array([]), np.array([]))
        return real(op, *args, **kwargs)

    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", gap_solve_fails)
    m = _sparse_sbm_adjacency(600)
    gap, lead = _eigvalsh_gap(m, 3)
    basis = top_k_eigenpairs(m, 3)
    assert calls == [3, 1]
    assert abs(basis.gap - gap) <= 1e-6 * lead


def test_fallback_above_limit_raises(arpack_fails, monkeypatch):
    import dynsc.spectral

    monkeypatch.setattr(dynsc.spectral, "DENSE_FALLBACK_LIMIT", 550)
    m = random_symmetric(600, np.random.default_rng(14))
    with pytest.raises(EigenSolverError):
        top_k_eigenpairs(m, 3)
    with pytest.raises(EigenSolverError):
        spectral_norm(m)


def test_spectral_norm_large_zero_matrix_skips_fallback(arpack_fails, dense_solves):
    # a zero operand is answered by the zero rule whatever error ARPACK raises on it
    assert spectral_norm(np.zeros((600, 600))) == 0.0
    assert len(arpack_fails) == 1 and dense_solves == []


@pytest.fixture
def dense_solves(monkeypatch):
    """Record the size of each operand that ``_Operand.eigh`` decomposes densely."""
    real = dynsc.spectral._Operand.eigh
    seen = []

    def spy(self, vectors):
        seen.append(self.shape[0])
        return real(self, vectors)

    monkeypatch.setattr(dynsc.spectral._Operand, "eigh", spy)
    return seen


def test_any_arpack_error_falls_back_or_raises_typed(monkeypatch, dense_solves):
    import scipy.sparse.linalg

    def lapack_fails(*args, **kwargs):
        raise scipy.sparse.linalg.ArpackError(-8)  # an ARPACK failure other than non-convergence

    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", lapack_fails)
    m = random_symmetric(600, np.random.default_rng(14))
    assert np.isclose(spectral_norm(m), np.abs(np.linalg.eigvalsh(m)).max(), rtol=1e-10)
    assert dense_solves == [600]
    monkeypatch.setattr(dynsc.spectral, "DENSE_FALLBACK_LIMIT", 550)
    with pytest.raises(EigenSolverError, match="ARPACK error -8"):
        top_k_eigenpairs(m, 3)
    with pytest.raises(EigenSolverError, match="ARPACK error -8"):
        spectral_norm(m)


# ---------------------------------------------------------------------------
# one eigensolver path: Lanczos at every n while k <= n - 2
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("k, lanczos, dense", [
    (3, ["dsymv", "operator"], []), (38, ["dsymv", "operator"], []),
    (39, [], [40]), (40, [], [40])])
def test_small_matrix_takes_lanczos_unless_k_above_n_minus_2(k, lanczos, dense,
                                                             eigsh_operators, dense_solves):
    m = random_symmetric(40, np.random.default_rng(49))
    keys = np.sort(np.abs(np.linalg.eigvalsh(m)))[::-1]
    basis = top_k_eigenpairs(m, k)
    assert eigsh_operators == lanczos and dense_solves == dense
    assert np.allclose(np.abs(basis.values), keys[:k], rtol=1e-8, atol=0.0)
    if k < 40:
        assert abs(basis.gap - (keys[k - 1] - keys[k])) <= dynsc.spectral.NORM_TOL * keys[0]


def test_small_spectral_norm_takes_lanczos_unless_n_below_3(eigsh_operators, dense_solves):
    for n in (3, 2):
        m = random_symmetric(n, np.random.default_rng(50))
        assert np.isclose(spectral_norm(m), np.abs(np.linalg.eigvalsh(m)).max(), rtol=1e-8)
    assert eigsh_operators == ["dsymv"] and dense_solves == [2]


@pytest.mark.parametrize("form", ["dense", "csr"])
def test_zero_matrix_gets_zero_pairs_without_fallback(form, eigsh_operators, dense_solves):
    # ARPACK fails on a zero operand ("starting vector is zero"); the zero rule answers
    # with k zero eigenvalues and the unit vectors eigh gives, at any n and in either form
    n, k = 200, 3
    zero = scipy.sparse.csr_array((n, n)) if form == "csr" else np.zeros((n, n))
    with pytest.warns(RuntimeWarning, match="degenerate"):
        basis = top_k_eigenpairs(zero, k)
    assert np.array_equal(basis.values, np.zeros(k))
    assert np.array_equal(basis.vectors, np.eye(n, k))
    assert basis.gap == 0.0 and basis.gap_degenerate
    with pytest.warns(RuntimeWarning, match="degenerate"):
        clustered = spectral_cluster(zero, k, seed=3)
    assert np.array_equal(clustered.eigen.vectors, basis.vectors)
    assert clustered.eigen.gap_degenerate
    assert spectral_norm(zero) == 0.0
    assert len(eigsh_operators) == 5 and dense_solves == []
    with pytest.warns(RuntimeWarning, match="degenerate"):  # k > n - 2: eigh's own answer
        assert np.array_equal(top_k_eigenpairs(zero, n - 1).vectors[:, :k], basis.vectors)
    assert dense_solves == [n]


@pytest.mark.parametrize("call, match", [
    (lambda x: kmeans(x[:, 0], 2), "2-d array"),
    (lambda x: kmeans(x, 0), "need 1 <= k <= n"),
    (lambda x: kmeans(x, 11), "need 1 <= k <= n"),
    (lambda x: kmeans(x, 2, restarts=0), "restarts must be >= 1"),
], ids=["points_1d", "k0", "k_above_n", "restarts0"])
def test_kmeans_input_checks(call, match):
    with pytest.raises(InvalidInputError, match=match):
        call(np.random.default_rng(0).normal(size=(10, 2)))
