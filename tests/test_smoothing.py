import math

import numpy as np
import pytest
import scipy.sparse
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import upper_csr_oracle, validate_weights
from dynsc import (
    AdjacencySnapshot,
    CommunityLabels,
    ConnectivityModel,
    DeterministicDsbmConfig,
    Exponential,
    InvalidInputError,
    MemoryBudgetError,
    SmoothingWeights,
    SnapshotSequence,
    Uniform,
    exp_smooth_update,
    gen_deterministic_sequence,
    normalized_laplacian_csr,
    sample_adjacency,
    sample_sbm,
    sample_snapshot_sequence,
    t_min_regime,
    t_min_weight_bound,
    t_min_weights,
    tuning_profile,
    weighted_smooth,
    weighted_smooth_csr,
    weights_of,
)
from dynsc.sbm import check_symmetric, normalized_laplacian
from dynsc.smoothing import smoothed_matrix, weighted_history

MODEL = ConnectivityModel.planted_partition(2, 0.4, 0.2)


def _snapshots(t_len=8, n=24, seed=0):
    cfg = DeterministicDsbmConfig(n=n, model=MODEL, t_len=t_len, s=2, n_min=6,
                                  n_max=18, seed=seed)
    seq = gen_deterministic_sequence(cfg)
    return sample_snapshot_sequence(seq, MODEL, seed).snapshots


def _uniform_smooth(snaps, r):
    return weighted_smooth(snaps, weights_of(Uniform(r), len(snaps) - 1).betas)


def _exp_smooth_fold(snaps, lam):
    # the streaming estimator: fold the in-place update over the history
    state = snaps[0].to_dense()
    for snap in snaps[1:]:
        exp_smooth_update(state, snap, lam)
    return state


def _weighted_sum_oracle(snaps, betas):
    # dense loop evaluation of the general weighted sum, independent of the fast path
    out = np.zeros((snaps[0].n, snaps[0].n))
    for k, beta in enumerate(betas):
        out += beta * snaps[len(snaps) - 1 - k].to_dense()
    return out


# ---------------------------------------------------------------------------
# weights_of
# ---------------------------------------------------------------------------

def test_uniform_weights_example():
    w = weights_of(Uniform(4), 6)
    assert np.allclose(w.betas, [0.25, 0.25, 0.25, 0.25, 0, 0, 0])
    assert (w.beta_max, w.c_beta, w.c_beta_prime) == (0.25, 1.0, 1.0)


def test_exponential_weights_example():
    w = weights_of(Exponential(0.5), 2)
    assert np.allclose(w.betas, [0.5, 0.25, 0.25])
    assert (w.beta_max, w.c_beta, w.c_beta_prime) == (0.5, 1.5, 2.0)


def test_uniform_window_exceeding_history_errors():
    with pytest.raises(InvalidInputError):
        weights_of(Uniform(5), 3)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 60), st.one_of(st.integers(1, 30), st.floats(0.01, 1.0)))
def test_weights_sum_to_one(t, param):
    kind = Uniform(param) if isinstance(param, int) else Exponential(param)
    if isinstance(kind, Uniform) and t + 1 < kind.r:
        return
    w = weights_of(kind, t)
    assert abs(w.betas.sum() - 1.0) <= 1e-12
    assert (w.betas >= 0).all()


# ---------------------------------------------------------------------------
# smoothers and the general form
# ---------------------------------------------------------------------------

def test_uniform_smooth_r1_is_last_snapshot():
    snaps = _snapshots()
    assert np.array_equal(_uniform_smooth(snaps, 1), snaps[-1].to_dense())


def test_uniform_smooth_complete_plus_empty():
    import dynsc

    n = 6
    complete = dynsc.AdjacencySnapshot(n, *np.nonzero(np.triu(np.ones((n, n)), 1)))
    empty = dynsc.AdjacencySnapshot(n, np.array([], dtype=int), np.array([], dtype=int))
    out = _uniform_smooth([empty, complete], 2)
    assert np.allclose(out, (np.ones((n, n)) - np.eye(n)) / 2)


def test_uniform_smooth_matches_weighted_sum_oracle():
    snaps = _snapshots()
    w = weights_of(Uniform(4), len(snaps) - 1)
    assert np.abs(_uniform_smooth(snaps, 4) - _weighted_sum_oracle(snaps, w.betas)).max() <= 1e-12


def _empty_snapshot(n):
    return AdjacencySnapshot(n, np.array([], dtype=int), np.array([], dtype=int))


def _csr_cases():
    rng = np.random.default_rng(41)
    cases = {}
    for i in range(6):
        n, t = int(rng.integers(2, 50)), int(rng.integers(1, 9))
        snaps = [sample_adjacency(np.full((n, n), rng.uniform(0.0, 0.6)), rng)
                 for _ in range(t)]
        betas = rng.uniform(size=t)
        betas[rng.uniform(size=t) < 0.3] = 0.0  # zero weights are skipped
        cases[f"random{i}"] = (snaps, betas / max(betas.sum(), 1.0))
    snaps = _snapshots(t_len=12, n=30, seed=3)
    cases["uniform"] = (snaps, weights_of(Uniform(5), 12).betas)
    cases["exponential"] = (snaps, weights_of(Exponential(0.27), 12).betas)
    cases["short_betas"] = (snaps, weights_of(Exponential(0.27), 6).betas)
    cases["one_snapshot"] = (snaps[:1], [1.0])
    big = [sample_adjacency(np.full((150, 150), 0.3), rng) for _ in range(4)]
    cases["n150"] = (big, weights_of(Exponential(0.4), 3).betas)  # several mirror blocks
    cases["no_edges"] = ([_empty_snapshot(7), _empty_snapshot(7)], [0.5, 0.5])
    cases["some_empty"] = ([snaps[0], _empty_snapshot(30)], [0.5, 0.5])
    return cases


CSR_CASES = _csr_cases()


@pytest.mark.parametrize("snaps,betas", CSR_CASES.values(), ids=CSR_CASES.keys())
def test_weighted_smooth_csr_equals_dense_bit_for_bit(snaps, betas):
    dense = weighted_smooth(snaps, betas)
    out = weighted_smooth_csr(snaps, betas)
    assert isinstance(out, scipy.sparse.csr_array)
    assert out.has_canonical_format
    assert out.nnz == np.count_nonzero(dense)
    assert np.array_equal(out.toarray().view(np.int64), dense.view(np.int64))


@pytest.mark.parametrize("form", ["dense", "CSR"])
@pytest.mark.parametrize("snaps,betas", CSR_CASES.values(), ids=CSR_CASES.keys())
def test_builders_pass_the_full_symmetry_check(snaps, betas, form, symmetric_checks):
    # a sweep cell takes smoothed_matrix's result (one of these two forms) and its
    # Laplacian on trust; each must pass the check it skips, under either policy
    smooth, laplacian = ((weighted_smooth, normalized_laplacian) if form == "dense"
                         else (weighted_smooth_csr, normalized_laplacian_csr))
    smoothed = smooth(snaps, betas)
    built = [smoothed, laplacian(smoothed, zero_degree="zero-row")]
    if (smoothed.sum(axis=1) > 0).all():
        built.append(laplacian(smoothed, zero_degree="error"))
    symmetric_checks.clear()
    for m in built:
        check_symmetric(m, "built")
    assert len(symmetric_checks) == len(built)


def test_builder_cases_reach_both_zero_degree_policies():
    isolated = [(weighted_smooth_csr(*case).sum(axis=1) == 0).any() for case in CSR_CASES.values()]
    assert any(isolated) and not all(isolated)


def _upper_csr_cases():
    rng = np.random.default_rng(43)
    n = 12
    shared = AdjacencySnapshot(n, np.array([2]), np.array([7]))

    def with_shared_key(p):
        a = sample_adjacency(np.full((n, n), p), rng).to_dense()
        a[2, 7] = a[7, 2] = 1.0
        return AdjacencySnapshot(n, *np.nonzero(np.triu(a, 1)))

    cases = {"key_in_every_snapshot": ([with_shared_key(0.4) for _ in range(9)],
                                       weights_of(Exponential(0.35), 8).betas)}
    cases["zero_edge_snapshots"] = (
        [with_shared_key(0.3) if t % 3 else _empty_snapshot(n) for t in range(10)],
        weights_of(Uniform(7), 9).betas)
    # 2^-1 .. 2^-1074: the last live weight is the smallest nonzero double
    cases["exponential_to_smallest_nonzero"] = (
        [shared if t % 2 else with_shared_key(0.2) for t in range(1101)],
        weights_of(Exponential(0.5), 1100).betas)
    cases["exponential_into_subnormals"] = (
        [with_shared_key(0.1) for _ in range(2101)], weights_of(Exponential(0.3), 2100).betas)
    return cases


UPPER_CSR_CASES = {**CSR_CASES, **_upper_csr_cases()}


@pytest.mark.parametrize("snaps,betas", UPPER_CSR_CASES.values(), ids=UPPER_CSR_CASES.keys())
def test_upper_csr_matches_stable_sort_oracle(snaps, betas):
    from dynsc.smoothing import _upper_csr

    live = weighted_history(snaps, np.asarray(betas, dtype=float))
    out = _upper_csr(live, snaps[0].n)
    values, cols, indptr = upper_csr_oracle(live, snaps[0].n)
    assert np.array_equal(out.data.view(np.int64), values.view(np.int64))
    assert np.array_equal(out.indices, cols) and np.array_equal(out.indptr, indptr)


def test_upper_csr_cases_reach_their_edge_cases():
    snaps, _ = UPPER_CSR_CASES["key_in_every_snapshot"]
    assert all(2 * snap.n + 7 in snap.keys() for snap in snaps)
    assert any(snap.edge_count == 0 for snap in UPPER_CSR_CASES["zero_edge_snapshots"][0])
    _, betas = UPPER_CSR_CASES["exponential_to_smallest_nonzero"]
    assert betas[betas > 0].min() == np.nextafter(0.0, 1.0)
    _, betas = UPPER_CSR_CASES["exponential_into_subnormals"]
    assert 0.0 < betas[betas > 0].min() < np.finfo(float).tiny and betas.min() == 0.0


@pytest.mark.parametrize("smooth", [weighted_smooth, weighted_smooth_csr])
def test_smoothers_share_input_checks(smooth):
    snaps = _snapshots(t_len=2)
    with pytest.raises(InvalidInputError, match="at least one"):
        smooth([], [1.0])
    with pytest.raises(InvalidInputError, match="share n"):
        smooth([snaps[0], _empty_snapshot(snaps[0].n + 1)], [0.5, 0.5])
    with pytest.raises(InvalidInputError, match="AdjacencySnapshot"):
        smooth([snaps[0].to_dense()], [1.0])
    with pytest.raises(InvalidInputError, match="weights but only"):
        smooth(snaps, [0.25] * 4)


@pytest.mark.parametrize("form", ["dense", "CSR"])
def test_smoothed_matrix_memory_guard(monkeypatch, form):
    # the need is priced from the weighted snapshots' edges before anything is built:
    # 4 n x n arrays for the dense form (p = 0.3, far above 10% nonzero), 104 bytes
    # per edge and 400 per node for CSR (about 1% of the entries at n = 400)
    import dynsc.smoothing

    rng = np.random.default_rng(5)
    n, p = (24, 0.3) if form == "dense" else (400, 0.01)
    snaps = SnapshotSequence(tuple(sample_adjacency(np.full((n, n), p), rng) for _ in range(7)))
    edges = sum(snap.edge_count for snap in snaps.snapshots)  # Exponential(0.3) weighs them all
    need = (dynsc.smoothing.DENSE_WORKSPACE_MATRICES * 8 * n * n if form == "dense"
            else dynsc.smoothing.CSR_BYTES_PER_EDGE * edges
            + dynsc.smoothing.CSR_BYTES_PER_NODE * n)
    built = []
    for name in ("weighted_smooth", "weighted_smooth_csr"):
        build = getattr(dynsc.smoothing, name)
        monkeypatch.setattr(dynsc.smoothing, name,
                            lambda *a, build=build: built.append(1) or build(*a))
    monkeypatch.setattr(dynsc.smoothing, "available_memory", lambda: need - 1)
    with pytest.raises(MemoryBudgetError, match=(
            rf"^{form} smoothing at n={n} with {edges} weighted edges needs {need} bytes but "
            rf"{need - 1} are available; the sparse \(CSR\) form, 104 bytes per edge and 400 "
            r"per node, is used while twice the edges fill at most 10% of the entries; ")):
        smoothed_matrix(snaps, Exponential(0.3))
    assert built == []
    kind = np.ndarray if form == "dense" else scipy.sparse.csr_array
    for free in (need, None):  # None: free memory unreadable, check skipped
        monkeypatch.setattr(dynsc.smoothing, "available_memory", lambda: free)
        assert isinstance(smoothed_matrix(snaps, Exponential(0.3)), kind)
    assert built == [1, 1]
    # the builders themselves check nothing
    monkeypatch.setattr(dynsc.smoothing, "available_memory", lambda: 0)
    assert weighted_smooth(snaps.snapshots, [1.0]).shape == (n, n)


def test_weighted_smooth_csr_memory_is_linear_in_edges():
    # the sparse2k regime at n = 20000: a dense smoothed matrix alone is 3.2 GB, while
    # the CSR smoothed matrix and its Laplacian (2.7M nonzeros) take about 31 + 31 MB
    # and the Laplacian's symmetry check a transposed copy and a comparison result
    import tracemalloc

    n, t_len = 20000, 30
    lab = CommunityLabels(np.arange(n) % 2, 2)
    model = ConnectivityModel.planted_partition(2, 8.0 / n, 0.1)
    snaps = [sample_sbm(lab, model, seed) for seed in range(t_len + 1)]
    betas = weights_of(Exponential(0.3), t_len).betas
    tracemalloc.start()
    try:
        lap = normalized_laplacian_csr(weighted_smooth_csr(snaps, betas), zero_degree="zero-row")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert lap.shape == (n, n)
    assert 0 < lap.nnz <= 2 * sum(s.edge_count for s in snaps)
    assert peak < 128 * 2**20


def test_csr_need_covers_a_cell_with_few_edges_per_node():
    # lambda = 1 at n = 20000 in the sparse2k regime: about 2 edges per node, where
    # the Lanczos vectors and k-means arrays outweigh the edges (225 bytes per edge)
    import tracemalloc

    import dynsc.smoothing
    from dynsc.experiments import evaluate_cell, reference_matrices

    n = 20000
    truth = CommunityLabels(np.arange(n) % 2, 2)
    model = ConnectivityModel.planted_partition(2, 8.0 / n, 0.1)
    snaps = SnapshotSequence((sample_sbm(truth, model, 7),))
    refs = reference_matrices(truth, model, ("adjacency", "laplacian"))
    edges = snaps.snapshots[0].edge_count
    tracemalloc.start()
    try:
        smoothed = smoothed_matrix(snaps, Exponential(1.0))
        # one sparse snapshot has many small components, which tie at the top of the spectrum
        with pytest.warns(RuntimeWarning, match="eigengap"):
            for kind in ("adjacency", "laplacian"):
                evaluate_cell(smoothed, kind, refs[kind], truth, 2, seed=1, restarts=20)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert isinstance(smoothed, scipy.sparse.csr_array)
    need = dynsc.smoothing.CSR_BYTES_PER_EDGE * edges + dynsc.smoothing.CSR_BYTES_PER_NODE * n
    assert dynsc.smoothing.CSR_BYTES_PER_EDGE * edges < peak < need


def test_keys_do_not_wrap_beyond_n_46340():
    # 49998 * 50000 fits neither the uint16 endpoints nor 32 bits; the int64 key
    # lands the weight on its entry
    import tracemalloc

    n = 50000
    snap = AdjacencySnapshot(n, np.array([49998, 0]), np.array([49999, 1]))
    assert snap.rows.dtype == np.uint16
    assert snap.keys().dtype == np.int64
    assert snap.keys().tolist() == [49998 * n + 49999, 1]
    tracemalloc.start()
    try:
        out = weighted_smooth_csr([snap], [1.0])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.nnz == 4 and out[49998, 49999] == 1.0 and out[49999, 49998] == 1.0
    assert peak < 100 * n  # O(n + edges); an n x n array would be 20 GB


def test_available_memory_reads_a_positive_byte_count():
    from dynsc.util import available_memory

    free = available_memory()
    assert free is None or (isinstance(free, int) and free > 0)


def test_exp_update_lambda_one_returns_snapshot():
    snaps = _snapshots(t_len=1)
    state = snaps[0].to_dense()
    out = exp_smooth_update(state, snaps[1], 1.0)
    assert out is state
    assert np.array_equal(out, snaps[1].to_dense())


def test_exp_update_single_step_average():
    snaps = _snapshots(t_len=1)
    state = snaps[0].to_dense()
    exp_smooth_update(state, snaps[1], 0.5)
    assert np.allclose(state, 0.5 * snaps[0].to_dense() + 0.5 * snaps[1].to_dense())


def test_exp_update_dimension_mismatch():
    snaps = _snapshots(t_len=1)
    with pytest.raises(InvalidInputError):
        exp_smooth_update(np.zeros((5, 5)), snaps[0], 0.5)


def test_exp_recursion_equals_weighted_sum_t6():
    # expand the recursion symbolically: beta_k = lam (1-lam)^k, beta_t = (1-lam)^t
    snaps = _snapshots(t_len=6)
    lam = 0.37
    state = _exp_smooth_fold(snaps, lam)
    betas = [lam * (1 - lam) ** k for k in range(6)] + [(1 - lam) ** 6]
    assert np.abs(state - _weighted_sum_oracle(snaps, betas)).max() <= 1e-12
    w = weights_of(Exponential(lam), 6)
    assert np.abs(state - weighted_smooth(snaps, w.betas)).max() <= 1e-12


def test_smoothed_matrices_are_symmetric_unit_interval_zero_diagonal():
    snaps = _snapshots()
    for out in (_uniform_smooth(snaps, 5), _exp_smooth_fold(snaps, 0.3)):
        assert np.array_equal(out, out.T)
        assert out.min() >= 0.0 and out.max() <= 1.0
        assert np.all(np.diag(out) == 0)


# ---------------------------------------------------------------------------
# validate_weights
# ---------------------------------------------------------------------------

def test_validate_uniform_passes_with_unit_constants():
    for r in (1, 4, 16):
        w = weights_of(Uniform(r), r - 1)
        for eps in (1e-4, 0.03, 0.5):
            rep = validate_weights(w, eps)
            assert rep.all_ok, (r, eps, rep)
            assert rep.beta_max == 1.0 / r and rep.c_beta == 1.0


def test_validate_exponential_passes_after_warmup():
    # c08's lambda x epsilon grid, at and after the horizon where all four conditions hold
    for lam in (0.05, 0.1, 0.2, 0.3, 0.5, 0.7, 0.9, 1.0):
        for eps in (1e-4, 1e-3, 1e-2, 0.1, 0.5):
            t = math.ceil(max(t_min_weights(lam, eps), t_min_weight_bound(lam)))
            for extra in (0, 1, 25):
                rep = validate_weights(weights_of(Exponential(lam), t + extra), eps)
                assert rep.all_ok, (lam, eps, t + extra, rep)
                assert rep.c_beta == 1.5 and rep.c_beta_prime == 2.0


def test_validate_exponential_t0_fails_square_condition():
    # betas = [1]: sum of squares 1 > 1.5 * 0.3
    rep = validate_weights(weights_of(Exponential(0.3), 0), 0.01)
    assert not rep.square_ok
    assert rep.sum_ok
    assert rep.sum_beta_sq == 1.0


def test_validate_residual_weight_exceeds_beta_max_at_certified_horizon():
    # at the certified square/decay horizon the residual (1-lam)^t can top lam
    lam, eps = 0.3, 0.5
    t = math.ceil(t_min_weights(lam, eps))
    rep = validate_weights(weights_of(Exponential(lam), t), eps)
    assert rep.square_ok and rep.decay_ok and rep.sum_ok
    assert not rep.bound_ok
    assert rep.max_beta == (1 - lam) ** t


def test_validate_reports_tightest_constants():
    w = weights_of(Uniform(4), 3)
    rep = validate_weights(w, 0.25)
    assert np.isclose(rep.c_beta_tight, (4 * 0.0625) / 0.25)
    oracle_decay = sum(0.25 * min(1.0, math.sqrt(k * 0.25)) for k in range(4))
    assert np.isclose(rep.c_beta_prime_tight, oracle_decay / math.sqrt(0.25 / 0.25))


def test_validate_custom_claim_override():
    w = weights_of(Uniform(2), 1)
    claimed = SmoothingWeights(w.betas, beta_max=0.4, c_beta=1.0, c_beta_prime=1.0)
    rep = validate_weights(claimed, 0.1)
    assert not rep.bound_ok  # max beta 0.5 > 0.4


# ---------------------------------------------------------------------------
# tuning_profile
# ---------------------------------------------------------------------------

def test_tuning_profile_example():
    prof = tuning_profile(2000, 0.01, 0.0025, 1000.0)
    assert np.isclose(prof.rho_n, math.sqrt(0.025))
    assert prof.optimal_r == 7
    assert np.isclose(prof.optimal_lambda, 0.15811388300841897)


def test_tuning_profile_t_min_holds_every_weight_condition():
    # the paper's horizons give 4.01 here, and at t = 5 the residual weight tops lambda
    prof = tuning_profile(1000, 0.002, 0.05, 550.0)
    assert prof.t_min == t_min_weight_bound(prof.optimal_lambda)
    assert np.isclose(prof.t_min, 5.4264, atol=1e-4)
    w = weights_of(Exponential(prof.optimal_lambda), math.ceil(prof.t_min))
    assert validate_weights(w, 0.05).all_ok
    paper = math.ceil(max(prof.t_min_regime, prof.t_min_weights))
    assert not validate_weights(weights_of(Exponential(prof.optimal_lambda), paper), 0.05).bound_ok


def test_tuning_profile_clamp_branch():
    prof = tuning_profile(1000, 0.5, 0.5, 1000.0)
    assert prof.rho_n == 1.0 and prof.optimal_r == 1
    assert prof.t_min == 0.0


def test_tuning_profile_epsilon_to_zero_limit():
    prof = tuning_profile(1000, 0.05, 1e-8, 500.0)
    assert prof.rho_n < 1e-3
    assert prof.optimal_r > 1000


def test_tuning_rho_monotone_and_dominated_by_pz():
    base = dict(n=1000, alpha_n=0.02, epsilon_n=0.01, nbar_max=400.0)
    ref = tuning_profile(**base)
    assert ref.rho_n <= ref.rho_coarse
    for key, bigger in (("alpha_n", 0.03), ("epsilon_n", 0.02), ("nbar_max", 600.0)):
        mod = dict(base)
        mod[key] = bigger
        assert tuning_profile(**mod).rho_n >= ref.rho_n
    # equality with rho_coarse iff nbar_max = n, on the unclamped branch
    eq = tuning_profile(1000, 0.02, 0.01, 1000.0)
    assert eq.rho_n == eq.rho_coarse
    assert ref.rho_n < ref.rho_coarse


def test_t_min_formulas():
    # theorem horizon: log(rho / (alpha n)) / (2 log(1 - rho))
    rho = 0.2
    expected = math.log(rho / (0.01 * 500)) / (2 * math.log(0.8))
    assert np.isclose(t_min_regime(500, 0.01, rho), expected)
    assert t_min_regime(500, 0.01, 1.0) == 0.0
    # weights horizon at lam=1 is zero
    assert t_min_weights(1.0, 0.3) == 0.0
    assert t_min_weight_bound(1.0) == 0.0
    # residual weight drops below lam exactly after the bound horizon
    lam = 0.2
    t = math.ceil(t_min_weight_bound(lam))
    assert (1 - lam) ** t <= lam < (1 - lam) ** max(t - 2, 0)


def test_weighted_history_pairs_nonzero_weights_newest_first():
    items = ["a", "b", "c", "d"]
    assert weighted_history(items, [0.5, 0.0, 0.25]) == [(0.5, "d"), (0.25, "b")]
    assert weighted_history(items, [0.0] * 3 + [1.0]) == [(1.0, "a")]
    assert weighted_history(items, []) == []
    with pytest.raises(InvalidInputError, match="5 weights but only 4 steps"):
        weighted_history(items, [0.2] * 5)


@pytest.mark.parametrize("call, match", [
    (lambda: SmoothingWeights(np.full((2, 2), 0.25), 0.25, 1.0, 1.0), "non-empty 1-d"),
    (lambda: SmoothingWeights(np.empty(0), 1.0, 1.0, 1.0), "non-empty 1-d"),
    (lambda: SmoothingWeights(np.array([1.5, -0.5]), 1.5, 1.0, 1.0), "non-negative"),
    (lambda: SmoothingWeights(np.array([0.5, 0.25]), 0.5, 1.0, 1.0), "sum to 1"),
    (lambda: weights_of(Exponential(0.5), -1), "history length"),
    (lambda: weights_of("exp:0.5", 3), "unknown smoother kind"),
    (lambda: validate_weights(weights_of(Uniform(2), 3), 0.0), "epsilon_n must be in"),
    (lambda: validate_weights(weights_of(Uniform(2), 3), 1.5), "epsilon_n must be in"),
    (lambda: tuning_profile(100, 0.1, 0.0, 50.0), "epsilon must be in"),
    (lambda: tuning_profile(100, 0.0, 0.1, 50.0), "must be positive"),
    (lambda: tuning_profile(0, 0.1, 0.1, 50.0), "must be positive"),
    (lambda: exp_smooth_update(np.zeros((3, 3)), AdjacencySnapshot(3, [0], [1]), 0.0),
     "forgetting factor must be in"),
], ids=["betas_2d", "betas_empty", "betas_negative", "betas_sum", "weights_of_t",
        "weights_of_kind", "validate_eps_zero", "validate_eps_above_one", "tuning_eps",
        "tuning_alpha", "tuning_n", "exp_update_lambda"])
def test_smoothing_input_checks(call, match):
    with pytest.raises(InvalidInputError, match=match):
        call()
