"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete. Statistical criteria use fixed seeds and the
tolerances stated with each test; rate criteria check scaling/ordering because
the theory's universal constants are unspecified.
"""

import math

import numpy as np
import pytest

from conftest import (
    laplacian_perturbation_check,
    misclassification_error_bruteforce,
    validate_weights,
)
from dynsc import (
    CommunityLabels,
    ConnectivityModel,
    DeterministicDsbmConfig,
    ExperimentConfig,
    Exponential,
    Uniform,
    adjusted_rand_index,
    build_probability_matrix,
    effective_sizes,
    gen_deterministic_sequence,
    misclassification_error,
    normalized_laplacian,
    normalized_laplacian_csr,
    run_sweep,
    sample_adjacency,
    sample_sbm,
    sample_snapshot_sequence,
    smoothing_bias_check,
    spectral_cluster,
    spectral_norm,
    t_min_weights,
    weighted_smooth_csr,
    weights_of,
)
from dynsc.experiments import median_by_grid, reference_matrices, smoothed_matrix
from dynsc.util import subseed


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    print(f"[acceptance {num:02d}] {'PASS' if ok else 'FAIL'} {name}: {detail}")


def _balanced(n: int, k: int) -> CommunityLabels:
    return CommunityLabels(np.arange(n) % k, k)


# ---------------------------------------------------------------------------
# shared expensive fixtures
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def static_grid():
    """Criteria 2-3: static concentration medians over n in {250..2000}."""
    tau, k, trials = 0.3, 2, 20
    out = {}
    for n in (250, 500, 1000, 2000):
        alpha = 3 * math.log(n) / n
        model = ConnectivityModel.planted_partition(k, alpha, tau)
        labels = _balanced(n, k)
        prof = effective_sizes(model, n, n // k, n // k)
        p = build_probability_matrix(labels, model)
        lap_p = normalized_laplacian(p)
        adj, lap = [], []
        for trial in range(trials):
            a = sample_adjacency(p, subseed(1002, n, trial)).to_dense()
            adj.append(spectral_norm(a - p) / math.sqrt(n * alpha))
            lap_a = normalized_laplacian(a, zero_degree="zero-row")
            lap.append(spectral_norm(lap_a - lap_p)
                       * (prof.nbar_min * math.sqrt(alpha)) / (prof.mu_b * math.sqrt(n)))
        out[n] = (float(np.median(adj)), float(np.median(lap)))
    return out


@pytest.fixture(scope="module")
def preset_sweep():
    """Criteria 6-7: default preset, exponential and uniform grids, both matrices."""
    cfg = ExperimentConfig(
        trials=20,
        seed=1006,
        r_grid=(1, 2, 3, 4, 5, 7, 9, 12, 16, 22, 30, 45),
    )  # n=500, k=3, tau=0.3, alpha=3 log n/n, eps=0.01, t_len=60, 12-point lambda grid
    return cfg, run_sweep(cfg)


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n,k", [(100, 2), (300, 3), (500, 5)])
@pytest.mark.parametrize("tau", [0.0, 0.3])
def test_c01_exact_recovery_noiseless(n, k, tau):
    truth = _balanced(n, k)
    model = ConnectivityModel.planted_partition(k, 0.5, tau)
    p = build_probability_matrix(truth, model)
    e_adj = misclassification_error(
        spectral_cluster(p, k, seed=1001).labels, truth).e_value
    e_lap = misclassification_error(
        spectral_cluster(normalized_laplacian(p), k, seed=1001).labels, truth).e_value
    ok = e_adj == 0.0 and e_lap == 0.0
    _report(1, "noiseless exact recovery", ok,
            f"n={n} k={k} tau={tau} E_adj={e_adj} E_lap={e_lap}")
    assert ok


def test_c02_static_adjacency_concentration_scaling(static_grid):
    lo, hi = static_grid[250][0], static_grid[2000][0]
    ratio = hi / lo
    ok = 1 / 1.5 <= ratio <= 1.5
    _report(2, "static |A-P| ~ sqrt(n alpha)", ok,
            f"normalized medians n=250: {lo:.3f}, n=2000: {hi:.3f}, ratio {ratio:.3f}")
    assert ok


def test_c03_static_laplacian_concentration_scaling(static_grid):
    meds = [static_grid[n][1] for n in (250, 500, 1000, 2000)]
    ratios = [b / a for a, b in zip(meds, meds[1:])]
    ok = all(0.5 <= r <= 2.0 for r in ratios)
    _report(3, "static |L(A)-L(P)| rate shape", ok,
            f"normalized medians {['%.3f' % m for m in meds]}, doubling ratios "
            f"{['%.3f' % r for r in ratios]}")
    assert ok


def test_c04_smoothing_improves_concentration():
    n, k, tau, eps, t_len, trials = 500, 3, 0.3, 0.005, 60, 20
    alpha = 3 * math.log(n) / n
    model = ConnectivityModel.planted_partition(k, alpha, tau)
    n_min, n_max = int(0.8 * n / k), math.ceil(1.2 * n / k)
    lam = ExperimentConfig(n=n, k=k, tau=tau, alpha_log_scale=3.0, epsilon=eps, t_len=t_len,
                           n_min=n_min, n_max=n_max).tuning().optimal_lambda
    smoothed, static = [], []
    for trial in range(trials):
        cfg = DeterministicDsbmConfig.from_epsilon(
            n=n, model=model, t_len=t_len, epsilon=eps, n_min=n_min, n_max=n_max,
            seed=subseed(1004, 1, trial))
        seq = gen_deterministic_sequence(cfg)
        snaps = sample_snapshot_sequence(seq, model, subseed(1004, 2, trial))
        # the sweep's data path: its smoothed matrix against rank-K factors of P_t
        ref = reference_matrices(seq.thetas[-1], model, ("adjacency",))["adjacency"]
        smoothed.append(spectral_norm(smoothed_matrix(snaps, Exponential(lam), k), minus=ref))
        static.append(spectral_norm(smoothed_matrix(snaps, Exponential(1.0), k), minus=ref))
    med_s, med_0 = float(np.median(smoothed)), float(np.median(static))
    ok = med_s < 0.8 * med_0
    _report(4, "smoothing improves concentration", ok,
            f"lam={lam:.3f} median smoothed {med_s:.3f} vs 0.8 * static "
            f"{med_0:.3f} = {0.8 * med_0:.3f}")
    assert ok


def test_c05_optimal_lambda_scaling():
    n, k, tau, t_len, trials = 500, 3, 0.3, 60, 10
    lam_grid = [float(v) for v in np.geomspace(0.04, 1.0, 12)]
    cells = {}
    for c_alpha in (2.0, 3.0, 4.5):
        for eps in (0.004, 0.01, 0.025):
            alpha = c_alpha * math.log(n) / n
            model = ConnectivityModel.planted_partition(k, alpha, tau)
            n_min, n_max = int(0.8 * n / k), math.ceil(1.2 * n / k)
            errs = {lam: [] for lam in lam_grid}
            for trial in range(trials):
                cfg = DeterministicDsbmConfig.from_epsilon(
                    n=n, model=model, t_len=t_len, epsilon=eps, n_min=n_min,
                    n_max=n_max, seed=subseed(1005, 1, trial))
                seq = gen_deterministic_sequence(cfg)
                snaps = sample_snapshot_sequence(seq, model, subseed(1005, 2, trial))
                ref = reference_matrices(seq.thetas[-1], model, ("adjacency",))["adjacency"]
                for lam in lam_grid:
                    errs[lam].append(
                        spectral_norm(smoothed_matrix(snaps, Exponential(lam), k), minus=ref))
            med = {lam: float(np.median(v)) for lam, v in errs.items()}
            star = min(med, key=med.get)
            cells[(c_alpha, eps)] = star / math.sqrt(alpha * n * eps)
    ok = all(0.2 <= ratio <= 5.0 for ratio in cells.values())
    detail = ", ".join(f"(c={c},eps={e}): {r:.2f}" for (c, e), r in cells.items())
    _report(5, "lambda* ~ sqrt(alpha n eps)", ok, detail)
    assert ok


def test_c06_laplacian_at_least_adjacency(preset_sweep):
    _, records = preset_sweep
    best = {}
    for kind in ("adjacency", "laplacian"):
        med = median_by_grid(records, kind, "lambda", "ari")
        best[kind] = max(med.values())
    ok = best["laplacian"] >= best["adjacency"] - 0.02
    _report(6, "Laplacian clustering at least adjacency", ok,
            f"best median ARI: laplacian {best['laplacian']:.3f}, "
            f"adjacency {best['adjacency']:.3f}")
    assert ok


def test_c07_uniform_exponential_parity(preset_sweep):
    _, records = preset_sweep
    best_exp = max(median_by_grid(records, "adjacency", "lambda", "ari").values())
    best_unif = max(median_by_grid(records, "adjacency", "r", "ari").values())
    ok = abs(best_unif - best_exp) <= 0.03
    _report(7, "uniform vs exponential parity", ok,
            f"best median ARI: uniform {best_unif:.3f}, exponential {best_exp:.3f}")
    assert ok


EPS_GRID = (1e-4, 1e-3, 1e-2, 0.1, 0.5)


def test_c08_weight_conditions_uniform():
    failures = []
    for r in range(1, 65):
        w = weights_of(Uniform(r), r - 1)
        assert (w.beta_max, w.c_beta, w.c_beta_prime) == (1.0 / r, 1.0, 1.0)
        for eps in EPS_GRID:
            rep = validate_weights(w, eps)
            if not rep.all_ok:
                failures.append((r, eps))
    ok = not failures
    _report(8, "weight conditions, uniform", ok,
            f"r in [1,64] x eps grid, failures: {failures}")
    assert ok


@pytest.mark.xfail(
    strict=True,
    reason="the certified warm-up horizon does not enforce the per-weight bound: "
    "the residual weight (1-lam)^t only drops below lam after "
    "log(lam)/log(1-lam) steps, so for eps > lam^3 the bound condition fails "
    "at t_min (counterexample lam=0.3, eps=0.5, t=2: weights [0.3, 0.21, 0.49])",
)
def test_c08_weight_conditions_exponential():
    failures = []
    for lam in (0.05, 0.1, 0.2, 0.3, 0.5, 0.7, 0.9, 1.0):
        for eps in EPS_GRID:
            t_min = math.ceil(t_min_weights(lam, eps))
            for t in (t_min, t_min + 1, t_min + 5, t_min + 40):
                rep = validate_weights(weights_of(Exponential(lam), t), eps)
                if not rep.all_ok:
                    failures.append((lam, eps, t))
    ok = not failures
    _report(8, "weight conditions, exponential at t >= t_min", ok,
            f"{len(failures)} failing (lam, eps, t) cells: {failures[:6]}...")
    assert ok


def test_c09_laplacian_perturbation_inequality():
    rng = np.random.default_rng(1009)
    violations = 0
    for _ in range(1000):
        a = np.triu(rng.uniform(0.1, 1.0, size=(30, 30)))
        a = a + np.triu(a, 1).T
        p = np.triu(rng.uniform(0.1, 1.0, size=(30, 30)))
        p = p + np.triu(p, 1).T
        if not laplacian_perturbation_check(a, p).holds:
            violations += 1
    ok = violations == 0
    _report(9, "deterministic Laplacian perturbation inequality", ok,
            f"1000 instances, {violations} violations")
    assert ok


def test_c10_misclassification_assignment_vs_bruteforce():
    rng = np.random.default_rng(1010)
    mismatches = 0
    for _ in range(1000):
        k = int(rng.integers(2, 7))
        n = int(rng.integers(k, 60))
        pred = CommunityLabels(rng.integers(0, k, n), k)
        truth = CommunityLabels(rng.integers(0, k, n), k)
        if (misclassification_error(pred, truth).e_value
                != misclassification_error_bruteforce(pred, truth).e_value):
            mismatches += 1
    ok = mismatches == 0
    _report(10, "assignment equals brute-force matching", ok,
            f"1000 pairs, {mismatches} mismatches")
    assert ok


def test_c11_frobenius_bias_inequality_instancewise():
    rng = np.random.default_rng(1011)
    violations = 0
    for idx in range(50):
        n, t_len = 80, 15
        k = int(rng.integers(2, 5))
        tau = float(rng.choice([0.0, 0.25, 0.5]))
        eps = float(rng.choice([0.02, 0.05, 0.1]))
        model = ConnectivityModel.planted_partition(k, 0.3, tau)
        n_min, n_max = max(1, int(0.5 * n / k)), math.ceil(1.5 * n / k)
        cfg = DeterministicDsbmConfig.from_epsilon(
            n=n, model=model, t_len=t_len, epsilon=eps, n_min=n_min, n_max=n_max,
            seed=subseed(1011, idx))
        seq = gen_deterministic_sequence(cfg)
        check = smoothing_bias_check(seq, model, weights_of(Uniform(t_len + 1), t_len))
        if not check.frobenius_ok:
            violations += 1
    ok = violations == 0
    _report(11, "Frobenius bias chain with constant 8", ok,
            f"50 sequences x all k <= 15, {violations} violations")
    assert ok


def test_c12_sparse_regime_payoff():
    n, k, tau, t_len, trials = 2000, 2, 0.1, 30, 20
    alpha = 8.0 / n
    eps = 1.0 / math.log(n) ** 2
    model = ConnectivityModel.planted_partition(k, alpha, tau)
    n_min, n_max = int(0.4 * n), int(0.6 * n)
    lam = ExperimentConfig(n=n, k=k, tau=tau, alpha_log_scale=None, alpha_inv_scale=8.0,
                           epsilon=eps, t_len=t_len, n_min=n_min,
                           n_max=n_max).tuning().optimal_lambda
    ari_smooth, ari_static = [], []
    for trial in range(trials):
        cfg = DeterministicDsbmConfig.from_epsilon(
            n=n, model=model, t_len=t_len, epsilon=eps, n_min=n_min, n_max=n_max,
            seed=subseed(1012, 1, trial))
        seq = gen_deterministic_sequence(cfg)
        snaps = sample_snapshot_sequence(seq, model, subseed(1012, 2, trial))
        truth = seq.thetas[-1]
        # the sweep's own smoothed input; lambda = 1 weights only the last snapshot
        res_s = spectral_cluster(smoothed_matrix(snaps, Exponential(lam), k), k,
                                 seed=subseed(1012, 3, trial))
        res_0 = spectral_cluster(smoothed_matrix(snaps, Exponential(1.0), k), k,
                                 seed=subseed(1012, 4, trial))
        ari_smooth.append(adjusted_rand_index(res_s.labels, truth))
        ari_static.append(adjusted_rand_index(res_0.labels, truth))
    med_s, med_0 = float(np.median(ari_smooth)), float(np.median(ari_static))
    ok = med_s >= med_0 + 0.2
    _report(12, "sparse regime payoff (alpha = 8/n)", ok,
            f"median ARI smoothed {med_s:.3f} vs static {med_0:.3f} + 0.2")
    assert ok


def _static_laplacian_deviation(n: int, d: float, seed: int) -> float:
    """``|L(A) - L(P)|`` of one ``sample_sbm`` snapshot: K = 2, tau = 0.3, balanced labels,
    expected degree about ``d`` (``alpha n (1 + tau) / 2 = d``)."""
    k, tau = 2, 0.3
    model = ConnectivityModel.planted_partition(k, 2.0 * d / (n * (1.0 + tau)), tau)
    truth = _balanced(n, k)
    a = weighted_smooth_csr([sample_sbm(truth, model, seed)], np.ones(1))
    ref = reference_matrices(truth, model, ("adjacency", "laplacian"))["laplacian"]
    return spectral_norm(normalized_laplacian_csr(a, zero_degree="zero-row"), minus=ref)


def test_c14_static_laplacian_deviation_has_no_log_n():
    # at fixed mean degree d, |L(A) - L(P)| * sqrt(d) must stay within a factor 1.1 as n
    # grows 16-fold, from 2000 to 32000. A sqrt(log(n) / d) rate would grow it by
    # sqrt(log 32000 / log 2000) = 1.17, outside the factor. Seeds subseed(1014, n, draw)
    # and the factor were fixed before the first run
    d, draws, factor = 20.0, 3, 1.1
    const = {n: float(np.median([_static_laplacian_deviation(n, d, subseed(1014, n, draw))
                                 for draw in range(draws)])) * math.sqrt(d)
             for n in (2000, 32000)}
    ratio = const[32000] / const[2000]
    ok = 1.0 / factor <= ratio <= factor
    _report(14, "static |L(A)-L(P)| ~ 1/sqrt(d), no log n", ok,
            f"d={d:g}: |L(A)-L(P)| sqrt(d) n=2000: {const[2000]:.3f}, "
            f"n=32000: {const[32000]:.3f}, ratio {ratio:.3f} within {factor}")
    assert ok
