import math
import tracemalloc

import numpy as np
import pytest

from conftest import (
    dense_bias_oracle,
    laplacian_perturbation_check,
    operator_bias_oracle,
    random_nonneg_symmetric,
)
from dynsc import (
    CommunityLabels,
    ConnectivityModel,
    DeterministicDsbmConfig,
    InvalidInputError,
    SizeProfile,
    Uniform,
    build_probability_matrix,
    degree_deviation_stats,
    effective_sizes,
    expected_degrees,
    frobenius_diff_sq,
    frobenius_trajectory,
    gen_deterministic_sequence,
    gen_markov_sequence,
    MarkovDsbmConfig,
    rate_card,
    sample_snapshot_sequence,
    smoothing_bias_check,
    tuning_profile,
    weights_of,
)
from dynsc.smoothing import Exponential


def _card(**kw):
    """``rate_card`` of a SizeProfile built from ``kw``, at ``kw``'s alpha, epsilon, delta."""
    base = dict(n=1000, k=4, alpha=0.05, epsilon=0.001, delta=0.0, n_min=250, n_max=250,
                n_prime_max=250, nbar_min=400.0, nbar_max=500.0, mu_b=1.25, gamma=0.7)
    base.update(kw)
    alpha, epsilon, delta = (base.pop(name) for name in ("alpha", "epsilon", "delta"))
    return rate_card(SizeProfile(**base), alpha, epsilon, delta)


# ---------------------------------------------------------------------------
# rate_card
# ---------------------------------------------------------------------------

def test_rate_card_worked_example():
    card = _card()
    assert np.isclose(card.rho_n, math.sqrt(500 * 0.05 * 0.001))
    assert np.isclose(card.rho_n, 0.15811388300841897)
    assert np.isclose(card.adj_dyn_rate, math.sqrt(1000 * 0.05 * card.rho_n))
    assert np.isclose(card.adj_dyn_rate, 2.8117066259517456)


def test_rate_card_balanced_reduction():
    # balanced sizes: the adjacency recovery coefficient collapses to
    # (1 + delta) K^2 / (n^2 alpha^2 gamma^2)
    n, k, alpha, gamma, delta = 900, 3, 0.04, 0.7, 0.25
    card = _card(n=n, k=k, alpha=alpha, gamma=gamma, delta=delta,
                 n_min=n // k, n_max=n // k, n_prime_max=n // k,
                 nbar_min=300.0, nbar_max=300.0, mu_b=1.0)
    assert np.isclose(card.recovery_adj_coeff,
                      (1 + delta) * k ** 2 / (n ** 2 * alpha ** 2 * gamma ** 2))


def test_rate_card_rho_one_reduces_to_static():
    card = _card(epsilon=1.0, alpha=0.5)
    assert card.rho_n == 1.0
    assert card.adj_dyn_rate == card.adj_static_rate
    assert card.lap_dyn_rate == card.lap_static_rate
    assert card.adj_dyn_markov_rate == card.adj_static_rate


def test_rate_card_gamma_nonpositive():
    card = _card(gamma=0.0)
    assert not card.recovery_available
    assert math.isnan(card.recovery_adj_coeff)
    assert card.adj_dyn_rate > 0  # concentration rates unaffected


def test_rate_card_condition_ratios():
    card = _card()
    logn = math.log(1000)
    assert np.isclose(card.cond_adj_dyn, (0.05 / card.rho_n) / (logn / 1000))
    assert np.isclose(card.cond_lap_static, 0.05 / (1.25 * logn / 400))
    assert np.isclose(card.cond_markov_eps, 0.001 / math.sqrt(logn / 1000))
    kv = card.to_kv()
    assert kv["cond_adj_dyn_ok"] == (card.cond_adj_dyn >= 1.0)


def test_rate_card_monotonicity():
    base = _card()
    # lap_dyn decreasing in nbar_min and alpha (other fields held fixed)
    assert _card(nbar_min=450.0).lap_dyn_rate < base.lap_dyn_rate
    assert _card(alpha=0.08).lap_dyn_rate < base.lap_dyn_rate
    # adj_dyn increasing in alpha on the clamped branch (rho pinned at 1)
    a = _card(epsilon=1.0, alpha=0.3)
    b = _card(epsilon=1.0, alpha=0.5)
    assert a.rho_n == b.rho_n == 1.0
    assert b.adj_dyn_rate > a.adj_dyn_rate


def test_regime_inputs_from_model():
    model = ConnectivityModel.planted_partition(3, 0.1, 0.3)
    inp = effective_sizes(model, 300, 80, 120)
    assert inp.gamma == 0.7
    assert np.isclose(inp.nbar_max, 0.7 * 120 + 0.3 * 300)
    assert inp.n_prime_max == 110  # min(120, (300 - 80) // 2)


# ---------------------------------------------------------------------------
# laplacian perturbation inequality
# ---------------------------------------------------------------------------

def test_perturbation_equal_matrices():
    rng = np.random.default_rng(0)
    a = random_nonneg_symmetric(12, rng)
    check = laplacian_perturbation_check(a, a)
    assert check.lhs <= 1e-12
    assert check.holds


def test_perturbation_scaled_matrix():
    rng = np.random.default_rng(1)
    p = random_nonneg_symmetric(12, rng)
    check = laplacian_perturbation_check(3.0 * p, p)
    assert check.lhs <= 1e-9  # scale invariance of the Laplacian
    assert check.holds


def test_perturbation_random_instances():
    rng = np.random.default_rng(2)
    for _ in range(100):
        a = random_nonneg_symmetric(30, rng)
        p = random_nonneg_symmetric(30, rng)
        assert laplacian_perturbation_check(a, p).holds


def test_perturbation_d_min_uses_both_matrices():
    rng = np.random.default_rng(3)
    a = random_nonneg_symmetric(10, rng, 0.5, 1.0)
    p = random_nonneg_symmetric(10, rng, 0.1, 0.2)
    check = laplacian_perturbation_check(a, p)
    assert np.isclose(check.d_min, min(a.sum(1).min(), p.sum(1).min()))


def test_perturbation_rejects_bad_input():
    with pytest.raises(InvalidInputError):
        laplacian_perturbation_check(-np.eye(3), np.eye(3))
    with pytest.raises(InvalidInputError):
        laplacian_perturbation_check(np.zeros((3, 3)), np.eye(3))


# ---------------------------------------------------------------------------
# degree deviations
# ---------------------------------------------------------------------------

def test_degree_deviation_zero_for_complete_graphs():
    n = 12
    lab = CommunityLabels(np.zeros(n, dtype=int), 1)
    model = ConnectivityModel.planted_partition(1, 1.0, 0.0)
    cfg = DeterministicDsbmConfig(n=n, model=model, t_len=4, s=0, n_min=n, n_max=n,
                                  seed=0)
    seq = gen_deterministic_sequence(cfg)
    snaps = sample_snapshot_sequence(seq, model, 1)
    w = weights_of(Uniform(3), 4)
    expected = np.stack([expected_degrees(lab, model)] * 5)
    stats = degree_deviation_stats(snaps, w, expected, alpha=1.0, nbar_min=float(n))
    assert stats.max_abs_deviation == 0.0


def test_degree_deviation_monte_carlo_quantile():
    # 50 smoothed-degree trials at n=2000: normalized deviation c < 1 in >= 95%
    # of trials (recorded sanity threshold, not a theory constant)
    n, k, tau, eps = 2000, 2, 0.3, 0.01
    alpha = 5 * np.log(n) / n
    model = ConnectivityModel.planted_partition(k, alpha, tau)
    prof = effective_sizes(model, n, n // k, n // k)
    r = tuning_profile(n, alpha, eps, prof.nbar_max).optimal_r
    t_len = r - 1
    cs = []
    for trial in range(50):
        cfg = DeterministicDsbmConfig.from_epsilon(
            n=n, model=model, t_len=t_len, epsilon=eps, n_min=int(0.8 * n / k),
            n_max=int(np.ceil(1.2 * n / k)), seed=trial)
        seq = gen_deterministic_sequence(cfg)
        snaps = sample_snapshot_sequence(seq, model, 1000 + trial)
        w = weights_of(Uniform(r), t_len)
        expected = np.stack([expected_degrees(th, model) for th in seq.thetas])
        stats = degree_deviation_stats(snaps, w, expected, alpha, prof.nbar_min)
        cs.append(stats.c_n_alpha)
    assert np.mean(np.asarray(cs) < 1.0) >= 0.95


def test_degree_deviation_single_snapshot_reduction():
    model = ConnectivityModel.planted_partition(2, 0.4, 0.2)
    cfg = DeterministicDsbmConfig(n=40, model=model, t_len=0, s=0, n_min=20,
                                  n_max=20, seed=5)
    seq = gen_deterministic_sequence(cfg)
    snaps = sample_snapshot_sequence(seq, model, 5)
    w = weights_of(Uniform(1), 0)
    expected = np.stack([expected_degrees(seq.thetas[0], model)])
    stats = degree_deviation_stats(snaps, w, expected, alpha=0.4, nbar_min=20.0)
    static_dev = np.abs(snaps.snapshots[0].degrees() - expected[0]).max()
    assert np.isclose(stats.max_abs_deviation, static_dev)
    assert np.isclose(stats.c_n_alpha, static_dev / (40 * 0.4))
    assert np.isclose(stats.c_nbar_alpha, static_dev / (20 * 0.4))


# ---------------------------------------------------------------------------
# smoothing bias
# ---------------------------------------------------------------------------

def _det_seq(n=60, k=3, tau=0.2, eps=0.05, t_len=10, seed=0, alpha=0.3):
    model = ConnectivityModel.planted_partition(k, alpha, tau)
    n_min = int(0.6 * n / k)
    n_max = int(1.4 * n / k)
    cfg = DeterministicDsbmConfig.from_epsilon(n=n, model=model, t_len=t_len,
                                               epsilon=eps, n_min=n_min, n_max=n_max,
                                               seed=seed)
    return gen_deterministic_sequence(cfg), model


def test_frobenius_diff_matches_dense_oracle():
    seq, model = _det_seq(seed=3)
    for theta in seq.thetas[1:]:
        dense = np.linalg.norm(
            build_probability_matrix(seq.thetas[0], model)
            - build_probability_matrix(theta, model), "fro") ** 2
        fast = frobenius_diff_sq(seq.thetas[0], theta, model)
        assert np.isclose(fast, dense, rtol=1e-10)


def test_frobenius_single_changed_node_hand_formula():
    # node 0 moves community 0 -> 1 with tau = 0: the changed row has
    # (n/2 - 1) entries dropping to 0 and n/2 rising to alpha; doubled for the
    # column; the diagonal entry is unchanged. F^2 = 2 * (n - 1) * alpha^2.
    n, alpha = 100, 0.37
    model = ConnectivityModel.planted_partition(2, alpha, 0.0)
    before = CommunityLabels(np.arange(n) % 2, 2)
    after_labels = before.labels.copy()
    after_labels[0] = 1
    after = CommunityLabels(after_labels, 2)
    expected = 2 * (n - 1) * alpha ** 2
    assert np.isclose(frobenius_diff_sq(before, after, model), expected, rtol=1e-12)


def test_bias_zero_when_static():
    seq, model = _det_seq(eps=0.0)
    w = weights_of(Uniform(5), seq.t_len)
    check = smoothing_bias_check(seq, model, w)
    assert check.spectral_err == 0.0
    assert check.spectral_bound == 0.0
    assert check.frobenius_ok


@pytest.mark.parametrize("n, k, eps, t_len, smoother, alpha", [
    (60, 3, 0.05, 10, Exponential(0.4), 0.3),     # 25 histories: eigvalsh on both sides
    (60, 3, 0.05, 10, Uniform(5), 0.3),
    (120, 2, 0.0, 8, Uniform(4), 0.3),            # static: the bias is 0
    (200, 3, 0.0, 6, Exponential(0.5), 0.3),
    (300, 3, 0.1, 12, Exponential(0.3), 0.3),     # 169 histories: Lanczos on both sides
    (400, 4, 0.2, 15, Uniform(8), 0.3),           # 235 histories
    (500, 2, 1 / math.log(500) ** 2, 30, Exponential(0.25), 8 / 500),  # 144 histories
])
def test_bias_matches_dense_oracle(n, k, eps, t_len, smoother, alpha):
    seq, model = _det_seq(n=n, k=k, eps=eps, t_len=t_len, seed=n + k, alpha=alpha)
    w = weights_of(smoother, t_len)
    want = dense_bias_oracle(seq, model, w)
    got = smoothing_bias_check(seq, model, w).spectral_err
    # bound NORM_TOL**2, fixed before the first run; measured at most 4.1e-16
    assert abs(got - want) <= 1e-8 * want


def _paper_scale(eps):
    """n = 20000, K = 2, alpha = 8/n, T = 30 (seed 7), with the tuned exponential weights."""
    n, k, t_len = 20000, 2, 30
    alpha = 8.0 / n
    model = ConnectivityModel.planted_partition(k, alpha, 0.1)
    cfg = DeterministicDsbmConfig.from_epsilon(n=n, model=model, t_len=t_len, epsilon=eps,
                                               n_min=int(0.4 * n), n_max=int(0.6 * n),
                                               seed=7)
    seq = gen_deterministic_sequence(cfg)
    nbar_max = effective_sizes(model, n, cfg.n_min, cfg.n_max).nbar_max
    w = weights_of(Exponential(tuning_profile(n, alpha, eps, nbar_max).optimal_lambda), t_len)
    return seq, model, w


def _traced_bias_check(seq, model, w):
    tracemalloc.start()
    try:
        check = smoothing_bias_check(seq, model, w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return check, peak


def test_bias_at_paper_scale_stays_small():
    # n = 20000, alpha = 8/n: one dense P_t alone would take 3.2 GB
    seq, model, w = _paper_scale(1.0 / math.log(20000) ** 2)
    check, peak = _traced_bias_check(seq, model, w)
    assert peak <= 256 * 2 ** 20
    assert check.frobenius_ok
    assert 0.0 < check.spectral_err <= check.spectral_bound


def test_bias_with_many_label_histories_stays_small():
    # epsilon = 0.1: 11,421 distinct label histories, so one history-by-history
    # matrix would take 1 GiB; the bias never forms one
    seq, model, w = _paper_scale(0.1)
    check, peak = _traced_bias_check(seq, model, w)
    assert peak <= 64 * 2 ** 20  # fixed before the first run
    assert check.frobenius_ok
    assert 0.0 < check.spectral_err <= check.spectral_bound
    want = operator_bias_oracle(seq, model, w)
    assert abs(check.spectral_err - want) <= 1e-8 * want


def test_bias_frobenius_chain_holds():
    for seed in range(5):
        seq, model = _det_seq(seed=seed)
        w = weights_of(Exponential(0.4), seq.t_len)
        check = smoothing_bias_check(seq, model, w)
        assert check.frobenius_ok
        # spectral norm bounded by Frobenius along the chain
        traj = frobenius_trajectory(seq, model)
        assert (check.frob_sq <= traj + 1e-9).all()


def test_bias_spectral_below_bound_in_practice():
    seq, model = _det_seq(seed=7)
    w = weights_of(Exponential(0.4), seq.t_len)
    check = smoothing_bias_check(seq, model, w)
    assert check.spectral_err <= check.spectral_bound


def test_bias_requires_deterministic_mode():
    model = ConnectivityModel.planted_partition(2, 0.3, 0.2)
    seq = gen_markov_sequence(MarkovDsbmConfig(n=30, model=model, t_len=4,
                                               epsilon=0.1, seed=0))
    with pytest.raises(InvalidInputError):
        smoothing_bias_check(seq, model, weights_of(Uniform(2), 4))


def test_markov_frobenius_trajectory_exposed():
    model = ConnectivityModel.planted_partition(2, 0.3, 0.2)
    seq = gen_markov_sequence(MarkovDsbmConfig(n=30, model=model, t_len=6,
                                               epsilon=0.2, seed=1))
    traj = frobenius_trajectory(seq, model)
    assert traj.shape == (7,)
    assert traj[0] == 0.0
    assert (traj >= 0).all()


def _short_history():
    """A 4-step deterministic sequence: its model, labelings, snapshots and expected degrees."""
    model = ConnectivityModel.planted_partition(2, 0.3, 0.2)
    seq = gen_deterministic_sequence(DeterministicDsbmConfig(n=20, model=model, t_len=3, s=1,
                                                             n_min=8, n_max=12, seed=0))
    expected = np.stack([expected_degrees(th, model) for th in seq.thetas])
    return model, seq, sample_snapshot_sequence(seq, model, 1), expected


@pytest.mark.parametrize("call, match", [
    (lambda: _card(nbar_min=0.0), "need 0 < nbar_min <= nbar_max"),
    (lambda: laplacian_perturbation_check(np.eye(3), np.eye(2)), "shape mismatch"),
    (lambda: frobenius_diff_sq(CommunityLabels([0, 1], 2), CommunityLabels([0, 1, 1], 2),
                               ConnectivityModel.planted_partition(2, 0.3, 0.2)),
     "label shapes must match"),
    (lambda: degree_deviation_stats(_short_history()[2], weights_of(Uniform(2), 4),
                                    _short_history()[3], alpha=0.3, nbar_min=8.0),
     "5 weights but only 4 steps"),
    (lambda: degree_deviation_stats(_short_history()[2], weights_of(Uniform(2), 3),
                                    _short_history()[3][1:], alpha=0.3, nbar_min=8.0),
     "expected_degrees must be"),
    (lambda: smoothing_bias_check(_short_history()[1], _short_history()[0],
                                  weights_of(Uniform(2), 4)), "5 weights but only 4 steps"),
], ids=["rate_card_nbar_min", "perturbation_shapes", "frobenius_shapes",
        "degrees_more_weights", "degrees_expected_shape", "bias_more_weights"])
def test_bounds_input_checks(call, match):
    with pytest.raises(InvalidInputError, match=match):
        call()
