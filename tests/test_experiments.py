import contextlib
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse

import dynsc
from dynsc import experiments
from conftest import kmeans_oracle, random_labels, read_records_csv
from dynsc import ExperimentConfig, Exponential, InvalidInputError, run_sweep, summarize, weights_of
from dynsc.smoothing import tuning_profile
from dynsc.experiments import (
    RunRecord,
    generate_trial_sequence,
    membership_sequence,
    median_by_grid,
    plot_data_by_grid,
    records_to_csv,
    reference_matrices,
    write_records_csv,
)
from dynsc.sbm import effective_sizes
from dynsc.util import dump_kv, parse_kv, subseed

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
SMALL = ExperimentConfig(n=60, k=2, tau=0.2, alpha_log_scale=4.0, epsilon=0.05,
                         t_len=10, trials=3, seed=123, lambda_grid=(0.3, 1.0),
                         r_grid=(2,), matrix="both", restarts=5)


@pytest.fixture(scope="module")
def small_records():
    return run_sweep(SMALL)


def test_config_validation():
    with pytest.raises(InvalidInputError):
        ExperimentConfig(alpha=0.1, alpha_log_scale=3.0)
    with pytest.raises(InvalidInputError):
        ExperimentConfig(lambda_grid=(), r_grid=())
    with pytest.raises(InvalidInputError):
        ExperimentConfig(t_len=5, r_grid=(7,))
    with pytest.raises(InvalidInputError, match="unknown mode"):
        ExperimentConfig(mode="static")
    with pytest.raises(InvalidInputError, match="exactly one of alpha"):
        ExperimentConfig.from_kv({"alpha": "0.1", "alpha_inv_scale": "3"})
    cfg = ExperimentConfig(n=100, alpha_inv_scale=8.0, alpha_log_scale=None)
    assert np.isclose(cfg.resolved_alpha, 0.08)


def test_config_defaults_match_preset():
    cfg = ExperimentConfig()
    assert (cfg.n, cfg.k, cfg.tau, cfg.epsilon, cfg.t_len, cfg.trials) == (
        500, 3, 0.3, 0.01, 60, 20)
    assert np.isclose(cfg.resolved_alpha, 3 * np.log(500) / 500)


def test_config_kv_roundtrip():
    kv = SMALL.to_kv()
    back = ExperimentConfig.from_kv({k: str(v) for k, v in kv.items()})
    assert back == SMALL


@pytest.mark.parametrize("cfg", [ExperimentConfig(),
                                 ExperimentConfig(n=2000, epsilon=1 / math.log(2000) ** 2),
                                 ExperimentConfig(alpha=np.float64(0.1), alpha_log_scale=None,
                                                  n=100, tau=np.float64(0.3),
                                                  epsilon=np.float64(0.05))],
                         ids=["default", "epsilon_1_over_log2n", "numpy_floats"])
def test_saved_config_text_reproduces_config(cfg):
    # sweep writes config.txt with dump_kv(cfg.to_kv()); reading it back must give cfg
    assert ExperimentConfig.from_kv(parse_kv(dump_kv(cfg.to_kv()))) == cfg


def test_star_resolves_to_the_tuned_lambda():
    # c12's regime: lambda* = min(1, sqrt(nbar_max * alpha * epsilon)), the float tuning() returns
    cfg = ExperimentConfig(n=2000, k=2, tau=0.1, alpha_log_scale=None, alpha_inv_scale=8.0,
                           epsilon=1 / math.log(2000) ** 2, t_len=30, n_min=800, n_max=1200,
                           lambda_grid=("star", 1.0))
    assert cfg.lambda_grid == (0.29769382146936163, 1.0)
    assert cfg.lambda_grid[0] == cfg.tuning().optimal_lambda
    assert ExperimentConfig.from_kv(cfg.to_kv()).lambda_grid == cfg.lambda_grid
    kv = {**{key: str(value) for key, value in cfg.to_kv().items()}, "lambda_grid": " star ,1"}
    assert ExperimentConfig.from_kv(kv) == cfg


def test_sweep_produces_full_grid(small_records):
    # 3 trials x (2 lambdas + 1 r) x 2 matrix kinds
    assert len(small_records) == 3 * 3 * 2
    kinds = {(r.grid_param_kind, r.grid_param_value) for r in small_records}
    assert kinds == {("lambda", 0.3), ("lambda", 1.0), ("r", 2.0)}
    for rec in small_records:
        assert rec.t == SMALL.t_len
        assert 0.0 <= rec.e_value <= 2.0
        assert -1.0 <= rec.ari <= 1.0
        assert rec.spec_err >= 0.0


def test_sweep_deterministic(small_records):
    again = run_sweep(SMALL)
    strip = lambda recs: [tuple(getattr(r, f) for f in
                                ("trial", "grid_param_kind", "grid_param_value",
                                 "matrix_kind", "spec_err", "ari", "e_value",
                                 "kmeans_cost", "eigengap", "seed"))
                          for r in recs]
    assert strip(again) == strip(small_records)


def test_sweep_records_equal_with_sequential_kmeans_oracle(monkeypatch):
    # batched k-means restarts must not move any record against one-at-a-time restarts
    import dataclasses

    cfg = ExperimentConfig(n=200, k=3, tau=0.3, alpha_log_scale=3.0, epsilon=0.01, t_len=12,
                           trials=2, seed=41, lambda_grid=(0.1, 0.3, 1.0), r_grid=(2, 5),
                           matrix="both")

    def csv_without_wall_ms():
        return records_to_csv([dataclasses.replace(r, wall_ms=0.0) for r in run_sweep(cfg)])

    batched = csv_without_wall_ms()
    monkeypatch.setattr(dynsc.spectral, "kmeans", kmeans_oracle)
    assert csv_without_wall_ms() == batched


def test_sweep_parallel_equals_serial(small_records):
    import dataclasses

    par = run_sweep(dataclasses.replace(SMALL, threads=2))
    for a, b in zip(par, small_records):
        assert a.spec_err == b.spec_err and a.ari == b.ari and a.seed == b.seed


def test_lambda_one_equals_single_snapshot(small_records):
    # the exponential smoother at lambda = 1 is the raw final snapshot:
    # recompute the static metrics directly and compare
    import dynsc
    from dynsc.experiments import generate_trial_sequence

    for trial in range(SMALL.trials):
        seq, snaps = generate_trial_sequence(SMALL, trial)
        truth = seq.thetas[-1]
        p = dynsc.build_probability_matrix(truth, SMALL.model())
        static_err = dynsc.spectral_norm(snaps.snapshots[-1].to_dense() - p)
        rec = [r for r in small_records
               if r.trial == trial and r.grid_param_kind == "lambda"
               and r.grid_param_value == 1.0 and r.matrix_kind == "adjacency"][0]
        assert np.isclose(rec.spec_err, static_err, rtol=1e-9)


def test_csv_roundtrip(tmp_path, small_records):
    path = tmp_path / "sweep.csv"
    write_records_csv(small_records, path)
    text = path.read_text()
    assert text.startswith("# dynsc-sweep-csv v2\n")
    back = read_records_csv(path)
    assert len(back) == len(small_records)
    for a, b in zip(back, small_records):
        assert a.trial == b.trial and a.matrix_kind == b.matrix_kind
        assert np.isclose(a.spec_err, b.spec_err, rtol=1e-11)


def test_csv_bytes_deterministic_modulo_timing(small_records):
    a = records_to_csv(small_records).splitlines()
    b = records_to_csv(run_sweep(SMALL)).splitlines()
    drop_timing = lambda line: line.rsplit(",", 1)[0]
    assert [drop_timing(x) for x in a] == [drop_timing(x) for x in b]


def test_summary_and_plot_data(small_records):
    summary = summarize(small_records, SMALL)
    med = median_by_grid(small_records, "adjacency", "lambda", "spec_err")
    assert set(med) == {0.3, 1.0}
    star = summary["adjacency.lambda.star_err"]
    assert med[star] == min(med.values())
    norm = SMALL.tuning().optimal_lambda
    assert summary["adjacency.lambda.star_err_normalized"] == star / norm
    assert "laplacian.r.best_median_ari" in summary
    plot = plot_data_by_grid(small_records, SMALL)
    assert "median_spec_err" in plot.splitlines()[1]
    assert len(plot.splitlines()) == 2 + 2 * 3  # header comment + header + 2 kinds x 3 pts
    first = plot.splitlines()[2].split(",")
    assert np.isclose(float(first[2]), float(first[1]) / norm)  # lambda / lambda*


def test_smoothing_reduces_spectral_error(small_records):
    # eps is small and t_len moderate: lambda = 0.3 should beat lambda = 1
    med = median_by_grid(small_records, "adjacency", "lambda", "spec_err")
    assert med[0.3] < med[1.0]


def test_markov_mode_sweep_runs():
    cfg = ExperimentConfig(mode="markov", n=50, k=2, tau=0.2, alpha_log_scale=4.0,
                           epsilon=0.1, t_len=6, trials=2, seed=9,
                           lambda_grid=(0.5,), matrix="adjacency", restarts=5)
    recs = run_sweep(cfg)
    assert len(recs) == 2
    assert all(np.isfinite(r.spec_err) for r in recs)


def test_size_profile_per_mode():
    det = ExperimentConfig(n=300, k=3, tau=0.3, alpha_log_scale=3.0, epsilon=0.01)
    assert det.size_profile() == effective_sizes(det.model(), 300, 80, 120)
    # Markov sizes are unconstrained: one community may hold all n nodes
    markov = ExperimentConfig(mode="markov", n=300, k=3, tau=0.3, alpha_log_scale=3.0,
                              epsilon=0.01)
    prof = markov.size_profile()
    assert prof.nbar_max == 300.0
    assert prof.mu_b == 300.0 / prof.nbar_min
    keep = ("n", "k", "n_min", "n_max", "n_prime_max", "nbar_min", "gamma")
    assert all(getattr(prof, f) == getattr(det.size_profile(), f) for f in keep)


def test_tuning_reads_the_size_profile():
    for mode in ("deterministic", "markov"):
        cfg = ExperimentConfig(mode=mode, n=2000, k=2, tau=0.5, alpha_log_scale=None,
                               alpha_inv_scale=8.0, epsilon=0.01)
        assert cfg.tuning() == tuning_profile(2000, 8.0 / 2000, 0.01,
                                              cfg.size_profile().nbar_max)


def test_config_without_a_smallest_degree_is_rejected():
    # tau = 0 and an empty community leave a node no expected neighbours; either
    # alone does not
    with pytest.raises(InvalidInputError, match="smallest expected degree is 0"):
        ExperimentConfig(n=2, k=2, tau=0.0, alpha=0.5, alpha_log_scale=None)
    with pytest.raises(InvalidInputError, match="smallest expected degree is 0"):
        ExperimentConfig(mode="markov", n=30, k=2, tau=0.0, n_min=0, n_max=30)
    assert ExperimentConfig(n=2, k=2, tau=0.1, alpha=0.5,
                            alpha_log_scale=None).size_profile().nbar_min > 0
    assert ExperimentConfig(n=30, k=2, tau=0.0, n_min=1, n_max=29).size_profile().nbar_min == 1


def _lambda_records(kind: str, med_err: dict[float, float]) -> list[RunRecord]:
    return [RunRecord(trial=0, t=10, grid_param_kind="lambda", grid_param_value=lam,
                      matrix_kind=kind, spec_err=err, ari=0.5, e_value=0.5, kmeans_cost=1.0,
                      eigengap=1.0, seed=0, wall_ms=0.0)
            for lam, err in med_err.items()]


def _unit_fit(med_err, n, alpha, eps, nbar_max, scale=1.0):
    """Least-squares c in err ~ c * scale * (sqrt(n a b) + a sqrt(n nbar_max eps / b))."""
    xs = np.array([scale * (math.sqrt(n * alpha * b) + alpha * math.sqrt(n * nbar_max * eps / b))
                   for b in med_err])
    ys = np.array(list(med_err.values()))
    return float((xs * ys).sum() / (xs * xs).sum())


def test_markov_rate_fit_reads_the_markov_profile():
    cfg = ExperimentConfig(mode="markov", n=400, k=2, tau=0.5, alpha_inv_scale=8.0,
                           alpha_log_scale=None, epsilon=0.01, lambda_grid=(0.1, 0.3, 1.0),
                           matrix="laplacian")
    med_err = {0.1: 0.21, 0.3: 0.17, 1.0: 0.26}
    summary = summarize(_lambda_records("laplacian", med_err), cfg)
    alpha = cfg.resolved_alpha
    nbar_min = effective_sizes(cfg.model(), 400, 160, 240).nbar_min
    expected = _unit_fit(med_err, 400, alpha, 0.01, 400.0,
                         scale=(400.0 / nbar_min) / (nbar_min * alpha))
    assert np.isclose(summary["laplacian.lambda.fitted_rate_constant"], expected,
                      rtol=1e-12, atol=0.0)


def test_static_sweep_summarizes():
    # epsilon = 0 has no tuning (rho_n = 0), yet its sweep still fits the static shape
    cfg = ExperimentConfig(n=80, k=2, tau=0.2, alpha_log_scale=4.0, epsilon=0.0,
                           lambda_grid=(0.5, 1.0), matrix="adjacency")
    med_err = {0.5: 1.1, 1.0: 1.4}
    summary = summarize(_lambda_records("adjacency", med_err), cfg)
    expected = _unit_fit(med_err, 80, cfg.resolved_alpha, 0.0, 1.0)
    assert np.isclose(summary["adjacency.lambda.fitted_rate_constant"], expected,
                      rtol=1e-12, atol=0.0)
    assert "adjacency.lambda.star_err_normalized" not in summary


@pytest.mark.parametrize("path", sorted(CONFIGS.glob("bounded_*.cfg")), ids=lambda p: p.stem)
def test_star_argmin_normalizes_to_one(path):
    # the normalizer is the tuned lambda*, so an optimum at the star cell reads exactly 1
    cfg = ExperimentConfig.from_kv(parse_kv(path.read_text()))
    star, one = cfg.lambda_grid
    assert star == cfg.tuning().optimal_lambda < one
    records = _lambda_records("adjacency", {star: 0.5, one: 0.9})
    assert summarize(records, cfg)["adjacency.lambda.star_err_normalized"] == 1.0
    normalized = [float(line.split(",")[2])
                  for line in plot_data_by_grid(records, cfg).splitlines()[2:]]
    assert normalized[0] == 1.0 and np.isclose(normalized[1], one / star, rtol=1e-11)


@pytest.mark.parametrize("mode", ["deterministic", "markov"])
def test_trial_membership_is_the_config_sequence_at_the_trial_seed(mode):
    cfg = ExperimentConfig(mode=mode, n=40, k=2, tau=0.2, alpha_log_scale=4.0,
                           epsilon=0.1, t_len=5, seed=17)
    seq, _ = generate_trial_sequence(cfg, 2)
    alone = membership_sequence(cfg, subseed(17, 11, 2))
    assert [th.labels.tolist() for th in seq.thetas] == [th.labels.tolist()
                                                         for th in alone.thetas]


def test_static_error_nonincreasing_in_window():
    # eps = 0: the bias term vanishes, so wider windows can only help
    cfg = ExperimentConfig(n=80, k=2, tau=0.2, alpha_log_scale=4.0, epsilon=0.0,
                           t_len=8, trials=6, seed=5, lambda_grid=(),
                           r_grid=(1, 2, 4, 8), matrix="adjacency", restarts=5)
    med = median_by_grid(run_sweep(cfg), "adjacency", "r", "spec_err")
    values = [med[r] for r in (1.0, 2.0, 4.0, 8.0)]
    assert all(b <= a for a, b in zip(values, values[1:]))


def test_record_recomputable_from_sequence_and_seed(small_records):
    # any row can be reproduced from the regenerated sequence plus its seed column
    import dynsc
    from dynsc.experiments import generate_trial_sequence
    from dynsc.smoothing import Exponential, weights_of

    rec = [r for r in small_records
           if r.trial == 1 and r.grid_param_kind == "lambda"
           and r.grid_param_value == 0.3 and r.matrix_kind == "laplacian"][0]
    seq, snaps = generate_trial_sequence(SMALL, rec.trial)
    truth = seq.thetas[-1]
    p = dynsc.build_probability_matrix(truth, SMALL.model())
    betas = weights_of(Exponential(0.3), seq.t_len).betas
    smoothed = dynsc.weighted_smooth(snaps.snapshots, betas)
    lap = dynsc.normalized_laplacian(smoothed, zero_degree="zero-row")
    lap_p = dynsc.normalized_laplacian(p)
    assert np.isclose(dynsc.spectral_norm(lap - lap_p), rec.spec_err, rtol=1e-9)
    result = dynsc.spectral_cluster(lap, SMALL.k, restarts=SMALL.restarts, seed=rec.seed)
    assert dynsc.adjusted_rand_index(result.labels, truth) == rec.ari
    assert dynsc.misclassification_error(result.labels, truth).e_value == rec.e_value


# ---------------------------------------------------------------------------
# reference factors: P_t and L(P_t) as U C U^T, never built on the sweep path
# ---------------------------------------------------------------------------

KERNEL3 = dynsc.ConnectivityModel(
    3, 0.3, np.array([[1.0, 0.2, 0.05], [0.2, 0.7, 0.4], [0.05, 0.4, 0.9]]))


def _factor_product(u, c):
    return u @ c @ u.T


def test_adjacency_factors_rebuild_probability_matrix_exactly():
    truth = random_labels(70, 3, np.random.default_rng(15))
    u, c = reference_matrices(truth, KERNEL3, ("adjacency",))["adjacency"]
    assert u.shape == (70, 3)
    assert np.array_equal(_factor_product(u, c), dynsc.build_probability_matrix(truth, KERNEL3))


def test_laplacian_factors_match_laplacian_of_probability_matrix():
    truth = random_labels(70, 3, np.random.default_rng(16))
    refs = reference_matrices(truth, KERNEL3, ("adjacency", "laplacian"))
    lap_p = dynsc.normalized_laplacian(dynsc.build_probability_matrix(truth, KERNEL3))
    assert np.allclose(_factor_product(*refs["laplacian"]), lap_p, rtol=1e-12, atol=0.0)


def test_reference_matrices_reject_a_k_mismatch():
    with pytest.raises(InvalidInputError, match="labels declare k=2, model has k=3"):
        reference_matrices(dynsc.CommunityLabels([0, 1], 2), KERNEL3, ("adjacency",))


def test_laplacian_factors_reject_zero_degree():
    b0 = np.array([[1.0, 0.0], [0.0, 0.0]])  # community 1 has no possible edges
    model = dynsc.ConnectivityModel(2, 0.5, b0)
    truth = dynsc.CommunityLabels([0, 0, 1, 1], 2)
    reference_matrices(truth, model, ("adjacency",))  # no degrees needed
    with pytest.raises(dynsc.ZeroDegreeError):
        reference_matrices(truth, model, ("adjacency", "laplacian"))


@pytest.mark.parametrize("n,rtol", [(400, 1e-12), (600, 1e-6)])
def test_spec_err_against_factors_matches_dense_difference(n, rtol):
    cfg = ExperimentConfig(n=n, k=2, tau=0.1, alpha_log_scale=None, alpha_inv_scale=8.0,
                           epsilon=0.02, t_len=6, n_min=int(0.4 * n), n_max=int(0.6 * n),
                           lambda_grid=(0.3,), seed=5)
    seq, snaps = generate_trial_sequence(cfg, 0)
    truth = seq.thetas[-1]
    smoothed = dynsc.weighted_smooth(snaps.snapshots, weights_of(Exponential(0.3), 6).betas)
    refs = reference_matrices(truth, cfg.model(), ("adjacency", "laplacian"))
    p = dynsc.build_probability_matrix(truth, cfg.model())
    lap = dynsc.normalized_laplacian(smoothed, zero_degree="zero-row")
    pairs = {"adjacency": (smoothed, p), "laplacian": (lap, dynsc.normalized_laplacian(p))}
    for kind, (target, ref) in pairs.items():
        got = dynsc.spectral_norm(target, minus=refs[kind])
        assert np.isclose(got, dynsc.spectral_norm(target - ref), rtol=rtol, atol=0.0), kind


# ---------------------------------------------------------------------------
# the smoothed operand: CSR straight from the snapshots when the eigensolver takes CSR
# ---------------------------------------------------------------------------

def _snapshot_sequence(n, p, t_len, seed):
    rng = np.random.default_rng(seed)
    return dynsc.SnapshotSequence(tuple(dynsc.sample_adjacency(np.full((n, n), p), rng)
                                        for _ in range(t_len + 1)))


@pytest.mark.parametrize("n,p,csr", [(128, 0.01, True), (400, 0.01, True),
                                      (600, 0.01, True), (600, 0.05, False)])
def test_smoothed_matrix_form(monkeypatch, n, p, csr):
    # CSR at every n while the 7 snapshots' edges (about 7p of the entries)
    # fill at most 10%; the form is chosen before anything is built, so a dense
    # result never builds the CSR keys
    built = []
    monkeypatch.setattr(dynsc.smoothing, "weighted_smooth_csr",
                        lambda *a: built.append(1) or dynsc.weighted_smooth_csr(*a))
    snaps = _snapshot_sequence(n, p, 6, seed=n)
    got = experiments.smoothed_matrix(snaps, Exponential(0.3), 2)
    dense = dynsc.weighted_smooth(snaps.snapshots, weights_of(Exponential(0.3), 6).betas)
    assert isinstance(got, scipy.sparse.csr_array) == csr
    assert built == ([1] if csr else [])
    assert np.array_equal(got.toarray() if csr else got, dense)


def test_csr_path_matches_forced_dense_run(monkeypatch):
    cfg = ExperimentConfig(n=600, k=2, tau=0.1, alpha_log_scale=None, alpha_inv_scale=8.0,
                           epsilon=0.02, t_len=6, n_min=240, n_max=360, lambda_grid=(0.3, 1.0),
                           r_grid=(3,), seed=5, restarts=5)
    seq, snaps = generate_trial_sequence(cfg, 0)
    assert isinstance(experiments.smoothed_matrix(snaps, Exponential(0.3), cfg.k),
                      scipy.sparse.csr_array)
    got = experiments.evaluate_smoothed(cfg, 0, seq, snaps)
    monkeypatch.setattr(dynsc.smoothing, "SPARSE_OPERATOR_SHARE", -1.0)
    assert isinstance(experiments.smoothed_matrix(snaps, Exponential(0.3), cfg.k), np.ndarray)
    want = experiments.evaluate_smoothed(cfg, 0, seq, snaps)
    assert len(got) == len(want) == 6
    for a, b in zip(got, want):
        assert (a.grid_param_value, a.matrix_kind) == (b.grid_param_value, b.matrix_kind)
        assert np.isclose(a.spec_err, b.spec_err, rtol=1e-12, atol=0.0)
        assert (a.ari, a.e_value, a.seed) == (b.ari, b.e_value, b.seed)
        # CSR and dense products (and the Laplacian's degrees) sum in another order
        assert np.isclose(a.kmeans_cost, b.kmeans_cost, rtol=1e-12, atol=0.0)
        assert np.isclose(a.eigengap, b.eigengap, rtol=1e-12, atol=0.0)


# ---------------------------------------------------------------------------
# symmetry checks: a sweep cell trusts the matrices the library just built
# ---------------------------------------------------------------------------

_CHECKED = ExperimentConfig(n=600, k=2, tau=0.1, alpha_log_scale=None, alpha_inv_scale=8.0,
                            epsilon=0.02, t_len=6, n_min=240, n_max=360, lambda_grid=(0.3, 1.0),
                            r_grid=(3,), seed=5, restarts=5)


@pytest.fixture(params=["CSR", "dense"])
def checked_form(request, monkeypatch):
    """Runs the ``_CHECKED`` sweep on CSR operands, or on dense ones with CSR switched off."""
    if request.param == "dense":
        monkeypatch.setattr(dynsc.smoothing, "SPARSE_OPERATOR_SHARE", -1.0)
    return scipy.sparse.csr_array if request.param == "CSR" else np.ndarray


def test_sweep_cell_runs_no_full_symmetry_check(checked_form, symmetric_checks):
    seq, snaps = generate_trial_sequence(_CHECKED, 0)
    truth = seq.thetas[-1]
    refs = reference_matrices(truth, _CHECKED.model(), _CHECKED.matrix_kinds())
    smoothed = experiments.smoothed_matrix(snaps, Exponential(0.3), _CHECKED.k)
    assert isinstance(smoothed, checked_form)
    symmetric_checks.clear()
    for kind in _CHECKED.matrix_kinds():
        experiments.evaluate_cell(smoothed, kind, refs[kind], truth, 2, seed=1, restarts=5)
    assert symmetric_checks == []
    # the scope ends with the cell: the same object is checked in full again
    dynsc.sbm.check_symmetric(smoothed)
    assert len(symmetric_checks) == 1 and symmetric_checks[0] is smoothed


def test_trusting_the_cell_changes_no_record(checked_form, symmetric_checks, monkeypatch):
    # without the scope every layer checks again: 5 full n x n checks per grid point
    # (the smoothed matrix 3 times, its Laplacian twice) and 2 of the K x K factor C
    seq, snaps = generate_trial_sequence(_CHECKED, 0)
    symmetric_checks.clear()
    trusted = experiments.evaluate_smoothed(_CHECKED, 0, seq, snaps)
    assert not any(m.shape == (600, 600) for m in symmetric_checks)
    symmetric_checks.clear()
    monkeypatch.setattr(experiments, "_trusted", lambda *m: contextlib.nullcontext())
    checked = experiments.evaluate_smoothed(_CHECKED, 0, seq, snaps)
    shapes = [m.shape for m in symmetric_checks]
    assert shapes.count((600, 600)) == 5 * len(_CHECKED.grid())
    assert shapes.count((2, 2)) == 2 * len(_CHECKED.grid()) + 1  # and the model's b0 once
    assert [replace(r, wall_ms=0.0) for r in trusted] == [replace(r, wall_ms=0.0) for r in checked]


def test_dense_evaluation_peak_is_about_two_matrices():
    # two dense grid points at n = 400: each smoothed matrix is mirrored in place and
    # the previous one released first, so the peak is one smoothed matrix and its
    # Laplacian (about 2.2 n x n arrays); upper + upper.T with the previous point's
    # matrix still alive peaked at 3.1
    import tracemalloc

    n = 400
    cfg = ExperimentConfig(n=n, k=2, tau=0.2, alpha=0.3, alpha_log_scale=None, epsilon=0.01,
                           t_len=3, lambda_grid=(1.0, 0.5), trials=1, seed=3, restarts=2)
    seq, snaps = generate_trial_sequence(cfg, 0)
    assert isinstance(experiments.smoothed_matrix(snaps, Exponential(1.0), cfg.k), np.ndarray)
    tracemalloc.start()
    try:
        records = experiments.evaluate_smoothed(cfg, 0, seq, snaps)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(records) == 4
    assert peak < 2.5 * 8 * n * n
