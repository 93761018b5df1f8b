from pathlib import Path

import numpy as np
import pytest

from conftest import changed_counts, save_labels_oracle
from dynsc import (
    AdjacencySnapshot,
    CommunityLabels,
    ConnectivityModel,
    DeterministicDsbmConfig,
    GenerationError,
    InvalidInputError,
    MarkovDsbmConfig,
    MembershipSequence,
    SnapshotSequence,
    build_probability_matrix,
    gen_deterministic_sequence,
    gen_markov_sequence,
    load_sequence,
    sample_snapshot_sequence,
    save_sequence,
    spectral_cluster,
)

MODEL3 = ConnectivityModel.planted_partition(3, 0.3, 0.2)
MODEL2 = ConnectivityModel.planted_partition(2, 0.3, 0.2)


def _det_cfg(**kw):
    base = dict(n=30, model=MODEL3, t_len=8, s=3, n_min=6, n_max=14, seed=0)
    base.update(kw)
    return DeterministicDsbmConfig(**base)


# ---------------------------------------------------------------------------
# deterministic dynamics
# ---------------------------------------------------------------------------

def test_deterministic_zero_moves_is_constant():
    seq = gen_deterministic_sequence(_det_cfg(s=0))
    assert all(np.array_equal(th.labels, seq.thetas[0].labels) for th in seq.thetas)


def test_deterministic_exact_hamming_and_bounds():
    cfg = DeterministicDsbmConfig(n=10, model=MODEL2, t_len=40, s=1, n_min=3, n_max=7,
                                  seed=3)
    seq = gen_deterministic_sequence(cfg)
    assert (changed_counts(seq) == 1).all()
    for th in seq.thetas:
        sizes = th.sizes()
        assert sizes.min() >= 3 and sizes.max() <= 7


def test_deterministic_epsilon_parameterization():
    cfg = DeterministicDsbmConfig.from_epsilon(n=100, model=MODEL2, t_len=5,
                                               epsilon=0.1, n_min=30, n_max=70, seed=1)
    assert cfg.s == 10
    seq = gen_deterministic_sequence(cfg)
    assert (changed_counts(seq) == 10).all()


def test_deterministic_cumulative_change_bound():
    # |{i: Theta_{t-k}(i) != Theta_t(i)}| <= min(n, k*s), by direct counting
    cfg = DeterministicDsbmConfig.from_epsilon(n=100, model=MODEL3, t_len=20,
                                               epsilon=0.1, n_min=20, n_max=46, seed=9)
    seq = gen_deterministic_sequence(cfg)
    last = seq.thetas[-1].labels
    for k in range(len(seq.thetas)):
        changed = int(np.count_nonzero(seq.thetas[-1 - k].labels != last))
        assert changed <= min(100, k * cfg.s)


def test_deterministic_initial_is_balanced():
    seq = gen_deterministic_sequence(_det_cfg(s=0, seed=5))
    assert set(seq.thetas[0].sizes().tolist()) == {10}


def test_deterministic_infeasible_bounds_rejected():
    with pytest.raises(InvalidInputError, match="size bounds infeasible"):
        _det_cfg(n_min=12, n_max=14)  # 3 * 12 > 30


@pytest.mark.parametrize("bounds", [dict(n_min=10.3), dict(n_max=14.0), dict(n_min=True),
                                    dict(s=2.5), dict(t_len=2.5)])
def test_deterministic_non_integer_bounds_rejected(bounds):
    # n=31, k=3 fits 10.3 <= 31 / 3; only an integer check catches it before generation
    with pytest.raises(InvalidInputError, match="must be an integer"):
        _det_cfg(n=31, **bounds)


def test_markov_non_integer_t_len_rejected():
    with pytest.raises(InvalidInputError, match="t_len must be an integer"):
        MarkovDsbmConfig(n=30, model=MODEL3, t_len=2.5, epsilon=0.1)


def test_deterministic_numpy_integer_bounds_accepted():
    cfg = _det_cfg(n_min=np.int64(6), n_max=np.int64(14))
    assert set(gen_deterministic_sequence(cfg).thetas[0].sizes().tolist()) == {10}


def test_deterministic_pinned_sizes_cannot_move():
    cfg = DeterministicDsbmConfig(n=30, model=MODEL3, t_len=2, s=2, n_min=10,
                                  n_max=10, seed=0)
    with pytest.raises(GenerationError):
        gen_deterministic_sequence(cfg)


def test_deterministic_single_community_with_moves_fails():
    cfg = DeterministicDsbmConfig(n=10, model=ConnectivityModel.planted_partition(1, 0.3, 0.0),
                                  t_len=2, s=1, n_min=10, n_max=10, seed=0)
    with pytest.raises(GenerationError):
        gen_deterministic_sequence(cfg)


def test_deterministic_reproducible():
    a = gen_deterministic_sequence(_det_cfg(seed=11))
    b = gen_deterministic_sequence(_det_cfg(seed=11))
    c = gen_deterministic_sequence(_det_cfg(seed=12))
    assert all(np.array_equal(x.labels, y.labels) for x, y in zip(a.thetas, b.thetas))
    assert any(not np.array_equal(x.labels, y.labels) for x, y in zip(a.thetas, c.thetas))


# ---------------------------------------------------------------------------
# markov dynamics
# ---------------------------------------------------------------------------

def test_markov_zero_epsilon_is_constant():
    seq = gen_markov_sequence(MarkovDsbmConfig(n=40, model=MODEL3, t_len=6,
                                               epsilon=0.0, seed=2))
    assert all(np.array_equal(th.labels, seq.thetas[0].labels) for th in seq.thetas)


def test_markov_epsilon_one_k2_flips_every_node():
    seq = gen_markov_sequence(MarkovDsbmConfig(n=25, model=MODEL2, t_len=5,
                                               epsilon=1.0, seed=4))
    for a, b in zip(seq.thetas, seq.thetas[1:]):
        assert np.all(a.labels != b.labels)


def test_markov_switch_fraction_binomial_oracle():
    # per-step switch count ~ Binomial(n, eps); fraction within 4 sd of eps
    n, eps = 1000, 0.2
    cfg = MarkovDsbmConfig(n=n, model=MODEL3, t_len=50, epsilon=eps, seed=8)
    seq = gen_markov_sequence(cfg)
    bound = 4 * np.sqrt(eps * (1 - eps) / n)
    fractions = changed_counts(seq) / n
    assert (np.abs(fractions - eps) <= bound).all()


def test_markov_target_uniform_over_other_communities():
    # among switchers, each of the k-1 targets should be hit ~ uniformly
    k, n = 4, 4000
    cfg = MarkovDsbmConfig(n=n, model=ConnectivityModel.planted_partition(k, 0.3, 0.2),
                           t_len=1, epsilon=0.5, seed=6)
    seq = gen_markov_sequence(cfg)
    before, after = seq.thetas[0].labels, seq.thetas[1].labels
    moved = before != after
    hops = (after[moved] - before[moved]) % k
    counts = np.bincount(hops, minlength=k)[1:]
    expected = moved.sum() / (k - 1)
    assert np.abs(counts - expected).max() <= 4 * np.sqrt(expected)


# ---------------------------------------------------------------------------
# snapshot sequences
# ---------------------------------------------------------------------------

def test_snapshot_sequence_t0_reduces_to_static():
    seq = gen_deterministic_sequence(_det_cfg(t_len=0))
    snaps = sample_snapshot_sequence(seq, MODEL3, 5)
    assert snaps.t_len == 0 and snaps.n == 30


def test_snapshot_sequence_reproducible():
    seq = gen_deterministic_sequence(_det_cfg())
    a = sample_snapshot_sequence(seq, MODEL3, 5)
    b = sample_snapshot_sequence(seq, MODEL3, 5)
    for x, y in zip(a.snapshots, b.snapshots):
        assert np.array_equal(x.rows, y.rows) and np.array_equal(x.cols, y.cols)


def test_snapshot_steps_use_independent_seeds():
    seq = gen_deterministic_sequence(_det_cfg(s=0, t_len=3))
    snaps = sample_snapshot_sequence(seq, MODEL3, 5)
    dense = [s.to_dense() for s in snaps.snapshots]
    assert not np.array_equal(dense[0], dense[1])


def test_snapshot_pooled_frequency_matches_p():
    # s=0: snapshots are i.i.d. given Theta; pooled edge frequency ~ p_ij
    seq = gen_deterministic_sequence(_det_cfg(s=0, t_len=199, n=20, n_min=4, n_max=10))
    snaps = sample_snapshot_sequence(seq, MODEL3, 13)
    m = len(snaps.snapshots)
    freq = sum(s.to_dense() for s in snaps.snapshots) / m
    from dynsc import build_probability_matrix

    p = build_probability_matrix(seq.thetas[0], MODEL3)
    target = p - np.diag(np.diag(p))
    bound = 4 * np.sqrt(np.maximum(target * (1 - target), 1e-12) / m)
    off = ~np.eye(20, dtype=bool)
    assert (np.abs(freq - target)[off] <= bound[off]).all()


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------

def test_sequence_roundtrip(tmp_path):
    cfg = _det_cfg(t_len=4)
    seq = gen_deterministic_sequence(cfg)
    snaps = sample_snapshot_sequence(seq, MODEL3, 21)
    out = save_sequence(tmp_path / "seq", seq, snaps, MODEL3, seed=21)
    back_seq, back_snaps, back_model, manifest = load_sequence(out)
    assert manifest["mode"] == "deterministic"
    assert int(manifest["seed"]) == 21
    assert float(manifest["epsilon"]) == cfg.epsilon
    assert back_model.k == MODEL3.k and back_model.tau == MODEL3.tau
    assert back_seq.s == cfg.s and back_seq.n_min == cfg.n_min
    for x, y in zip(back_seq.thetas, seq.thetas):
        assert np.array_equal(x.labels, y.labels)
    for x, y in zip(back_snaps.snapshots, snaps.snapshots):
        assert np.array_equal(x.rows, y.rows) and np.array_equal(x.cols, y.cols)


def test_sequence_roundtrip_general_kernel(tmp_path):
    b0 = np.array([[1.0, 0.25], [0.25, 0.5]])
    model = ConnectivityModel.from_kernel(2, 0.4, b0)
    cfg = DeterministicDsbmConfig(n=12, model=model, t_len=2, s=1, n_min=3, n_max=9,
                                  seed=2)
    seq = gen_deterministic_sequence(cfg)
    snaps = sample_snapshot_sequence(seq, model, 2)
    out = save_sequence(tmp_path / "seq", seq, snaps, model, seed=2)
    _, _, back_model, _ = load_sequence(out)
    assert back_model.tau is None
    assert np.array_equal(back_model.b0, b0)


# Byte-level pins of the on-disk format: tests/data holds sequences written by
# the per-line writer (an f-string per edge, np.savetxt for the labels) that
# save_sequence replaced. The deterministic one has n = 12, so node ids cross 9 -> 10.
DATA = Path(__file__).parent / "data"
B0 = np.array([[1.0, 0.25], [0.25, 0.5]])


def _fixture_sequence(name):
    if name == "deterministic_n12":
        model = ConnectivityModel.planted_partition(3, 0.5, 0.3)
        seq = gen_deterministic_sequence(DeterministicDsbmConfig(
            n=12, model=model, t_len=3, s=2, n_min=3, n_max=5, seed=7))
        seed = 7
    else:
        model = ConnectivityModel.from_kernel(2, 0.6, B0)
        seq = gen_markov_sequence(MarkovDsbmConfig(n=11, model=model, t_len=2, epsilon=0.2,
                                                   seed=8))
        seed = 8
    return seq, sample_snapshot_sequence(seq, model, seed), model, seed


@pytest.mark.parametrize("name", ["deterministic_n12", "markov_n11"])
def test_save_sequence_reproduces_fixture_bytes(tmp_path, name):
    seq, snaps, model, seed = _fixture_sequence(name)
    out = save_sequence(tmp_path / name, seq, snaps, model, seed=seed)
    want = sorted(p.name for p in (DATA / name).iterdir())
    assert sorted(p.name for p in out.iterdir()) == want
    for fname in want:
        assert (out / fname).read_bytes() == (DATA / name / fname).read_bytes(), fname


@pytest.mark.parametrize("name", ["deterministic_n12", "markov_n11"])
def test_load_sequence_fixture_roundtrip(name):
    seq, snaps, model, _ = _fixture_sequence(name)
    back_seq, back_snaps, back_model, _ = load_sequence(DATA / name)
    assert back_seq.mode == seq.mode
    assert back_seq.epsilon == seq.epsilon
    assert (back_seq.s, back_seq.n_min, back_seq.n_max) == (seq.s, seq.n_min, seq.n_max)
    assert np.array_equal(back_model.b0, model.b0) and back_model.alpha == model.alpha
    for x, y in zip(back_seq.thetas, seq.thetas, strict=True):
        assert np.array_equal(x.labels, y.labels)
    for x, y in zip(back_snaps.snapshots, snaps.snapshots, strict=True):
        assert np.array_equal(x.rows, y.rows) and np.array_equal(x.cols, y.cols)


def test_load_sequence_reads_12_digit_manifest_floats(tmp_path):
    # manifests written before floats were saved with repr hold 12 significant digits
    seq_dir = tmp_path / "old"
    seq_dir.mkdir()
    for path in (DATA / "deterministic_n12").iterdir():
        (seq_dir / path.name).write_bytes(path.read_bytes())
    manifest = seq_dir / "manifest.txt"
    manifest.write_text(manifest.read_text().replace("epsilon=0.16666666666666666",
                                                     "epsilon=0.166666666667"))
    back_seq, _, _, _ = load_sequence(seq_dir)
    assert back_seq.epsilon == 0.166666666667


def test_save_sequence_keeps_manifest_floats_exact(tmp_path):
    model = ConnectivityModel.planted_partition(2, 3 * np.log(40) / 40, 1 / 3)
    seq = gen_markov_sequence(MarkovDsbmConfig(n=40, model=model, t_len=1, epsilon=0.1 / 3,
                                               seed=4))
    out = save_sequence(tmp_path / "seq", seq, sample_snapshot_sequence(seq, model, 4),
                        model, seed=4)
    back_seq, _, back_model, _ = load_sequence(out)
    assert back_seq.epsilon == seq.epsilon
    assert (back_model.alpha, back_model.tau) == (model.alpha, model.tau)


@pytest.mark.parametrize("k, t_len, n", [
    (1, 3, 20),     # all zeros
    (3, 0, 15),     # a single row
    (4, 5, 1),      # a single column
    (12, 4, 101),   # two-digit labels
])
def test_labels_csv_matches_savetxt_oracle(tmp_path, k, t_len, n):
    rng = np.random.default_rng(k * 1000 + n)
    labels = rng.integers(0, k, size=(t_len + 1, n))
    seq = MembershipSequence(tuple(CommunityLabels(row, k) for row in labels),
                             mode="markov", epsilon=0.0)
    empty = AdjacencySnapshot(n, np.empty(0, np.int64), np.empty(0, np.int64))
    snaps = SnapshotSequence((empty,) * (t_len + 1))
    model = ConnectivityModel.planted_partition(k, 0.5, 0.3)
    out = save_sequence(tmp_path / "seq", seq, snaps, model, seed=0)
    save_labels_oracle(labels, tmp_path / "oracle.csv")
    assert (out / "labels.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()
    back_seq, _, _, _ = load_sequence(out)
    assert np.array_equal(np.stack([th.labels for th in back_seq.thetas]), labels)


@pytest.mark.parametrize("source", ["markov", "deterministic", "load_sequence",
                                    "spectral_cluster"])
def test_labels_store_one_byte_per_node(tmp_path, source):
    seq = gen_markov_sequence(MarkovDsbmConfig(n=30, model=MODEL3, t_len=3, epsilon=0.2, seed=4))
    if source == "deterministic":
        seq = gen_deterministic_sequence(_det_cfg(t_len=3))
    elif source == "load_sequence":
        out = save_sequence(tmp_path / "seq", seq, sample_snapshot_sequence(seq, MODEL3, 5),
                            MODEL3, seed=5)
        seq = load_sequence(out)[0]
    elif source == "spectral_cluster":
        p = build_probability_matrix(seq.thetas[0], MODEL3)
        seq = MembershipSequence((spectral_cluster(p, 3, seed=6).labels,), mode="markov",
                                 epsilon=0.0)
    for theta in seq.thetas:
        assert theta.labels.dtype == np.uint8
        assert theta.labels.nbytes == theta.n


def test_load_sequence_parses_labels_at_their_stored_width(tmp_path):
    # labels.csv is parsed straight into uint8 for K = 2, so the transient parse
    # no longer holds 8 bytes per label: 4 bytes per label of slack here, where
    # an int64 parse needs 8 on top of the 1 kept
    import tracemalloc

    n, t_len = 2000, 40
    model = ConnectivityModel.planted_partition(2, 2.0 / n, 0.5)
    seq = gen_markov_sequence(MarkovDsbmConfig(n=n, model=model, t_len=t_len, epsilon=0.1,
                                               seed=3))
    out = save_sequence(tmp_path / "seq", seq, sample_snapshot_sequence(seq, model, 3),
                        model, seed=3)
    tracemalloc.start()
    try:
        back = load_sequence(out)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert all(th.labels.dtype == np.uint8 for th in back[0].thetas)
    assert peak - kept <= 4 * (t_len + 1) * n


_LAB3 = CommunityLabels([0, 1, 2], 3)
_SNAP3 = AdjacencySnapshot(3, [0], [1])


@pytest.mark.parametrize("call, match", [
    (lambda tmp: _det_cfg(s=-1), "need 0 <= s <= n"),
    (lambda tmp: _det_cfg(s=31), "need 0 <= s <= n"),
    (lambda tmp: _det_cfg(t_len=-1), "t_len must be >= 0"),
    (lambda tmp: DeterministicDsbmConfig.from_epsilon(30, MODEL3, 8, 1.5, 6, 14),
     "epsilon must be in"),
    (lambda tmp: MarkovDsbmConfig(n=30, model=MODEL3, t_len=8, epsilon=-0.1), "epsilon must be in"),
    (lambda tmp: MarkovDsbmConfig(n=30, model=MODEL3, t_len=-1, epsilon=0.1), "t_len must be >= 0"),
    (lambda tmp: MembershipSequence((), mode="markov", epsilon=0.0), "at least Theta_0"),
    (lambda tmp: MembershipSequence((_LAB3, CommunityLabels([0, 1], 3)), mode="markov",
                                    epsilon=0.0), "share"),
    (lambda tmp: MembershipSequence((_LAB3, CommunityLabels([0, 1, 2], 4)), mode="markov",
                                    epsilon=0.0), "share"),
    (lambda tmp: SnapshotSequence(()), "at least one snapshot"),
    (lambda tmp: SnapshotSequence((_SNAP3, AdjacencySnapshot(4, [0], [1]))), "share n"),
    (lambda tmp: save_sequence(tmp / "seq", MembershipSequence((_LAB3,) * 2, mode="markov",
                                                               epsilon=0.0),
                               SnapshotSequence((_SNAP3,) * 3), MODEL3, seed=0),
     "different lengths"),
], ids=["det_s_negative", "det_s_above_n", "det_t_len", "det_epsilon", "markov_epsilon",
        "markov_t_len", "membership_empty", "membership_mixed_n", "membership_mixed_k",
        "snapshots_empty", "snapshots_mixed_n", "save_mismatched_lengths"])
def test_dynamics_input_checks(tmp_path, call, match):
    with pytest.raises(InvalidInputError, match=match):
        call(tmp_path)
    assert not (tmp_path / "seq").exists()  # save_sequence writes nothing first
