import contextlib
import math
import os
import shlex
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from conftest import read_records_csv, save_labels_oracle
from dynsc import ExperimentConfig, Exponential, InvalidInputError, load_sequence, weights_of
from dynsc.cli import (
    EXIT_IO,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VERIFICATION,
    build_parser,
    load_config,
    main,
)

TINY = ["--n", "40", "--k", "2", "--tau", "0.2", "--alpha-log-scale", "4",
        "--epsilon", "0.05", "--t-len", "6", "--trials", "2", "--seed", "3",
        "--restarts", "5"]


def test_usage_error_exit_code(capsys):
    assert main(["nonsense"]) == EXIT_USAGE
    assert main(["sweep", "--matrix", "bogus"]) == EXIT_USAGE
    assert main([]) == EXIT_USAGE


def test_invalid_config_is_usage_error(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("unknown_key=1\n")
    assert main(["sweep", "--config", str(cfg)]) == EXIT_USAGE


def test_unparsable_config_value_is_usage_error(tmp_path, capsys):
    bad_n, bad_r = tmp_path / "n.cfg", tmp_path / "r.cfg"
    bad_n.write_text("n=abc\n")
    bad_r.write_text("r_grid=2.5\n")
    for argv, key in ((["--lambda-grid", "0.5,abc"], "lambda_grid"),
                      (["--lambda-grid", "star,stars"], "lambda_grid"),
                      (["--config", str(bad_n)], "n"), (["--config", str(bad_r)], "r_grid"),
                      (["--n", "abc"], "n"), (["--tau", "x"], "tau"), (["--seed", "1.5"], "seed")):
        assert main(["sweep", *argv, "--out", str(tmp_path)]) == EXIT_USAGE
        assert f"invalid input: config key '{key}'" in capsys.readouterr().err


def test_missing_config_file_is_io_error(tmp_path):
    assert main(["sweep", "--config", str(tmp_path / "nope.cfg")]) == EXIT_IO


def test_generate_and_reload(tmp_path, capsys):
    out = tmp_path / "gen"
    assert main(["generate", *TINY, "--out", str(out)]) == EXIT_OK
    seq, snaps, model, manifest = load_sequence(out / "sequence")
    assert seq.n == 40 and snaps.t_len == 6
    assert manifest["mode"] == "deterministic"
    # determinism: regenerating with the same seed gives identical bytes
    out2 = tmp_path / "gen2"
    assert main(["generate", *TINY, "--out", str(out2)]) == EXIT_OK
    for name in ("manifest.txt", "labels.csv", "snapshot_0003.txt"):
        assert (out / "sequence" / name).read_text() == (out2 / "sequence" / name).read_text()


def test_generate_markov_manifest_echoes_parameters(tmp_path):
    out = tmp_path / "mk"
    assert main(["generate", "--mode", "markov", "--n", "50", "--k", "3",
                 "--tau", "0.2", "--alpha-log-scale", "4", "--epsilon", "0.2",
                 "--t-len", "5", "--seed", "9", "--out", str(out)]) == EXIT_OK
    from dynsc.util import parse_kv

    manifest = parse_kv((out / "sequence" / "manifest.txt").read_text())
    assert manifest["mode"] == "markov"
    assert float(manifest["epsilon"]) == 0.2
    assert int(manifest["s_equivalent"]) == 10
    assert int(manifest["n"]) == 50 and int(manifest["seed"]) == 9
    assert float(manifest["tau"]) == 0.2


def test_generate_static_config_has_constant_labels(tmp_path):
    out = tmp_path / "static"
    args = list(TINY)
    args[args.index("--epsilon") + 1] = "0"
    assert main(["generate", *args, "--out", str(out)]) == EXIT_OK
    labels = np.loadtxt(out / "sequence" / "labels.csv", delimiter=",", dtype=int)
    assert (labels == labels[0]).all()


def test_cluster_on_generated_sequence(tmp_path, capsys):
    out = tmp_path / "seq"
    assert main(["generate", *TINY, "--out", str(out)]) == EXIT_OK
    capsys.readouterr()
    code = main(["cluster", "--sequence", str(out / "sequence"),
                 "--smoother", "exp:0.4"])
    assert code == EXIT_OK
    text = capsys.readouterr().out
    kv = dict(line.split("=", 1) for line in text.strip().splitlines())
    assert "adjacency.ari" in kv and "laplacian.ari" in kv
    assert float(kv["adjacency.spec_err"]) > 0


def test_cluster_on_saved_sequence_equals_in_process_run(tmp_path, monkeypatch, capsys):
    # alpha = 4 log(40) / 40 needs more than the 12 digits dump_kv prints; the manifest
    # must give back the generated alpha, so every score matches in full precision
    import dynsc.experiments

    assert main(["generate", *TINY, "--out", str(tmp_path)]) == EXIT_OK
    real_evaluate = dynsc.experiments.evaluate_cell
    seen = []

    def spy(*args, **kwargs):
        result = real_evaluate(*args, **kwargs)
        seen.append(result[0])
        return result

    monkeypatch.setattr(dynsc.experiments, "evaluate_cell", spy)
    runs = []
    for extra in (["--sequence", str(tmp_path / "sequence")], []):
        capsys.readouterr()
        seen.clear()
        assert main(["cluster", *TINY, *extra, "--smoother", "exp:0.4"]) == EXIT_OK
        runs.append((list(seen), capsys.readouterr().out))
    assert len(runs[0][0]) == 2  # one score dict per matrix kind
    assert runs[0] == runs[1]


def _drop_last_label_row(directory):
    path = directory / "labels.csv"
    path.write_text("".join(path.read_text().splitlines(keepends=True)[:-1]))


def _manifest_n_999(directory):
    path = directory / "manifest.txt"
    path.write_text(path.read_text().replace("\nn=40\n", "\nn=999\n"))


def _snapshots_n_41(directory):
    for path in directory.glob("snapshot_*.txt"):
        path.write_text(path.read_text().replace("n=40\n", "n=41\n", 1))


def _ragged_label_row(directory):
    path = directory / "labels.csv"
    lines = path.read_text().splitlines(keepends=True)
    lines[3] = lines[3].split(",", 1)[1]  # row 3 loses its first label
    path.write_text("".join(lines))


def _bad_edge_line(directory):
    path = directory / "snapshot_0002.txt"
    path.write_text(path.read_text() + "7 x\n")


def _manifest_missing_t_len(directory):
    path = directory / "manifest.txt"
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(line for line in lines if not line.startswith("t_len=")))


def _manifest_alpha_abc(directory):
    path = directory / "manifest.txt"
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join("alpha=abc\n" if line.startswith("alpha=") else line
                            for line in lines))


def _manifest_mode_foo(directory):
    path = directory / "manifest.txt"
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join("mode=foo\n" if line.startswith("mode=") else line
                            for line in lines))


def _manifest_format(replacement):
    def corrupt(directory):
        path = directory / "manifest.txt"
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(replacement if line.startswith("format=") else line
                                for line in lines))
    return corrupt


def _first_label_of_row_1(value):
    def corrupt(directory):
        path = directory / "labels.csv"
        lines = path.read_text().splitlines(keepends=True)
        lines[1] = f"{value}," + lines[1].split(",", 1)[1]
        path.write_text("".join(lines))
    return corrupt


@pytest.mark.parametrize("corrupt", [_drop_last_label_row, _manifest_n_999, _snapshots_n_41,
                                     _ragged_label_row, _bad_edge_line, _manifest_missing_t_len,
                                     _manifest_alpha_abc, _manifest_mode_foo,
                                     _manifest_format("format=dynsc-sequence-v2\n"),
                                     _manifest_format(""), _first_label_of_row_1(-1),
                                     _first_label_of_row_1(300), _first_label_of_row_1(2)],
                         ids=["labels_rows", "manifest_n", "snapshot_n", "labels_ragged",
                              "edge_line", "manifest_missing_key", "manifest_bad_value",
                              "manifest_bad_mode", "manifest_format", "manifest_no_format",
                              "label_negative", "label_300", "label_k"])
def test_corrupt_sequence_is_rejected(tmp_path, capsys, corrupt):
    out = tmp_path / "seq"
    assert main(["generate", *TINY, "--out", str(out)]) == EXIT_OK
    corrupt(out / "sequence")
    with pytest.raises(InvalidInputError):
        load_sequence(out / "sequence")
    code = main(["cluster", "--sequence", str(out / "sequence"), "--smoother", "exp:0.4"])
    assert code == EXIT_USAGE


@pytest.mark.parametrize("branch", ["generated", "sequence"])
@pytest.mark.parametrize("source", ["flag", "config"])
def test_cluster_honours_restarts(tmp_path, monkeypatch, capsys, branch, source):
    import dynsc.spectral

    seen = []
    real_kmeans = dynsc.spectral.kmeans

    def spy(*args, **kwargs):
        seen.append(kwargs["restarts"])
        return real_kmeans(*args, **kwargs)

    if source == "flag":
        params = list(TINY)  # --restarts 5
        expected = 5
    else:
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("n=40\nk=2\ntau=0.2\nalpha_log_scale=4\nepsilon=0.05\nt_len=6\n"
                       "seed=3\nrestarts=2\n")
        params = ["--config", str(cfg)]
        expected = 2
    if branch == "sequence":
        assert main(["generate", *TINY, "--out", str(tmp_path / "gen")]) == EXIT_OK
        params += ["--sequence", str(tmp_path / "gen" / "sequence")]
    monkeypatch.setattr(dynsc.spectral, "kmeans", spy)
    assert main(["cluster", *params, "--smoother", "exp:0.4"]) == EXIT_OK
    assert seen == [expected, expected]  # one k-means per matrix kind


@pytest.mark.parametrize("branch", ["generated", "sequence"])
def test_cluster_honours_config_matrix_and_seed(tmp_path, monkeypatch, capsys, branch):
    import dynsc.spectral
    from dynsc.util import subseed

    seeds = []
    real_kmeans = dynsc.spectral.kmeans

    def spy(*args, **kwargs):
        seeds.append(kwargs["seed"])
        return real_kmeans(*args, **kwargs)

    cfg = tmp_path / "exp.cfg"
    cfg.write_text("n=40\nk=2\ntau=0.2\nalpha_log_scale=4\nepsilon=0.05\nt_len=6\n"
                   "seed=5\nmatrix=adjacency\n")
    params = ["--config", str(cfg)]
    if branch == "sequence":
        assert main(["generate", *TINY, "--out", str(tmp_path / "gen")]) == EXIT_OK
        params += ["--sequence", str(tmp_path / "gen" / "sequence")]
    capsys.readouterr()
    monkeypatch.setattr(dynsc.spectral, "kmeans", spy)
    assert main(["cluster", *params, "--smoother", "exp:0.4"]) == EXIT_OK
    text = capsys.readouterr().out
    assert "adjacency.ari=" in text and "laplacian." not in text
    assert seeds == [subseed(5, 91, 0)]


def test_cluster_spec_err_matches_sweep_trial0(tmp_path, capsys):
    out = tmp_path / "sweep"
    assert main(["sweep", *TINY, "--lambda-grid", "0.3", "--out", str(out)]) == EXIT_OK
    records = [r for r in read_records_csv(out / "sweep.csv") if r.trial == 0]
    assert {r.matrix_kind for r in records} == {"adjacency", "laplacian"}
    capsys.readouterr()
    assert main(["cluster", *TINY, "--smoother", "exp:0.3"]) == EXIT_OK
    kv = dict(line.split("=", 1) for line in capsys.readouterr().out.strip().splitlines())
    for rec in records:
        assert float(kv[f"{rec.matrix_kind}.spec_err"]) == rec.spec_err


def test_cluster_dense_easy_regime_exact(tmp_path, capsys):
    # dense static regime: exact recovery expected
    code = main(["cluster", "--n", "400", "--k", "3", "--tau", "0.1",
                 "--alpha", "0.5", "--epsilon", "0", "--t-len", "4",
                 "--seed", "1", "--smoother", "exp:1.0", "--matrix", "adjacency"])
    assert code == EXIT_OK
    kv = dict(line.split("=", 1) for line in capsys.readouterr().out.strip().splitlines())
    assert float(kv["adjacency.e_value"]) == 0.0
    assert float(kv["adjacency.ari"]) == 1.0


@pytest.mark.parametrize("command", ["cluster", "sweep"])
def test_memory_guard_exits_with_usage_code(tmp_path, capsys, monkeypatch, command):
    import dynsc.smoothing

    monkeypatch.setattr(dynsc.smoothing, "available_memory", lambda: 1024)
    args = ["--smoother", "exp:0.3"] if command == "cluster" else ["--out", str(tmp_path)]
    assert main([command, *TINY, *args]) == EXIT_USAGE
    assert "sparse" in capsys.readouterr().err


SPARSE3K = ["--n", "3000", "--k", "2", "--tau", "0.1", "--alpha-inv-scale", "8",
            "--epsilon", "0.02", "--t-len", "6", "--trials", "1", "--seed", "3",
            "--restarts", "5", "--lambda-grid", "0.3,1.0"]


@pytest.mark.parametrize("command", ["cluster", "sweep"])
def test_sparse_run_needs_no_dense_memory(tmp_path, capsys, monkeypatch, command):
    # 100 MB is far below the 288 MB dense workspace of n = 3000: the sparse
    # regime must smooth into CSR and never reach the guard
    import dynsc.smoothing

    monkeypatch.setattr(dynsc.smoothing, "available_memory", lambda: 100 * 2**20)
    args = ["--smoother", "exp:0.3"] if command == "cluster" else ["--out", str(tmp_path)]
    # the sweep's static (lambda = 1) Laplacian has a repeated leading eigenvalue
    degenerate = (pytest.warns(RuntimeWarning, match="numerically degenerate")
                  if command == "sweep" else contextlib.nullcontext())
    with degenerate:
        assert main([command, *SPARSE3K, *args]) == EXIT_OK
    assert "laplacian" in capsys.readouterr().out


SPARSE600 = ["--n", "600", "--k", "2", "--tau", "0.1", "--alpha-inv-scale", "8",
             "--epsilon", "0.02", "--t-len", "6", "--n-min", "240", "--n-max", "360",
             "--trials", "1", "--seed", "5", "--restarts", "5", "--lambda-grid", "0.3,1.0"]


def test_sparse_sweep_memory_guard_at_the_csr_need(tmp_path, capsys, monkeypatch):
    # every grid point of this sweep is CSR; the largest need among them is the
    # sweep's: one byte less fails before sweep.csv is written, the need itself runs
    import dynsc.smoothing
    from dynsc.experiments import generate_trial_sequence
    from dynsc.smoothing import (CSR_BYTES_PER_EDGE, CSR_BYTES_PER_NODE, SPARSE_OPERATOR_SHARE,
                                 weighted_history)

    cfg = load_config(build_parser().parse_args(["sweep", *SPARSE600]))
    _, snaps = generate_trial_sequence(cfg, 0)
    edges = [sum(snap.edge_count for _, snap in weighted_history(
        snaps.snapshots, weights_of(Exponential(lam), cfg.t_len).betas))
        for lam in cfg.lambda_grid]
    assert all(2 * e <= SPARSE_OPERATOR_SHARE * cfg.n ** 2 for e in edges)
    need = CSR_BYTES_PER_EDGE * max(edges) + CSR_BYTES_PER_NODE * cfg.n
    monkeypatch.setattr(dynsc.smoothing, "available_memory", lambda: need - 1)
    assert main(["sweep", *SPARSE600, "--out", str(tmp_path)]) == EXIT_USAGE
    assert f"CSR smoothing at n=600 with {max(edges)} weighted edges needs {need} bytes" in (
        capsys.readouterr().err)
    assert not (tmp_path / "sweep.csv").exists()
    monkeypatch.setattr(dynsc.smoothing, "available_memory", lambda: need)
    assert main(["sweep", *SPARSE600, "--out", str(tmp_path)]) == EXIT_OK
    assert (tmp_path / "sweep.csv").exists()


def test_sweep_without_a_smallest_degree_writes_nothing(tmp_path, capsys, monkeypatch):
    # n = 2, K = 2 lets a community be empty, and tau = 0 gives its node no other
    # neighbours: the Laplacian rate fit would divide by nbar_min = 0
    monkeypatch.chdir(tmp_path)
    assert main(shlex.split("sweep --n 2 --k 2 --tau 0 --alpha 0.5 --t-len 3 --trials 1 "
                            "--lambda-grid 0.5")) == EXIT_USAGE
    assert "smallest expected degree is 0" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_markov_sweep_with_infeasible_size_bounds_writes_nothing(tmp_path, capsys, monkeypatch):
    # Markov generation never reads n_min / n_max, but the rates do: the default
    # n_min = 16 is above n_max = 5, so the config fails before any trial runs
    monkeypatch.chdir(tmp_path)
    assert main(shlex.split("sweep --mode markov --n 40 --k 2 --tau 0.2 --alpha 0.3 --t-len 4 "
                            "--trials 1 --lambda-grid 0.5 --n-max 5")) == EXIT_USAGE
    assert "need 0 <= n_min <= n_max" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_cluster_writes_labels(tmp_path, capsys):
    out = tmp_path / "labels"
    code = main(["cluster", *TINY, "--smoother", "unif:3", "--matrix", "adjacency",
                 "--out", str(out)])
    assert code == EXIT_OK
    labels = np.loadtxt(out / "labels_adjacency.csv", delimiter=",", dtype=int, ndmin=1)
    assert labels.shape == (40,)
    assert set(labels.tolist()) <= {0, 1}
    save_labels_oracle(labels[None, :], tmp_path / "oracle.csv")
    assert (out / "labels_adjacency.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()


def test_cluster_bad_smoother(capsys):
    assert main(["cluster", "--smoother", "gauss:1"]) == EXIT_USAGE


@pytest.mark.parametrize("spec", ["exp:abc", "unif:1.5", "exp"])
def test_cluster_unparsable_smoother_value(capsys, spec):
    assert main(["cluster", "--smoother", spec]) == EXIT_USAGE
    assert f"bad smoother {spec!r}" in capsys.readouterr().err


def test_sweep_writes_outputs(tmp_path, capsys):
    out = tmp_path / "sweep"
    code = main(["sweep", *TINY, "--lambda-grid", "0.3,1.0", "--r-grid", "2",
                 "--matrix", "adjacency", "--out", str(out)])
    assert code == EXIT_OK
    csv_text = (out / "sweep.csv").read_text()
    assert csv_text.startswith("# dynsc-sweep-csv v2\n")
    header = csv_text.splitlines()[1].split(",")
    assert header == ["trial", "t", "grid_param_kind", "grid_param_value",
                      "matrix_kind", "spec_err", "ari", "e_value", "kmeans_cost",
                      "eigengap", "seed", "wall_ms"]
    assert (out / "summary.txt").exists()
    assert (out / "plot_data.csv").exists()
    assert (out / "config.txt").exists()


def test_shipped_preset_config_parses():
    from pathlib import Path

    from dynsc.experiments import ExperimentConfig
    from dynsc.util import parse_kv

    path = Path(__file__).resolve().parent.parent / "configs" / "preset.cfg"
    cfg = ExperimentConfig.from_kv(parse_kv(path.read_text()))
    assert (cfg.n, cfg.k, cfg.tau, cfg.epsilon, cfg.t_len, cfg.trials) == (
        500, 3, 0.3, 0.01, 60, 20)
    assert len(cfg.lambda_grid) == 12 and len(cfg.r_grid) == 12
    assert max(cfg.r_grid) <= cfg.t_len + 1


@pytest.mark.parametrize("path", sorted(
    (Path(__file__).resolve().parent.parent / "configs").glob("*.cfg")), ids=lambda p: p.name)
def test_shipped_config_loads_and_resolves_star(path):
    from dynsc.util import parse_kv

    cfg = load_config(build_parser().parse_args(["sweep", "--config", str(path)]))
    tokens = [v.strip() for v in parse_kv(path.read_text()).get("lambda_grid", "").split(",")
              if v.strip()]
    assert len(tokens) == len(cfg.lambda_grid)
    stars = [lam for token, lam in zip(tokens, cfg.lambda_grid) if token == "star"]
    assert all(lam == cfg.tuning().optimal_lambda for lam in stars)
    assert stars or not path.name.startswith("bounded_")


# c12's regime at a short horizon: lambda* = 0.29769382146936163
SPARSE2K_STAR = ["--n", "2000", "--k", "2", "--tau", "0.1", "--alpha-inv-scale", "8",
                 "--epsilon", repr(1 / math.log(2000) ** 2), "--n-min", "800", "--n-max", "1200",
                 "--t-len", "3", "--trials", "1", "--seed", "5", "--restarts", "2",
                 "--matrix", "adjacency"]


def test_sweep_star_grid_equals_the_resolved_float(tmp_path):
    star, exact = tmp_path / "star", tmp_path / "exact"
    assert main(["sweep", *SPARSE2K_STAR, "--lambda-grid", "star,1", "--out", str(star)]) == EXIT_OK
    assert main(["sweep", *SPARSE2K_STAR, "--lambda-grid", "0.29769382146936163,1",
                 "--out", str(exact)]) == EXIT_OK
    strip = lambda p: [ln.rsplit(",", 1)[0] for ln in (p / "sweep.csv").read_text().splitlines()]
    assert strip(star) == strip(exact) and len(strip(star)) == 4
    assert (star / "config.txt").read_text() == (exact / "config.txt").read_text()
    assert "lambda_grid=0.29769382146936163,1.0\n" in (star / "config.txt").read_text()


def test_star_without_a_tuning_exits_before_any_trial(tmp_path, capsys, monkeypatch):
    import dynsc.experiments

    monkeypatch.setattr(dynsc.experiments, "generate_trial_sequence",
                        lambda *args: pytest.fail("a trial ran"))
    argv = ["sweep", *TINY, "--epsilon", "0", "--lambda-grid", "star,1", "--out", str(tmp_path)]
    assert main(argv) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "invalid input" in err and "epsilon" in err
    assert not (tmp_path / "sweep.csv").exists()


def test_sweep_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        "# tiny sweep\nn=40\nk=2\ntau=0.2\nalpha_log_scale=4\nepsilon=0.05\n"
        "t_len=6\ntrials=2\nseed=3\nlambda_grid=0.3,1.0\nmatrix=adjacency\nrestarts=5\n")
    out1 = tmp_path / "o1"
    out2 = tmp_path / "o2"
    assert main(["sweep", "--config", str(cfg), "--out", str(out1)]) == EXIT_OK
    assert main(["sweep", "--config", str(cfg), "--seed", "4", "--out", str(out2)]) == EXIT_OK
    strip = lambda p: [ln.rsplit(",", 1)[0] for ln in (p / "sweep.csv").read_text().splitlines()]
    assert strip(out1) != strip(out2)  # the --seed flag overrode the file


def test_sweep_csv_deterministic(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    args = ["sweep", *TINY, "--lambda-grid", "0.5", "--matrix", "adjacency"]
    assert main([*args, "--out", str(out1)]) == EXIT_OK
    assert main([*args, "--out", str(out2)]) == EXIT_OK
    strip = lambda p: [ln.rsplit(",", 1)[0] for ln in (p / "sweep.csv").read_text().splitlines()]
    assert strip(out1) == strip(out2)


def test_verify_bias(capsys):
    assert main(["verify", "bias", *TINY, "--sequences", "4"]) == EXIT_OK
    assert "frobenius_violations=0" in capsys.readouterr().out


def test_verify_bias_rejects_markov_mode(capsys, monkeypatch):
    from dynsc import experiments

    generated = []
    monkeypatch.setattr(experiments, "membership_sequence", lambda *a: generated.append(a))
    assert main(["verify", "bias", *TINY, "--mode", "markov", "--sequences", "2"]) == EXIT_USAGE
    assert "invalid input: verify bias needs mode=deterministic" in capsys.readouterr().err
    assert generated == []


def test_verify_bias_draws_config_sequences_at_its_own_seeds(capsys, monkeypatch):
    from dynsc import experiments
    from dynsc.util import subseed

    seeds = []
    draw = experiments.membership_sequence
    monkeypatch.setattr(experiments, "membership_sequence",
                        lambda cfg, seed: seeds.append(seed) or draw(cfg, seed))
    assert main(["verify", "bias", *TINY, "--sequences", "3"]) == EXIT_OK
    assert seeds == [subseed(3, 31, trial) for trial in range(3)]


def test_verify_bias_fails_on_a_frobenius_violation(capsys, monkeypatch):
    from dataclasses import replace

    from dynsc import bounds

    check = bounds.smoothing_bias_check
    monkeypatch.setattr(bounds, "smoothing_bias_check",
                        lambda *a: replace(check(*a), frobenius_ok=False))
    assert main(["verify", "bias", *TINY, "--sequences", "2"]) == EXIT_VERIFICATION
    captured = capsys.readouterr()
    assert "frobenius_violations=2" in captured.out and "status=FAIL" in captured.out
    assert "verification failed: bias" in captured.err


@pytest.mark.parametrize("count", ["0", "-2"])
def test_verify_bias_rejects_sequence_count_below_one(capsys, monkeypatch, count):
    from dynsc import experiments

    generated = []
    monkeypatch.setattr(experiments, "membership_sequence", lambda *a: generated.append(a))
    assert main(["verify", "bias", *TINY, "--sequences", count]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert "usage error: --sequences must be >= 1" in captured.err
    assert "status=PASS" not in captured.out
    assert generated == []


def test_verify_degrees(capsys):
    assert main(["verify", "degrees", "--n", "150", "--k", "2", "--tau", "0.2",
                 "--alpha-log-scale", "5", "--epsilon", "0.04", "--t-len", "8",
                 "--trials", "10", "--seed", "0"]) == EXIT_OK
    assert "status=PASS" in capsys.readouterr().out


def test_verify_failure_exit_code(capsys):
    # near-empty graphs: degree deviations dominate n * alpha, so the check fails
    code = main(["verify", "degrees", "--n", "100", "--k", "2", "--tau", "0.2",
                 "--alpha", "0.001", "--epsilon", "0.04", "--t-len", "4",
                 "--trials", "5", "--seed", "0"])
    assert code == EXIT_VERIFICATION
    assert "status=FAIL" in capsys.readouterr().out


def test_rates_command(capsys):
    assert main(["rates", *TINY]) == EXIT_OK
    kv = dict(line.split("=", 1)
              for line in capsys.readouterr().out.strip().splitlines())
    assert "rho_n" in kv and "optimal_r" in kv and "adj_dyn_rate" in kv
    rho = float(kv["rho_n"])
    assert np.isclose(float(kv["optimal_lambda"]), rho)
    horizons = ("t_min_regime", "t_min_weights", "t_min_weight_bound")
    assert float(kv["t_min"]) == max(float(kv[name]) for name in horizons)


def test_python_m_dynsc_runs_the_cli():
    root = Path(__file__).resolve().parent.parent
    path = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    done = subprocess.run([sys.executable, "-m", "dynsc", "rates", "--config",
                           "configs/preset.cfg"], cwd=root, env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == EXIT_OK, done.stderr
    assert "optimal_lambda=" in done.stdout


def test_markov_rates_take_nbar_max_n(capsys):
    # Markov sizes are unconstrained, so nbar_max = n and lambda* = rho_coarse below 1
    from dynsc.smoothing import tuning_profile

    assert main(["rates", "--mode", "markov", "--n", "2000", "--k", "2", "--tau", "0.5",
                 "--alpha-inv-scale", "8", "--epsilon", "0.01"]) == EXIT_OK
    kv = dict(line.split("=", 1)
              for line in capsys.readouterr().out.strip().splitlines())
    expected = tuning_profile(2000, 8 / 2000, 0.01, 2000.0).optimal_lambda
    assert kv["optimal_lambda"] == format(expected, ".12g") == "0.282842712475"
    assert kv["optimal_lambda"] == kv["rho_coarse"] == kv["rho_n"]


def test_rates_reject_zero_epsilon(capsys):
    # the rates divide by rho_n = sqrt(nbar_max * alpha * epsilon)
    assert main(["rates", *TINY, "--epsilon", "0"]) == EXIT_USAGE
    assert "invalid input: epsilon must be in (0, 1]" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["verify", "weights"], ["verify", "laplacian-ineq"],
                                  ["verify", "rates"], ["verify", "degrees", "--instances", "5"]])
def test_input_free_verify_checks_are_gone(capsys, argv):
    # their checks are c08, c09 and test_rate_card_rho_one_reduces_to_static
    assert main(argv) == EXIT_USAGE
    assert "usage error:" in capsys.readouterr().err


@pytest.mark.parametrize("bad", ["--n=0", "--threads=0", "--threads=-3", "--restarts=0",
                                 "--lambda-grid=0,0.5", "--r-grid=0"])
def test_sweep_rejects_bad_config_before_any_trial(tmp_path, capsys, monkeypatch, bad):
    from dynsc import experiments

    generated = []
    monkeypatch.setattr(experiments, "generate_trial_sequence",
                        lambda *a: generated.append(a))
    assert main(["sweep", *TINY, bad, "--out", str(tmp_path)]) == EXIT_USAGE
    assert "invalid input:" in capsys.readouterr().err
    assert generated == []


# a valid non-default value for every config key
_KEY_VALUES = {"mode": "markov", "n": "41", "k": "2", "tau": "0.25", "alpha": "0.05",
               "alpha_log_scale": "2.5", "alpha_inv_scale": "8", "epsilon": "0.02",
               "t_len": "7", "n_min": "10", "n_max": "250", "lambda_grid": "0.3,1.0",
               "r_grid": "2,3", "matrix": "adjacency", "trials": "3", "seed": "5",
               "threads": "2", "restarts": "4"}


@pytest.mark.parametrize("key", [f.name for f in fields(ExperimentConfig)])
def test_every_config_key_is_a_flag(tmp_path, key):
    parser = build_parser()
    path = tmp_path / "c.cfg"
    path.write_text(f"{key}={_KEY_VALUES[key]}\n")
    flag = "--" + key.replace("_", "-")
    from_flag = load_config(parser.parse_args(["sweep", flag, _KEY_VALUES[key]]))
    from_file = load_config(parser.parse_args(["sweep", "--config", str(path)]))
    assert from_flag == from_file
    assert getattr(from_flag, key) != getattr(ExperimentConfig(), key)


@pytest.mark.parametrize("key", ["alpha", "alpha_log_scale", "alpha_inv_scale"])
def test_alpha_flag_replaces_the_files_alpha_keys(tmp_path, key):
    path = tmp_path / "c.cfg"
    flag = "--" + key.replace("_", "-")
    for text in ("alpha=0.1\n", "alpha_inv_scale=8\n", "alpha_log_scale=2\n"):
        path.write_text(text)
        cfg = load_config(build_parser().parse_args(["sweep", "--config", str(path), flag, "0.5"]))
        assert {name: getattr(cfg, name) for name in ("alpha", "alpha_log_scale", "alpha_inv_scale")
                if getattr(cfg, name) is not None} == {key: 0.5}


def test_readme_cli_examples_parse():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [line for line in block.replace("\\\n", " ").splitlines() if line.startswith("dynsc ")]
    assert len(lines) >= 5
    for line in lines:  # parse only; a removed subcommand or flag raises UsageError
        build_parser().parse_args(shlex.split(line)[1:])


def test_sweep_over_edgeless_snapshots_exits_ok(tmp_path):
    # at alpha = 1e-6 no snapshot has an edge, so the smoothed matrix and its
    # zero-row Laplacian are zero: ARPACK fails on them and the zero rule answers
    argv = ["sweep", "--n", "300", "--k", "2", "--tau", "0.5", "--alpha", "1e-6",
            "--t-len", "3", "--lambda-grid", "1.0", "--trials", "1", "--restarts", "2",
            "--out", str(tmp_path)]
    with pytest.warns(RuntimeWarning, match="degenerate"):
        assert main(argv) == EXIT_OK
    rows = (tmp_path / "sweep.csv").read_text().splitlines()[2:]
    assert len(rows) == 2 and all(row.split(",")[9] == "0" for row in rows)  # eigengap


def test_eigensolver_failure_is_reported_as_error(tmp_path, monkeypatch, capsys):
    import scipy.sparse.linalg

    import dynsc.spectral

    def fails(*args, **kwargs):
        raise scipy.sparse.linalg.ArpackError(-9999)

    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", fails)
    monkeypatch.setattr(dynsc.spectral, "DENSE_FALLBACK_LIMIT", 10)
    assert main(["sweep", *TINY, "--out", str(tmp_path)]) == EXIT_USAGE  # exit code 1
    assert capsys.readouterr().err.startswith(
        "error: eigensolver failed at n=40: ARPACK error -9999")
