"""Command-line orchestration.

Subcommands: ``generate`` (persist a simulated sequence), ``cluster`` (run the
spectral algorithm on a smoothed sequence and print metrics), ``sweep`` (Monte
Carlo grid sweep to CSV plus summary), ``verify`` (empirical checks of the
theory on a configured regime: degree deviations and smoothing bias) and
``rates`` (print the closed-form rate card and tuning for a regime). The
input-free theory checks (weight conditions, the Laplacian perturbation
inequality, the rate reduction at ``rho_n = 1``) are tests, not subcommands.

Configuration is a flat ``key=value`` file with ``#`` comments. Every config
key is also a flag (``t_len`` is ``--t-len``), and a flag overrides the file.
Exit codes: 0 success, 1 usage error, 2 verification failure, 3 I/O error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import bounds, dynamics, experiments, smoothing
from .errors import DynscError, InvalidInputError
from .util import dump_kv, format_ints, parse_kv, subseed

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFICATION = 2
EXIT_IO = 3


class UsageError(Exception):
    pass


class VerificationFailure(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # noqa: D102 - argparse hook
        raise UsageError(message)


# help text of the config keys that need one; every ExperimentConfig field gets a flag
_FLAG_HELP = {
    "mode": "deterministic or markov",
    "alpha_log_scale": "alpha = c * log(n) / n",
    "alpha_inv_scale": "alpha = c / n",
    "lambda_grid": "comma-separated forgetting factors; 'star' is the tuned optimal_lambda, "
                   "exactly (rates prints it to 12 digits only)",
    "r_grid": "comma-separated window sizes",
    "matrix": "adjacency, laplacian or both",
    "seed": "root seed",
    "threads": "worker pool size",
}
_ALPHA_KEYS = frozenset({"alpha", "alpha_log_scale", "alpha_inv_scale"})


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", type=Path, help="key=value config file")
    parser.add_argument("--out", type=Path, help="output directory")
    # flag values stay strings, parsed by ExperimentConfig.from_kv like file values
    for f in fields(experiments.ExperimentConfig):
        parser.add_argument("--" + f.name.replace("_", "-"), help=_FLAG_HELP.get(f.name))


def build_parser() -> _Parser:
    parser = _Parser(prog="dynsc", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("generate", help="generate and persist a sequence")
    _add_common(p_gen)

    p_cluster = sub.add_parser("cluster", help="cluster a smoothed sequence")
    _add_common(p_cluster)
    p_cluster.add_argument("--sequence", type=Path,
                           help="persisted sequence directory (default: generate)")
    p_cluster.add_argument("--smoother", required=True,
                           help="exp:<lambda> or unif:<r>")

    p_sweep = sub.add_parser("sweep", help="grid sweep to CSV")
    _add_common(p_sweep)

    p_verify = sub.add_parser("verify", help="run an empirical verification")
    p_verify.add_argument("which", choices=list(_VERIFIERS))
    _add_common(p_verify)
    p_verify.add_argument("--sequences", type=int, default=50,
                          help="sequence count for bias")

    p_rates = sub.add_parser("rates", help="print the rate card for a regime")
    _add_common(p_rates)
    return parser


def load_config(args) -> experiments.ExperimentConfig:
    kv = parse_kv(Path(args.config).read_text()) if args.config is not None else {}
    flags = {f.name: getattr(args, f.name) for f in fields(experiments.ExperimentConfig)
             if getattr(args, f.name) is not None}
    if flags.keys() & _ALPHA_KEYS:  # an alpha flag replaces the file's parameterization
        kv = {key: value for key, value in kv.items() if key not in _ALPHA_KEYS}
    return experiments.ExperimentConfig.from_kv({**kv, **flags})


def _out_dir(args) -> Path:
    out = args.out if args.out is not None else Path("dynsc-out")
    out.mkdir(parents=True, exist_ok=True)
    return out


def _print_kv(mapping: dict) -> None:
    sys.stdout.write(dump_kv(mapping))


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_generate(args) -> int:
    cfg = load_config(args)
    out = _out_dir(args)
    seq, snaps = experiments.generate_trial_sequence(cfg, 0)
    directory = dynamics.save_sequence(out / "sequence", seq, snaps, cfg.model(), cfg.seed)
    print(f"sequence written to {directory}")
    return EXIT_OK


def _parse_smoother(spec: str):
    try:
        name, value = spec.split(":", 1)
        if name == "exp":
            return smoothing.Exponential(float(value))
        if name == "unif":
            return smoothing.Uniform(int(value))
    except ValueError as exc:
        raise UsageError(f"bad smoother {spec!r}: {exc}") from exc
    raise UsageError(f"bad smoother {spec!r}: expected exp:<lambda> or unif:<r>")


def cmd_cluster(args) -> int:
    smoother = _parse_smoother(args.smoother)
    cfg = load_config(args)
    if args.sequence is not None:
        seq, snaps, model, _manifest = dynamics.load_sequence(args.sequence)
    else:
        seq, snaps = experiments.generate_trial_sequence(cfg, 0)
        model = cfg.model()
    kinds = cfg.matrix_kinds()

    smoothed = smoothing.smoothed_matrix(snaps, smoother)
    truth = seq.thetas[-1]
    refs = experiments.reference_matrices(truth, model, kinds)
    report: dict = {"t": seq.t_len, "smoother": args.smoother}
    for kidx, kind in enumerate(kinds):
        scores, labels = experiments.evaluate_cell(smoothed, kind, refs[kind], truth, model.k,
                                                   seed=subseed(cfg.seed, 91, kidx),
                                                   restarts=cfg.restarts)
        report.update({f"{kind}.{name}": value for name, value in scores.items()})
        if args.out is not None:
            path = _out_dir(args) / f"labels_{kind}.csv"
            path.write_bytes(format_ints(labels.labels, b"," * (labels.n - 1) + b"\n"))
            report[f"{kind}.labels_file"] = path
    _print_kv(report)
    return EXIT_OK


def cmd_sweep(args) -> int:
    cfg = load_config(args)
    out = _out_dir(args)
    records = experiments.run_sweep(cfg)
    experiments.write_records_csv(records, out / "sweep.csv")
    (out / "plot_data.csv").write_text(experiments.plot_data_by_grid(records, cfg))
    summary = experiments.summarize(records, cfg)
    (out / "summary.txt").write_text(dump_kv(summary, header="dynsc sweep summary"))
    (out / "config.txt").write_text(dump_kv(cfg.to_kv(), header="dynsc sweep config"))
    print(f"wrote {out / 'sweep.csv'} ({len(records)} rows)")
    _print_kv(summary)
    return EXIT_OK


def cmd_rates(args) -> int:
    cfg = load_config(args)
    card = bounds.rate_card(cfg.size_profile(), cfg.resolved_alpha, cfg.epsilon)
    _print_kv({**card.to_kv(), **cfg.tuning().to_kv()})
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify subcommands
# ---------------------------------------------------------------------------

def _verify_degrees(args) -> dict:
    cfg = load_config(args)
    r = min(cfg.tuning().optimal_r, cfg.t_len + 1)
    nbar_min = cfg.size_profile().nbar_min
    w = smoothing.weights_of(smoothing.Uniform(r), cfg.t_len)
    cs = []
    for trial in range(cfg.trials):
        seq, snaps = experiments.generate_trial_sequence(cfg, trial)
        stats = bounds.degree_deviation_stats(snaps, seq.thetas, cfg.model(), w, nbar_min)
        cs.append(stats.c_n_alpha)
    cs = np.sort(np.asarray(cs))
    q95 = float(np.quantile(cs, 0.95))
    frac_below_one = float((cs < 1.0).mean())
    return {"check": "degrees", "trials": cfg.trials, "window_r": r,
            "c_n_alpha_median": float(np.median(cs)), "c_n_alpha_q95": q95,
            "frac_below_one": frac_below_one,
            "status": "PASS" if frac_below_one >= 0.95 else "FAIL"}


def _verify_bias(args) -> dict:
    if args.sequences < 1:
        raise UsageError(f"--sequences must be >= 1, got {args.sequences}")
    cfg = load_config(args)
    if cfg.mode != "deterministic":  # smoothing_bias_check takes deterministic sequences only
        raise InvalidInputError(f"verify bias needs mode=deterministic, got mode={cfg.mode}")
    model = cfg.model()
    w = smoothing.weights_of(smoothing.Exponential(cfg.tuning().optimal_lambda), cfg.t_len)
    failures = 0
    ratios = []
    for trial in range(args.sequences):
        seq = experiments.membership_sequence(cfg, subseed(cfg.seed, 31, trial))
        check = bounds.smoothing_bias_check(seq, model, w)
        if not check.frobenius_ok:
            failures += 1
        if check.spectral_bound > 0:
            ratios.append(check.spectral_err / check.spectral_bound)
    return {"check": "bias", "sequences": args.sequences,
            "frobenius_violations": failures,
            "spectral_ratio_median": float(np.median(ratios)) if ratios else 0.0,
            "status": "PASS" if failures == 0 else "FAIL"}


_VERIFIERS = {
    "degrees": _verify_degrees,
    "bias": _verify_bias,
}


def cmd_verify(args) -> int:
    report = _VERIFIERS[args.which](args)
    _print_kv(report)
    if report["status"] != "PASS":
        raise VerificationFailure(args.which)
    return EXIT_OK


# ---------------------------------------------------------------------------

_COMMANDS = {
    "generate": cmd_generate,
    "cluster": cmd_cluster,
    "sweep": cmd_sweep,
    "verify": cmd_verify,
    "rates": cmd_rates,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InvalidInputError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except VerificationFailure as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except DynscError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
