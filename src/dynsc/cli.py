"""Command-line orchestration.

Subcommands: ``generate`` (persist a simulated sequence), ``cluster`` (run the
spectral algorithm on a smoothed sequence and print metrics), ``sweep`` (Monte
Carlo grid sweep to CSV plus summary), ``verify`` (empirical checks of the
theory: weight conditions, the deterministic Laplacian perturbation
inequality, degree deviations, smoothing bias, rate reductions) and ``rates``
(print the closed-form rate card for a regime).

Configuration is a flat ``key=value`` file with ``#`` comments; any CLI flag
overrides the file. Exit codes: 0 success, 1 usage error, 2 verification
failure, 3 I/O error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import bounds, dynamics, experiments, sbm, smoothing
from .errors import DynscError, InvalidInputError
from .util import dump_kv, parse_kv, subseed

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


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", type=Path, help="key=value config file")
    parser.add_argument("--seed", type=int, help="root seed")
    parser.add_argument("--out", type=Path, help="output directory")
    parser.add_argument("--threads", type=int, help="worker pool size")
    parser.add_argument("--mode", choices=["deterministic", "markov"])
    parser.add_argument("--n", type=int)
    parser.add_argument("--k", type=int)
    parser.add_argument("--tau", type=float)
    parser.add_argument("--alpha", type=float)
    parser.add_argument("--alpha-log-scale", type=float,
                        help="alpha = c * log(n) / n")
    parser.add_argument("--alpha-inv-scale", type=float, help="alpha = c / n")
    parser.add_argument("--epsilon", type=float)
    parser.add_argument("--t-len", type=int)
    parser.add_argument("--n-min", type=int)
    parser.add_argument("--n-max", type=int)
    parser.add_argument("--trials", type=int)
    parser.add_argument("--restarts", type=int)
    parser.add_argument("--lambda-grid", help="comma-separated forgetting factors")
    parser.add_argument("--r-grid", help="comma-separated window sizes")
    parser.add_argument("--matrix", choices=["adjacency", "laplacian", "both"])


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
    p_verify.add_argument("which",
                          choices=["weights", "laplacian-ineq", "degrees", "bias", "rates"])
    _add_common(p_verify)
    p_verify.add_argument("--instances", type=int, default=1000,
                          help="instance count for laplacian-ineq")
    p_verify.add_argument("--sequences", type=int, default=50,
                          help="sequence count for bias")

    p_rates = sub.add_parser("rates", help="print the rate card for a regime")
    _add_common(p_rates)
    return parser


def load_config(args) -> experiments.ExperimentConfig:
    kv = {}
    if args.config is not None:
        kv.update(parse_kv(Path(args.config).read_text()))
    # every config field has a flag of the same name
    overrides = {f.name: getattr(args, f.name) for f in fields(experiments.ExperimentConfig)}
    for key, value in overrides.items():
        if value is not None:
            kv[key] = str(value)
    alphas_set = [key for key in ("alpha", "alpha_log_scale", "alpha_inv_scale") if key in kv]
    if len(alphas_set) > 1:  # flags override the file's parameterization
        for key in ("alpha", "alpha_log_scale", "alpha_inv_scale"):
            if key in kv and getattr(args, key) is None:
                del kv[key]
    return experiments.ExperimentConfig.from_kv(kv)


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

    smoothed = experiments.smoothed_matrix(snaps, smoother)
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
            np.savetxt(path, labels.labels[None, :], delimiter=",", fmt="%d")
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
    inp = bounds.RegimeInputs.from_model(cfg.model(), cfg.n, cfg.resolved_n_min,
                                         cfg.resolved_n_max, cfg.epsilon)
    card = bounds.rate_card(inp)
    profile = smoothing.tuning_profile(cfg.n, cfg.resolved_alpha, cfg.epsilon,
                                       inp.nbar_max)
    _print_kv({**card.to_kv(), **profile.to_kv()})
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify subcommands
# ---------------------------------------------------------------------------

def _verify_weights(args) -> dict:
    """Certify the uniform and exponential weight constants on a grid.

    The exponential check runs at the first horizon where all four conditions
    are certified (the max of the square/decay horizon and the bound horizon).
    Cells where the square/decay horizon alone leaves the bound condition
    unsatisfied are counted separately: they are a gap between the two
    horizons, not a failure of the certified claim.
    """
    failures = 0
    checked = 0
    bound_gap_cells = 0
    eps_grid = (1e-4, 1e-3, 1e-2, 0.1, 0.5)
    for r in range(1, 65):
        w = smoothing.weights_of(smoothing.Uniform(r), r - 1)
        for eps in eps_grid:
            checked += 1
            if not smoothing.validate_weights(w, eps).all_ok:
                failures += 1
    for lam in (0.05, 0.1, 0.2, 0.3, 0.5, 0.7, 0.9, 1.0):
        for eps in eps_grid:
            t_certified = int(np.ceil(smoothing.t_min_weights(lam, eps)))
            t_all = int(np.ceil(max(smoothing.t_min_weights(lam, eps),
                                    smoothing.t_min_weight_bound(lam))))
            if not smoothing.validate_weights(
                    smoothing.weights_of(smoothing.Exponential(lam), t_certified),
                    eps).all_ok:
                bound_gap_cells += 1
            for extra in (0, 1, 25):
                checked += 1
                w = smoothing.weights_of(smoothing.Exponential(lam), t_all + extra)
                if not smoothing.validate_weights(w, eps).all_ok:
                    failures += 1
    return {"check": "weights", "cases": checked, "failures": failures,
            "bound_gap_cells": bound_gap_cells,
            "status": "PASS" if failures == 0 else "FAIL"}


def _verify_laplacian_ineq(args) -> dict:
    rng = np.random.default_rng(args.seed if args.seed is not None else 0)
    violations = 0
    worst = 0.0
    for _ in range(args.instances):
        n = 30
        a = np.triu(rng.uniform(0.1, 1.0, size=(n, n)))
        a = a + np.triu(a, 1).T
        p = np.triu(rng.uniform(0.1, 1.0, size=(n, n)))
        p = p + np.triu(p, 1).T
        check = bounds.laplacian_perturbation_check(a, p)
        worst = max(worst, check.lhs - check.rhs)
        if not check.holds:
            violations += 1
    return {"check": "laplacian-ineq", "instances": args.instances,
            "violations": violations, "worst_excess": worst,
            "status": "PASS" if violations == 0 else "FAIL"}


def _verify_degrees(args) -> dict:
    cfg = load_config(args)
    model = cfg.model()
    prof = sbm.effective_sizes(model, cfg.n, cfg.resolved_n_min, cfg.resolved_n_max)
    tuning = smoothing.tuning_profile(cfg.n, cfg.resolved_alpha, cfg.epsilon,
                                      prof.nbar_max)
    r = min(tuning.optimal_r, cfg.t_len + 1)
    cs = []
    for trial in range(cfg.trials):
        seq, snaps = experiments.generate_trial_sequence(cfg, trial)
        w = smoothing.weights_of(smoothing.Uniform(r), seq.t_len)
        expected = np.stack([sbm.expected_degrees(th, model) for th in seq.thetas])
        stats = bounds.degree_deviation_stats(snaps, w, expected, cfg.resolved_alpha,
                                              prof.nbar_min)
        cs.append(stats.c_n_alpha)
    cs = np.sort(np.asarray(cs))
    q95 = float(np.quantile(cs, 0.95))
    frac_below_one = float((cs < 1.0).mean())
    return {"check": "degrees", "trials": cfg.trials, "window_r": r,
            "c_n_alpha_median": float(np.median(cs)), "c_n_alpha_q95": q95,
            "frac_below_one": frac_below_one,
            "status": "PASS" if frac_below_one >= 0.95 else "FAIL"}


def _verify_bias(args) -> dict:
    cfg = load_config(args)
    if cfg.mode != "deterministic":  # smoothing_bias_check takes deterministic sequences only
        raise InvalidInputError(f"verify bias needs mode=deterministic, got mode={cfg.mode}")
    model = cfg.model()
    prof = sbm.effective_sizes(model, cfg.n, cfg.resolved_n_min, cfg.resolved_n_max)
    tuning = smoothing.tuning_profile(cfg.n, cfg.resolved_alpha, cfg.epsilon, prof.nbar_max)
    w = smoothing.weights_of(smoothing.Exponential(tuning.optimal_lambda), cfg.t_len)
    failures = 0
    ratios = []
    for trial in range(args.sequences):
        dcfg = dynamics.DeterministicDsbmConfig.from_epsilon(
            n=cfg.n, model=model, t_len=cfg.t_len, epsilon=cfg.epsilon,
            n_min=cfg.resolved_n_min, n_max=cfg.resolved_n_max,
            seed=subseed(cfg.seed, 31, trial))
        seq = dynamics.gen_deterministic_sequence(dcfg)
        check = bounds.smoothing_bias_check(seq, model, w)
        if not check.frobenius_ok:
            failures += 1
        if check.spectral_bound > 0:
            ratios.append(check.spectral_err / check.spectral_bound)
    return {"check": "bias", "sequences": args.sequences,
            "frobenius_violations": failures,
            "spectral_ratio_median": float(np.median(ratios)) if ratios else 0.0,
            "status": "PASS" if failures == 0 else "FAIL"}


def _verify_rates(args) -> dict:
    cfg = load_config(args)
    inp = bounds.RegimeInputs.from_model(cfg.model(), cfg.n, cfg.resolved_n_min,
                                         cfg.resolved_n_max, cfg.epsilon)
    card = bounds.rate_card(inp)
    # reduction self-check: forcing rho_n = 1 must collapse dynamic onto static
    forced = bounds.RegimeInputs.from_model(cfg.model(), cfg.n, cfg.resolved_n_min,
                                            cfg.resolved_n_max, epsilon=1.0)
    forced_card = bounds.rate_card(forced)
    reduction_ok = (forced_card.rho_n == 1.0
                    and forced_card.adj_dyn_rate == forced_card.adj_static_rate
                    and forced_card.lap_dyn_rate == forced_card.lap_static_rate)
    out = {"check": "rates", "reduction_ok": reduction_ok,
           "status": "PASS" if reduction_ok else "FAIL"}
    out.update(card.to_kv())
    return out


_VERIFIERS = {
    "weights": _verify_weights,
    "laplacian-ineq": _verify_laplacian_ineq,
    "degrees": _verify_degrees,
    "bias": _verify_bias,
    "rates": _verify_rates,
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
