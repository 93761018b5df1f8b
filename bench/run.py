"""Benchmark runner for dynsc: one workload, one seed, one timed window.

    python3 bench/run.py --workload preset_sweep --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30

Run from the root of a source checkout; the library is imported from its
``src`` directory. The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``. A fuller record
(machine, per-op times, checks, claims) is written under ``bench/results``,
and with ``--trace 1`` the spans too.

With ``--trace 1`` every op runs twice on the same inputs, once plain and once
traced, in alternating order; the deterministic outputs of the two must be
identical, and the difference of their median latencies is the tracing
overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import subprocess
import sys
import tempfile
import time
import traceback
import warnings
from pathlib import Path

# One BLAS thread keeps timings steady on a shared machine and BLAS reductions
# in a fixed order, which the traced-equals-plain check relies on. BLAS reads
# these once, when numpy loads it, so they are set before any numpy import.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = 1
BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SETUP_REPS = 3
# Times the library import in a fresh interpreter; the set-up repetitions
# after the first each pair one of these with their own set-up work.
IMPORT_PROBE = """
import sys, time
start = time.perf_counter()
sys.path[:0] = sys.argv[1:]
import workloads, spans
print(time.perf_counter() - start)
"""
# bytes of dense n x n float64 arrays a workload may hold at once, as a
# multiple of one such array, plus the interpreter and libraries
DENSE_ARRAYS = 16
BASE_BYTES = 128 << 20


class Refused(Exception):
    """The benchmark cannot run here; nothing was measured."""


def import_library():
    """Import dynsc from this checkout's ``src``, never from anywhere else."""
    if not (SRC / "dynsc" / "__init__.py").is_file():
        raise Refused(f"no dynsc sources under {SRC}; run from a full source checkout")
    sys.path.insert(0, str(SRC))
    import dynsc
    if Path(dynsc.__file__).resolve().parent != (SRC / "dynsc").resolve():
        raise Refused(f"imported dynsc from {dynsc.__file__}, not from {SRC}")
    return dynsc


def available_bytes() -> int:
    """MemAvailable, capped by the cgroup's remaining allowance when there is one."""
    avail = None
    with open("/proc/meminfo") as fh:
        for line in fh:
            if line.startswith("MemAvailable:"):
                avail = int(line.split()[1]) * 1024
    if avail is None:
        raise Refused("cannot read MemAvailable from /proc/meminfo")
    try:
        limit = Path("/sys/fs/cgroup/memory.max").read_text().strip()
        usage = int(Path("/sys/fs/cgroup/memory.current").read_text())
    except (OSError, ValueError):
        return avail
    if limit != "max":
        avail = min(avail, int(limit) - usage)
    return avail


def memory_precheck(n: int, avail: int) -> int:
    """Estimated peak bytes of a workload at size n; refuse if it does not fit."""
    need = BASE_BYTES + DENSE_ARRAYS * 8 * n * n
    if need > avail:
        raise Refused(f"n={n} needs about {need / 2**20:.0f} MiB of dense arrays, "
                      f"{avail / 2**20:.0f} MiB available; refusing rather than risk "
                      f"an out-of-memory kill")
    return need


def machine_record(seed: int, seconds: int) -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"].get("blas", {})
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "dynsc").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "config": blas.get("openblas configuration"),
                 "threads_env": {v: os.environ.get(v) for v in BLAS_THREAD_VARS}},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": git_commit(),
        "src_sha256": digest.hexdigest(),
        "seed": seed,
        "seconds": seconds,
    }


def git_commit() -> str | None:
    """HEAD of the checkout read from ``.git``; None outside a git working tree."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def import_times(first_s: float) -> list[float]:
    """The in-process import time, then SETUP_REPS - 1 fresh-interpreter imports."""
    times = [first_s]
    for _ in range(SETUP_REPS - 1):
        proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC), str(BENCH_DIR)],
                              capture_output=True, text=True, timeout=120, check=True)
        times.append(float(proc.stdout))
    return times


def quantile(values, q: float) -> float | None:
    """Linear-interpolation quantile; None (JSON null) when nothing was measured."""
    import numpy as np
    return float(np.quantile(values, q)) if values else None


def run(workload, seconds: float, trace: bool, workdir: Path, import_s: list[float]) -> dict:
    """Set up, run the timed window, check outputs; return the full result.

    ``import_s`` holds one library import time per set-up repetition.
    """
    import numpy as np
    from spans import Tracer
    from workloads import check_records, deterministic

    tracer = Tracer() if trace else None
    setup_times = []
    for rep in range(SETUP_REPS):
        start = time.perf_counter()
        if trace:
            with tracer.installed(), tracer.root(f"setup-{rep}"):
                workload.setup(workdir)
        else:
            workload.setup(workdir)
        setup_times.append(time.perf_counter() - start)

    problems = []
    op_ms = {"plain": [], "traced": []}
    cells = 0
    quality, claim_records = [], []
    attempted = failed = 0

    window_start = time.perf_counter()
    deadline = window_start + seconds
    contexts = {"plain": workload.begin()}
    if trace:
        with tracer.installed(), tracer.root("load"):
            contexts["traced"] = workload.begin()

    i = 0
    while (workload.max_ops is None or i < workload.max_ops) and \
            (i < workload.quality_ops or time.perf_counter() < deadline):
        attempted += 1
        lanes = list(contexts) if i % 2 == 0 else list(reversed(contexts))
        outputs = {}
        try:
            for lane in lanes:
                traced = lane == "traced"
                with tracer.installed() if traced else contextlib.nullcontext():
                    start = time.perf_counter()
                    with tracer.root(f"op-{i}") if traced else contextlib.nullcontext():
                        outputs[lane] = workload.op(contexts[lane], i)
                    op_ms[lane].append((time.perf_counter() - start) * 1e3)
        except Exception:
            traceback.print_exc()
            failed += 1
            i += 1
            continue
        records = outputs["plain"]
        reason = check_records(records, workload.expected_records)
        if reason is None and trace and deterministic(records) != deterministic(outputs["traced"]):
            reason = "traced outputs differ from plain outputs"
        if reason is not None:
            print(f"op {i} failed: {reason}", file=sys.stderr)
            failed += 1
        else:
            cells += len(records)
            if i < workload.quality_ops:
                quality.extend(workload.quality_cells(records))
                claim_records.extend(records)
        i += 1
    window_s = time.perf_counter() - window_start
    for lane, lane_ctx in contexts.items():
        reason = workload.check_begin(lane_ctx)
        if reason:
            problems.append(f"{lane} load: {reason}")

    aris = [r.ari for r in quality]
    adj_errs = [r.spec_err for r in quality if r.matrix_kind == "adjacency"]
    plain_ms, traced_ms = op_ms["plain"], op_ms["traced"]
    p90 = quantile(plain_ms, 0.9)
    tail = sum(1 for v in plain_ms if v > p90) if plain_ms else 0
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "claims": workload.claims(claim_records),
        "setup_reps_s": [{"import_s": imp, "setup_s": rep}
                         for imp, rep in zip(import_s, setup_times)],
        "window_s": window_s,
        "op_ms": plain_ms,
        "op_ms_p90_samples_beyond": tail,
        "quality_ops": workload.quality_ops,
        "end_to_end": {
            "setup_s": (float(np.median(np.add(import_s, setup_times))), "s"),
            "cells_per_s": (cells / window_s, "1/s"),
            "op_ms_p50": (quantile(plain_ms, 0.5), "ms"),
            "op_ms_p90": (p90, "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "ari_median": (quantile(aris, 0.5), "ARI"),
            "spec_err_median": (quantile(adj_errs, 0.5), "norm"),
            "ok_frac": ((attempted - failed) / attempted if attempted else 0.0, "fraction"),
        },
    }
    if trace:
        layers = tracer.layer_metrics()
        traced_p50, plain_p50 = quantile(traced_ms, 0.5), quantile(plain_ms, 0.5)
        layers.update({
            "trace.ops": len(traced_ms),
            "trace.traced_op_ms_p50": traced_p50,
            "trace.plain_op_ms_p50": plain_p50,
            "trace.overhead_ms": (traced_p50 - plain_p50
                                  if traced_ms and plain_ms else None),
        })
        result["per_layer"] = layers
        result["tracer"] = tracer
    return result


def run_all(args, names) -> int:
    """Every workload in turn, each in a fresh process; one combined summary line."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exited with code {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]))
        out = json.loads(lines[-1])
        summary["correct"] = summary["correct"] and out["correct"]
        summary["attempted"] += out["attempted"]
        summary["failed"] += out["failed"]
        summary["metrics"].update({f"{name}.{k}": v for k, v in out["metrics"].items()})
    print(json.dumps(summary))
    return 0


def main(argv=None) -> int:
    t0 = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="a workload name, or 'all' to run each in its own process")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="n = 60 variants of the workloads, for self-tests")
    args = parser.parse_args(argv)

    try:
        import_library()
        sys.path.insert(0, str(BENCH_DIR))
        import workloads
        from spans import per_layer_units
        import_s = time.perf_counter() - t0
        if args.workload == "all":
            return run_all(args, workloads.WORKLOADS)
        workload = workloads.make(args.workload, args.seed, tiny=args.tiny)
        memory_precheck(workload.cfg.n, available_bytes())
    except Refused as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    warnings.filterwarnings("ignore", message="eigengap .* is numerically degenerate")

    results_dir = BENCH_DIR / "results"
    results_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}{'-tiny' if args.tiny else ''}-seed{args.seed}-trace{args.trace}"
    with tempfile.TemporaryDirectory(dir=results_dir, prefix="work-") as tmp:
        result = run(workload, args.seconds, bool(args.trace), Path(tmp),
                     import_times(import_s))

    metrics = ({k: {"value": v, "unit": u} for k, (v, u) in result["end_to_end"].items()}
               if not args.trace else
               {k: {"value": result["per_layer"][k], "unit": u}
                for k, u in per_layer_units().items()})
    if args.trace:
        result.pop("tracer").write_spans(results_dir / f"{stem}-spans.jsonl")
    record = {k: v for k, v in result.items() if k != "end_to_end"}
    record.update(workload=args.workload, trace=args.trace, metrics=metrics,
                  machine=machine_record(args.seed, args.seconds))
    (results_dir / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")

    for name, m in metrics.items():
        print(f"{args.workload:14s} {name:42s} {m['value']} {m['unit']}")
    if result["op_ms"]:
        print(f"{args.workload:14s} op samples {len(result['op_ms'])}, "
              f"{result['op_ms_p90_samples_beyond']} beyond op_ms_p90")
    for name, claim in result["claims"].items():
        print(f"{args.workload:14s} claim {name}: {claim}")
    for problem in result["problems"]:
        print(f"{args.workload:14s} check failed: {problem}")
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    os.environ.update({var: str(BLAS_THREADS) for var in BLAS_THREAD_VARS})
    sys.exit(main())
