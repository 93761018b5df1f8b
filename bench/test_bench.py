"""Self-tests of the benchmark at n = 60.  Run: python3 -m pytest -q bench"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402

run.import_library()

import workloads  # noqa: E402
from spans import per_layer_units  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(BENCH_DIR / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_tiny_run_prints_every_metric_with_its_unit(name, trace):
    proc = _bench("--workload", name, "--seed", "3", "--seconds", "1",
                  "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    out = json.loads(lines[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0 and out["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in out["metrics"].items()} == \
        {m["name"]: m["unit"] for m in spec}
    for metric, entry in out["metrics"].items():
        assert math.isfinite(entry["value"]), metric
        assert any(line.split()[1:2] == [metric] and line.endswith(" " + entry["unit"])
                   for line in lines[:-1]), metric
    if trace:
        m = {k: v["value"] for k, v in out["metrics"].items()}
        accounted = sum(v for k, v in m.items() if k.endswith(".self_s")) + m["trace.counter_s"]
        assert accounted == pytest.approx(m["trace.root_s"], rel=1e-9)
    else:
        assert out["metrics"]["ok_frac"]["value"] == 1.0
        assert out["metrics"]["setup_s"]["value"] > 0


def test_all_runs_every_workload_in_one_command():
    proc = _bench("--workload", "all", "--seed", "4", "--seconds", "0", "--tiny")
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert out["correct"] is True
    assert set(out["metrics"]) == {f"{w}.{m['name']}" for w in workloads.WORKLOADS
                                   for m in SPEC["end_to_end"]}


def test_per_layer_names_match_the_spec():
    assert per_layer_units() == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_corrupted_record_counts_as_failed(tmp_path, monkeypatch):
    workload = workloads.make("preset_sweep", 5, tiny=True)
    real_op = workload.op

    def corrupt_second(ctx, i):
        records = real_op(ctx, i)
        if i == 1:
            records[0] = dataclasses.replace(records[0], ari=1.5)
        return records

    monkeypatch.setattr(workload, "op", corrupt_second)
    result = run.run(workload, seconds=0.0, trace=False, workdir=tmp_path,
                    import_s=[0.0] * run.SETUP_REPS)
    assert result["attempted"] == workload.quality_ops == 2
    assert result["failed"] == 1
    assert result["correct"] is False
    assert result["end_to_end"]["ok_frac"][0] == 0.5


@pytest.mark.parametrize("field, value", [("spec_err", math.nan), ("ari", -1.01),
                                          ("e_value", 2.5)])
def test_check_records_rejects_out_of_range(field, value):
    workload = workloads.make("sparse2k", 1, tiny=True)
    records = workload.op(None, 0)
    assert workloads.check_records(records, workload.expected_records) is None
    assert workloads.check_records(records[:-1], workload.expected_records)
    records[1] = dataclasses.replace(records[1], **{field: value})
    assert workloads.check_records(records, workload.expected_records)


def test_stream_round_trip_check_sees_a_changed_label(tmp_path):
    workload = workloads.make("stream_replay", 2, tiny=True)
    workload.setup(tmp_path)
    ctx = workload.begin()
    assert workload.check_begin(ctx) is None
    ctx.seq.thetas[2].labels[0] = (ctx.seq.thetas[2].labels[0] + 1) % workload.cfg.k
    assert "labels of step 2" in workload.check_begin(ctx)


def test_memory_precheck_refuses_before_allocating():
    assert run.memory_precheck(500, 1 << 30) < 1 << 30
    with pytest.raises(run.Refused, match="n=20000"):
        run.memory_precheck(20000, 7 << 30)


def test_refuses_without_library_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "preset_sweep",
                           "--seed", "1", "--seconds", "1"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert "refused" in proc.stderr
    assert '"correct"' not in proc.stdout
