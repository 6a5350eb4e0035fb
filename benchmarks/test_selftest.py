"""Self-test of the benchmark on tiny campaigns (about a minute).

Not part of the tier-1 suite (pytest's testpaths is ``tests``); run it with

    python -m pytest -q benchmarks
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)

import run as bench  # noqa: E402

with open(os.path.join(bench.ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)

# one tiny cell set per workload shape: n=60 (48 train, 12 val), 6 epochs
TINY = {
    "ref_serial": bench.Workload("tiny_serial", 60, """\
strategies = random,max_entropy,paal_full
budgets = 0.3
iterations = 2
seeds = 0
folds = 0
max_epochs = 6
early_stop = 6
warmup = 2
silent_period = 2
iq_patience = 1
query_interval = 2
lr0 = 0.01
""", blocking="conv"),
    "query_heavy": bench.Workload("tiny_query", 60, """\
strategies = random,entropy_kmeans,coreset,paal_full
budgets = 0.3
iterations = 3
seeds = 0
folds = 0
max_epochs = 5
early_stop = 5
warmup = 2
silent_period = 2
iq_patience = 0
query_interval = 1
lr0 = 0.01
""", blocking="query_step"),
}


@pytest.fixture
def work(request):
    path = os.path.join(bench.WORK, "selftest", request.node.name)
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def test_every_workload_has_a_tiny_twin():
    assert sorted(TINY) == sorted(w["name"] for w in SPEC["workloads"])
    assert sorted(TINY) == sorted(bench.WORKLOADS)


@pytest.mark.parametrize("shape", sorted(TINY))
def test_untraced_run_prints_every_end_to_end_metric(shape, work, capsys):
    result = bench.run(TINY[shape], seed=3, seconds=0.0, trace=False,
                       work_root=work)
    out = capsys.readouterr().out
    assert result["correct"] and result["failed"] == 0
    cells = {"ref_serial": 3, "query_heavy": 4}[shape]
    assert result["attempted"] == bench.MIN_CAMPAIGNS * cells
    metrics = result["metrics"]
    assert sorted(metrics) == sorted(m["name"] for m in SPEC["end_to_end"])
    for m in SPEC["end_to_end"]:
        assert metrics[m["name"]]["unit"] == m["unit"]
        assert metrics[m["name"]]["value"] > 0
        assert f"\n{m['name']} = " in out
    assert "\nfailed_frac = 0 1 " in out
    assert "\nreference: self (campaigns compared with each other): no recorded" in out
    assert out.startswith("env: ")
    env = json.loads(out.splitlines()[0][len("env: "):])
    assert {"nproc", "numpy", "blas", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
            "git_commit", "src_lines"} <= set(env)


@pytest.mark.parametrize("shape", sorted(TINY))
def test_traced_run_emits_every_per_layer_metric(shape, work, capsys):
    result = bench.run(TINY[shape], seed=3, seconds=0.0, trace=True,
                       work_root=work)
    out = capsys.readouterr().out
    assert result["correct"], "tracing must not change the campaign CSVs"
    metrics = result["metrics"]
    assert sorted(metrics) == sorted(m["name"] for m in SPEC["per_layer"])
    for m in SPEC["per_layer"]:
        assert metrics[m["name"]]["unit"] == m["unit"]
    assert metrics["nn.conv_calls"]["value"] > 0
    assert metrics["orchestrator.query_step_ms"]["value"] > 0
    assert f"design check {TINY[shape].name}:" in out


def test_tampered_csv_row_counts_as_failed(work):
    b = bench.Bench(TINY["ref_serial"], seed=4, trace=False, work_root=work)
    b.setup()
    b.run_campaign()
    tampered = b.run_campaign()
    assert b.failures() == (6, 0)
    path = os.path.join(tampered.out_dir, "results.csv")
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines(keepends=True)
    fields = lines[1].split(",")
    fields[9] = repr(float(fields[9]) + 1e-9)  # seg_loss of one epoch
    lines[1] = ",".join(fields)
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(lines)
    tampered.digests = bench.cell_digests(tampered.out_dir, b.run_ids)
    attempted, failed = b.failures()
    assert (attempted, failed) == (6, 1)


def test_query_time_column_is_not_hashed(work):
    b = bench.Bench(TINY["ref_serial"], seed=4, trace=False, work_root=work)
    b.setup()
    camp = b.run_campaign()
    path = os.path.join(camp.out_dir, "queries.csv")
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines(keepends=True)
    lines[1] = lines[1].rsplit(",", 1)[0] + ",12345.0\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(lines)
    assert bench.cell_digests(camp.out_dir, b.run_ids) == camp.digests


def test_jobs2_outputs_match_jobs1(work):
    b = bench.Bench(TINY["ref_serial"], seed=5, trace=False, work_root=work)
    b.setup()
    serial = b.run_campaign(jobs=1)
    parallel = b.run_campaign(jobs=2)
    assert None not in serial.digests.values()
    assert parallel.digests == serial.digests
    assert b.failures() == (6, 0)


def test_recorded_digest_is_enforced(work, monkeypatch, capsys):
    monkeypatch.setattr(bench, "DIGESTS_PATH", os.path.join(work, "digests.json"))
    wl = TINY["ref_serial"]
    assert bench.run(wl, seed=6, seconds=0.0, trace=False, record=True,
                     work_root=work)["correct"]
    assert bench.recorded_reference(wl.name, 6)[0] is not None
    assert bench.run(wl, seed=6, seconds=0.0, trace=False, work_root=work)["correct"]
    assert f"\nreference: recorded digests for {wl.name} seed 6\n" in capsys.readouterr().out

    with open(bench.DIGESTS_PATH, encoding="utf-8") as fh:
        table = json.load(fh)
    cells = table["digests"][wl.name]["6"]
    first = sorted(cells)[0]
    cells[first] = "0" * len(cells[first])
    with open(bench.DIGESTS_PATH, "w", encoding="utf-8") as fh:
        json.dump(table, fh)
    result = bench.run(wl, seed=6, seconds=0.0, trace=False, work_root=work)
    assert not result["correct"]
    assert result["failed"] == bench.MIN_CAMPAIGNS
    assert "failed_frac = 0.333333 1" in capsys.readouterr().out


def test_bare_checkout_fails_without_a_result(work):
    shutil.copy(os.path.join(bench.ROOT, "BENCHMARK.json"), work)
    for path in SPEC["paths"]:
        shutil.copytree(os.path.join(bench.ROOT, path), os.path.join(work, path),
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "ref_serial",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=work, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_rerecord_refuses_a_best_val_dsc_drop(work, monkeypatch):
    monkeypatch.setattr(bench, "DIGESTS_PATH", os.path.join(work, "digests.json"))
    bench.record_reference("w", 1, {"cell": "a"}, best_val_dsc=0.70)
    bench.record_reference("w", 1, {"cell": "b"}, best_val_dsc=0.699)
    with pytest.raises(bench.BenchError):
        bench.record_reference("w", 1, {"cell": "c"}, best_val_dsc=0.68)
    assert bench.recorded_reference("w", 1)[0] == {"cell": "b"}
