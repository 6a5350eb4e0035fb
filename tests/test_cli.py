"""End to end through `paal run`: reproducible CSVs, resume, class counts
and exit codes."""

import concurrent.futures
import csv
import ctypes
import glob
import os
import platform
import struct
import subprocess
import sys
import types

import numpy as np
import pytest

import paal
from paal import cli, experiment
from paal.cli import EXIT_CONFIG, EXIT_IO, EXIT_OK, main
from paal.data import (ClassProfile, ClassSpec, Dataset, generate, read_dataset,
                       write_dataset)
from paal.strategies import STRATEGIES

CSV_FILES = ("results.csv", "queries.csv", "calibration.csv", "annotations.csv")
EVERY_STRATEGY = ",".join(STRATEGIES)

# 4 epochs, a query every epoch; on n=60 at 16x16 (48 train, 12 val)
CAMPAIGN = """\
budgets = 0.3
iterations = 2
seeds = 0
folds = 0
max_epochs = 4
early_stop = 4
warmup = 1
silent_period = 1
iq_patience = 0
query_interval = 1
lr0 = 0.01
"""


@pytest.fixture(scope="module")
def data_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "data.bin"
    write_dataset(path, generate(7, 60, 16, 16))
    return path


def paal_run(tmp_path, name, dataset_path, jobs=1,
             strategies="random,paal_full", extra=""):
    config = tmp_path / f"{name}.cfg"
    config.write_text(f"dataset = {dataset_path}\nstrategies = {strategies}\n"
                      + CAMPAIGN + extra)
    out = tmp_path / name
    code = main(["run", "--config", str(config), "--out", str(out),
                 "--jobs", str(jobs)])
    return code, out


def csv_bytes(out_dir) -> dict[str, bytes]:
    """Every campaign CSV, minus the wall-clock query_time_ms column."""
    files = {name: (out_dir / name).read_bytes() for name in CSV_FILES}
    assert files["queries.csv"].startswith(b"run_id,iteration,sample_id,"
                                           b"cluster,weight,query_time_ms\n")
    files["queries.csv"] = b"".join(
        line.rsplit(b",", 1)[0] + b"\n"
        for line in files["queries.csv"].splitlines())
    return files


def test_campaign_csvs_are_identical_across_reruns_and_jobs(tmp_path, data_file):
    runs = {}
    for name, jobs in (("first", 1), ("rerun", 1), ("jobs2", 2)):
        code, out = paal_run(tmp_path, name, data_file, jobs, EVERY_STRATEGY)
        assert code == EXIT_OK
        runs[name] = csv_bytes(out)
    assert runs["rerun"] == runs["first"]
    assert runs["jobs2"] == runs["first"]
    results = runs["first"]["results.csv"].decode().splitlines()
    assert len(results) == 1 + 4 * len(STRATEGIES)
    assert main(["report", "--out", str(tmp_path / "first")]) == EXIT_OK


@pytest.mark.parametrize("strategies,jobs,pools", [
    ("random,paal_full", 4, [2]),
    ("random,paal_full", 2, [2]),
    ("random", 4, []),
], ids=["more_jobs_than_cells", "as_many_jobs_as_cells", "one_cell"])
def test_jobs_start_no_more_workers_than_cells(tmp_path, monkeypatch, data_file,
                                               strategies, jobs, pools):
    started = []

    class RecordingPool:
        """Records its worker count and runs the cells in this process."""

        def __init__(self, max_workers, initializer=None):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    code, _ = paal_run(tmp_path, "run", data_file, jobs, strategies)
    assert code == EXIT_OK
    assert started == pools


def test_a_one_job_campaign_never_loads_the_process_pool(tmp_path, data_file):
    # multiprocessing alone adds about 2 MB to the process; --jobs 1 runs
    # its cells in the process and has no use for it
    config = tmp_path / "one.cfg"
    config.write_text(f"dataset = {data_file}\nstrategies = random\n" + CAMPAIGN)
    argv = ["run", "--config", str(config), "--out", str(tmp_path / "out"),
            "--jobs", "1"]
    script = ("import sys\nfrom paal.cli import main\n"
              f"code = main({argv!r})\n"
              "print(code, 'multiprocessing' in sys.modules)")
    src = os.path.dirname(os.path.dirname(os.path.abspath(paal.__file__)))
    proc = subprocess.run([sys.executable, "-c", script],
                          env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=120)
    assert proc.stdout.splitlines()[-1] == f"{EXIT_OK} False", proc.stderr


def blas_thread_getter() -> str | None:
    """The ``get_num_threads`` matching the setter the pool initializer
    finds in numpy's bundled OpenBLAS, as ``"<library path>:<symbol>"``."""
    for path in sorted(glob.glob(experiment._OPENBLAS_LIBS)):
        lib = ctypes.CDLL(path)
        for name in experiment._BLAS_THREAD_SETTERS:
            if hasattr(lib, name):
                return f"{path}:{name.replace('_set_', '_get_')}"
    return None


def test_jobs_workers_run_one_blas_thread(tmp_path, data_file):
    getter = blas_thread_getter()
    if getter is None:
        pytest.skip("numpy bundles no OpenBLAS with a thread-count setter")
    config = tmp_path / "two.cfg"
    config.write_text(f"dataset = {data_file}\nstrategies = random,max_entropy\n"
                      + CAMPAIGN)
    argv = ["run", "--config", str(config), "--out", str(tmp_path / "out"),
            "--jobs", "2"]
    # each cell reports its worker's BLAS thread count in one write, which
    # two workers on the one pipe cannot interleave; the forked workers find
    # the wrapper in __main__ by name
    script = (
        "import ctypes, os\nfrom paal import experiment\nfrom paal.cli import main\n"
        f"path, name = {getter!r}.rsplit(':', 1)\n"
        "threads = getattr(ctypes.CDLL(path), name)\n"
        "before = threads()\nrun_cell = experiment.run_cell\n"
        "def reporting_run_cell(*args):\n"
        "    os.write(1, f'worker {threads()}\\n'.encode())\n"
        "    return run_cell(*args)\n"
        "experiment.run_cell = reporting_run_cell\n"
        f"code = main({argv!r})\n"
        "print('parent', code, threads() == before)\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(paal.__file__)))
    proc = subprocess.run([sys.executable, "-c", script],
                          env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=120)
    lines = proc.stdout.splitlines()
    assert sorted(line for line in lines if line.startswith("worker")) == \
        ["worker 1", "worker 1"], proc.stderr
    assert lines[-1] == f"parent {EXIT_OK} True", proc.stderr


def assert_config_error(code, capsys):
    err = capsys.readouterr().err
    assert code == EXIT_CONFIG
    assert err.startswith("config error:")
    assert "Traceback" not in err
    return err


BAD_CONFIGS = {
    "budget_beyond_pool": "budgets = 1.0",
    "nan_budget": "budgets = nan",
    "inf_budget": "budgets = inf",
    "warmup_not_below_max_epochs": "warmup = 4",
    "silent_period_not_below_max_epochs": "silent_period = 4",
    "zero_iterations": "iterations = 0",
    "zero_batch_size": "batch_size = 0",
    "zero_query_interval": "query_interval = 0",
    "negative_seed": "seeds = -1",
    "negative_split_seed": "split_seed = -1",
    "inline_dataset_key": "data_n = 60",
    "repeated_seed": "seeds = 0,0",
    "repeated_strategy": "strategies = random,random",
    "budgets_equal_to_6_digits": "budgets = 0.3,0.3000001",
    "zero_max_epochs": "max_epochs = 0\nwarmup = -1\nsilent_period = -1",
    "negative_warmup": "warmup = -1",
    "negative_silent_period": "silent_period = -1",
    "negative_early_stop": "early_stop = -1",
    "negative_iq_patience": "iq_patience = -1",
    "zero_lr0": "lr0 = 0",
    "negative_lr0": "lr0 = -0.01",
    "nan_lr0": "lr0 = nan",
    "inf_lr0": "lr0 = inf",
    "negative_lr_min": "lr_min = -1",
    "lr_min_above_lr0": "lr_min = 0.1",
    "nan_lr_min": "lr_min = nan",
    "negative_weight_decay": "weight_decay = -0.1",
    "nan_weight_decay": "weight_decay = nan",
    "inf_weight_decay": "weight_decay = inf",
}


@pytest.mark.parametrize("override", list(BAD_CONFIGS.values()),
                         ids=list(BAD_CONFIGS))
def test_bad_config_exits_2_without_traceback(tmp_path, capsys, data_file,
                                              override):
    code, _ = paal_run(tmp_path, "bad", data_file, extra=override + "\n")
    assert_config_error(code, capsys)


def test_a_config_that_is_not_utf8_exits_2_naming_the_file(tmp_path, capsys,
                                                         data_file):
    config = tmp_path / "latin1.cfg"
    config.write_bytes(f"dataset = {data_file}\nstrategies = random\n".encode()
                       + CAMPAIGN.encode() + b"# caf\xe9 \xff\n")
    code = main(["run", "--config", str(config), "--out", str(tmp_path / "out")])
    assert str(config) in assert_config_error(code, capsys)
    assert not (tmp_path / "out").exists()


def test_a_config_without_a_dataset_exits_2(tmp_path, capsys):
    config = tmp_path / "nodata.cfg"
    config.write_text("strategies = random\n" + CAMPAIGN)
    code = main(["run", "--config", str(config), "--out", str(tmp_path / "out")])
    assert "missing config keys: dataset" in assert_config_error(code, capsys)


@pytest.mark.parametrize("argv", [["run", "--config", "campaign.cfg"],
                                  ["report"]], ids=["run", "report"])
def test_a_missing_out_exits_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    err = capsys.readouterr().err
    assert exc.value.code == EXIT_CONFIG
    assert "the following arguments are required: --out" in err
    assert "Traceback" not in err


def test_a_dataset_too_small_for_five_folds_exits_2(tmp_path, capsys):
    path = tmp_path / "four.bin"
    write_dataset(path, generate(7, 4, 16, 16))
    code, _ = paal_run(tmp_path, "small", path)
    assert "need at least 5 samples, got 4" in assert_config_error(code, capsys)


@pytest.mark.parametrize("args", [["generate", "--n", "-1"],
                                  ["generate", "--n", "5", "--height", "0"],
                                  ["generate", "--n", "5", "--seed", "-1"],
                                  ["run", "--config", "-", "--jobs", "0"]],
                         ids=["negative_n", "zero_height", "negative_seed",
                              "zero_jobs"])
def test_a_bad_command_line_number_exits_2(tmp_path, capsys, args):
    code = main(args + ["--out", str(tmp_path / "out")])
    err = assert_config_error(code, capsys)
    assert err.count("\n") == 1
    assert not (tmp_path / "out").exists()


def write_file(tmp_path, ds):
    path = tmp_path / "data.bin"
    write_dataset(path, ds)
    return path


def test_a_cell_cut_short_is_rerun(tmp_path, monkeypatch):
    path = write_file(tmp_path, generate(7, 60, 16, 16))
    code, clean = paal_run(tmp_path, "clean", path)
    assert code == EXIT_OK

    real_replace = os.replace
    failed = []

    def replace_failing_once(src, dst):
        if os.path.basename(dst) == "calibration.csv" and not failed:
            failed.append(dst)
            raise OSError("disk full")
        return real_replace(src, dst)

    monkeypatch.setattr(os, "replace", replace_failing_once)
    code, out = paal_run(tmp_path, "cut", path)
    assert code == EXIT_IO
    assert "cells" in failed[0]
    code, out = paal_run(tmp_path, "cut", path)
    assert code == EXIT_OK
    assert csv_bytes(out) == csv_bytes(clean)


@pytest.mark.parametrize("num_fg", [2, 4])
def test_class_columns_follow_the_dataset(tmp_path, num_fg):
    profile = ClassProfile((ClassSpec(0.7, intensity_range=(120.0, 220.0)),)
                           * num_fg)
    path = write_file(tmp_path, generate(7, 60, 16, 16, profile=profile))
    code, out = paal_run(tmp_path, "run", path)
    assert code == EXIT_OK
    tables = {}
    for name in CSV_FILES:
        with open(out / name, newline="") as fh:
            tables[name] = list(csv.reader(fh))
        header, *rows = tables[name]
        assert rows, name
        assert {len(row) for row in rows} == {len(header)}, name
    header, *rows = tables["results.csv"]
    classes = [f"val_dsc_c{k}" for k in range(1, num_fg + 1)]
    assert header[header.index("val_dsc_mean") + 1:] == classes
    assert len(rows) == 2 * 4
    for row in rows:
        values = dict(zip(header, row))
        assert float(values["val_dsc_mean"]) == pytest.approx(
            np.mean([float(values[c]) for c in classes]), rel=1e-12, abs=1e-15)
    assert main(["report", "--out", str(out)]) == EXIT_OK


# A random cell's picks come only from its RNG and the epoch grid, so its
# queries (less the wall-clock query_time_ms) and annotation counts are the
# same bytes whatever the float arithmetic does.
RANDOM_QUERIES = """\
random_b0.3_s0_f0,1,2,-1,
random_b0.3_s0_f0,1,8,-1,
random_b0.3_s0_f0,1,9,-1,
random_b0.3_s0_f0,1,17,-1,
random_b0.3_s0_f0,1,31,-1,
random_b0.3_s0_f0,1,42,-1,
random_b0.3_s0_f0,1,47,-1,
random_b0.3_s0_f0,2,4,-1,
random_b0.3_s0_f0,2,7,-1,
random_b0.3_s0_f0,2,11,-1,
random_b0.3_s0_f0,2,21,-1,
random_b0.3_s0_f0,2,23,-1,
random_b0.3_s0_f0,2,46,-1,
random_b0.3_s0_f0,2,49,-1,
"""
RANDOM_ANNOTATIONS = """\
random_b0.3_s0_f0,random,0.3,0,0,0,0
random_b0.3_s0_f0,random,0.3,0,0,1,4
random_b0.3_s0_f0,random,0.3,0,0,2,10
random_b0.3_s0_f0,random,0.3,0,0,3,0
"""


@pytest.mark.parametrize("extra,queries,annotations", [
    ("", RANDOM_QUERIES, RANDOM_ANNOTATIONS),
    ("max_epochs = 1\nwarmup = 0\nsilent_period = 0\n", "", ""),
], ids=["two_queries", "no_query"])
def test_a_random_cell_writes_the_pinned_fragments(tmp_path, data_file, extra,
                                                   queries, annotations):
    code, out = paal_run(tmp_path, "run", data_file, strategies="random",
                         extra=extra)
    assert code == EXIT_OK
    cell = out / "cells" / "random_b0.3_s0_f0"
    written = (cell / "queries.csv").read_text().splitlines()
    assert "".join(line.rsplit(",", 1)[0] + "\n" for line in written) == queries
    assert (cell / "annotations.csv").read_text() == annotations


def test_the_budget_is_counted_from_its_decimal_value(tmp_path):
    # 0.29 * 100 is 28.999999999999996 in floats
    path = write_file(tmp_path, generate(7, 125, 16, 16))  # 100 train ids
    code, out = paal_run(tmp_path, "run", path, strategies="random",
                         extra="budgets = 0.29\niterations = 1\n")
    assert code == EXIT_OK
    with open(out / "annotations.csv", newline="") as fh:
        counts = [int(row["annotated_count"]) for row in csv.DictReader(fh)]
    assert sum(counts) == 29


def test_rerun_on_a_different_class_count_is_refused(tmp_path, capsys):
    path = write_file(tmp_path, generate(7, 60, 16, 16))
    code, out = paal_run(tmp_path, "run", path)
    assert code == EXIT_OK
    first = csv_bytes(out)
    profile = ClassProfile((ClassSpec(0.7),) * 2)
    write_file(tmp_path, generate(7, 60, 16, 16, profile=profile))
    capsys.readouterr()
    code, _ = paal_run(tmp_path, "run", path)
    err = capsys.readouterr().err
    assert code == EXIT_CONFIG
    assert err.startswith("config error:") and "new --out" in err
    assert "Traceback" not in err
    assert csv_bytes(out) == first


def old_format_file(tmp_path):
    ds = generate(7, 60, 16, 16)
    path = tmp_path / "old.bin"
    path.write_bytes(b"PAALDS1\x00" + struct.pack("<III", 60, 16, 16)
                     + np.stack((ds.images, ds.masks), axis=1).tobytes())
    return path


def label_above_class_count_file(tmp_path):
    ds = generate(7, 60, 16, 16)
    return write_file(tmp_path, Dataset(ds.images, ds.masks, num_fg=2))


def more_classes_than_u8_masks_hold_file(tmp_path):
    ds = generate(7, 60, 8, 8)
    return write_file(tmp_path, Dataset(ds.images, ds.masks, num_fg=300))


@pytest.mark.parametrize("make_file", [old_format_file,
                                       label_above_class_count_file,
                                       more_classes_than_u8_masks_hold_file])
def test_bad_dataset_file_exits_3_without_traceback(tmp_path, capsys,
                                                    make_file):
    code, _ = paal_run(tmp_path, "bad", make_file(tmp_path))
    err = capsys.readouterr().err
    assert code == EXIT_IO
    assert err.startswith("i/o error:")
    assert "Traceback" not in err


# one run with one query event, in the columns `paal report` reads
REPORT_FILES = {
    "results.csv": "run_id,strategy,budget,labeled_ratio,val_dsc_mean\n"
                   "random_b0.3_s0_f0,random,0.3,0.1,0.5\n",
    "queries.csv": "run_id,iteration,sample_id,query_time_ms\n"
                   "random_b0.3_s0_f0,1,3,1.5\n",
    "calibration.csv": "run_id,sample_id,class,predicted_dsc,actual_dsc\n",
    "annotations.csv": "run_id,strategy,budget,class,annotated_count\n"
                       "random_b0.3_s0_f0,random,0.3,1,3\n",
}


@pytest.mark.parametrize("name,old,new", [
    ("results.csv", ",0.5\n", ",abc\n"),
    ("queries.csv", ",query_time_ms\n", ",time_ms\n"),
    ("annotations.csv", ",1,3\n", "\n"),
], ids=["non_numeric_dsc", "missing_query_time_column", "short_row"])
def test_a_malformed_results_file_exits_3_naming_the_directory(tmp_path, capsys,
                                                               name, old, new):
    for file, text in REPORT_FILES.items():
        (tmp_path / file).write_text(text)
    assert main(["report", "--out", str(tmp_path)]) == EXIT_OK
    capsys.readouterr()
    (tmp_path / name).write_text(REPORT_FILES[name].replace(old, new))
    code = main(["report", "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == EXIT_IO
    assert err.startswith("i/o error:") and str(tmp_path) in err
    assert "Traceback" not in err


GENERATE_STDOUT = """\
wrote 40 samples (16x16) to {out}
  class 1: present in 90.0% of images
  class 2: present in 50.0% of images
  class 3: present in 7.5% of images
"""


def test_generate_prints_the_pinned_class_summary(tmp_path, capsys):
    out = tmp_path / "g.bin"
    assert main(["generate", "--n", "40", "--seed", "3", "--height", "16",
                 "--width", "16", "--out", str(out)]) == EXIT_OK
    assert capsys.readouterr().out == GENERATE_STDOUT.format(out=out)
    assert main(["generate", "--n", "0", "--out", str(out)]) == EXIT_OK
    assert capsys.readouterr().out == f"wrote 0 samples (32x32) to {out}\n"


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="needs glibc")
def test_the_heap_pin_is_applied_on_glibc():
    # mallopt returns 0, and raises nothing, for a value it refuses
    assert cli._pin_heap() == (1, 1)


def test_main_pins_the_heap(tmp_path, monkeypatch):
    calls = []

    def mallopt(param, value):
        calls.append((param, value))
        return 1

    monkeypatch.setattr(cli.ctypes, "CDLL",
                        lambda name: types.SimpleNamespace(mallopt=mallopt))
    assert main(["report", "--out", str(tmp_path / "missing")]) == EXIT_IO
    assert calls == [(-3, 32 << 20), (-1, 128 << 20)]  # mmap, then trim


def _no_libc(name):
    raise OSError("no C library")


def _libc_without_mallopt(name):
    return object()


@pytest.mark.parametrize("cdll", [_no_libc, _libc_without_mallopt],
                         ids=["cdll_raises", "no_mallopt"])
def test_the_cli_runs_without_mallopt(tmp_path, monkeypatch, cdll):
    monkeypatch.setattr(cli.ctypes, "CDLL", cdll)
    assert cli._pin_heap() is None
    assert main(["generate", "--n", "5", "--height", "8", "--width", "8",
                 "--out", str(tmp_path / "d.bin")]) == EXIT_OK
    assert len(read_dataset(tmp_path / "d.bin")) == 5
