"""End to end through `paal run`: reproducible CSVs, resume, class counts
and exit codes."""

import concurrent.futures
import csv
import ctypes
import glob
import json
import os
import platform
import signal
import struct
import subprocess
import sys
import types

import numpy as np
import pytest

import paal
from paal import cli, experiment, orchestrator
from paal.cli import (EXIT_CONFIG, EXIT_EVALUATOR, EXIT_IO, EXIT_NUMERICAL,
                      EXIT_OK, main)
from paal.data import (ClassSpec, Dataset, generate, read_dataset,
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


def python(args) -> subprocess.CompletedProcess:
    """A fresh interpreter that imports this ``paal``, its output captured."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(paal.__file__)))
    return subprocess.run([sys.executable, *args],
                          env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=120)


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


@pytest.mark.parametrize("strategies,jobs,rerun,pools", [
    ("random,paal_full", 4, False, [2]),
    ("random,paal_full", 2, False, [2]),
    ("random", 4, False, []),
    ("random,paal_full", 2, True, []),
], ids=["more_jobs_than_cells", "as_many_jobs_as_cells", "one_cell",
        "rerun_of_a_done_campaign"])
def test_jobs_start_no_more_workers_than_cells(tmp_path, monkeypatch, data_file,
                                               strategies, jobs, rerun, pools):
    if rerun:  # every cell is done: none is left to run
        assert paal_run(tmp_path, "run", data_file, 1, strategies)[0] == EXIT_OK
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
    proc = python(["-c", script])
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
    proc = python(["-c", script])
    lines = proc.stdout.splitlines()
    assert sorted(line for line in lines if line.startswith("worker")) == \
        ["worker 1", "worker 1"], proc.stderr
    assert lines[-1] == f"parent {EXIT_OK} True", proc.stderr


def test_a_one_job_campaign_runs_its_cells_on_one_blas_thread(tmp_path, data_file):
    getter = blas_thread_getter()
    if getter is None:
        pytest.skip("numpy bundles no OpenBLAS with a thread-count setter")
    config = tmp_path / "two.cfg"
    config.write_text(f"dataset = {data_file}\nstrategies = random,max_entropy\n"
                      + CAMPAIGN)
    argv = ["run", "--config", str(config), "--out", str(tmp_path / "out"),
            "--jobs", "1"]
    # the campaign's own process runs both cells; each reports its BLAS
    # thread count and the inference threads it was given, every core
    script = (
        "import ctypes\nfrom paal import experiment\nfrom paal.cli import main\n"
        f"path, name = {getter!r}.rsplit(':', 1)\n"
        "threads = getattr(ctypes.CDLL(path), name)\nrun_cell = experiment.run_cell\n"
        "def reporting_run_cell(*args):\n"
        "    print('cell', threads(), args[-1])\n"
        "    return run_cell(*args)\n"
        "experiment.run_cell = reporting_run_cell\n"
        f"print('code', main({argv!r}))\n")
    proc = python(["-c", script])
    lines = proc.stdout.splitlines()
    cores = len(os.sched_getaffinity(0))
    assert [line for line in lines if line.startswith("cell")] == \
        [f"cell 1 {cores}"] * 2, proc.stderr
    assert lines[-1] == f"code {EXIT_OK}", proc.stderr


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


@pytest.mark.parametrize("max_epochs", [2, 6])
@pytest.mark.parametrize("jobs", [1, 2])
def test_a_numerical_failure_exits_4_without_traceback(tmp_path, data_file, jobs,
                                                       max_epochs):
    # lr0 = 1e30 is finite, so the config takes it, and the first step at
    # it blows the weights up; the first overflow in the next forward pass
    # stops the run, even when that pass is the run's last evaluation, and
    # its one message line is all of stderr, with no numpy warning before it
    config = tmp_path / "huge_lr.cfg"
    config.write_text(f"dataset = {data_file}\nstrategies = random,paal_full\n"
                      + CAMPAIGN + f"max_epochs = {max_epochs}\nlr0 = 1e30\n")
    out = tmp_path / "out"
    proc = python(["-m", "paal", "run", "--config", str(config), "--out",
                   str(out), "--jobs", str(jobs)])
    assert proc.returncode == EXIT_NUMERICAL, proc.stderr
    assert proc.stderr == "numerical failure: overflow encountered in matmul\n"
    assert not glob.glob(str(out / "cells" / "*" / "results.csv"))


@pytest.fixture
def evaluators(monkeypatch):
    """A two-core host, where a one-job campaign forks an evaluator: the
    evaluators its cells ran beside, as they start."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1},
                        raising=False)
    seen = []
    run_cell = experiment.run_cell

    def recording_run_cell(*args):
        seen.append(args[-2])
        return run_cell(*args)

    monkeypatch.setattr(experiment, "run_cell", recording_run_cell)
    return seen


def at_epoch(monkeypatch, epoch, action):
    """Call ``action()`` as each run starts training ``epoch``."""
    train_epoch = orchestrator.train_epoch

    def train(*args):
        if args[4] == epoch:
            action()
        return train_epoch(*args)

    monkeypatch.setattr(orchestrator, "train_epoch", train)


@pytest.mark.parametrize("epoch", [0, 1],
                         ids=["before_training", "with_val_dsc_in_flight"])
def test_a_killed_evaluator_exits_5_with_one_line(tmp_path, capsys, monkeypatch,
                                                  data_file, evaluators, epoch):
    # random scores every epoch's val DSC in the evaluator, so the run finds
    # it gone when it sends the first epoch's weights or reads its reply
    at_epoch(monkeypatch, epoch,
             lambda: os.kill(evaluators[0].pid, signal.SIGKILL))
    code, out = paal_run(tmp_path, "run", data_file, strategies="random")
    assert code == EXIT_EVALUATOR
    assert capsys.readouterr().err == (
        f"evaluator failure: the validation evaluator (pid {evaluators[0].pid}) "
        "died: killed by signal 9\n")
    assert not glob.glob(str(out / "cells" / "*" / "results.csv"))


def test_an_interrupted_campaign_reaps_its_evaluator(tmp_path, monkeypatch,
                                                     data_file, evaluators):
    def interrupt():
        raise KeyboardInterrupt

    at_epoch(monkeypatch, 1, interrupt)  # with val(0) in the evaluator
    with pytest.raises(KeyboardInterrupt):
        paal_run(tmp_path, "run", data_file)
    assert evaluators
    with pytest.raises(ChildProcessError):  # no child, running or not
        os.waitpid(-1, os.WNOHANG)


def test_a_campaign_beside_an_evaluator_writes_the_same_bytes(
        tmp_path, monkeypatch, data_file, evaluators):
    code, beside = paal_run(tmp_path, "beside", data_file, 1, EVERY_STRATEGY)
    assert code == EXIT_OK and evaluators[0] is not None
    # on one core the campaign forks no evaluator
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    code, alone = paal_run(tmp_path, "alone", data_file, 1, EVERY_STRATEGY)
    assert code == EXIT_OK and evaluators[-1] is None
    assert csv_bytes(beside) == csv_bytes(alone)


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
    profile = (ClassSpec(0.7, intensity_range=(120.0, 220.0)),) * num_fg
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
    profile = (ClassSpec(0.7),) * 2
    write_file(tmp_path, generate(7, 60, 16, 16, profile=profile))
    capsys.readouterr()
    code, _ = paal_run(tmp_path, "run", path)
    err = capsys.readouterr().err
    assert code == EXIT_CONFIG
    assert err.startswith("config error:") and "new --out" in err
    assert "Traceback" not in err
    assert csv_bytes(out) == first


@pytest.mark.parametrize("extra", ["max_epochs = 3\n", "iterations = 1\n",
                                   "split_seed = 8\n"])
def test_rerun_with_another_setting_is_refused(tmp_path, capsys, data_file,
                                               extra):
    code, out = paal_run(tmp_path, "run", data_file)
    assert code == EXIT_OK
    first = csv_bytes(out)
    capsys.readouterr()
    code, _ = paal_run(tmp_path, "run", data_file, extra=extra)
    err = capsys.readouterr().err
    assert code == EXIT_CONFIG
    assert err.startswith("config error:") and "new --out" in err
    assert csv_bytes(out) == first


# jobs 1: a cell not yet run comes before the refused one; jobs 2: the
# refused cell comes first, and two cells not yet run follow it
@pytest.mark.parametrize("jobs,strategies", [(1, "paal_full,random"),
                                             (2, "random,paal_full,max_entropy")])
def test_a_refused_rerun_runs_no_cell(tmp_path, capsys, data_file, jobs,
                                      strategies):
    code, out = paal_run(tmp_path, "run", data_file, strategies="random")
    assert code == EXIT_OK
    files = {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}
    capsys.readouterr()
    code, _ = paal_run(tmp_path, "run", data_file, jobs, strategies,
                       extra="lr0 = 0.02\n")
    assert code == EXIT_CONFIG
    assert "new --out" in capsys.readouterr().err
    assert os.listdir(out / "cells") == ["random_b0.3_s0_f0"]
    assert {p: p.read_bytes() for p in out.rglob("*") if p.is_file()} == files


def test_a_done_cell_without_its_cell_json_is_refused(tmp_path, capsys,
                                                      data_file):
    code, out = paal_run(tmp_path, "run", data_file, strategies="random")
    assert code == EXIT_OK
    os.remove(out / "cells" / "random_b0.3_s0_f0" / "cell.json")
    capsys.readouterr()
    code, _ = paal_run(tmp_path, "run", data_file, strategies="random")
    assert code == EXIT_CONFIG
    assert "new --out" in capsys.readouterr().err


def test_a_rerun_with_the_same_settings_reuses_every_cell(tmp_path, monkeypatch,
                                                          data_file):
    code, out = paal_run(tmp_path, "run", data_file)
    assert code == EXIT_OK
    first = csv_bytes(out)
    setting = json.loads((out / "cells" / "random_b0.3_s0_f0" / "cell.json")
                         .read_text())
    assert setting["cell"] == {"strategy": "random", "budget": 0.3,
                               "iterations": 2, "seed": 0, "fold": 0}
    assert setting["train"]["max_epochs"] == 4
    assert set(setting) == {"cell", "train", "dataset_crc32", "split_crc32"}

    def no_run(*args):
        raise AssertionError("a done cell ran again")

    monkeypatch.setattr(experiment, "run_active_learning", no_run)
    code, _ = paal_run(tmp_path, "run", data_file)
    assert code == EXIT_OK
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
