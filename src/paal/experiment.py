"""Experiment campaigns: flat config files, per-cell runs, CSV aggregation.

A campaign is the cross product strategies x budgets x seeds x folds. Every
cell runs independently and writes the rows its run returns, behind the
cell's own columns, as CSV fragments under ``<out>/cells/<run_id>/``, after
a ``cell.json`` of its ``Cell`` (the one home of the run's seed), its
``TrainConfig`` and crc32s of the dataset file and split. Its results.csv,
written last, marks it done. Every cell is settled before any runs: a done
cell is reused if its cell.json matches, and refuses the rerun otherwise.
The runner concatenates the fragments into the top-level
results/queries/calibration/annotations files in a fixed order.
``results.csv`` has one ``val_dsc_c<k>`` column per foreground class of the
dataset, ``k = 1 .. num_fg``.

``paal report`` reads those files into one row per run and writes group-bys:
``summary.csv`` by (strategy, budget), ``curves.csv`` by (strategy,
labeled_ratio), ``calibration_summary.csv`` by run_id, and ``distribution.csv``
by (strategy, class) over the annotation rows of the largest budget present.
Every file a campaign or report writes goes to ``<name>.tmp``, then is
renamed over ``<name>``, so an interrupted write never leaves half a file.

The config's required ``dataset`` key names a dataset file written by
``paal generate``; the results directory is ``paal run --out``.
"""

from __future__ import annotations

import concurrent.futures
import contextlib
import csv
import ctypes
import glob
import json
import os
import zlib
from collections import Counter
from dataclasses import MISSING, asdict, dataclass, field, fields
from fractions import Fraction
from operator import itemgetter

import numpy as np

from . import data as data_mod
from .metrics import pearson_r
from .nn import NumericalError
from .orchestrator import (CALIBRATION_COLUMNS, EPOCH_COLUMNS, QUERY_COLUMNS,
                           Cell, Evaluator, TrainConfig, run_active_learning)
from .strategies import STRATEGIES


class ConfigError(ValueError):
    """Bad experiment configuration (unknown keys, bad values, missing inputs)."""


class ResultsFormatError(ValueError):
    """A results file that ``paal report`` cannot read."""


_CELL_COLUMNS = ("run_id", "strategy", "budget", "seed", "fold")

# a config value's parser, by its field's annotation: lists are comma
# separated, and a list of names skips blank items
_PARSERS = {"int": int, "float": float, "str": str,
            "list[str]": lambda v: [s.strip() for s in v.split(",") if s.strip()],
            "list[int]": lambda v: [int(s) for s in v.split(",")],
            "list[float]": lambda v: [float(s) for s in v.split(",")]}


@dataclass
class ExperimentConfig:
    strategies: list[str]
    budgets: list[float]
    seeds: list[int]
    dataset: str
    iterations: list[int] = field(default_factory=lambda: [5])
    folds: list[int] = field(default_factory=lambda: list(range(data_mod.NUM_FOLDS)))
    split_seed: int = 7
    train: TrainConfig = field(default_factory=TrainConfig)

    def __post_init__(self):
        if not self.strategies or not self.seeds:
            raise ConfigError("need at least one strategy and one seed")
        bad = [s for s in self.strategies if s not in STRATEGIES]
        if bad:
            raise ConfigError(f"unknown strategies: {', '.join(bad)}")
        left = 1 - Fraction(str(self.train.init_ratio))  # 0.93 fits beside 0.07
        if not self.budgets or any(not (0.0 < b < 1.0 and Fraction(str(b)) <= left)
                                   for b in self.budgets):
            raise ConfigError("budgets must be ratios in (0, 1 - init_ratio], "
                              "the share left after the initial labeled set")
        if any(i < 1 for i in self.iterations):
            raise ConfigError("iterations must be >= 1")
        if len(self.iterations) == 1:
            self.iterations = self.iterations * len(self.budgets)
        if len(self.iterations) != len(self.budgets):
            raise ConfigError("iterations must match budgets (or be a single value)")
        if any(not 0 <= f < data_mod.NUM_FOLDS for f in self.folds):
            raise ConfigError(
                f"folds must be indices in 0..{data_mod.NUM_FOLDS - 1}")
        if any(s < 0 for s in self.seeds) or self.split_seed < 0:
            raise ConfigError("seeds and split_seed must be >= 0")


def parse_config_text(text: str) -> ExperimentConfig:
    """Parse the flat `key = value` format; unknown keys are an error. A
    key names an ``ExperimentConfig`` or ``TrainConfig`` field, and its
    value parses as that field's annotation."""
    types = {f.name: f.type for cls in (ExperimentConfig, TrainConfig)
             for f in fields(cls) if f.name != "train"}
    raw: dict[str, str] = {}
    unknown = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in types:
            unknown.append(key)
            continue
        raw[key] = value
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(sorted(set(unknown)))}")
    missing = [f.name for f in fields(ExperimentConfig) if f.name not in raw
               and f.default is MISSING and f.default_factory is MISSING]
    if missing:
        raise ConfigError(f"missing config keys: {', '.join(missing)}")

    try:
        values = {key: _PARSERS[types[key]](value) for key, value in raw.items()}
        train = {f.name: values.pop(f.name) for f in fields(TrainConfig)
                 if f.name in values}
        return ExperimentConfig(train=TrainConfig(**train), **values)
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad config value: {exc}") from exc


def load_config(path) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path} is not UTF-8 text: {exc}") from exc
    return parse_config_text(text)


def campaign_cells(config: ExperimentConfig) -> list[Cell]:
    """The campaign's cells; a config that gives two cells one run_id (a
    repeated value, or budgets equal to 6 significant digits) is refused."""
    cells = [Cell(strategy, budget, iters, seed, fold)
             for strategy in config.strategies
             for budget, iters in zip(config.budgets, config.iterations)
             for seed in config.seeds for fold in config.folds]
    repeated = [rid for rid, n in Counter(c.run_id for c in cells).items() if n > 1]
    if repeated:
        raise ConfigError(f"cells share a run_id: {', '.join(repeated)}; "
                          "list each strategy, budget, seed and fold once")
    return cells


def _headers(num_fg: int) -> dict[str, tuple[str, ...]]:
    """Each campaign CSV's columns: the cell's own, then the run's."""
    return {
        "results.csv": (*_CELL_COLUMNS, *EPOCH_COLUMNS,
                        *(f"val_dsc_c{k}" for k in range(1, num_fg + 1))),
        "queries.csv": ("run_id", *QUERY_COLUMNS),
        "calibration.csv": ("run_id", *CALIBRATION_COLUMNS),
        "annotations.csv": (*_CELL_COLUMNS, "class", "annotated_count"),
    }


@contextlib.contextmanager
def _replacing(path):
    """Yield ``<path>.tmp`` open for writing, and move it onto ``path`` only
    on a clean exit: an interrupted write never leaves half a file."""
    with open(path + ".tmp", "w", encoding="utf-8", newline="") as fh:
        yield fh
    os.replace(path + ".tmp", path)


def _is_done(cell_dir: str, setting: dict) -> bool:
    """True for a cell done under ``setting``, False for one not done; a cell
    done under other settings, or without a readable cell.json, raises."""
    if not os.path.exists(os.path.join(cell_dir, "results.csv")):
        return False
    try:
        with open(os.path.join(cell_dir, "cell.json"), "r", encoding="utf-8") as fh:
            if json.load(fh) == setting:
                return True
    except (OSError, ValueError):  # missing, or not JSON
        pass
    raise ConfigError(f"{cell_dir} was run with other settings, data or "
                      "split; use a new --out")


def run_cell(config: ExperimentConfig, cell: Cell, out_dir: str,
             dataset: data_mod.Dataset, split: tuple[np.ndarray, np.ndarray],
             setting: dict, evaluator: Evaluator | None = None,
             threads: int = 1) -> None:
    """Execute one cell on its fold's ``(train_ids, val_ids)``, its inference
    on ``threads`` threads and its validation partly in ``evaluator``, if
    given, then write its ``cell.json`` (``setting``) and its fragments.
    The first overflow, invalid operation or division by zero in the run,
    on any of its threads or in the evaluator, raises ``NumericalError``;
    underflow stays silent."""
    cell_dir = os.path.join(out_dir, "cells", cell.run_id)
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            report = run_active_learning(dataset, *split, cell, config.train,
                                         threads, evaluator)
    except FloatingPointError as exc:
        raise NumericalError(str(exc)) from exc
    # each picked sample counts once, under its highest class label
    picked = [row[1] for row in report.queries]  # the sample_id column
    counts = (np.bincount(dataset.masks[picked].max(axis=(1, 2)),
                          minlength=dataset.num_fg + 1) if picked else ())
    own = [cell.run_id, cell.strategy, f"{cell.budget:g}", cell.seed, cell.fold]
    fragments = {
        "queries.csv": [[cell.run_id, *row] for row in report.queries],
        "calibration.csv": [[cell.run_id, *row] for row in report.calibration],
        "annotations.csv": [[*own, c, int(n)] for c, n in enumerate(counts)],
        "results.csv": [[*own, *row] for row in report.epochs],
    }
    os.makedirs(cell_dir, exist_ok=True)
    with _replacing(os.path.join(cell_dir, "cell.json")) as fh:
        json.dump(setting, fh)
    # the done marker, results.csv, goes last: a cell cut short is rerun
    for name, rows in fragments.items():
        with _replacing(os.path.join(cell_dir, name)) as fh:
            csv.writer(fh, lineterminator="\n").writerows(rows)


# numpy's wheels bundle OpenBLAS here; the setter's name depends on the build
_OPENBLAS_LIBS = os.path.join(os.path.dirname(np.__file__), os.pardir,
                              "numpy.libs", "*openblas*")
_BLAS_THREAD_SETTERS = ("scipy_openblas_set_num_threads64_",
                        "openblas_set_num_threads")


def _one_blas_thread() -> None:
    """Run this process's OpenBLAS on one thread.

    Every process that runs cells calls it: each ``--jobs`` worker, as the
    process pool's initializer, or the campaign's own process when it runs
    the cells itself. A second BLAS thread spins on a core that a sibling
    worker or the cell's inference threads would use, and at the nets'
    shapes it buys training a few percent at most. A parent that hands its
    cells to workers keeps its threads. Does nothing where numpy bundles no
    OpenBLAS exporting either setter.
    """
    for path in sorted(glob.glob(_OPENBLAS_LIBS)):
        lib = ctypes.CDLL(path)
        for name in _BLAS_THREAD_SETTERS:
            if hasattr(lib, name):
                getattr(lib, name)(1)
                return


def run_campaign(config: ExperimentConfig, out_dir: str, jobs: int = 1) -> list[str]:
    """Run every cell that is not done, then merge the fragments. Every cell
    is settled before any runs: a done cell is reused if its ``cell.json``
    matches its setting, and refuses the whole campaign otherwise.

    When this process runs the cells itself with two or more inference
    threads, it forks one ``orchestrator.Evaluator`` before the first cell
    trains, and each cell scores in it the val DSC of every epoch that
    cannot change its next step (see ``run_active_learning``). The
    evaluator is closed and reaped on the way out, after success, an
    error or a Ctrl-C. ``--jobs`` workers fork no evaluator: each scores
    validation itself. No output depends on either."""
    cells = campaign_cells(config)
    dataset = data_mod.read_dataset(config.dataset)
    dataset_crc32 = 0  # the file's, read in 1 MiB blocks
    with open(config.dataset, "rb") as fh:
        while block := fh.read(1 << 20):
            dataset_crc32 = zlib.crc32(block, dataset_crc32)
    try:
        folds = data_mod.split_folds(len(dataset), config.split_seed)
    except ValueError as exc:
        raise ConfigError(f"{config.dataset}: {exc}") from exc
    runs = []  # run_cell's arguments, per cell left to run
    for cell in cells:
        split = folds[cell.fold]  # (train_ids, val_ids)
        setting = {"cell": asdict(cell), "train": asdict(config.train),
                   "dataset_crc32": dataset_crc32,
                   "split_crc32": zlib.crc32(split[1], zlib.crc32(split[0]))}
        if not _is_done(os.path.join(out_dir, "cells", cell.run_id), setting):
            runs.append((config, cell, out_dir, dataset, split, setting))
    # a fork pool starts every worker on the first submit: start no idle
    # ones. concurrent.futures loads the pool, and with it multiprocessing,
    # on first lookup, so a one-job run never loads either. Each worker's
    # inference threads get an equal share of the cores this process may use
    workers = min(jobs, len(runs))
    cores = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
             else os.cpu_count() or 1)
    threads = max(1, cores // max(workers, 1))
    if workers > 1:
        with concurrent.futures.ProcessPoolExecutor(
                max_workers=workers, initializer=_one_blas_thread) as pool:
            list(pool.map(run_cell, *zip(*runs), [None] * len(runs),
                          [threads] * len(runs)))
    elif runs:  # one worker: this process runs the cells
        _one_blas_thread()
        # a spare core scores validation in a process forked before any
        # cell trains, so its RSS holds no training heap
        with (Evaluator(dataset) if threads > 1
              else contextlib.nullcontext()) as evaluator:
            for args in runs:
                run_cell(*args, evaluator, threads)

    for name, header in _headers(dataset.num_fg).items():
        with _replacing(os.path.join(out_dir, name)) as fh:
            fh.write(",".join(header) + "\n")
            for cell in cells:
                frag = os.path.join(out_dir, "cells", cell.run_id, name)
                with open(frag, "r", encoding="utf-8") as src:
                    fh.write(src.read())
    return [cell.run_id for cell in cells]


def _read_csv(path) -> list[dict]:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def _group(items, key) -> dict:
    """``{key(item): [item, ...]}``, keys in first-seen order."""
    groups: dict = {}
    for item in items:
        groups.setdefault(key(item), []).append(item)
    return groups


def write_report(results_dir: str) -> None:
    """Aggregate a results directory into the report files the module names;
    a results file that lacks a column or a number raises ResultsFormatError."""
    def path(name):
        return os.path.join(results_dir, name)

    def by_number(group):  # a (strategy, number) key, the number by value
        return group[0][0], float(group[0][1])

    if not os.path.exists(path("results.csv")):
        raise FileNotFoundError(f"{path('results.csv')} not found; "
                                "run a campaign first")
    try:
        queries = _group(_read_csv(path("queries.csv")), itemgetter("run_id"))
        calibration = _group(_read_csv(path("calibration.csv")), itemgetter("run_id"))
        annotations = _read_csv(path("annotations.csv"))

        # one row per run: best val DSC over the run and at each labeled ratio,
        # one time per query event (every row of an iteration carries it), and
        # per-sample (predicted, actual) DSC pairs, each a mean over classes
        runs = {}
        for rid, rows in _group(_read_csv(path("results.csv")), itemgetter("run_id")).items():
            events = _group(queries.get(rid, ()), itemgetter("iteration"))
            samples = _group(calibration.get(rid, ()), lambda c: int(c["sample_id"]))
            runs[rid] = {
                "setting": (rows[-1]["strategy"], rows[-1]["budget"]),
                "best": max(float(r["val_dsc_mean"]) for r in rows),
                "at_ratio": {ratio: max(float(r["val_dsc_mean"]) for r in at) for ratio, at
                             in _group(rows, itemgetter("labeled_ratio")).items()},
                "times": [float(events[it][0]["query_time_ms"]) for it in sorted(events)],
                "pairs": [[float(np.mean([float(c[col]) for c in samples[s]]))
                           for col in ("predicted_dsc", "actual_dsc")]
                          for s in sorted(samples)]}

        summary = []
        settings = _group(sorted(runs), lambda rid: runs[rid]["setting"])
        for setting, rids in sorted(settings.items(), key=by_number):
            finals = [runs[r]["best"] for r in rids]
            times = [t for r in rids for t in runs[r]["times"]]
            summary.append([*setting, float(np.mean(finals)), float(np.std(finals)),
                            float(np.mean(times)) if times else None])
        curves = _group(((run["setting"][0], ratio, dsc) for run in runs.values()
                         for ratio, dsc in run["at_ratio"].items()), itemgetter(0, 1))
        # annotations per class at the largest budget present
        top = max((float(a["budget"]) for a in annotations), default=None)
        at_top = _group((a for a in annotations if float(a["budget"]) == top),
                        lambda a: (a["strategy"], int(a["class"])))
        counts = {key: sum(int(a["annotated_count"]) for a in rows)
                  for key, rows in sorted(at_top.items())}
        reports = {
            "summary.csv": ("strategy,budget,dsc_mean,dsc_std,query_time_mean", summary),
            "distribution.csv": ("strategy,class,annotated_count,ratio_vs_random", (
                [strategy, cls, n, n / ref if (ref := counts.get(("random", cls))) else None]
                for (strategy, cls), n in counts.items())),
            "curves.csv": ("strategy,labeled_ratio,dsc_mean", (
                [*key, float(np.mean([dsc for *_, dsc in group]))]
                for key, group in sorted(curves.items(), key=by_number))),
            "calibration_summary.csv": ("run_id,strategy,budget,n_samples,pearson_r", (
                [rid, *run["setting"], len(run["pairs"]),
                 pearson_r(*zip(*run["pairs"]))]
                for rid, run in sorted(runs.items()) if run["pairs"])),
        }
    except (csv.Error, KeyError, TypeError, ValueError) as exc:
        raise ResultsFormatError(f"malformed results in {results_dir}: {exc!r}") from exc
    for name, (header, body) in reports.items():
        with _replacing(path(name)) as fh:
            csv.writer(fh, lineterminator="\n").writerows([header.split(","), *body])
