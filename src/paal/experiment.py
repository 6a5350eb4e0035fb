"""Experiment campaigns: flat config files, per-cell runs, CSV aggregation.

A campaign is the cross product strategies x budgets x seeds x folds. Every
cell runs independently and writes the rows its run returns, behind the
cell's own columns, as CSV fragments under ``<out>/cells/<run_id>/`` (its
results.csv, written last, marks the cell done, so interrupted campaigns
resume); the runner concatenates the fragments into the top-level
results/queries/calibration/annotations files in a fixed order.
``results.csv`` has one ``val_dsc_c<k>`` column per foreground class of the
dataset, ``k = 1 .. num_fg``.

The config's required ``dataset`` key names a dataset file written by
``paal generate``; the results directory is ``paal run --out``.
"""

from __future__ import annotations

import csv
import os
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import MISSING, dataclass, field, fields, replace
from fractions import Fraction
from itertools import repeat

import numpy as np

from . import data as data_mod
from .metrics import pearson_r
from .orchestrator import (CALIBRATION_COLUMNS, EPOCH_COLUMNS, QUERY_COLUMNS,
                           TrainConfig, run_active_learning)
from .strategies import STRATEGIES


class ConfigError(ValueError):
    """Bad experiment configuration (unknown keys, bad values, missing inputs)."""


_CELL_COLUMNS = ("run_id", "strategy", "budget", "seed", "fold")

# training key -> the type of its TrainConfig default, which parses its value
_TRAIN_KEYS = {f.name: type(f.default) for f in fields(TrainConfig)
               if f.name != "seed"}


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
    """Parse the flat `key = value` format; unknown keys are an error."""
    known = {f.name for f in fields(ExperimentConfig)} - {"train"} | set(_TRAIN_KEYS)
    raw: dict[str, str] = {}
    unknown = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in known:
            unknown.append(key)
            continue
        raw[key] = value
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(sorted(set(unknown)))}")
    missing = [f.name for f in fields(ExperimentConfig) if f.name not in raw
               and f.default is MISSING and f.default_factory is MISSING]
    if missing:
        raise ConfigError(f"missing config keys: {', '.join(missing)}")

    kwargs: dict = {}
    train: dict = {}
    try:
        for key, value in raw.items():
            if key in _TRAIN_KEYS:
                train[key] = _TRAIN_KEYS[key](value)
            elif key == "strategies":
                kwargs[key] = [v.strip() for v in value.split(",") if v.strip()]
            elif key == "budgets":
                kwargs[key] = [float(v) for v in value.split(",")]
            elif key in ("seeds", "iterations", "folds"):
                kwargs[key] = [int(v) for v in value.split(",")]
            elif key == "split_seed":
                kwargs[key] = int(value)
            else:
                kwargs[key] = value
        return ExperimentConfig(train=TrainConfig(**train), **kwargs)
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad config value: {exc}") from exc


def load_config(path) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.read())


@dataclass(frozen=True)
class Cell:
    strategy: str
    budget: float
    iterations: int
    seed: int
    fold: int

    @property
    def run_id(self) -> str:
        return f"{self.strategy}_b{self.budget:g}_s{self.seed}_f{self.fold}"


def campaign_cells(config: ExperimentConfig) -> list[Cell]:
    """The campaign's cells; a config that gives two cells one run_id (a
    repeated value, or budgets equal to 6 significant digits) is refused."""
    cells = []
    for strategy in config.strategies:
        for budget, iters in zip(config.budgets, config.iterations):
            for seed in config.seeds:
                for fold in config.folds:
                    cells.append(Cell(strategy, budget, iters, seed, fold))
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


def run_cell(config: ExperimentConfig, cell: Cell, out_dir: str,
             dataset: data_mod.Dataset,
             split: tuple[np.ndarray, np.ndarray]) -> str:
    """Execute one cell on its fold's ``(train_ids, val_ids)`` and write its
    fragments; skips if already done, and refuses a done cell whose rows lack
    one column per class of ``dataset``."""
    cell_dir = os.path.join(out_dir, "cells", cell.run_id)
    done_marker = os.path.join(cell_dir, "results.csv")
    if os.path.exists(done_marker):
        with open(done_marker, "r", encoding="utf-8", newline="") as fh:
            row = next(csv.reader(fh), [])
        if row and len(row) != len(_headers(dataset.num_fg)["results.csv"]):
            raise ConfigError(f"{done_marker} was run on data with another "
                              "class count; use a new --out")
        return cell.run_id
    train_ids, val_ids = split
    # counted from the budget's decimal value, so 0.29 of 100 spends 29
    budget_count = int(Fraction(str(cell.budget)) * len(train_ids))
    report = run_active_learning(dataset, train_ids, val_ids, cell.strategy,
                                 budget_count, cell.iterations,
                                 replace(config.train, seed=cell.seed),
                                 fold_index=cell.fold)
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
    # the done marker, results.csv, goes last: a cell cut short is rerun
    for name, rows in fragments.items():
        tmp = os.path.join(cell_dir, name + ".tmp")
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows(rows)
        os.replace(tmp, os.path.join(cell_dir, name))
    return cell.run_id


def run_campaign(config: ExperimentConfig, out_dir: str, jobs: int = 1) -> list[str]:
    """Run every cell (resuming completed ones) and merge the fragments."""
    cells = campaign_cells(config)
    dataset = data_mod.read_dataset(config.dataset)
    try:
        folds = data_mod.split_folds(len(dataset), config.split_seed)
    except ValueError as exc:
        raise ConfigError(f"{config.dataset}: {exc}") from exc
    splits = [folds[cell.fold] for cell in cells]
    os.makedirs(out_dir, exist_ok=True)
    # a fork pool starts every worker on the first submit: start no idle ones
    workers = min(jobs, len(cells))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            list(pool.map(run_cell, repeat(config), cells, repeat(out_dir),
                          repeat(dataset), splits))
    else:
        for cell, split in zip(cells, splits):
            run_cell(config, cell, out_dir, dataset, split)

    for name, header in _headers(dataset.num_fg).items():
        out_path = os.path.join(out_dir, name)
        tmp = out_path + ".tmp"
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            fh.write(",".join(header) + "\n")
            for cell in cells:
                frag = os.path.join(out_dir, "cells", cell.run_id, name)
                with open(frag, "r", encoding="utf-8") as src:
                    fh.write(src.read())
        os.replace(tmp, out_path)
    return [cell.run_id for cell in cells]


def _read_csv(path) -> list[dict]:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def _write_csv(path, header: str, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header.split(","))
        writer.writerows(rows)


def write_report(results_dir: str) -> None:
    """Aggregate a results directory into summary/distribution/curves/calibration CSVs."""
    results_path = os.path.join(results_dir, "results.csv")
    if not os.path.exists(results_path):
        raise FileNotFoundError(f"{results_path} not found; run a campaign first")
    rows = _read_csv(results_path)
    queries = _read_csv(os.path.join(results_dir, "queries.csv"))
    calibration = _read_csv(os.path.join(results_dir, "calibration.csv"))
    annotations = _read_csv(os.path.join(results_dir, "annotations.csv"))

    # best validation DSC per run, over the run and at each labeled ratio
    run_meta: dict[str, tuple[str, str]] = {}
    best_dsc: dict[str, float] = {}
    per_ratio: dict[tuple[str, str], dict[str, float]] = {}
    for r in rows:
        rid = r["run_id"]
        run_meta[rid] = (r["strategy"], r["budget"])
        v = float(r["val_dsc_mean"])
        best_dsc[rid] = max(best_dsc.get(rid, v), v)
        runs = per_ratio.setdefault((r["strategy"], r["labeled_ratio"]), {})
        runs[rid] = max(runs.get(rid, v), v)

    # one time per query event: every row of a (run, iteration) carries it
    event_time: dict[tuple[str, str], float] = {}
    for q in queries:
        event_time.setdefault((q["run_id"], q["iteration"]),
                              float(q["query_time_ms"]))

    groups: dict[tuple[str, str], list[str]] = {}
    for rid, meta in run_meta.items():
        groups.setdefault(meta, []).append(rid)
    summary = []
    for (strategy, budget) in sorted(groups, key=lambda m: (m[0], float(m[1]))):
        rids = sorted(groups[(strategy, budget)])
        finals = [best_dsc[r] for r in rids]
        times = [t for (rid, _), t in sorted(event_time.items()) if rid in rids]
        summary.append([strategy, budget, float(np.mean(finals)),
                        float(np.std(finals)),
                        float(np.mean(times)) if times else None])
    _write_csv(os.path.join(results_dir, "summary.csv"),
               "strategy,budget,dsc_mean,dsc_std,query_time_mean", summary)

    # annotation distribution at the largest budget present
    max_budget = max((float(a["budget"]) for a in annotations), default=None)
    dist: dict[tuple[str, int], int] = {}
    for a in annotations:
        if float(a["budget"]) != max_budget:
            continue
        key = (a["strategy"], int(a["class"]))
        dist[key] = dist.get(key, 0) + int(a["annotated_count"])
    distribution = []
    for (strategy, cls), count in sorted(dist.items()):
        ref = dist.get(("random", cls))
        distribution.append([strategy, cls, count, count / ref if ref else None])
    _write_csv(os.path.join(results_dir, "distribution.csv"),
               "strategy,class,annotated_count,ratio_vs_random", distribution)

    # DSC as a function of labeled ratio, averaged over runs
    _write_csv(os.path.join(results_dir, "curves.csv"),
               "strategy,labeled_ratio,dsc_mean",
               [[strategy, ratio, float(np.mean(list(runs.values())))]
                for (strategy, ratio), runs in sorted(
                    per_ratio.items(), key=lambda kv: (kv[0][0], float(kv[0][1])))])

    # accuracy-predictor calibration per run (per-sample mean over classes)
    per_run: dict[str, dict[int, list[tuple[float, float]]]] = {}
    for c in calibration:
        per_run.setdefault(c["run_id"], {}).setdefault(
            int(c["sample_id"]), []).append(
                (float(c["predicted_dsc"]), float(c["actual_dsc"])))
    calibration_rows = []
    for rid in sorted(per_run):
        pairs = per_run[rid]
        pred = [float(np.mean([p for p, _ in pairs[s]])) for s in sorted(pairs)]
        act = [float(np.mean([a for _, a in pairs[s]])) for s in sorted(pairs)]
        r = pearson_r(pred, act) if len(pred) >= 2 else 0.0
        calibration_rows.append([rid, *run_meta.get(rid, ("", "")), len(pred), r])
    _write_csv(os.path.join(results_dir, "calibration_summary.csv"),
               "run_id,strategy,budget,n_samples,pearson_r", calibration_rows)
