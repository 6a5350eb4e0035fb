"""Experiment campaigns: flat config files, per-cell runs, CSV aggregation.

A campaign is the cross product strategies x budgets x seeds x folds. Every
cell runs independently, writes its own CSV fragments under
``<out>/cells/<run_id>/`` (presence of the fragment marks the cell done, so
interrupted campaigns resume), and the runner concatenates the fragments
into the top-level results/queries/calibration files in a fixed order.
"""

from __future__ import annotations

import csv
import io
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields

import numpy as np

from . import data as data_mod
from .metrics import pearson_r
from .orchestrator import RunReport, TrainConfig, run_active_learning
from .strategies import STRATEGIES


class ConfigError(ValueError):
    """Bad experiment configuration (unknown keys, bad values, missing inputs)."""


RESULTS_HEADER = ("run_id,strategy,budget,seed,fold,epoch,iteration,"
                  "labeled_count,labeled_ratio,seg_loss,ap_loss,val_dsc_mean,"
                  "val_dsc_c1,val_dsc_c2,val_dsc_c3")
QUERIES_HEADER = "run_id,iteration,sample_id,cluster,weight,query_time_ms"
CALIBRATION_HEADER = "run_id,sample_id,class,predicted_dsc,actual_dsc"
ANNOTATIONS_HEADER = "run_id,strategy,budget,seed,fold,class,annotated_count"

_INT_KEYS = ("data_n", "data_h", "data_w", "data_seed", "split_seed",
             "max_epochs", "early_stop", "batch_size", "silent_period",
             "iq_patience", "query_interval", "warmup")
_FLOAT_KEYS = ("init_ratio", "lr0", "lr_min", "weight_decay")


@dataclass
class ExperimentConfig:
    strategies: list[str]
    budgets: list[float]
    seeds: list[int]
    iterations: list[int] = field(default_factory=lambda: [5])
    folds: list[int] = field(default_factory=lambda: [0, 1, 2, 3, 4])
    dataset: str | None = None
    data_n: int | None = None
    data_h: int = 32
    data_w: int = 32
    data_seed: int = 7
    split_seed: int = 7
    out: str | None = None
    init_ratio: float = 0.05
    max_epochs: int = 120
    early_stop: int = 15
    batch_size: int = 16
    silent_period: int = 5
    iq_patience: int = 10
    query_interval: int = 5
    warmup: int = 10
    lr0: float = 1e-3
    lr_min: float = 1e-6
    weight_decay: float = 1e-4

    def __post_init__(self):
        if not self.strategies or not self.seeds:
            raise ConfigError("need at least one strategy and one seed")
        bad = [s for s in self.strategies if s not in STRATEGIES]
        if bad:
            raise ConfigError(f"unknown strategies: {', '.join(bad)}")
        if not 0.0 < self.init_ratio < 1.0:
            raise ConfigError("init_ratio must be in (0, 1)")
        if not self.budgets or any(not 0.0 < b <= 1.0 - self.init_ratio
                                   for b in self.budgets):
            raise ConfigError("budgets must be ratios in (0, 1 - init_ratio], "
                              "the share left after the initial labeled set")
        if self.warmup >= self.max_epochs:
            raise ConfigError("warmup must be smaller than max_epochs")
        if self.silent_period >= self.max_epochs:
            raise ConfigError("silent_period must be smaller than max_epochs")
        if len(self.iterations) == 1:
            self.iterations = self.iterations * len(self.budgets)
        if len(self.iterations) != len(self.budgets):
            raise ConfigError("iterations must match budgets (or be a single value)")
        if any(not 0 <= f <= 4 for f in self.folds):
            raise ConfigError("folds must be indices in 0..4")
        if self.dataset is None and self.data_n is None:
            raise ConfigError("config needs either 'dataset' or 'data_n'")

    def train_config(self, seed: int) -> TrainConfig:
        return TrainConfig(
            max_epochs=self.max_epochs, early_stop_tolerance=self.early_stop,
            silent_period=self.silent_period, iq_patience=self.iq_patience,
            baseline_query_interval=self.query_interval,
            batch_size=self.batch_size, lr0=self.lr0, lr_min=self.lr_min,
            warmup=self.warmup, weight_decay=self.weight_decay,
            init_ratio=self.init_ratio, seed=seed)

    def load_dataset(self) -> data_mod.Dataset:
        if self.dataset is not None:
            return data_mod.read_dataset(self.dataset)
        return data_mod.generate(self.data_seed, self.data_n,
                                 self.data_h, self.data_w)


def parse_config_text(text: str) -> ExperimentConfig:
    """Parse the flat `key = value` format; unknown keys are an error."""
    known = {f.name for f in fields(ExperimentConfig)}
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

    kwargs: dict = {}
    try:
        for key, value in raw.items():
            if key == "strategies":
                kwargs[key] = [v.strip() for v in value.split(",") if v.strip()]
            elif key == "budgets":
                kwargs[key] = [float(v) for v in value.split(",")]
            elif key in ("seeds", "iterations", "folds"):
                kwargs[key] = [int(v) for v in value.split(",")]
            elif key in _INT_KEYS:
                kwargs[key] = int(value)
            elif key in _FLOAT_KEYS:
                kwargs[key] = float(value)
            else:
                kwargs[key] = value
        return ExperimentConfig(**kwargs)
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad config value: {exc}") from exc


def load_config(path) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.read())


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


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
    cells = []
    for strategy in config.strategies:
        for budget, iters in zip(config.budgets, config.iterations):
            for seed in config.seeds:
                for fold in config.folds:
                    cells.append(Cell(strategy, budget, iters, seed, fold))
    return cells


def _cell_rows(cell: Cell, report: RunReport) -> tuple[str, ...]:
    """Render one run's report into the four CSV fragments."""
    bufs = [io.StringIO() for _ in _CELL_FILES]
    results, queries, calibration, annotations = (
        csv.writer(buf, lineterminator="\n") for buf in bufs)
    budget = f"{cell.budget:g}"
    for rec in report.epochs:
        cls = list(rec.val_dsc_class[:3]) + [None] * max(0, 3 - len(rec.val_dsc_class))
        results.writerow([cell.run_id, cell.strategy, budget, cell.seed,
                          cell.fold, rec.epoch, rec.iteration, rec.labeled_count,
                          rec.labeled_count / report.pool_size, rec.seg_loss,
                          rec.ap_loss, rec.val_dsc_mean, *cls])

    for q in report.queries:
        for i, sid in enumerate(q.selected):
            cluster = int(q.clusters[i]) if q.clusters is not None else -1
            weight = float(q.weights[i]) if q.weights is not None else None
            queries.writerow([cell.run_id, q.iteration, int(sid), cluster,
                              weight, q.time_ms])

    if report.calibration_ids is not None:
        for i, sid in enumerate(report.calibration_ids):
            for j in range(report.calibration_pred.shape[1]):
                calibration.writerow([cell.run_id, int(sid), j + 1,
                                      float(report.calibration_pred[i, j]),
                                      float(report.calibration_actual[i, j])])

    totals: dict[int, int] = {}
    for q in report.queries:
        for c, n in q.class_counts.items():
            totals[c] = totals.get(c, 0) + n
    for c in sorted(totals):
        annotations.writerow([cell.run_id, cell.strategy, budget, cell.seed,
                              cell.fold, c, totals[c]])
    return tuple(buf.getvalue() for buf in bufs)


_CELL_FILES = ("results.csv", "queries.csv", "calibration.csv", "annotations.csv")


def run_cell(config: ExperimentConfig, cell: Cell, out_dir: str) -> str:
    """Execute one cell and write its fragments; skips if already done."""
    cell_dir = os.path.join(out_dir, "cells", cell.run_id)
    done_marker = os.path.join(cell_dir, "results.csv")
    if os.path.exists(done_marker):
        return cell.run_id
    dataset = config.load_dataset()
    split = data_mod.split_folds(len(dataset), config.split_seed)
    train_ids, val_ids = split[cell.fold]
    budget_count = int(cell.budget * len(train_ids))
    cfg = config.train_config(cell.seed)
    report = run_active_learning(dataset, train_ids, val_ids, cell.strategy,
                                 budget_count, cell.iterations, cfg,
                                 fold_index=cell.fold)
    os.makedirs(cell_dir, exist_ok=True)
    fragments = _cell_rows(cell, report)
    for name, content in zip(_CELL_FILES, fragments):
        tmp = os.path.join(cell_dir, name + ".tmp")
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            fh.write(content)
        os.replace(tmp, os.path.join(cell_dir, name))
    return cell.run_id


def _run_cell_star(args):
    return run_cell(*args)


def run_campaign(config: ExperimentConfig, out_dir: str, jobs: int = 1) -> list[str]:
    """Run every cell (resuming completed ones) and merge the fragments."""
    cells = campaign_cells(config)
    os.makedirs(out_dir, exist_ok=True)
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            list(pool.map(_run_cell_star,
                          [(config, cell, out_dir) for cell in cells]))
    else:
        for cell in cells:
            run_cell(config, cell, out_dir)

    headers = (RESULTS_HEADER, QUERIES_HEADER, CALIBRATION_HEADER,
               ANNOTATIONS_HEADER)
    for name, header in zip(_CELL_FILES, headers):
        out_path = os.path.join(out_dir, name)
        tmp = out_path + ".tmp"
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            fh.write(header + "\n")
            for cell in cells:
                frag = os.path.join(out_dir, "cells", cell.run_id, name)
                with open(frag, "r", encoding="utf-8") as src:
                    fh.write(src.read())
        os.replace(tmp, out_path)
    return [cell.run_id for cell in cells]


def _read_csv(path) -> list[dict]:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def _pop_std(values) -> float:
    arr = np.asarray(values, dtype=np.float64)
    return float(np.sqrt(np.mean((arr - arr.mean()) ** 2)))


def write_report(results_dir: str) -> None:
    """Aggregate a results directory into summary/distribution/curves/calibration CSVs."""
    results_path = os.path.join(results_dir, "results.csv")
    if not os.path.exists(results_path):
        raise FileNotFoundError(f"{results_path} not found; run a campaign first")
    rows = _read_csv(results_path)
    queries = _read_csv(os.path.join(results_dir, "queries.csv"))
    calibration = _read_csv(os.path.join(results_dir, "calibration.csv"))
    annotations = _read_csv(os.path.join(results_dir, "annotations.csv"))

    # final (best) validation DSC per run
    run_meta: dict[str, tuple[str, str]] = {}
    best_dsc: dict[str, float] = {}
    for r in rows:
        rid = r["run_id"]
        run_meta[rid] = (r["strategy"], r["budget"])
        v = float(r["val_dsc_mean"])
        if rid not in best_dsc or v > best_dsc[rid]:
            best_dsc[rid] = v

    query_times: dict[str, list[float]] = {}
    for q in queries:
        key = (q["run_id"], q["iteration"])
        query_times.setdefault(key, []).append(float(q["query_time_ms"]))
    event_time: dict[tuple, float] = {k: v[0] for k, v in query_times.items()}

    groups: dict[tuple[str, str], list[str]] = {}
    for rid, meta in run_meta.items():
        groups.setdefault(meta, []).append(rid)

    with open(os.path.join(results_dir, "summary.csv"), "w", newline="") as fh:
        fh.write("strategy,budget,dsc_mean,dsc_std,query_time_mean\n")
        for (strategy, budget) in sorted(groups, key=lambda m: (m[0], float(m[1]))):
            rids = sorted(groups[(strategy, budget)])
            finals = [best_dsc[r] for r in rids]
            times = [t for (rid, _), t in sorted(event_time.items())
                     if rid in rids]
            tmean = repr(float(np.mean(times))) if times else ""
            fh.write(f"{strategy},{budget},{_fmt(float(np.mean(finals)))},"
                     f"{_fmt(_pop_std(finals))},{tmean}\n")

    # annotation distribution at the largest budget present
    max_budget = max((float(a["budget"]) for a in annotations), default=None)
    dist: dict[tuple[str, int], int] = {}
    for a in annotations:
        if float(a["budget"]) != max_budget:
            continue
        key = (a["strategy"], int(a["class"]))
        dist[key] = dist.get(key, 0) + int(a["annotated_count"])
    with open(os.path.join(results_dir, "distribution.csv"), "w", newline="") as fh:
        fh.write("strategy,class,annotated_count,ratio_vs_random\n")
        for (strategy, cls) in sorted(dist):
            count = dist[(strategy, cls)]
            ref = dist.get(("random", cls))
            ratio = _fmt(count / ref) if ref else ""
            fh.write(f"{strategy},{cls},{count},{ratio}\n")

    # DSC as a function of labeled ratio, averaged over runs
    per_ratio: dict[tuple[str, str], dict[str, float]] = {}
    for r in rows:
        key = (r["strategy"], r["labeled_ratio"])
        v = float(r["val_dsc_mean"])
        runs = per_ratio.setdefault(key, {})
        rid = r["run_id"]
        if rid not in runs or v > runs[rid]:
            runs[rid] = v
    with open(os.path.join(results_dir, "curves.csv"), "w", newline="") as fh:
        fh.write("strategy,labeled_ratio,dsc_mean\n")
        for (strategy, ratio) in sorted(per_ratio,
                                        key=lambda k: (k[0], float(k[1]))):
            vals = list(per_ratio[(strategy, ratio)].values())
            fh.write(f"{strategy},{ratio},{_fmt(float(np.mean(vals)))}\n")

    # accuracy-predictor calibration per run (per-sample mean over classes)
    per_run: dict[str, dict[int, list[tuple[float, float]]]] = {}
    for c in calibration:
        per_run.setdefault(c["run_id"], {}).setdefault(
            int(c["sample_id"]), []).append(
                (float(c["predicted_dsc"]), float(c["actual_dsc"])))
    with open(os.path.join(results_dir, "calibration_summary.csv"), "w",
              newline="") as fh:
        fh.write("run_id,strategy,budget,n_samples,pearson_r\n")
        for rid in sorted(per_run):
            pairs = per_run[rid]
            pred = [float(np.mean([p for p, _ in pairs[s]])) for s in sorted(pairs)]
            act = [float(np.mean([a for _, a in pairs[s]])) for s in sorted(pairs)]
            r = pearson_r(pred, act) if len(pred) >= 2 else 0.0
            strategy, budget = run_meta.get(rid, ("", ""))
            fh.write(f"{rid},{strategy},{budget},{len(pred)},{_fmt(r)}\n")
