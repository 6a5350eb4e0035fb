"""Benchmark driver for paal campaigns.

One run takes one workload through the user path: ``paal generate`` for
the workload's dataset file, then ``paal run --config ... --jobs N``, each
as a child process of this driver. It prints every end-to-end metric by
name with its unit, checks the campaign CSVs, and ends with one JSON line:

    python3 benchmarks/run.py --workload ref_serial --seed 7 --seconds 40 --trace 0

With ``--trace 1`` it runs the campaign once untraced (as above) and once
in this process under the span tracer (``tracing.py``), and reports the
per-layer metrics instead. See README.md in this directory.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stdout
from dataclasses import dataclass

from tracing import Tracer, layer_metrics

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
DIGESTS_PATH = os.path.join(BENCH_DIR, "digests.json")

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}

# setup_s is the median of the `paal generate` runs made in bursts of this
# many before every campaign and after the last one, so that they sample the
# host across the whole measuring window rather than in one moment
SETUP_BURST = 3
DSC_RERECORD_TOLERANCE = 0.01  # --record refuses a larger best_val_dsc drop
MIN_CAMPAIGNS = 2   # so every run can compare campaigns against each other
CHILD_TIMEOUT_S = 150  # a hung child is killed and counted as failed
CSV_FILES = ("results.csv", "queries.csv", "calibration.csv", "annotations.csv")
WALL_CLOCK_COLUMN = "query_time_ms"  # the one column that differs by rerun


@dataclass(frozen=True)
class Workload:
    name: str
    data_n: int
    config: str        # campaign config; the driver adds the dataset line
    blocking: str      # layer the workload is built to be blocked on


# Early stopping is off (early_stop = max_epochs) in every workload, so the
# number of epochs, and with it the work of a run, does not depend on the
# seed's data.
WORKLOADS = {w.name: w for w in (
    # The ROADMAP reference campaign (n=300, fold 0, budget 0.3, 5
    # iterations, seed 0, random/max_entropy/paal_full), cut from 120 to 40
    # epochs to fit the run time; lr0 and iq_patience are scaled with it so
    # the nets leave the all-background plateau and paal_full spends its
    # budget. Training-bound: conv is most of it.
    Workload("ref_serial", 300, """\
strategies = random,max_entropy,paal_full
budgets = 0.3
iterations = 5
seeds = 0
folds = 0
split_seed = 7
max_epochs = 40
early_stop = 40
lr0 = 0.01
iq_patience = 3
""", blocking="conv"),
    # Large pool, short training, a query every epoch: pool inference,
    # k-means, coreset and uncertainty scoring dominate. iq_patience = 0
    # makes paal_full query every epoch as the baselines do, so the number
    # of queries is the same for every seed.
    Workload("query_heavy", 600, """\
strategies = random,entropy_kmeans,coreset,paal_full
budgets = 0.1
iterations = 10
seeds = 0
folds = 0
split_seed = 7
max_epochs = 12
early_stop = 12
warmup = 2
query_interval = 1
iq_patience = 0
lr0 = 0.01
""", blocking="query_step"),
)}


class BenchError(RuntimeError):
    """The benchmark cannot run here (as opposed to the program failing)."""


def _child_env() -> dict[str, str]:
    # BLAS thread settings are inherited untouched: pinning them is the
    # program's job, not the benchmark's.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


def _paal(args: list[str]) -> tuple[float, int, str]:
    """Run ``python -m paal <args>``; returns (wall s, exit code, stderr)."""
    t0 = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, "-m", "paal", *args],
                              env=_child_env(), cwd=ROOT, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return time.perf_counter() - t0, -1, f"killed after {CHILD_TIMEOUT_S} s"
    return time.perf_counter() - t0, proc.returncode, proc.stderr


def _import_paal():
    """Import paal from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "paal", "__init__.py")):
        raise BenchError(f"no paal sources under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import paal
    import paal.cli
    if os.path.dirname(os.path.dirname(os.path.abspath(paal.__file__))) != SRC:
        raise BenchError(f"imported paal from {paal.__file__}, not {SRC}")
    return paal


# ---------------------------------------------------------------- environment

def _numpy_info() -> tuple[str, str, list[str]]:
    import numpy
    cfg = numpy.show_config(mode="dicts")
    blas = cfg.get("Build Dependencies", {}).get("blas", {})
    simd = cfg.get("SIMD Extensions", {}).get("found", [])
    return numpy.__version__, f"{blas.get('name')} {blas.get('version')}", simd


def _git_commit() -> str | None:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True)
    except OSError:
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment() -> dict:
    """Context recorded with every result; not a gated metric."""
    np_version, blas, _ = _numpy_info()
    src_lines = 0
    for dirpath, _, files in os.walk(SRC):
        for f in files:
            if f.endswith(".py"):
                with open(os.path.join(dirpath, f), "rb") as fh:
                    src_lines += fh.read().count(b"\n")
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "numpy": np_version,
        "blas": blas,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "git_commit": _git_commit(),
        "src_lines": src_lines,
    }


def platform_fingerprint() -> str:
    """What float results depend on: recorded digests hold only where it matches."""
    np_version, blas, simd = _numpy_info()
    return (f"numpy {np_version}; {blas}; simd {','.join(simd)}; "
            f"nproc {len(os.sched_getaffinity(0))}")


# ------------------------------------------------------------ output checking

def cell_digests(out_dir: str, run_ids: list[str]) -> dict[str, str | None]:
    """Per-cell sha256 of the campaign CSVs, without the wall-clock column.

    A cell whose fragment files are missing, or whose rows are absent from
    the merged CSVs, maps to None.
    """
    hashes = {rid: hashlib.sha256() for rid in run_ids}
    seen = {rid: set() for rid in run_ids}
    for name in CSV_FILES:
        path = os.path.join(out_dir, name)
        if not os.path.exists(path):
            return {rid: None for rid in run_ids}
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        header = rows[0] if rows else []
        drop = header.index(WALL_CLOCK_COLUMN) if WALL_CLOCK_COLUMN in header else -1
        for rid in run_ids:
            hashes[rid].update(f"{name}|{','.join(header)}\n".encode())
        for row in rows[1:]:
            if row and row[0] in hashes:
                kept = [v for j, v in enumerate(row) if j != drop]
                hashes[row[0]].update((",".join(kept) + "\n").encode())
                seen[row[0]].add(name)
    out = {}
    for rid in run_ids:
        frags = all(os.path.exists(os.path.join(out_dir, "cells", rid, n))
                    for n in CSV_FILES)
        has_rows = "results.csv" in seen[rid]
        out[rid] = hashes[rid].hexdigest()[:32] if frags and has_rows else None
    return out


def count_failed(digests: dict[str, str | None], exit_code: int,
                 reference: dict[str, str] | None) -> int:
    """Cells of one campaign that failed: non-zero exit, missing output, or
    a digest differing from the reference."""
    if exit_code != 0:
        return len(digests)
    return sum(1 for rid, d in digests.items()
               if d is None or (reference is not None and reference.get(rid) != d))


def load_digests() -> dict:
    try:
        with open(DIGESTS_PATH, encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        return {}


def recorded_reference(workload: str, seed: int) -> tuple[dict[str, str] | None, str]:
    """The recorded cell digests of this workload and seed, if they hold
    here, and a note saying what the output check compares against."""
    table = load_digests()
    if table.get("platform") != platform_fingerprint():
        return None, ("self (campaigns compared with each other): recorded digests "
                      f"skipped, they are for another platform: {table.get('platform')}")
    reference = table.get("digests", {}).get(workload, {}).get(str(seed))
    if reference is None:
        return None, (f"self (campaigns compared with each other): no recorded "
                      f"digests for {workload} seed {seed}")
    return reference, f"recorded digests for {workload} seed {seed}"


def _by_seed(per_seed: dict) -> dict:
    return dict(sorted(per_seed.items(), key=lambda kv: int(kv[0])))


def record_reference(workload: str, seed: int, digests: dict[str, str],
                     best_val_dsc: float) -> None:
    """Store a seed's digests and best_val_dsc. A re-record is refused when
    best_val_dsc fell: changing the accumulation order moves it only in the
    last digits, so a larger drop is a regression, not a new reference."""
    table = load_digests()
    fingerprint = platform_fingerprint()
    if table.get("platform") != fingerprint:
        table = {"platform": fingerprint, "digests": {},
                 "best_val_dsc": table.get("best_val_dsc", {})}
    dsc = table.setdefault("best_val_dsc", {}).get(workload, {})
    before = dsc.get(str(seed))
    if before is not None and best_val_dsc < before * (1 - DSC_RERECORD_TOLERANCE):
        raise BenchError(f"best_val_dsc {best_val_dsc:.6g} is more than "
                         f"{DSC_RERECORD_TOLERANCE:.0%} below the recorded {before:.6g} "
                         f"for {workload} seed {seed}; digests not recorded")
    dsc[str(seed)] = best_val_dsc
    table["best_val_dsc"][workload] = _by_seed(dsc)
    per_seed = table["digests"].get(workload, {})
    per_seed[str(seed)] = digests
    table["digests"][workload] = _by_seed(per_seed)
    with open(DIGESTS_PATH, "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=1)
        fh.write("\n")


# ------------------------------------------------------------------- running

@dataclass
class Campaign:
    wall_s: float
    exit_code: int
    cpu_s: float
    out_dir: str
    digests: dict[str, str | None]


def _children_cpu() -> float:
    r = resource.getrusage(resource.RUSAGE_CHILDREN)
    return r.ru_utime + r.ru_stime


class Bench:
    """One benchmark run of one workload and seed, in its own work dir."""

    def __init__(self, workload: Workload, seed: int, trace: bool, work_root=WORK):
        self.paal = _import_paal()
        self.workload = workload
        self.seed = seed
        self.dir = os.path.join(work_root, f"{workload.name}-s{seed}-t{int(trace)}")
        shutil.rmtree(self.dir, ignore_errors=True)
        os.makedirs(self.dir)
        self.data_path = os.path.join(self.dir, "data.bin")
        self.config_path = os.path.join(self.dir, "campaign.cfg")
        with open(self.config_path, "w", encoding="utf-8") as fh:
            fh.write(f"dataset = {self.data_path}\n{workload.config}")
        config = self.paal.experiment.load_config(self.config_path)
        self.run_ids = [c.run_id for c in self.paal.experiment.campaign_cells(config)]
        self.reference, self.reference_note = recorded_reference(workload.name, seed)
        self.campaigns: list[Campaign] = []
        self.setup_walls: list[float] = []

    def setup(self, repeats: int = 1) -> None:
        """Write the dataset file with `paal generate`, timing each run."""
        args = ["generate", "--n", str(self.workload.data_n),
                "--seed", str(self.seed), "--out", self.data_path]
        for _ in range(repeats):
            wall, code, err = _paal(args)
            if code != 0:
                raise BenchError(f"paal generate failed ({code}): {err.strip()}")
            self.setup_walls.append(wall)

    def _check(self, out_dir: str, exit_code: int) -> dict:
        digests = cell_digests(out_dir, self.run_ids)
        if self.reference is None and exit_code == 0 and None not in digests.values():
            self.reference = digests  # no recorded digest: later runs must agree
        return digests

    def run_campaign(self, jobs: int = 1) -> Campaign:
        out_dir = os.path.join(self.dir, f"out{len(self.campaigns)}")
        cpu0 = _children_cpu()
        wall, code, err = _paal(["run", "--config", self.config_path, "--out",
                                 out_dir, "--jobs", str(jobs)])
        if code != 0:
            print(f"paal run exited {code}: {err.strip()[-500:]}", file=sys.stderr)
        camp = Campaign(wall, code, _children_cpu() - cpu0, out_dir,
                        self._check(out_dir, code))
        self.campaigns.append(camp)
        return camp

    def run_traced(self) -> tuple[list[list], Campaign]:
        """The same campaign (plus generate and report) in-process, traced."""
        out_dir = os.path.join(self.dir, "traced")
        tracer = Tracer()
        tracer.install(self.paal)
        try:
            with redirect_stdout(io.StringIO()):
                self.paal.cli.main(["generate", "--n", str(self.workload.data_n),
                                    "--seed", str(self.seed), "--out",
                                    os.path.join(self.dir, "traced.bin")])
                t0 = time.perf_counter()
                code = self.paal.cli.main(["run", "--config", self.config_path,
                                           "--out", out_dir, "--jobs", "1"])
                wall = time.perf_counter() - t0
                if code == 0:
                    self.paal.cli.main(["report", "--out", out_dir])
        finally:
            tracer.uninstall()
        with open(os.path.join(self.dir, "spans.json"), "w", encoding="utf-8") as fh:
            json.dump(tracer.spans, fh)
        traced = Campaign(wall, code, 0.0, out_dir, self._check(out_dir, code))
        self.campaigns.append(traced)
        return tracer.spans, traced

    def failures(self) -> tuple[int, int]:
        attempted = sum(len(c.digests) for c in self.campaigns)
        failed = sum(count_failed(c.digests, c.exit_code, self.reference)
                     for c in self.campaigns)
        return attempted, failed


def _csv_rows(path: str) -> list[dict]:
    if not os.path.exists(path):
        return []
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def end_to_end(bench: Bench) -> dict[str, float]:
    ok = [c for c in bench.campaigns if c.exit_code == 0]
    events = {}
    for i, c in enumerate(ok):
        for q in _csv_rows(os.path.join(c.out_dir, "queries.csv")):
            events.setdefault((i, q["run_id"], q["iteration"]),
                              float(q[WALL_CLOCK_COLUMN]))
    best: dict[str, float] = {}
    if ok:
        for r in _csv_rows(os.path.join(ok[0].out_dir, "results.csv")):
            best[r["run_id"]] = max(best.get(r["run_id"], 0.0),
                                    float(r["val_dsc_mean"]))
    rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return {
        "campaign_s": statistics.median(c.wall_s for c in bench.campaigns),
        "setup_s": statistics.median(bench.setup_walls),
        "query_ms_p50": statistics.median(events.values()) if events else 0.0,
        "best_val_dsc": statistics.fmean(best.values()) if best else 0.0,
        "peak_rss_mb": rss_kb / 1024.0,
    }


def design_check(workload: Workload, m: dict[str, float]) -> list[str]:
    """Lines saying how much of the traced campaign each blocking layer took."""
    campaign = (m["experiment.run_cell_s"] + m["experiment.merge_ms"] / 1e3
                or float("nan"))
    conv = m["nn.conv_ms"] / 1e3
    query = m["orchestrator.query_step_ms"] / 1e3
    train = m["orchestrator.train_epoch_ms"] / 1e3
    ev = m["orchestrator.evaluate_ms"] / 1e3
    lines = [
        f"design: conv fwd+bwd {conv:.2f} s of {campaign:.2f} s traced campaign "
        f"= {conv / campaign:.1%}",
        f"design: query_step {query:.2f} s of {campaign:.2f} s traced campaign "
        f"= {query / campaign:.1%} (train_epoch {train:.2f} s, evaluate {ev:.2f} s)",
    ]
    if workload.blocking == "conv":
        ok = conv > 0.5 * campaign
        lines.append(f"design check {workload.name}: conv is the majority of the "
                     f"campaign: {'yes' if ok else 'NO -- workload no longer stresses conv'}")
    else:
        ok = query > max(train, ev)
        lines.append(f"design check {workload.name}: query_step is the largest "
                     f"orchestrator span: {'yes' if ok else 'NO -- workload no longer stresses queries'}")
    return lines


def run(workload: Workload, seed: int, seconds: float, trace: bool,
        record: bool = False, work_root: str = WORK) -> dict:
    bench = Bench(workload, seed, trace, work_root)
    if record:  # re-derive the reference from this run's own campaigns
        bench.reference = None
        bench.reference_note = "self (campaigns compared with each other): --record"
    env = environment()
    print("env: " + json.dumps(env, sort_keys=True))
    print(f"reference: {bench.reference_note}")
    if trace:
        bench.setup()
        untraced = bench.run_campaign()
        spans, traced = bench.run_traced()
        metrics = layer_metrics(spans)
        metrics["experiment.cpu_s"] = untraced.cpu_s
        metrics["experiment.cpu_per_wall"] = untraced.cpu_s / untraced.wall_s
        metrics["trace.overhead_frac"] = traced.wall_s / untraced.wall_s - 1.0
        for line in design_check(workload, metrics):
            print(line)
    else:
        t0 = time.perf_counter()
        while True:
            bench.setup(SETUP_BURST)
            bench.run_campaign()
            elapsed = time.perf_counter() - t0
            if (len(bench.campaigns) >= MIN_CAMPAIGNS
                    and elapsed + bench.campaigns[-1].wall_s > seconds):
                break
        bench.setup(SETUP_BURST)
        metrics = end_to_end(bench)
    attempted, failed = bench.failures()
    if record and failed == 0 and bench.reference is not None:
        record_reference(workload.name, seed, bench.reference, metrics["best_val_dsc"])
        print(f"recorded digests for {workload.name} seed {seed}")
    for name, value in sorted(metrics.items()):
        print(f"{name} = {value:.6g} {UNITS[name]}")
    print(f"failed_frac = {failed / attempted:.6g} 1 ({failed} of {attempted} cells)")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": UNITS[k]}
                          for k, v in sorted(metrics.items())}}
    with open(os.path.join(bench.dir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump({"env": env, "seed": seed, "reference": bench.reference_note,
                   "campaign_walls": [c.wall_s for c in bench.campaigns],
                   "setup_walls": bench.setup_walls, **result}, fh, indent=1)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True,
                        help="dataset seed (7 is the ROADMAP reference dataset)")
    parser.add_argument("--seconds", type=float, required=True,
                        help="measuring time; at least two campaigns always run")
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--record", action="store_true",
                        help="store this run's cell digests in digests.json")
    args = parser.parse_args(argv)
    if args.record and args.trace:
        parser.error("--record needs --trace 0")
    try:
        result = run(WORKLOADS[args.workload], args.seed, args.seconds,
                     bool(args.trace), args.record)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
