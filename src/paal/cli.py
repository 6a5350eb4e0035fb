"""Command-line front end: `paal generate|run|report`.

Exit codes: 0 success, 2 configuration error, 3 I/O error, 4 numerical
failure (NaN/Inf detected during training).
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import data as data_mod
from .experiment import ConfigError, load_config, run_campaign, write_report
from .nn import NumericalError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_NUMERICAL = 4

OUT_ENV_VAR = "PAAL_OUT_DIR"
DEFAULT_OUT = "paal_runs"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="paal",
        description="Synthetic-data active-learning experiments for segmentation")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a synthetic dataset file")
    gen.add_argument("--n", type=int, required=True, help="number of samples")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--height", type=int, default=32)
    gen.add_argument("--width", type=int, default=32)
    gen.add_argument("--out", required=True, help="output dataset path")

    run = sub.add_parser("run", help="run an experiment campaign")
    run.add_argument("--config", required=True, help="flat key=value config file")
    run.add_argument("--out", default=None, help="results directory")
    run.add_argument("--jobs", type=int, default=1, help="parallel cells")
    run.add_argument("--seed", type=int, default=None,
                     help="override the config's seed list with one seed")

    rep = sub.add_parser("report", help="aggregate a results directory")
    rep.add_argument("--out", default=None, help="results directory to aggregate")
    return parser


def _resolve_out(flag_value, config_value=None) -> str:
    return (flag_value or config_value or os.environ.get(OUT_ENV_VAR)
            or DEFAULT_OUT)


def _cmd_generate(args) -> int:
    ds = data_mod.generate(args.seed, args.n, args.height, args.width)
    data_mod.write_dataset(args.out, ds)
    print(f"wrote {len(ds)} samples ({args.height}x{args.width}) to {args.out}")
    if len(ds):
        for c in range(1, ds.num_fg + 1):
            rate = float(np.mean([(m == c).any() for m in ds.masks]))
            print(f"  class {c}: present in {rate:.1%} of images")
    return EXIT_OK


def _cmd_run(args) -> int:
    config = load_config(args.config)
    if args.seed is not None:
        config.seeds = [args.seed]
    out_dir = _resolve_out(args.out, config.out)
    run_ids = run_campaign(config, out_dir, jobs=max(1, args.jobs))
    print(f"completed {len(run_ids)} cells -> {out_dir}")
    return EXIT_OK


def _cmd_report(args) -> int:
    out_dir = _resolve_out(args.out)
    write_report(out_dir)
    print(f"wrote summary/distribution/curves/calibration reports in {out_dir}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {"generate": _cmd_generate, "run": _cmd_run,
                "report": _cmd_report}
    try:
        return handlers[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (data_mod.DatasetFormatError, OSError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
