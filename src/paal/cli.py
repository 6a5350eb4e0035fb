"""Command-line front end: `paal generate|run|report`.

`paal generate` writes the dataset file that a campaign config names under
its required ``dataset`` key; `paal run` and `paal report` take the results
directory as the required ``--out``.

Exit codes: 0 success, 2 configuration or usage error (bad config value,
bad command-line number, missing option), 3 I/O error or a malformed dataset
or results file, 4 numerical failure (NaN/Inf in training or in a model
output), 5 the validation evaluator process died (killed, or out of memory).
"""

from __future__ import annotations

import argparse
import ctypes
import sys

from . import data as data_mod
from .experiment import (ConfigError, ResultsFormatError, load_config,
                         run_campaign, write_report)
from .nn import NumericalError
from .orchestrator import EvaluatorError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_NUMERICAL = 4
EXIT_EVALUATOR = 5

# glibc's mallopt parameter numbers (malloc.h)
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


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
    run.add_argument("--out", required=True, help="results directory")
    run.add_argument("--jobs", type=int, default=1, help="parallel cells")

    rep = sub.add_parser("report", help="aggregate a results directory")
    rep.add_argument("--out", required=True, help="results directory to aggregate")
    return parser


def _cmd_generate(args) -> int:
    if min(args.n, args.seed) < 0 or min(args.height, args.width) < 1:
        raise ConfigError("--n and --seed must be >= 0, --height and --width >= 1")
    ds = data_mod.generate(args.seed, args.n, args.height, args.width)
    data_mod.write_dataset(args.out, ds)
    print(f"wrote {len(ds)} samples ({args.height}x{args.width}) to {args.out}")
    if len(ds):
        for c in range(1, ds.num_fg + 1):
            rate = (ds.masks == c).any(axis=(1, 2)).mean()
            print(f"  class {c}: present in {rate:.1%} of images")
    return EXIT_OK


def _cmd_run(args) -> int:
    if args.jobs < 1:
        raise ConfigError(f"--jobs must be >= 1, got {args.jobs}")
    config = load_config(args.config)
    run_ids = run_campaign(config, args.out, jobs=args.jobs)
    print(f"completed {len(run_ids)} cells -> {args.out}")
    return EXIT_OK


def _cmd_report(args) -> int:
    write_report(args.out)
    print(f"wrote summary/distribution/curves/calibration reports in {args.out}")
    return EXIT_OK


def _pin_heap() -> tuple[int, int] | None:
    """Pin glibc's mmap threshold at 32 MiB and its trim threshold at 128 MiB.

    Left alone, glibc moves the mmap threshold with the largest block freed
    so far. The pin buys a lower peak, not speed: ``paal run`` on the
    benchmark's seed-7 ``ref_serial`` config peaked at 54.0-54.3 MB pinned
    and 58.9-59.0 MB unpinned, no slower unpinned, and on ``query_heavy``'s
    at 56.4-56.6 MB pinned and 56.0-56.1 MB unpinned (3 alternating pairs
    each, 2-core Xeon). Returns mallopt's results (1 applied, 0
    refused), or None where the C library has no mallopt. Forked workers
    inherit the pin; a spawned worker must call this itself.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return None
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    return (mallopt(_M_MMAP_THRESHOLD, 32 << 20),
            mallopt(_M_TRIM_THRESHOLD, 128 << 20))


def main(argv=None) -> int:
    _pin_heap()
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {"generate": _cmd_generate, "run": _cmd_run,
                "report": _cmd_report}
    try:
        return handlers[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (data_mod.DatasetFormatError, ResultsFormatError, OSError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except EvaluatorError as exc:
        print(f"evaluator failure: {exc}", file=sys.stderr)
        return EXIT_EVALUATOR


if __name__ == "__main__":
    sys.exit(main())
