"""Command-line entry point.

Usage::

    erspin-sim <experiment> [--config FILE] [--set key=value ...] [--out DIR]

Exit codes: 0 success, 2 configuration error, 3 numerical error.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from .config import ConfigError
from .experiments import EXPERIMENT_NAMES, build_config, run
from .fitting import FitError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The one parser of the process, built on the first call.

    Parsing leaves it unchanged, and ``--set`` starts from no list, so one
    call's values never reach the next.
    """
    parser = argparse.ArgumentParser(
        prog="erspin-sim",
        description="Simulate erbium spin-ensemble initialization, control and readout experiments.",
    )
    parser.add_argument("experiment", help=f"one of: {', '.join(EXPERIMENT_NAMES)}")
    parser.add_argument("--config", type=Path, default=None, help="flat key = value config file")
    parser.add_argument(
        "--set",
        dest="sets",
        action="append",
        default=None,
        metavar="KEY=VALUE",
        help="override a config key (repeatable)",
    )
    parser.add_argument("--out", type=Path, default=Path("."), help="output directory")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(sys.argv[1:] if argv is None else argv)
    try:
        overrides = {}
        for item in args.sets or ():
            if "=" not in item:
                raise ConfigError(item, "expected KEY=VALUE")
            key, value = item.split("=", 1)
            overrides[key.strip()] = value.strip()
        config_text = args.config.read_text() if args.config is not None else None
        cfg = build_config(args.experiment, config_text=config_text, set_overrides=overrides, output_dir=args.out)
        run(cfg)
    except ConfigError as exc:
        print(f"erspin-sim: config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (FitError, FloatingPointError) as exc:
        print(f"erspin-sim: numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"erspin-sim: config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
