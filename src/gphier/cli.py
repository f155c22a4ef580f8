"""Command-line entry point: gphier <command> [--config FILE] [--set k=v ...].

Exit status: 0 success, 1 bad arguments or config, 2 a failed invariant,
3 a level over the memory guard.  Any other error propagates.
"""

from __future__ import annotations

import argparse
import sys

from .config import ConfigError, parse_config
from .experiment import COMMANDS, run_experiment
from .marginal import MemoryGuardError


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gphier",
        description="Truncated Gross-Pitaevskii hierarchy simulator and estimate-verification studies",
    )
    parser.add_argument("command", choices=COMMANDS, help="experiment to run")
    parser.add_argument("--config", help="flat key=value config file (defaults apply when omitted)")
    parser.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override a config key (repeatable)",
    )
    parser.add_argument("--out-dir", help="output directory (overrides config out_dir)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    text = ""
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            text = fh.read()
    overrides = {}
    for item in args.overrides:
        if "=" not in item:
            print(f"error: --set expects KEY=VALUE, got {item!r}", file=sys.stderr)
            return 1
        key, value = item.split("=", 1)
        overrides[key.strip()] = value
    try:
        config = parse_config(text, overrides)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for warning in config.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    try:
        return run_experiment(config, args.command, args.out_dir)
    except ConfigError as exc:
        # the manifest already records the failure
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryGuardError as exc:
        # the manifest already records the failure
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
