"""Command-line entry points.

relayfl run --config cfg.json --out results.csv [--seed N]
relayfl theorem-sweep --config cfg.json --out results.csv [--seed N]

Exit codes: 0 success, 1 configuration error, 2 I/O error or (from argparse)
a usage error.
"""

from __future__ import annotations

import argparse
import sys

from .experiment import (ConfigError, load_config, override, run_experiment, theorem_sweep,
                         write_csv)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="relayfl",
        description="Monte Carlo experiments for relay-assisted over-the-air aggregation")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in (
        ("run", "federated training experiment over trials and sweep points"),
        ("theorem-sweep", "single-relay bound certification over random instances"),
    ):
        cmd = sub.add_parser(name, help=helptext)
        cmd.add_argument("--config", required=True, help="JSON configuration file")
        cmd.add_argument("--out", required=True, help="output CSV path")
        cmd.add_argument("--seed", type=int, default=None,
                         help="override master_seed from the config")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = load_config(args.config)
        if args.seed is not None:
            config = override(config, "master_seed", args.seed)
        rows = run_experiment(config) if args.command == "run" else theorem_sweep(config)
        write_csv(rows, args.out)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
