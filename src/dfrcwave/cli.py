"""Command-line front-end: run, validate, and compare-majorizers.

Exit codes: 0 success, 1 config error, 2 runtime error, 3 completed with
warnings (e.g. a failed strict-feasibility pre-check).
"""

from __future__ import annotations

import argparse
import sys

from dfrcwave.config import ConfigError, config_from_file, validate_config
from dfrcwave.experiment import compare_majorizers, run_experiment

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_RUNTIME = 2
EXIT_WARNINGS = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dfrcwave",
        description="Constant-modulus DFRC waveform design experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, text in (
        ("run", "solve one configured instance and write artifacts"),
        ("validate", "list config violations without running"),
        ("compare-majorizers", "run both majorizer kinds on the identical instance"),
    ):
        cmd = sub.add_parser(name, help=text)
        cmd.add_argument("config", help="path to a key = value config file")
        if name != "validate":
            cmd.add_argument(
                "--output-root",
                default=None,
                help="artifact root (default: $DFRCWAVE_OUTPUT_ROOT or cwd)",
            )
    return parser


def _load(path):
    try:
        return config_from_file(path), None
    except OSError as exc:
        return None, f"cannot read config: {exc}"
    except ConfigError as exc:
        return None, str(exc)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    config, parse_error = _load(args.config)
    if parse_error is not None:
        print(f"config error: {parse_error}", file=sys.stderr)
        return EXIT_CONFIG
    if args.command == "validate":
        violations = validate_config(config)
        if violations:
            for line in violations:
                print(line)
            return EXIT_CONFIG
        print("ok")
        return EXIT_OK

    runner = compare_majorizers if args.command == "compare-majorizers" else run_experiment
    try:
        result = runner(config, base_dir=args.output_root)
    except ConfigError as exc:
        for line in str(exc).splitlines():
            print(f"config error: {line}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:  # surfaced as a runtime failure with exit code 2
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    print(f"artifacts written to {result.artifact_dir}")
    if result.warnings:
        for line in result.warnings:
            print(f"warning: {line}", file=sys.stderr)
        return EXIT_WARNINGS
    return EXIT_OK


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
