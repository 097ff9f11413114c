"""``repro lint`` — command-line driver for the static-analysis pack.

Runs the per-file rules (paper invariants, RPR007) through the
incremental cache, then — only without ``--select`` — mypy.

Also runnable directly as ``python -m repro.lint.cli``; the ``repro``
CLI's ``lint`` subcommand forwards here.  Exit codes: 0 clean, 1 findings
(or parse errors), 2 usage errors.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

# Importing rules registers every rule.
from repro.lint import rules  # noqa: F401
from repro.lint.framework import (
    LintCache,
    format_json,
    format_text,
    lint_paths,
    registered_rules,
)
from repro.lint.typing_gate import run_mypy

__all__ = ["main", "add_lint_arguments", "run"]


def add_lint_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach the lint options (shared with the ``repro`` CLI subcommand)."""
    parser.add_argument(
        "paths", nargs="*", default=["src"],
        help="files or directories to lint (default: src)",
    )
    parser.add_argument(
        "--format", choices=["text", "json"], default="text",
        help="output format (json is what CI archives)",
    )
    parser.add_argument(
        "--select", default=None, metavar="CODES",
        help="comma-separated rule codes to run (default: all)",
    )
    parser.add_argument(
        "--mypy", choices=["auto", "on", "off"], default="auto",
        help="auto: run mypy when installed; on: require it; off: skip",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print every registered rule and exit",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="ignore and do not write the incremental cache (.repro-lint-cache/)",
    )


def run(args: argparse.Namespace) -> int:
    """Execute a parsed lint invocation; returns the exit code."""
    if args.list_rules:
        for code, reg in sorted(registered_rules().items()):
            print(f"{code}  {reg.name:24s} {reg.description.splitlines()[0]}")
        return 0

    select = None
    if args.select:
        select = [c.strip() for c in args.select.split(",") if c.strip()]
    cache = None if args.no_cache else LintCache()
    try:
        lint_run = lint_paths(args.paths, select=select, cache=cache)
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2

    mypy_state = "skipped"
    if args.mypy != "off" and select is None:
        mypy_findings, available = run_mypy(args.paths)
        if available:
            lint_run.findings.extend(mypy_findings)
            lint_run.findings.sort(key=lambda f: (f.path, f.line, f.col, f.code))
            mypy_state = "ran"
        elif args.mypy == "on":
            print(
                "error: --mypy=on but mypy is not installed "
                "(pip install -e '.[dev]')",
                file=sys.stderr,
            )
            return 2
        else:
            mypy_state = "unavailable"

    if args.format == "json":
        extra: dict[str, object] = {
            "mypy": mypy_state,
            "cache_hits": lint_run.cache_hits,
            "cache_misses": lint_run.cache_misses,
        }
        print(format_json(lint_run, extra=extra))
    else:
        print(format_text(lint_run))
        if mypy_state != "ran":
            print(f"mypy: {mypy_state}")

    return 1 if (lint_run.findings or lint_run.parse_errors) else 0


def main(argv: Sequence[str] | None = None) -> int:
    """Parse ``argv`` and run the linter; returns the exit code."""
    parser = argparse.ArgumentParser(
        prog="repro lint",
        description="paper-invariant lint pack, typing gate",
    )
    add_lint_arguments(parser)
    return run(parser.parse_args(argv))


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
