"""``repro lint`` — command-line driver for the static-analysis pack.

Runs the per-file rules (paper invariants, races, protocol conformance,
RPR007) through the incremental cache, then the whole-run passes that
only make sense without ``--select``: the race allowlist's staleness
check (RPR103) and mypy.  ``--protocol`` adds the ring / segment model
check.

Also runnable directly as ``python -m repro.lint.cli``; the ``repro``
CLI's ``lint`` subcommand forwards here.  Exit codes: 0 clean, 1 findings
(or parse errors), 2 usage errors.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

# Importing rules/races/protocol registers every rule.
from repro.lint import protocol, races, rules  # noqa: F401
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
        "--allowlist", default=None, metavar="PATH",
        help="race allowlist file (default: the package's race_allowlist.txt)",
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
        "--protocol", action="store_true",
        help="also model-check the shm ring / segment-ownership protocols",
    )
    parser.add_argument(
        "--max-states", type=int, default=500_000, metavar="N",
        help="state budget per protocol model (with --protocol)",
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

    races.set_allowlist_path(args.allowlist)
    select = None
    if args.select:
        select = [c.strip() for c in args.select.split(",") if c.strip()]
    cache = None if args.no_cache else LintCache()
    try:
        lint_run = lint_paths(args.paths, select=select, cache=cache)
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2

    # Allowlist self-validation (RPR103): an entry whose file was analyzed
    # but that no RPR101 hit consumed is stale and must be pruned.  Like
    # the mypy gate, this is a CLI-layer pass — it only makes sense over a
    # full run, so --select skips it.
    if select is None:
        used = set(lint_run.facts.get(races.USED_ALLOWLIST_FACT, []))
        stale = races.stale_allowlist_findings(lint_run.files, used)
        if stale:
            lint_run.findings.extend(stale)
            lint_run.findings.sort(key=lambda f: (f.path, f.line, f.col, f.code))

    protocol_reports = None
    if args.protocol:
        protocol_reports = protocol.verify_protocol(max_states=args.max_states)

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
        if protocol_reports is not None:
            extra["protocol"] = [r.to_dict() for r in protocol_reports]
        print(format_json(lint_run, extra=extra))
    else:
        print(format_text(lint_run))
        if mypy_state != "ran":
            print(f"mypy: {mypy_state}")
        if protocol_reports is not None:
            for report in protocol_reports:
                res = report.result
                families = ", ".join(
                    f"{name}={'ok' if held else 'VIOLATED'}"
                    for name, held in sorted(report.families.items())
                )
                status = "ok" if report.ok else "FAILED"
                budget = "" if res.complete else " (state budget exhausted)"
                print(
                    f"protocol: {report.name}: {status}{budget} — "
                    f"{res.states} states, {res.transitions} transitions "
                    f"in {res.elapsed_s:.2f}s; {families}"
                )
                for violation in res.violations:
                    print(violation.render())

    protocol_failed = protocol_reports is not None and any(
        not r.ok for r in protocol_reports
    )
    return 1 if (
        lint_run.findings or lint_run.parse_errors or protocol_failed
    ) else 0


def main(argv: Sequence[str] | None = None) -> int:
    """Parse ``argv`` and run the linter; returns the exit code."""
    parser = argparse.ArgumentParser(
        prog="repro lint",
        description="paper-invariant lint pack, race analyzer, protocol "
                    "conformance, typing gate",
    )
    add_lint_arguments(parser)
    return run(parser.parse_args(argv))


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
