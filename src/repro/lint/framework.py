"""Rule framework for ``repro lint``: findings, registry, suppressions.

A *rule* is a function taking a :class:`SourceFile` and yielding
:class:`Finding` objects.  Rules register themselves with :func:`rule`
under a stable code (``RPR001`` …); the runner parses each file once,
applies every selected rule, and filters findings through the two
suppression mechanisms:

- ``# repro-lint: disable=CODE[,CODE...]`` on the offending line;
- ``# repro-lint: disable-file=CODE[,CODE...]`` anywhere in the file.

This module is stdlib-only by design — see :mod:`repro.lint`.
"""

from __future__ import annotations

import ast
import hashlib
import json
import os
import re
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator

__all__ = [
    "Finding",
    "Rule",
    "SourceFile",
    "LintCache",
    "rule",
    "registered_rules",
    "lint_paths",
    "format_text",
    "format_json",
]

_DISABLE_LINE_RE = re.compile(r"#\s*repro-lint:\s*disable=([A-Z0-9,\s]+)")
_DISABLE_FILE_RE = re.compile(r"#\s*repro-lint:\s*disable-file=([A-Z0-9,\s]+)")


@dataclass(frozen=True)
class Finding:
    """One diagnostic: a rule code anchored to a file position."""

    code: str
    path: str
    line: int
    col: int
    message: str

    def to_dict(self) -> dict[str, object]:
        return {
            "code": self.code,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.code} {self.message}"


@dataclass(frozen=True)
class Rule:
    """A registered check; its verdict on a file depends on that file alone."""

    code: str
    name: str
    check: Callable[["SourceFile"], Iterable[Finding]]
    description: str


_REGISTRY: dict[str, Rule] = {}


def rule(code: str, name: str) -> Callable[[Callable[["SourceFile"], Iterable[Finding]]], Callable[["SourceFile"], Iterable[Finding]]]:
    """Register ``check`` under ``code``; the docstring is the description."""

    def decorate(check: Callable[["SourceFile"], Iterable[Finding]]) -> Callable[["SourceFile"], Iterable[Finding]]:
        if code in _REGISTRY:
            raise ValueError(f"duplicate lint rule code {code}")
        _REGISTRY[code] = Rule(code, name, check, (check.__doc__ or "").strip())
        return check

    return decorate


def registered_rules() -> dict[str, Rule]:
    """Code → rule, for ``repro lint --list-rules`` and the tests."""
    return dict(_REGISTRY)


class SourceFile:
    """One parsed file handed to every rule.

    ``path`` is normalized to forward slashes so rules can scope
    themselves by path fragments (``"/postings/" in sf.path``) on any
    platform; ``parts`` is the tuple of path components.
    """

    def __init__(self, path: str, text: str) -> None:
        self.path = path.replace(os.sep, "/")
        self.parts = tuple(p for p in self.path.split("/") if p)
        self.text = text
        self.lines = text.splitlines()
        self.tree = ast.parse(text, filename=path)
        self._line_disables: dict[int, set[str]] | None = None
        self._file_disables: set[str] | None = None

    # -- suppressions ------------------------------------------------- #

    def _scan_suppressions(self) -> None:
        per_line: dict[int, set[str]] = {}
        whole: set[str] = set()
        for lineno, line in enumerate(self.lines, start=1):
            m = _DISABLE_LINE_RE.search(line)
            if m:
                codes = {c.strip() for c in m.group(1).split(",") if c.strip()}
                per_line.setdefault(lineno, set()).update(codes)
            m = _DISABLE_FILE_RE.search(line)
            if m:
                whole.update(c.strip() for c in m.group(1).split(",") if c.strip())
        self._line_disables = per_line
        self._file_disables = whole

    def suppressed(self, code: str, line: int) -> bool:
        """Is ``code`` disabled on ``line`` (or for the whole file)?"""
        if self._line_disables is None:
            self._scan_suppressions()
        assert self._line_disables is not None and self._file_disables is not None
        if code in self._file_disables:
            return True
        return code in self._line_disables.get(line, set())

    def in_part(self, *names: str) -> bool:
        """True when any path component equals one of ``names``."""
        return any(name in self.parts for name in names)

    def finding(self, code: str, node: ast.AST, message: str) -> Finding:
        return Finding(
            code=code,
            path=self.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            message=message,
        )


# ---------------------------------------------------------------------- #
# Runner
# ---------------------------------------------------------------------- #

_SKIP_DIRS = {"__pycache__", ".git", ".hypothesis", ".bench_data", "build", "dist"}


def iter_python_files(paths: Iterable[str]) -> Iterator[str]:
    """Expand files/directories into a sorted stream of ``.py`` paths."""
    seen: set[str] = set()
    for path in paths:
        if os.path.isfile(path):
            if path not in seen:
                seen.add(path)
                yield path
            continue
        for root, dirs, files in os.walk(path):
            dirs[:] = sorted(d for d in dirs if d not in _SKIP_DIRS and not d.startswith("."))
            for name in sorted(files):
                if name.endswith(".py"):
                    full = os.path.join(root, name)
                    if full not in seen:
                        seen.add(full)
                        yield full


@dataclass
class LintRun:
    """Everything one lint invocation produced."""

    findings: list[Finding] = field(default_factory=list)
    files_checked: int = 0
    parse_errors: int = 0
    cache_hits: int = 0
    cache_misses: int = 0


# ---------------------------------------------------------------------- #
# Incremental cache
# ---------------------------------------------------------------------- #

_CACHE_VERSION = 3


class LintCache:
    """Per-file findings keyed by content hash under ``.repro-lint-cache/``.

    An entry is valid when the *salt* (lint-package sources, selected
    codes) and the file's content hash both match; its findings are then
    reused without parsing.  Every rule judges a file by its own
    content, so an edit re-lints only the edited file.
    """

    DEFAULT_DIR = ".repro-lint-cache"

    def __init__(self, root: str | None = None) -> None:
        self.root = root or self.DEFAULT_DIR

    # -- keys ---------------------------------------------------------- #

    def salt(self, codes: Iterable[str]) -> str:
        """Hash of everything besides file content that affects findings."""
        h = hashlib.sha256(f"v{_CACHE_VERSION}".encode())
        for code in sorted(codes):
            h.update(code.encode())
        lint_dir = os.path.dirname(os.path.abspath(__file__))
        for name in sorted(os.listdir(lint_dir)):
            if not name.endswith(".py"):
                continue
            h.update(name.encode())
            with open(os.path.join(lint_dir, name), "rb") as fh:
                h.update(hashlib.sha256(fh.read()).digest())
        return h.hexdigest()

    def _entry_path(self, salt: str, path: str) -> str:
        digest = hashlib.sha256(f"{salt}:{path}".encode()).hexdigest()
        return os.path.join(self.root, f"{digest}.json")

    # -- IO ------------------------------------------------------------- #

    def load(self, salt: str, path: str, content_sha: str) -> dict | None:
        try:
            with open(self._entry_path(salt, path), "r", encoding="utf-8") as fh:
                entry = json.load(fh)
        except (OSError, ValueError):
            return None
        if entry.get("content_sha") != content_sha:
            return None
        return entry

    def store(self, salt: str, path: str, entry: dict) -> None:
        os.makedirs(self.root, exist_ok=True)
        tmp = self._entry_path(salt, path) + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(entry, fh)
        os.replace(tmp, self._entry_path(salt, path))  # repro-lint: disable=RPR004 - cache entries are disposable, not durable state


def _findings_to_json(findings: list[Finding]) -> list[dict[str, object]]:
    return [f.to_dict() for f in findings]


def _findings_from_json(raw: list[dict]) -> list[Finding]:
    return [
        Finding(str(d["code"]), str(d["path"]), int(d["line"]),  # type: ignore[arg-type]
                int(d["col"]), str(d["message"]))  # type: ignore[arg-type]
        for d in raw
    ]


def lint_paths(
    paths: Iterable[str],
    select: Iterable[str] | None = None,
    cache: LintCache | None = None,
) -> LintRun:
    """Run the selected rules (default: all registered) over ``paths``."""
    codes = sorted(select) if select is not None else sorted(_REGISTRY)
    unknown = [c for c in codes if c not in _REGISTRY]
    if unknown:
        raise KeyError(f"unknown lint rule code(s): {', '.join(unknown)}")
    run = LintRun()
    salt = cache.salt(codes) if cache is not None else ""

    for path in iter_python_files(paths):
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        sha = hashlib.sha256(text.encode()).hexdigest()
        norm = path.replace(os.sep, "/")
        entry = cache.load(salt, path, sha) if cache is not None else None
        if entry is not None:
            run.cache_hits += 1
            findings = _findings_from_json(entry["findings"])
        else:
            try:
                sf = SourceFile(path, text)
            except (SyntaxError, UnicodeDecodeError, ValueError) as exc:
                run.parse_errors += 1
                lineno = getattr(exc, "lineno", None) or 1
                run.findings.append(
                    Finding("RPR000", norm, lineno, 1, f"cannot parse: {exc}")
                )
                continue
            run.cache_misses += 1
            findings = [
                finding
                for code in codes
                for finding in _REGISTRY[code].check(sf)
                if not sf.suppressed(finding.code, finding.line)
            ]
            if cache is not None:
                cache.store(salt, path, {
                    "content_sha": sha,
                    "findings": _findings_to_json(findings),
                })
        run.files_checked += 1
        run.findings.extend(findings)

    run.findings.sort(key=lambda f: (f.path, f.line, f.col, f.code))
    return run


# ---------------------------------------------------------------------- #
# Output
# ---------------------------------------------------------------------- #


def format_text(run: LintRun) -> str:
    """Human-readable one-line-per-finding report with a trailer."""
    out = [f.render() for f in run.findings]
    plural = "s" if run.files_checked != 1 else ""
    out.append(
        f"{len(run.findings)} finding(s) in {run.files_checked} file{plural} checked"
    )
    return "\n".join(out)


def format_json(run: LintRun, extra: dict[str, object] | None = None) -> str:
    """Machine-readable report (findings, per-code counts, file stats)."""
    counts: dict[str, int] = {}
    for f in run.findings:
        counts[f.code] = counts.get(f.code, 0) + 1
    payload: dict[str, object] = {
        "findings": [f.to_dict() for f in run.findings],
        "counts": counts,
        "files_checked": run.files_checked,
        "parse_errors": run.parse_errors,
    }
    if extra:
        payload.update(extra)
    return json.dumps(payload, indent=2, sort_keys=True)
