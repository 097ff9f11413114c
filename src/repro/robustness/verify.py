"""Offline index verification: checksums plus cross-file invariants.

``repro verify <index_dir>`` (and tests) use :func:`verify_index` to answer
"is this index internally consistent?" without trusting any single
artifact.  Checks, in order:

1. ``runs.map`` parses and its ``#crc`` line matches the body;
2. every referenced run file exists and opens the way the postings reader
   opens it: trailing CRC32, then the mapping table (term ids ascend, the
   lists tile the payload), then every list decoded strictly (``run-crc``
   or ``run-format`` otherwise); and its header agrees with the map entry
   (run id, min/max doc IDs);
3. run document ranges are sorted and non-overlapping (splicing partial
   lists by run order assumes this);
4. ``doctable.tsv`` (when present) passes its ``#crc`` line and covers
   every document ID the runs claim to hold;
5. ``dictionary.bin`` (when present) passes its CRC footer
   (``dictionary-crc``) and parses as a body the writer could have
   written (``dictionary-format`` otherwise);
6. every term id appearing in a run header is reachable from the
   dictionary (postings that no query could ever retrieve indicate a
   damaged dictionary or a foreign run file);
7. the telemetry artifacts (when present): ``run.metrics.json`` must
   satisfy the :mod:`repro.obs.schema` validator and ``trace.json`` must
   be a loadable Chrome trace — CI fails builds on either.

Each finding is an :class:`Issue`; :func:`verify_index` stops at the first
one unless ``keep_going=True``.  This module is imported lazily (not from
``repro.robustness.__init__``) because it pulls in the reader stack.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

from repro.postings.doctable import DOCTABLE_FILENAME, DocTable
from repro.postings.output import MAP_FILENAME, DocRangeMap
from repro.postings.reader import _OpenRun
from repro.robustness.errors import ChecksumError

__all__ = ["Issue", "VerifyResult", "verify_index"]

DICT_FILENAME = "dictionary.bin"


@dataclass(frozen=True)
class Issue:
    """One inconsistency found in an index directory."""

    check: str  #: machine-readable check name, e.g. ``run-crc``
    path: str  #: artifact the issue was found in
    detail: str

    def __str__(self) -> str:
        return f"[{self.check}] {self.path}: {self.detail}"


@dataclass
class VerifyResult:
    """Outcome of :func:`verify_index`."""

    issues: list[Issue]
    runs_checked: int = 0
    docs_checked: int = 0
    terms_checked: int = 0

    @property
    def ok(self) -> bool:
        return not self.issues


def verify_index(index_dir: str, keep_going: bool = False) -> VerifyResult:
    """Check every artifact of an index directory against the others.

    With ``keep_going=False`` (the CLI default) verification stops at the
    first inconsistency; ``keep_going=True`` collects them all, skipping
    only checks whose inputs are already known bad.
    """
    result = VerifyResult(issues=[])

    def found(check: str, path: str, detail: str) -> bool:
        """Record an issue; returns True when verification should stop."""
        result.issues.append(Issue(check, os.path.basename(path), detail))
        return not keep_going

    map_path = os.path.join(index_dir, MAP_FILENAME)
    if not os.path.exists(map_path):
        found("map-missing", map_path, "runs.map not found — not an index directory?")
        return result
    try:
        range_map = DocRangeMap.load(index_dir)
    except FileNotFoundError as exc:
        found("run-missing", str(exc.filename or map_path),
              "referenced by runs.map but absent")
        return result
    except ValueError as exc:  # ChecksumError is a ValueError
        found("map-crc", map_path, str(exc))
        return result  # nothing else is checkable without the map

    # Per-run checks: the reader's open, header agreement with the map entry.
    run_term_ids: set[int] = set()
    max_doc_seen: int | None = None
    for run in range_map.runs:
        result.runs_checked += 1
        if not os.path.exists(run.path):
            if found("run-missing", run.path, "referenced by runs.map but absent"):
                return result
            continue
        try:
            opened = _OpenRun(run.path)
        except ChecksumError as exc:
            if found("run-crc", run.path, str(exc)):
                return result
            continue
        except (ValueError, EOFError, IndexError, KeyError) as exc:
            if found("run-format", run.path, f"unreadable: {exc}"):
                return result
            continue
        run_id, min_doc, max_doc = opened.run_id, opened.min_doc, opened.max_doc
        if run_id != run.run_id:
            if found(
                "run-id",
                run.path,
                f"header says run {run_id}, runs.map says {run.run_id}",
            ):
                return result
        if (min_doc, max_doc) != (run.min_doc, run.max_doc):
            if found(
                "run-range",
                run.path,
                f"header range {min_doc}..{max_doc} != map range "
                f"{run.min_doc}..{run.max_doc}",
            ):
                return result
        run_term_ids.update(opened.term_ids.tolist())
        if run.min_doc is not None and run.max_doc is not None:
            if max_doc_seen is not None and run.min_doc <= max_doc_seen:
                if found(
                    "run-overlap",
                    run.path,
                    f"doc range starts at {run.min_doc} but a prior run "
                    f"already covers up to {max_doc_seen}",
                ):
                    return result
            max_doc_seen = (
                run.max_doc if max_doc_seen is None else max(max_doc_seen, run.max_doc)
            )

    # Doc table: CRC plus coverage of every doc ID the runs claim.
    doctable_path = os.path.join(index_dir, DOCTABLE_FILENAME)
    if os.path.exists(doctable_path):
        try:
            doc_table = DocTable.load(index_dir)
        except ValueError as exc:
            if found("doctable-crc", doctable_path, str(exc)):
                return result
            doc_table = None
        if doc_table is not None:
            result.docs_checked = len(doc_table)
            if max_doc_seen is not None and max_doc_seen >= len(doc_table):
                if found(
                    "doctable-range",
                    doctable_path,
                    f"runs reference doc {max_doc_seen} but the table has "
                    f"only {len(doc_table)} rows",
                ):
                    return result

    # Dictionary: CRC + parse, then term-id reachability for the runs.
    dict_path = os.path.join(index_dir, DICT_FILENAME)
    if os.path.exists(dict_path):
        from repro.dictionary.serialize import load_dictionary

        terms: dict[str, int] | None = None
        try:
            terms = load_dictionary(dict_path)
        except ChecksumError as exc:
            if found("dictionary-crc", dict_path, str(exc)):
                return result
        except (ValueError, EOFError) as exc:
            if found("dictionary-format", dict_path, str(exc)):
                return result
        if terms is not None:
            result.terms_checked = len(terms)
            known_ids = set(terms.values())
            orphans = run_term_ids - known_ids
            if orphans:
                sample = sorted(orphans)[:5]
                if found(
                    "orphan-terms",
                    dict_path,
                    f"{len(orphans)} term id(s) in run files are missing from "
                    f"the dictionary (e.g. {sample})",
                ):
                    return result

    # Telemetry artifacts: schema-validate instead of trusting them.
    from repro.obs.schema import METRICS_FILENAME, TRACE_FILENAME, validate_metrics

    metrics_path = os.path.join(index_dir, METRICS_FILENAME)
    if os.path.exists(metrics_path):
        try:
            with open(metrics_path, "r", encoding="utf-8") as fh:
                payload = fh.read()
            problems = validate_metrics(json.loads(payload))
        except ValueError as exc:
            problems = [f"unparseable JSON: {exc}"]
        for problem in problems:
            if found("metrics-schema", metrics_path, problem):
                return result

    trace_path = os.path.join(index_dir, TRACE_FILENAME)
    if os.path.exists(trace_path):
        from repro.obs.trace import load_chrome_trace

        try:
            load_chrome_trace(trace_path)
        except ValueError as exc:
            if found("trace-format", trace_path, str(exc)):
                return result

    return result
