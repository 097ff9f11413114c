"""The operations the benchmark times, and the checks on what they wrote.

Both the untraced rep (``child.py``) and the traced run call the same
functions here, so a traced number and an end-to-end number always
describe the same work.  Wall time is read only through
``repro.util.timing.now`` (lint rule RPR008); CPU time and peak memory
come from ``resource``.
"""

from __future__ import annotations

import glob
import hashlib
import os
import resource
from contextlib import AbstractContextManager, nullcontext
from typing import Any, Callable

from repro.core.config import PlatformConfig
from repro.core.engine import IndexingEngine
from repro.corpus.collection import Collection
from repro.postings.doctable import DOCTABLE_FILENAME
from repro.postings.merge import merge_index
from repro.postings.output import MAP_FILENAME
from repro.postings.reader import PostingsReader
from repro.robustness.verify import verify_index
from repro.search.query import SearchEngine
from repro.util.timing import now


__all__ = [
    "Usage",
    "run_build",
    "run_merge_read",
    "index_digest",
    "index_bytes",
    "check_index",
    "check_merge_equivalence",
]

SpanFactory = Callable[[str], AbstractContextManager[Any]]


def _no_span(_name: str) -> AbstractContextManager[Any]:
    return nullcontext()


def _steal_seconds() -> dict[int, float]:
    """Per-core time the hypervisor ran something else (``/proc/stat``)."""
    tick = os.sysconf("SC_CLK_TCK")
    stolen = {}
    with open("/proc/stat", "r", encoding="ascii") as fh:
        for line in fh:
            name, *fields = line.split()
            if name.startswith("cpu") and name != "cpu":
                stolen[int(name[3:])] = int(fields[7]) / tick
    return stolen


def _own_peak_rss_kib() -> int:
    """This process's resident high-water mark (``VmHWM``).

    Not ``ru_maxrss``: Linux carries the *spawning* process's peak into
    the child's ``ru_maxrss`` across ``exec`` (a child of a 300 MB parent
    reads 310 MB on its first line), so every rep would report the
    harness's own peak whenever that is the larger one.
    """
    with open("/proc/self/status", "r", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


class Usage:
    """Wall, CPU, peak RSS and stolen time of one timed region.

    CPU is user+sys of this process plus every descendant it has *reaped*
    (multiprocess workers are joined before ``build`` returns); peak RSS is
    this process's high-water mark plus the largest reaped child's
    (workers are forked from the rep, so theirs starts at the rep's).  The
    window's ends on the system-wide ``now()`` clock and the per-core steal
    inside it let the harness take out what the host did to the rep.
    """

    def __enter__(self) -> "Usage":
        self._steal0 = _steal_seconds()
        self._cpu0 = self._cpu()
        self._t0 = now()
        return self

    def __exit__(self, *exc: object) -> None:
        self._t1 = now()
        self.cpu_s = self._cpu() - self._cpu0
        self.steal_s = {core: s - self._steal0[core] for core, s in _steal_seconds().items()}
        kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        self.peak_rss_mb = (_own_peak_rss_kib() + kids) / 1024.0  # both KiB on Linux

    @staticmethod
    def _cpu() -> float:
        total = 0.0
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
            usage = resource.getrusage(who)
            total += usage.ru_utime + usage.ru_stime
        return total

    def as_dict(self) -> dict[str, Any]:
        return {
            "wall_s": self._t1 - self._t0,
            "cpu_s": self.cpu_s,
            "peak_rss_mb": self.peak_rss_mb,
            "t_start": self._t0,
            "t_end": self._t1,
            # JSON object keys are strings.
            "steal_s": {str(core): s for core, s in self.steal_s.items()},
        }


# ---------------------------------------------------------------------- #
# Timed operations
# ---------------------------------------------------------------------- #


def run_build(corpus_dir: str, name: str, config: dict[str, Any], out_dir: str) -> dict[str, Any]:
    """One cold ``IndexingEngine.build``; only the call itself is timed."""
    collection = Collection.load(name, corpus_dir)
    engine = IndexingEngine(PlatformConfig(**config))
    with Usage() as usage:
        result = engine.build(collection, out_dir)
    report = result.supervisor
    return {
        **usage.as_dict(),
        "input_bytes": sum(w.uncompressed_bytes for w in result.file_works),
        "postings": result.posting_count,
        "terms": result.term_count,
        "tokens": result.token_count,
        "runs": result.run_count,
        "supervisor": None if report is None else {
            "restarts": report.restarts,
            "heartbeat_misses": report.heartbeat_misses,
            "degraded": report.degraded,
        },
    }


def run_merge_read(
    index_dir: str,
    out_dir: str,
    queries: list[str],
    span: SpanFactory = _no_span,
    query_seconds: list[float] | None = None,
) -> dict[str, Any]:
    """Merge twice, decode every list from both layouts, answer ``queries``.

    ``span`` and ``query_seconds`` are the traced run's hooks; the untraced
    rep leaves them at their no-op defaults.
    """
    merged_dirs = [os.path.join(out_dir, f"merged{i}") for i in (0, 1)]
    with Usage() as usage:
        consumed = 0
        merged_postings = 0
        for merged in merged_dirs:
            with span("merge"):
                stats = merge_index(index_dir, merged)
            consumed += stats["input_bytes"]
            merged_postings += stats["postings"]
        decoded = 0
        for directory in (index_dir, merged_dirs[0]):
            with span("reader.open"):
                reader = PostingsReader(directory)
                vocabulary = reader.vocabulary()
            with span("reader.scan"):
                for term_id in vocabulary.values():
                    decoded += len(reader.postings(term_id))
            consumed += sum(run.byte_size for run in reader.range_map.runs)
            reader.close()
        # Queries run against the multi-run layout a build actually
        # leaves behind: every term lookup splices partial lists.
        hits = 0
        with span("search"):
            search = SearchEngine(index_dir)
            for i, query in enumerate(queries):
                t0 = now()
                if i % 2:
                    hits += len(search.ranked(query))
                else:
                    hits += len(search.boolean_and(query))
                if query_seconds is not None:
                    query_seconds.append(now() - t0)
            search.reader.close()
    return {
        **usage.as_dict(),
        "input_bytes": consumed,
        "postings": merged_postings + decoded,
        "merged_postings": merged_postings // len(merged_dirs),
        "decoded_postings": decoded,
        "queries": len(queries),
        "query_hits": hits,
    }


# ---------------------------------------------------------------------- #
# Output checks (never inside a timed region)
# ---------------------------------------------------------------------- #


def _index_files(index_dir: str) -> list[str]:
    """The files that *are* the index: runs, dictionary, run map, doc table.

    ``build.manifest`` and telemetry artifacts are provenance, not index
    content, and are left out of both the digest and the size.
    """
    runs = sorted(
        glob.glob(os.path.join(index_dir, "**", "run_*.post"), recursive=True)
    )
    fixed = [
        os.path.join(index_dir, name)
        for name in ("dictionary.bin", MAP_FILENAME, DOCTABLE_FILENAME)
    ]
    return runs + [path for path in fixed if os.path.exists(path)]


def index_digest(index_dir: str) -> str:
    """SHA-256 over the index files' relative names and bytes."""
    digest = hashlib.sha256()
    for path in _index_files(index_dir):
        digest.update(os.path.relpath(path, index_dir).encode("utf-8") + b"\0")
        with open(path, "rb") as fh:
            digest.update(fh.read())
    return digest.hexdigest()


def index_bytes(index_dir: str) -> int:
    return sum(os.path.getsize(path) for path in _index_files(index_dir))


def check_index(index_dir: str, expected_digest: str | None) -> list[str]:
    """Problems with an index directory (empty list = correct).

    ``verify_index`` must be clean and, when a reference digest is given,
    the index files must equal the reference byte for byte.
    """
    problems = [str(issue) for issue in verify_index(index_dir, keep_going=True).issues]
    if expected_digest is not None:
        actual = index_digest(index_dir)
        if actual != expected_digest:
            problems.append(
                f"digest {actual[:16]} != reference {expected_digest[:16]} in {index_dir}"
            )
    return problems


def check_merge_equivalence(index_dir: str, merged_dir: str, terms: list[str]) -> list[str]:
    """``terms`` must decode identically from the multi-run and merged index."""
    problems = []
    with PostingsReader(index_dir) as multi, PostingsReader(merged_dir) as merged:
        for term in terms:
            if multi.postings(term) != merged.postings(term):
                problems.append(f"term {term!r} decodes differently after the merge")
    return problems
