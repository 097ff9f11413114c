""":class:`IndexingEngine` — the public facade of the reproduction.

``engine.build(collection, output_dir)`` executes the paper's whole
system functionally, in file order, as three phases over one
:class:`RunBoundaryState` — open (steps 1 or a resume), run loop (2),
finalise (3–4):

1. **Sampling** (Section III.E): parse ~0.1% of documents, classify trie
   collections into popular/unpopular, split popular across CPU indexers
   by token balance and unpopular across GPUs by ``i mod N₂``.
2. **Parse + index + runs** (Fig 8): parse with trie-indexed
   regrouping; route each collection's stream to its bound indexer; CPU
   indexers insert into their B-tree shards, GPU indexers run the warp
   algorithm on the SIMT simulator; every ``files_per_run`` files, drain
   all postings accumulators into a run file with its header mapping
   table (one file per run by default — the paper's 1GB batches).
3. **Epilogue** (Table VI): combine the dictionary shards, write the
   front-coded dictionary and the docID-range map.
4. **Timing**: replay the *measured* per-file work through the
   discrete-event pipeline to produce the simulated Table IV/VI rows
   (eight cores + two GPUs cannot run concurrently inside one Python
   process; see DESIGN.md §2).

The resulting directory is a queryable index:
:class:`repro.postings.reader.PostingsReader` resolves term strings
through the dictionary and splices partial postings across runs.
"""

from __future__ import annotations

import hashlib
import itertools
import os
from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterator

import numpy as np

from repro.core.config import PlatformConfig
from repro.core.costs import CostConstants, StageCosts
from repro.core.pipeline import BuildReport, simulate_full_build
from repro.core.workload import FileWork, GroupWork
from repro.corpus.collection import Collection
from repro.corpus.warc import CorruptContainerError
from repro.dictionary.dictionary import Dictionary, DictionaryShard
from repro.dictionary.serialize import save_dictionary
from repro.dictionary.trie import TrieTable
from repro.gpusim.device import Device
from repro.indexers.assignment import WorkAssignment, build_assignment, sample_collection
from repro.indexers.base import IndexerReport
from repro.indexers.cpu import CPUIndexer
from repro.indexers.gpu import GPUIndexer
from repro.obs import runtime as obs
from repro.obs.profile import Profile, SamplingProfiler
from repro.obs.profile_schema import PROFILE_FILENAME, write_profile
from repro.obs.runtime import Telemetry
from repro.obs.schema import METRICS_FILENAME, TRACE_FILENAME, build_payload, write_metrics
from repro.parsing.parser import ParsedFile, Parser
from repro.parsing.regroup import ParsedBatch
from repro.postings.compression import get_codec
from repro.postings.lists import RunPostings
from repro.postings.doctable import DocTable
from repro.postings.output import DocRangeMap, RunFile, RunWriter
from repro.robustness import faults
from repro.robustness.checkpoint import (
    BuildManifest,
    RunRecord,
    clear_checkpoint,
    crc32_of_file,
    load_checkpoint,
    save_checkpoint,
)
from repro.robustness.errors import RetryExhausted
from repro.robustness.policy import GpuFailover, RobustnessReport, SkippedFile
from repro.robustness.retry import RetryOutcome, retry_call
from repro.robustness.supervise import SupervisorReport
from repro.util.timing import Stopwatch, now

if TYPE_CHECKING:
    from repro.core.mp_backend import ParseWorker

__all__ = ["IndexingEngine", "EngineResult", "RunBoundaryState", "WorkSplit"]

#: Errors that mark a container permanently unreadable — the retry layer
#: has already given up (or declined to try) by the time these surface, so
#: they go straight to the ``on_error`` policy.
_PERMANENT_READ_ERRORS = (CorruptContainerError, RetryExhausted, OSError)

#: What parsing one file yields: ``(parsed, permanent_error, retry_outcome)``.
ParseResult = tuple[ParsedFile | None, Exception | None, RetryOutcome | None]

#: ``(file_index, parsed, permanent_error, retry_outcome)``, in file order.
ParsedStream = Iterator[
    tuple[int, ParsedFile | None, Exception | None, RetryOutcome | None]
]

#: A page of a build's route table: the routes of 2**10 consecutive
#: trie collections.
_ROUTE_PAGE_BITS = 10
_ROUTE_PAGE_MASK = (1 << _ROUTE_PAGE_BITS) - 1

#: ``(kind, indexer_index, is_popular, sub_batch)`` in dispatch order.
Tasks = list[tuple[str, int, bool, ParsedBatch]]


@dataclass
class WorkSplit:
    """Table V: what the CPU side vs the GPU side actually processed."""

    cpu_tokens: int = 0
    cpu_terms: int = 0
    cpu_characters: int = 0
    gpu_tokens: int = 0
    gpu_terms: int = 0
    gpu_characters: int = 0


@dataclass
class EngineResult:
    """Everything a build produces."""

    output_dir: str
    dictionary: Dictionary
    assignment: WorkAssignment
    file_works: list[FileWork]
    report: BuildReport
    split: WorkSplit
    term_count: int = 0
    token_count: int = 0
    posting_count: int = 0
    document_count: int = 0
    run_count: int = 0
    #: Real elapsed time of the whole build (one monotonic interval).
    wall_seconds: float = 0.0
    #: Sum of the stopwatch buckets: the engine thread's measured work
    #: (sampling, parse or the wait for the parse worker, index, run
    #: writes, dictionary epilogue).  The buckets never overlap, so this
    #: is at most ``wall_seconds``; the gap is unmeasured engine time.
    cpu_seconds: float = 0.0
    stopwatch: Stopwatch = field(default_factory=Stopwatch)
    indexer_reports: dict[str, IndexerReport] = field(default_factory=dict)
    #: Fault handling summary: retries, skipped/quarantined files, GPU
    #: failovers, and how many runs a resume recovered from the manifest.
    robustness: RobustnessReport = field(default_factory=RobustnessReport)
    #: The telemetry bundle the build ran under, and where its artifacts
    #: landed (``None`` when ``config.telemetry`` is off).
    telemetry: Telemetry | None = None
    metrics_path: str | None = None
    trace_path: str | None = None
    #: Merged cross-process ``run.profile.json`` (``None`` unless the
    #: build ran with ``config.profile``).
    profile_path: str | None = None
    #: What the multiprocess backend's supervisor saw: worker restarts,
    #: requeued files, stalls, degradation (``None`` for serial builds,
    #: which have no process to supervise).
    supervisor: SupervisorReport | None = None

    @property
    def measured_throughput_mbps(self) -> float:
        """Real uncompressed MB over real *wall* seconds.

        Divides by :attr:`wall_seconds`, not :attr:`cpu_seconds`: the
        stopwatch covers only the engine thread's measured stages, while
        the wall includes everything the build spent.
        """
        if self.wall_seconds <= 0:
            return 0.0
        total = sum(w.uncompressed_bytes for w in self.file_works)
        return total / 1e6 / self.wall_seconds


@dataclass
class RunBoundaryState:
    """What a build carries across a run boundary — declared once.

    The fresh path constructs it, ``resume`` loads it from the journal,
    ``close_run`` journals it and the epilogue reads it.  Between
    boundaries it is the live state the per-file bookkeeping advances.
    The first ten fields are the journal record's state pickle, under
    these names; the indexers travel beside it, their forests as
    mutation logs (see :mod:`repro.robustness.checkpoint`).
    """

    fingerprint: str
    assignment: WorkAssignment
    doc_table: DocTable
    file_works: list[FileWork]
    robustness: RobustnessReport
    doc_offset: int = 0
    token_count: int = 0
    posting_count: int = 0
    run_count: int = 0
    next_file_index: int = 0
    #: Indexer slots.  A GPU failover replaces an entry, so these lists
    #: are the one place that says which object owns a slot.
    cpu_indexers: list = field(default_factory=list)
    gpu_indexers: list = field(default_factory=list)

    @property
    def indexers(self) -> list:
        """Every slot in the journal's order: CPU slots, then GPU slots."""
        return [*self.cpu_indexers, *self.gpu_indexers]

    def journal(self, output_dir: str) -> None:
        """Append this boundary's record to ``checkpoint.bin``."""
        payload = dict(vars(self))
        del payload["cpu_indexers"], payload["gpu_indexers"]
        save_checkpoint(output_dir, payload, self.indexers)

    @classmethod
    def load(cls, output_dir: str, num_cpu_indexers: int) -> "RunBoundaryState | None":
        """The last durable boundary in ``output_dir``'s journal, if any."""
        record = load_checkpoint(output_dir)
        if record is None:
            return None
        indexers = record.pop("indexers")
        return cls(
            **record,
            cpu_indexers=indexers[:num_cpu_indexers],
            gpu_indexers=indexers[num_cpu_indexers:],
        )


def _parse_under_retry(
    parser: Parser, path: str, k: int, config: PlatformConfig
) -> ParseResult:
    """Parse file ``k`` under the retry policy; classify the outcome.

    ``(parsed, None, outcome)`` on success, ``(None, error, None)`` for
    a container that stays unreadable (a fatal injected fault propagates
    — that *is* the crash).  Touches nothing shared, so the multiprocess
    backend's worker process calls it too; merging ``outcome`` into the
    robustness report is left to the engine.
    """

    def call() -> ParsedFile:
        # The paper's parser-array slot for this file: stamped on the
        # batch (and the parse_file span) for round-robin accounting,
        # while the trace lane stays the parser's own.
        parser.parser_id = k % config.num_parsers
        return parser.parse_file(path, sequence=k)

    try:
        parsed, outcome = retry_call(call, config.retry, path)
    except _PERMANENT_READ_ERRORS as exc:
        return None, exc, None
    return parsed, None, outcome


@dataclass
class _Build:
    """One build in progress: what open → run loop → finalise share.

    :meth:`index_stream` is the run loop, the only one: a serial build
    feeds it files parsed inline, a multiprocess build files parsed
    ahead by a :class:`~repro.core.mp_backend.ParseWorker`.  The methods
    below are engine-thread only, called in file order.
    """

    config: PlatformConfig
    collection: Collection
    output_dir: str
    tel: Telemetry
    watch: Stopwatch
    trie: TrieTable
    state: RunBoundaryState
    range_map: DocRangeMap
    manifest: BuildManifest
    #: A multiprocess build's parse worker, started by the open phase and
    #: already parsing from ``start_file``; the run loop closes it.
    ahead: ParseWorker | None = None

    def __post_init__(self) -> None:
        state, cfg = self.state, self.config
        self.injector = faults.active()
        self.start_file = state.next_file_index
        self.popular_set = set(state.assignment.popular)
        #: Where this build has routed each collection it has seen, as a
        #: route number; ``routes`` maps each ``(kind, indexer index, is
        #: popular)`` to its number.  A binding is for the program lifetime
        #: and a GPU failover re-routes unseen collections only, so an
        #: entry never goes stale.
        self.routes: dict[tuple[str, int, bool], int] = {}
        #: The numbers, in pages of 1,024 consecutive collections (-1: not
        #: routed yet), a page made when a batch first touches it;
        #: ``page_at`` is where each trie page starts in ``route_of`` (-1:
        #: nowhere).  A flat table would be 2 B per trie collection, 618 MB
        #: at height 6; this is 4 B per 1,024 collections and 2 KB per page
        #: touched.
        self.page_at = np.full(
            -(-self.trie.num_collections >> _ROUTE_PAGE_BITS), -1, dtype=np.int32
        )
        self.route_of = np.zeros(0, dtype=np.int16)
        self.writer = RunWriter(
            self.output_dir, codec=get_codec(cfg.codec), num_stripes=cfg.output_stripes
        )
        # The open run: files indexed since the last boundary.
        self.run_file_indices: list[int] = []
        self.run_first_doc = state.doc_offset
        self.run_docs = 0
        # Set by the run loop of a multiprocess build.
        self.supervisor_report: SupervisorReport | None = None
        self._inline_parser: Parser | None = None

    def indexer_for(self, kind: str, idx: int) -> Any:
        st = self.state
        return (st.cpu_indexers if kind == "cpu" else st.gpu_indexers)[idx]

    # ---- the run loop -------------------------------------------------- #

    def index_stream(self, stream: ParsedStream) -> None:
        """Index each parsed file inline and book it, closing a run at
        every boundary; consumes ``stream`` to completion."""
        injector, watch, tracer = self.injector, self.watch, self.tel.tracer
        for k, parsed, error, outcome in stream:
            if injector is not None:
                for ordinal in injector.gpu_failures(k):
                    self.fail_gpu(ordinal, k)

            if error is not None:
                self.handle_read_failure(k, error)
            else:
                assert parsed is not None
                batch = parsed.batch
                with watch.measure("index"), tracer.span(
                    "index", cat="index", file=k,
                    docs=batch.num_docs, tokens=batch.total_tokens,
                ):
                    pop_work, unpop_work = self.index_batch(batch, self.state.doc_offset)
                self.record_file(k, parsed, outcome, pop_work, unpop_work)

            if self.is_run_boundary(k):
                self.close_run(k)

    # ---- per-file bookkeeping and run boundaries ----------------------- #

    def record_file(
        self,
        k: int,
        parsed: ParsedFile,
        outcome: RetryOutcome | None,
        pop_work: GroupWork,
        unpop_work: GroupWork,
    ) -> None:
        """Post-index bookkeeping for one file.

        Called strictly in file order — it advances the global doc-ID
        cursor and the doc table.
        """
        st = self.state
        metrics = self.tel.metrics
        batch = parsed.batch
        metrics.count("build.files_indexed")
        metrics.count("build.docs", batch.num_docs)
        metrics.count("build.tokens", batch.total_tokens)
        metrics.observe("file.uncompressed_bytes", parsed.metrics.uncompressed_bytes)
        st.file_works.append(
            FileWork(
                file_index=k,
                compressed_bytes=parsed.metrics.compressed_bytes,
                uncompressed_bytes=parsed.metrics.uncompressed_bytes,
                num_docs=batch.num_docs,
                raw_tokens=parsed.metrics.tokens_raw,
                popular=pop_work,
                unpopular=unpop_work,
                segment=self.collection.segment_of(k),
                fault_delay_s=outcome.backoff_s if outcome else 0.0,
            )
        )
        for entry in parsed.doc_table:
            st.doc_table.add(entry.source_file, entry.uri, entry.offset)
        st.token_count += batch.total_tokens
        st.doc_offset += batch.num_docs
        self.run_docs += batch.num_docs
        self.run_file_indices.append(k)

    def is_run_boundary(self, k: int) -> bool:
        # A run closes after `files_per_run` files (the paper's
        # fixed-total-size batches) or at the end of the collection —
        # on file *position*, so run numbering survives skipped files.
        return (
            (k + 1) % self.config.files_per_run == 0
            or k == len(self.collection.files) - 1
        )

    def close_run(self, k: int) -> None:
        """Drain accumulators → run file → manifest → checkpoint."""
        st = self.state
        cfg = self.config
        metrics = self.tel.metrics
        with self.watch.measure("write_runs"), self.tel.tracer.span(
            "write_run", cat="output"
        ) as run_tags:
            run = RunPostings.concat(indexer.drain_postings() for indexer in st.indexers)
            run_postings = run.posting_count
            st.posting_count += run_postings
            run_id = k // cfg.files_per_run
            run_file = self.writer.write_run(run_id, run)
            self.range_map.add(run_file)
            st.run_count += 1
            run_tags["run"] = run_id
            run_tags["postings"] = run_postings
            run_tags["bytes"] = run_file.byte_size
        metrics.count("runs.written")
        metrics.count("postings.entries", run_postings)
        metrics.count(f"postings.bytes.{cfg.codec}", run_file.byte_size)
        metrics.observe("run.bytes", run_file.byte_size)
        metrics.observe("run.postings", run_postings)
        # Durability order: run file → manifest append → checkpoint
        # append.  A crash at any point leaves a resumable directory
        # (see repro.robustness.checkpoint).
        with self.tel.tracer.span("checkpoint", cat="robustness", run=run_id):
            self.manifest.append_run(
                RunRecord(
                    run_id=run_id,
                    path=os.path.relpath(run_file.path, self.output_dir),
                    crc32=crc32_of_file(run_file.path),
                    min_doc=run_file.min_doc,
                    max_doc=run_file.max_doc,
                    entry_count=run_file.entry_count,
                    byte_size=run_file.byte_size,
                    first_doc=self.run_first_doc,
                    docs=self.run_docs,
                    postings=run_postings,
                    file_indices=tuple(self.run_file_indices),
                    files=tuple(
                        os.path.basename(self.collection.files[i])
                        for i in self.run_file_indices
                    ),
                )
            )
            st.next_file_index = k + 1
            st.journal(self.output_dir)
        self.run_file_indices = []
        self.run_first_doc = st.doc_offset
        self.run_docs = 0

    # ---- error policy -------------------------------------------------- #

    def handle_read_failure(self, file_index: int, error: Exception) -> None:
        """Apply the ``on_error`` policy to a permanently unreadable file."""
        cfg = self.config
        if cfg.on_error == "strict":
            raise error
        skipped = self.state.robustness.skipped
        path = self.collection.files[file_index]
        reason = f"{type(error).__name__}: {error}"
        if cfg.on_error == "quarantine":
            dest = self.collection.quarantine_file(
                file_index, reason, quarantine_dir=cfg.quarantine_dir
            )
            skipped.append(
                SkippedFile(
                    file_index=file_index,
                    path=path,
                    reason=reason,
                    action="quarantine",
                    quarantined_to=dest,
                )
            )
            obs.count("robustness.quarantined")
        else:
            skipped.append(SkippedFile(file_index=file_index, path=path, reason=reason))
            obs.count("robustness.skipped")

    def fail_gpu(self, ordinal: int, file_index: int) -> None:
        """Replace a dead GPU indexer with a CPU fallback, mid-build.

        The fallback adopts the failed indexer's dictionary shard and
        postings accumulator *objects*, so term ids, accumulated postings
        and run output are exactly what the GPU would have produced — the
        index stays correct; only the (simulated) speed degrades.
        """
        st = self.state
        if not 0 <= ordinal < len(st.gpu_indexers):
            return
        failed = st.gpu_indexers[ordinal]
        if failed.kind != "gpu":
            return  # this ordinal already failed over
        replacement = CPUIndexer(failed.indexer_id, failed.shard)
        replacement.accumulator = failed.accumulator
        replacement.total = failed.total
        st.gpu_indexers[ordinal] = replacement
        st.assignment.mark_gpu_failed(ordinal)
        st.robustness.gpu_failovers.append(
            GpuFailover(
                gpu_ordinal=ordinal,
                indexer_id=failed.indexer_id,
                file_index=file_index,
                collections=len(st.assignment.gpu_sets[ordinal]),
                tokens_before_failure=failed.total.tokens,
            )
        )
        obs.count("robustness.gpu_failovers")
        self.tel.tracer.instant(
            "gpu_failover", cat="robustness", gpu=ordinal, file=file_index
        )

    # ---- parsing ------------------------------------------------------- #

    def _merge_outcome(self, outcome: RetryOutcome | None) -> None:
        if outcome is not None:
            self.state.robustness.merge_outcome(outcome.retries, outcome.backoff_s)

    def parse_file_inline(self, k: int) -> ParseResult:
        if self._inline_parser is None:
            cfg = self.config
            self._inline_parser = Parser(
                parser_id=0,
                trie=self.trie,
                strip_html=cfg.strip_html,
                regroup=cfg.regroup,
                positional=cfg.positional,
            )
        return _parse_under_retry(
            self._inline_parser, self.collection.files[k], k, self.config
        )

    def make_parsed_stream(self, ahead: ParseWorker | None = None) -> ParsedStream:
        """Yield ``(file_index, parsed, error, retry_outcome)`` in order.

        Every container read runs under the config's retry policy; a file
        that stays unreadable yields ``parsed=None`` with the permanent
        ``error`` for the caller's ``on_error`` policy.  Files a resumed
        build already indexed are skipped.

        Without ``ahead`` each file is parsed inline on the engine
        thread.  With it (a multiprocess build's parse worker, started at
        ``start_file`` with its first ``ahead.window`` files submitted)
        that many files are parsed ahead of the indexers: the paper's
        parser/indexer pipeline, executed for real.  Results are always
        consumed in file order, so indexes are byte-identical to a build
        without it.
        """
        watch, tracer = self.watch, self.tel.tracer
        indices = iter(range(self.start_file, len(self.collection.files)))

        if ahead is None:
            for k in indices:
                with watch.measure("parse"), tracer.span("parse", cat="parse", file=k):
                    result = self.parse_file_inline(k)
                self._merge_outcome(result[2])
                yield (k, *result)
            return

        assert ahead.start == self.start_file, (ahead.start, self.start_file)
        # Already submitted when the worker started.
        pending = deque(itertools.islice(indices, ahead.window))
        while pending:
            k = pending.popleft()
            # The worker traces its own "parse_file" spans on its own
            # lane; the engine lane records only the wait.
            with watch.measure("parse"), tracer.span("parse.wait", cat="parse", file=k):
                result = ahead.collect(k)
            self._merge_outcome(result[2])
            nxt = next(indices, None)
            if nxt is not None:
                ahead.submit(nxt)
                pending.append(nxt)
            yield (k, *result)

    # ---- indexing ------------------------------------------------------ #

    def index_batch(
        self, batch: ParsedBatch, doc_offset: int
    ) -> tuple[GroupWork, GroupWork]:
        """Route one buffer's collections to their bound indexers, inline.

        Split the buffer per (indexer, group), index each sub-batch on
        the engine thread in deterministic order, and aggregate the
        group work.
        """
        tasks = self.split_batch(batch)
        results = [
            self.indexer_for(kind, idx).index_batch(sub, doc_offset)
            for kind, idx, _is_popular, sub in tasks
        ]
        return self.aggregate_group_work(batch, tasks, results)

    def split_batch(self, batch: ParsedBatch) -> Tasks:
        """Partition one buffer into per-(indexer, group) sub-batches.

        Returns ``(kind, indexer_index, is_popular, sub_batch)`` tuples
        sorted into the serial loop's historical consumption order (CPU
        slots before GPU slots, then by index) — term-id allocation order
        depends on it.  ``bind_unseen`` mutates the assignment and must
        see collections in file order; it scans every owner set, so it is
        asked once per collection per build.  Sub-batches are built per
        (indexer, group) so group-level work attribution stays exact
        even on CPU-only configurations; each is a selection of
        collection rows over the buffer's shared token columns, nothing
        is copied.
        """
        if not batch.regrouped:
            # Regrouping disabled (ablation): the whole document-order
            # stream goes through one CPU indexer — the paper's ~15×
            # comparison is against a *serial* indexer, and splitting an
            # ungrouped stream would duplicate collections across shards.
            return [("cpu", 0, False, batch)]

        routes, page_at = self.routes, self.page_at
        order = batch.order
        page = order >> _ROUTE_PAGE_BITS
        start = page_at[page]
        if start.min(initial=0) < 0:
            fresh = list(dict.fromkeys(page[start < 0].tolist()))
            end = len(self.route_of) + (len(fresh) << _ROUTE_PAGE_BITS)
            page_at[fresh] = np.arange(len(self.route_of), end, 1 << _ROUTE_PAGE_BITS)
            self.route_of = np.concatenate(
                (self.route_of, np.full(end - len(self.route_of), -1, dtype=np.int16))
            )
            start = page_at[page]
        at = start | order & _ROUTE_PAGE_MASK
        taken = self.route_of[at]
        unseen = taken < 0
        if unseen.any():
            bind, popular = self.state.assignment.bind_unseen, self.popular_set
            taken[unseen] = self.route_of[at[unseen]] = [
                routes.setdefault((*bind(cidx), cidx in popular), len(routes))
                for cidx in order[unseen].tolist()
            ]
        tasks: Tasks = []
        for key, route in sorted(routes.items()):
            rows = np.flatnonzero(taken == route)
            if len(rows):
                tasks.append((*key, batch.select(rows)))
        return tasks

    @staticmethod
    def aggregate_group_work(
        batch: ParsedBatch, tasks: Tasks, results: list[Any]
    ) -> tuple[GroupWork, GroupWork]:
        """Fold per-sub-batch indexer reports into (popular, unpopular) work.

        ``results`` is parallel to ``tasks``; entries are
        :class:`~repro.indexers.base.IndexerReport` or GPU batch reports
        carrying one.  Pure aggregation.
        """
        if not batch.regrouped:
            report = GroupWork()
            rep = getattr(results[0], "report", results[0])
            report.tokens = rep.tokens
            report.new_terms = rep.new_terms
            report.node_visits = rep.btree.node_visits
            report.hot_visit_fraction = 0.0
            return GroupWork(), report

        groups = {True: GroupWork(), False: GroupWork()}
        hot_fractions = {True: 0.95, False: 0.35}
        for (kind, idx, is_popular, sub), res in zip(tasks, results):
            # A GPU slot can hold a CPU fallback after a failover, so
            # normalize on the report attribute GPU batches carry.
            rep = getattr(res, "report", res)
            g = groups[is_popular]
            g.tokens += rep.tokens
            g.new_terms += rep.new_terms
            g.node_visits += rep.btree.node_visits
            g.full_string_fetches += rep.btree.full_string_fetches
            g.splits += rep.btree.splits
            g.stream_chars += rep.characters
            g.dict_chars += rep.characters  # refined below
            g.hot_visit_fraction = hot_fractions[is_popular]
            largest = int(sub.tokens.max(initial=0))
            g.largest_collection_tokens = max(g.largest_collection_tokens, largest)
        for g in groups.values():
            if g.tokens:
                g.visits_per_token = g.node_visits / g.tokens
        return groups[True], groups[False]


class IndexingEngine:
    """The heterogeneous pipelined indexer."""

    def __init__(
        self,
        config: PlatformConfig | None = None,
        cost_constants: CostConstants | None = None,
    ) -> None:
        self.config = config if config is not None else PlatformConfig()
        self.costs = StageCosts(cost_constants if cost_constants is not None else CostConstants())
        if not self.config.regroup and self.config.num_gpus:
            raise ValueError(
                "regrouping cannot be disabled with GPU indexers: one thread "
                "block consumes one trie collection at a time (Section III.C)"
            )

    # ------------------------------------------------------------------ #

    def build(
        self, collection: Collection, output_dir: str, resume: bool = False
    ) -> EngineResult:
        """Build inverted files for ``collection`` into ``output_dir``.

        ``resume=True`` restarts an interrupted build from its last
        durable run boundary (``checkpoint.bin`` + ``build.manifest``);
        the resumed build allocates the same term ids and produces output
        byte-identical to an uninterrupted one.  With no checkpoint on
        disk, ``resume=True`` silently falls back to a fresh build.

        Unless ``config.telemetry`` is off, the build runs under an
        installed :class:`~repro.obs.runtime.Telemetry` bundle and writes
        ``run.metrics.json`` and ``trace.json`` next to ``build.manifest``
        (see docs/OBSERVABILITY.md).
        """
        tel = Telemetry.create(self.config.telemetry)
        profiler: SamplingProfiler | None = None
        if self.config.profile:
            # Merge target for the engine's own sampler and every parse
            # worker delta (mp_backend absorbs into tel.profile).
            tel.profile = Profile(self.config.profile_interval_s)
            profiler = SamplingProfiler(
                self.config.profile_interval_s, lane="engine"
            )
        t_start = now()
        with obs.session(tel), tel.tracer.span(
            "build",
            collection=collection.name,
            files=len(collection.files),
            resume=resume,
        ):
            if profiler is not None:
                profiler.start()
            try:
                # The three phases, each callable on its own.
                build = self._open(collection, output_dir, resume, tel)
                self._run_loop(build)
                result = self._finalise(build)
            finally:
                if profiler is not None:
                    profiler.stop()
                    assert tel.profile is not None
                    tel.profile.absorb(profiler.drain_delta())
        result.wall_seconds = now() - t_start
        result.cpu_seconds = result.stopwatch.total()
        result.telemetry = tel
        if tel.enabled:
            result.metrics_path, result.trace_path = self._write_telemetry(
                tel, result, collection, output_dir
            )
        if tel.profile is not None:
            # Written even with telemetry off: profiling was requested
            # explicitly and has its own artifact.
            result.profile_path = write_profile(
                os.path.join(output_dir, PROFILE_FILENAME),
                tel.profile.to_payload(
                    meta={
                        "collection": collection.name,
                        "config": self.config.describe(),
                    }
                ),
            )
        return result

    # ------------------------------------------------------------------ #
    # Phase 1: open — a fresh build's boundary zero, or the journal's last
    # ------------------------------------------------------------------ #

    def _open(
        self, collection: Collection, output_dir: str, resume: bool, tel: Telemetry
    ) -> _Build:
        cfg = self.config
        watch = Stopwatch()
        os.makedirs(output_dir, exist_ok=True)
        manifest = BuildManifest(output_dir)
        fingerprint = self._fingerprint(collection)
        # The trie table is a pure function of its height.
        trie = TrieTable(height=cfg.trie_height)
        range_map = DocRangeMap()

        state = (
            RunBoundaryState.load(output_dir, cfg.num_cpu_indexers) if resume else None
        )
        if state is not None:
            if state.fingerprint != fingerprint:
                raise ValueError(
                    f"checkpoint in {output_dir} was written for a different "
                    "configuration or collection; delete checkpoint.bin or "
                    "rebuild from scratch"
                )
            state.robustness.resumed_runs = state.run_count
            # A crash between (or during) manifest append and journal
            # append leaves one orphan record; drop it and re-index that
            # run.  The kept records locate the durable runs.
            records = manifest.truncate_runs(state.run_count)
            if len(records) != state.run_count:
                raise ValueError(
                    f"{manifest.path} records {len(records)} runs, the "
                    f"checkpoint {state.run_count}; rebuild from scratch"
                )
            for rec in records:
                range_map.add(
                    RunFile(
                        path=os.path.join(output_dir, rec.path),
                        run_id=rec.run_id,
                        min_doc=rec.min_doc,
                        max_doc=rec.max_doc,
                        entry_count=rec.entry_count,
                        byte_size=rec.byte_size,
                    )
                )

        # The parse worker starts as soon as the start file is known and
        # no check is left that refuses the build: a fresh build's fork,
        # worker init and cold file 0 overlap Phase 1 sampling.
        ahead = self._start_parse_worker(
            collection, 0 if state is None else state.next_file_index, tel
        )
        try:
            if state is None:
                state = self._fresh_state(collection, fingerprint, trie, watch, tel)
                # The journal is append-only: a previous build's must go,
                # and go first, so no crash pairs it with the new manifest.
                clear_checkpoint(output_dir)
                manifest.start(fingerprint, collection.name, len(collection.files))
            assignment = state.assignment
            metrics = tel.metrics
            metrics.set_gauge("assignment.popular_collections", len(assignment.popular))
            metrics.set_gauge(
                "assignment.gpu_collections", sum(len(s) for s in assignment.gpu_sets)
            )
            metrics.set_gauge("robustness.resumed_runs", state.robustness.resumed_runs)
            return _Build(
                cfg, collection, output_dir, tel, watch, trie, state, range_map,
                manifest, ahead,
            )
        except BaseException:
            # A refused build leaves no worker behind.
            if ahead is not None:
                ahead.close()
            raise

    def _start_parse_worker(
        self, collection: Collection, start: int, tel: Telemetry
    ) -> ParseWorker | None:
        """A multiprocess build's parse worker, parsing from file ``start``."""
        if self.config.exec_backend != "multiprocess":
            return None
        # Imported lazily: the process machinery costs nothing unless
        # selected.  Under ``fork`` the child is cut from a process whose
        # only other thread is the optional sampling profiler.
        from repro.core.mp_backend import ParseWorker

        return ParseWorker(self.config, collection.files, start, faults.active(), tel)

    def _fresh_state(
        self,
        collection: Collection,
        fingerprint: str,
        trie: TrieTable,
        watch: Stopwatch,
        tel: Telemetry,
    ) -> RunBoundaryState:
        """Boundary zero: sampled assignment (Section III.E), empty indexers."""
        cfg = self.config
        robustness = RobustnessReport(on_error=cfg.on_error)
        with watch.measure("sampling"), tel.tracer.span("sampling"):
            faults.set_stage("sampling")
            try:
                sampled = sample_collection(
                    collection,
                    sample_fraction=cfg.sample_fraction,
                    strip_html=cfg.strip_html,
                    retry=cfg.retry,
                    on_error=cfg.on_error,
                    report=robustness,
                )
            finally:
                faults.set_stage("build")
            assignment = build_assignment(
                sampled, cfg.num_cpu_indexers, cfg.num_gpus, cfg.popularity
            )

        def shard(shard_id: int) -> DictionaryShard:
            return DictionaryShard(
                trie, shard_id=shard_id, degree=cfg.btree_degree,
                use_string_cache=cfg.use_string_cache,
            )

        return RunBoundaryState(
            fingerprint=fingerprint,
            assignment=assignment,
            doc_table=DocTable(),
            file_works=[],
            robustness=robustness,
            cpu_indexers=[CPUIndexer(i, shard(i)) for i in range(cfg.num_cpu_indexers)],
            gpu_indexers=[
                GPUIndexer(
                    100 + j,
                    shard(100 + j),
                    device=Device(device_id=j, spec=cfg.gpu_spec),
                    num_blocks=cfg.thread_blocks_per_gpu,
                    schedule=cfg.gpu_schedule,
                )
                for j in range(cfg.num_gpus)
            ],
        )

    # ------------------------------------------------------------------ #
    # Phase 2: run loop — parse + index + write runs (Fig 8)
    # ------------------------------------------------------------------ #

    def _run_loop(self, build: _Build) -> None:
        worker = build.ahead
        with build.tel.tracer.span(
            "run_loop", start_file=build.start_file, backend=self.config.exec_backend
        ):
            try:
                if worker is not None:
                    worker.parse_inline = build.parse_file_inline
                build.index_stream(build.make_parsed_stream(worker))
            finally:
                if worker is not None:
                    build.supervisor_report = worker.sup.report
                    worker.close()

    # ------------------------------------------------------------------ #
    # Phase 3: finalise — dictionary epilogue (Table VI), Table V split,
    # simulated timing
    # ------------------------------------------------------------------ #

    def _finalise(self, build: _Build) -> EngineResult:
        st = build.state
        watch, tel, output_dir = build.watch, build.tel, build.output_dir
        indexers = st.indexers
        with watch.measure("dict_combine"), tel.tracer.span("dict.combine"):
            dictionary = Dictionary.combine([ix.shard for ix in indexers])
        with watch.measure("dict_write"), tel.tracer.span("dict.write"):
            save_dictionary(dictionary, os.path.join(output_dir, "dictionary.bin"))
            build.range_map.save(output_dir)
            st.doc_table.save(output_dir)
        clear_checkpoint(output_dir)  # the build is durable without it now

        with tel.tracer.span("simulate", cat="model"):
            # Bucket by the indexer's *kind*: after a GPU failover, the slot
            # in gpu_indexers holds a CPU fallback whose work (including
            # what the dead GPU indexed first — see
            # GpuFailover.tokens_before_failure) counts on the CPU side.
            split = WorkSplit()
            for ix in indexers:
                characters = ix.shard.string_bytes() - ix.total.new_terms
                if ix.kind == "cpu":
                    split.cpu_tokens += ix.total.tokens
                    split.cpu_terms += ix.total.new_terms
                    split.cpu_characters += characters
                else:
                    split.gpu_tokens += ix.total.tokens
                    split.gpu_terms += ix.total.new_terms
                    split.gpu_characters += characters
            term_count = dictionary.term_count()
            metrics = tel.metrics
            metrics.set_gauge("dictionary.terms", term_count)
            metrics.set_gauge("dictionary.string_heap_bytes", dictionary.string_bytes())
            metrics.set_gauge("split.cpu_tokens", split.cpu_tokens)
            metrics.set_gauge("split.gpu_tokens", split.gpu_tokens)
            report = simulate_full_build(st.file_works, self.config, self.costs)

        return EngineResult(
            output_dir=output_dir,
            dictionary=dictionary,
            assignment=st.assignment,
            file_works=st.file_works,
            report=report,
            split=split,
            term_count=term_count,
            token_count=st.token_count,
            posting_count=st.posting_count,
            document_count=st.doc_offset,
            run_count=st.run_count,
            stopwatch=watch,
            indexer_reports={f"{ix.kind}{ix.indexer_id}": ix.total for ix in indexers},
            robustness=st.robustness,
            supervisor=build.supervisor_report,
        )

    # ------------------------------------------------------------------ #
    # Telemetry artifacts
    # ------------------------------------------------------------------ #

    def _write_telemetry(
        self,
        tel: Telemetry,
        result: EngineResult,
        collection: Collection,
        output_dir: str,
    ) -> tuple[str, str]:
        """Write ``run.metrics.json`` + ``trace.json`` next to the manifest.

        Wall-clock values (stopwatch buckets, wall/cpu seconds) go into
        the payload's quarantined ``timings`` section; everything else in
        the registry is seed-deterministic by construction.
        """
        watch = result.stopwatch
        timings = {f"stage.{name}": s for name, s in watch.buckets.items()}
        timings["wall_seconds"] = result.wall_seconds
        timings["cpu_seconds"] = result.cpu_seconds
        payload = build_payload(
            tel.metrics.snapshot(),
            timings,
            meta={
                "collection": collection.name,
                "config": self.config.describe(),
                "codec": self.config.codec,
                "files": len(collection.files),
            },
        )
        metrics_path = write_metrics(
            os.path.join(output_dir, METRICS_FILENAME), payload
        )
        trace_path = tel.tracer.write(os.path.join(output_dir, TRACE_FILENAME))
        return metrics_path, trace_path

    def _fingerprint(self, collection: Collection) -> str:
        """Identity of (config, collection) a checkpoint must match."""
        basis = (
            f"{self.config!r}|{collection.name}|{collection.num_files}|"
            f"{collection.seed}"
        )
        return hashlib.sha256(basis.encode("utf-8")).hexdigest()[:16]
