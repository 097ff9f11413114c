""":class:`IndexingEngine` — the public facade of the reproduction.

``engine.build(collection, output_dir)`` executes the paper's whole
system functionally, in file order:

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
import os
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Iterator

from repro.core.config import PlatformConfig
from repro.core.costs import CostConstants, StageCosts
from repro.core.exec_backend import (
    BuildHooks,
    ExecutionBackend,
    create_backend,
    resolve_backend_name,
)
from repro.core.pipeline import BuildReport, simulate_full_build
from repro.core.pipeline_exec import PipelineStats
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
from repro.postings.lists import PostingsList
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

__all__ = ["IndexingEngine", "EngineResult", "WorkSplit"]

#: Errors that mark a container permanently unreadable — the retry layer
#: has already given up (or declined to try) by the time these surface, so
#: they go straight to the ``on_error`` policy.
_PERMANENT_READ_ERRORS = (CorruptContainerError, RetryExhausted, OSError)


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
    #: Sum of the stopwatch buckets — *CPU seconds*.  With prefetch
    #: threads this legitimately exceeds ``wall_seconds`` (overlapping
    #: work is counted once per worker; see :mod:`repro.util.timing`).
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
    #: Pipelined-mode execution summary (``None`` for serial builds):
    #: dispatch counts, backpressure/quiesce stalls, per-worker idle time.
    pipeline: PipelineStats | None = None
    #: What the multiprocess backend's supervisor saw: worker restarts,
    #: requeued sub-batches, heartbeat misses, degraded slots (``None``
    #: for serial/threaded builds, which have no processes to supervise).
    supervisor: SupervisorReport | None = None

    @property
    def simulated_total_seconds(self) -> float:
        return self.report.total_s

    @property
    def simulated_throughput_mbps(self) -> float:
        """Modeled MB/s from the discrete-event replay (the paper's figure)."""
        return self.report.throughput_mbps

    @property
    def measured_throughput_mbps(self) -> float:
        """Real uncompressed MB over real *wall* seconds.

        Divides by :attr:`wall_seconds`, never :attr:`cpu_seconds` — a
        prefetching build overlaps parse and index work, and dividing by
        summed bucket time would understate it by up to the worker count.
        """
        if self.wall_seconds <= 0:
            return 0.0
        total = sum(w.uncompressed_bytes for w in self.file_works)
        return total / 1e6 / self.wall_seconds


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
            # Merge target for the engine's own sampler and every worker
            # delta (mp_backend._merge_delta absorbs into tel.profile).
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
                result = self._build(collection, output_dir, resume, tel)
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

    def _build(
        self,
        collection: Collection,
        output_dir: str,
        resume: bool,
        tel: Telemetry,
    ) -> EngineResult:
        """The instrumented build body; runs inside the root ``build`` span."""
        cfg = self.config
        watch = Stopwatch()
        metrics = tel.metrics
        os.makedirs(output_dir, exist_ok=True)

        injector = faults.active()
        manifest = BuildManifest(output_dir)
        fingerprint = self._fingerprint(collection)

        state = load_checkpoint(output_dir) if resume else None
        if state is not None and state.get("fingerprint") != fingerprint:
            raise ValueError(
                f"checkpoint in {output_dir} was written for a different "
                "configuration or collection; delete checkpoint.bin or "
                "rebuild from scratch"
            )

        # The trie table is a pure function of its height.
        trie = TrieTable(height=cfg.trie_height)
        if state is not None:
            # ---- resume: restore the run-boundary state --------------- #
            assignment = state["assignment"]
            cpu_indexers = state["indexers"][: cfg.num_cpu_indexers]
            gpu_indexers = state["indexers"][cfg.num_cpu_indexers :]
            doc_table = state["doc_table"]
            file_works = state["file_works"]
            robustness = state["robustness"]
            doc_offset = state["doc_offset"]
            token_count = state["token_count"]
            posting_count = state["posting_count"]
            run_count = state["run_count"]
            start_file = state["next_file_index"]
            robustness.resumed_runs = run_count
            # A crash between (or during) manifest append and journal
            # append leaves one orphan record; drop it and re-index that
            # run.  The kept records locate the durable runs.
            records = manifest.truncate_runs(run_count)
            if len(records) != run_count:
                raise ValueError(
                    f"{manifest.path} records {len(records)} runs, the "
                    f"checkpoint {run_count}; rebuild from scratch"
                )
            range_map = DocRangeMap()
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
        else:
            robustness = RobustnessReport(on_error=cfg.on_error)

            # ---- 1. sampling + assignment (Section III.E) ------------- #
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

            # ---- 2. indexers ------------------------------------------ #
            cpu_indexers = [
                CPUIndexer(
                    i,
                    DictionaryShard(
                        trie, shard_id=i, degree=cfg.btree_degree,
                        use_string_cache=cfg.use_string_cache,
                    ),
                )
                for i in range(cfg.num_cpu_indexers)
            ]
            gpu_indexers: list = [
                GPUIndexer(
                    100 + j,
                    DictionaryShard(
                        trie, shard_id=100 + j, degree=cfg.btree_degree,
                        use_string_cache=cfg.use_string_cache,
                    ),
                    device=Device(device_id=j, spec=cfg.gpu_spec),
                    num_blocks=cfg.thread_blocks_per_gpu,
                    schedule=cfg.gpu_schedule,
                    fidelity=cfg.gpu_fidelity,
                )
                for j in range(cfg.num_gpus)
            ]
            doc_table = DocTable()
            range_map = DocRangeMap()
            file_works = []
            doc_offset = 0
            token_count = 0
            posting_count = 0
            run_count = 0
            start_file = 0
            # The journal is append-only: a previous build's must go, and
            # go first, so no crash pairs it with the new manifest.
            clear_checkpoint(output_dir)
            manifest.start(fingerprint, collection.name, len(collection.files))

        popular_set = set(assignment.popular)
        split = WorkSplit()
        metrics.set_gauge("assignment.popular_collections", len(assignment.popular))
        metrics.set_gauge(
            "assignment.gpu_collections", sum(len(s) for s in assignment.gpu_sets)
        )
        metrics.set_gauge("robustness.resumed_runs", robustness.resumed_runs)

        # ---- 3. parse + index + write runs (Fig 8) -------------------- #
        writer = RunWriter(output_dir, codec=get_codec(cfg.codec), num_stripes=cfg.output_stripes)
        run_file_indices: list[int] = []
        run_first_doc = doc_offset
        run_docs = 0
        pipeline_stats: PipelineStats | None = None

        def record_file(
            k: int,
            parsed: ParsedFile,
            outcome: RetryOutcome | None,
            pop_work: GroupWork,
            unpop_work: GroupWork,
        ) -> None:
            """Post-index bookkeeping for one file, on the engine thread.

            Both execution modes call this strictly in file order — it
            advances the global doc-ID cursor and the doc table, which is
            what keeps serial and pipelined output byte-identical.
            """
            nonlocal doc_offset, token_count, run_docs
            batch = parsed.batch
            metrics.count("build.files_indexed")
            metrics.count("build.docs", batch.num_docs)
            metrics.count("build.tokens", batch.total_tokens)
            metrics.observe("file.uncompressed_bytes",
                            parsed.metrics.uncompressed_bytes)
            file_works.append(
                FileWork(
                    file_index=k,
                    compressed_bytes=parsed.metrics.compressed_bytes,
                    uncompressed_bytes=parsed.metrics.uncompressed_bytes,
                    num_docs=batch.num_docs,
                    raw_tokens=parsed.metrics.tokens_raw,
                    popular=pop_work,
                    unpopular=unpop_work,
                    segment=collection.segment_of(k),
                    fault_delay_s=outcome.backoff_s if outcome else 0.0,
                )
            )
            for entry in parsed.doc_table:
                doc_table.add(entry.source_file, entry.uri, entry.offset)
            token_count += batch.total_tokens
            doc_offset += batch.num_docs
            run_docs += batch.num_docs
            run_file_indices.append(k)

        def is_run_boundary(k: int) -> bool:
            # A run closes after `files_per_run` files (the paper's
            # fixed-total-size batches) or at the end of the collection —
            # on file *position*, so run numbering survives skipped files.
            return (k + 1) % cfg.files_per_run == 0 or k == len(collection.files) - 1

        def close_run(k: int) -> None:
            """Drain accumulators → run file → manifest → checkpoint.

            Engine-thread only.  Concurrent backends quiesce their
            in-flight window first, so the drain and the checkpoint
            record see settled indexer state with empty queues; the
            multiprocess backend's ``drain_run_postings`` additionally
            pulls what the run added out of its workers — postings, each
            shard's mutation log, a forest-free indexer state — and
            replays the logs into the engine-side shards, so the
            checkpoint (which takes those logs) and the dictionary
            epilogue stay authoritative.
            """
            nonlocal posting_count, run_count, run_file_indices, run_first_doc, run_docs
            with watch.measure("write_runs"), tel.tracer.span(
                "write_run", cat="output"
            ) as run_tags:
                run_lists: dict[int, PostingsList] = backend.drain_run_postings()
                run_postings = sum(len(p) for p in run_lists.values())
                posting_count += run_postings
                run_id = k // cfg.files_per_run
                run_file = writer.write_run(run_id, run_lists)
                range_map.add(run_file)
                run_count += 1
                run_tags["run"] = run_id
                run_tags["postings"] = run_postings
                run_tags["bytes"] = run_file.byte_size
                run_tags["cp"] = f"flush:{run_id}"
                run_tags["cp_from"] = f"drain:{k}"
            metrics.count("runs.written")
            metrics.count("postings.entries", run_postings)
            metrics.count(f"postings.bytes.{cfg.codec}", run_file.byte_size)
            metrics.observe("run.bytes", run_file.byte_size)
            metrics.observe("run.postings", run_postings)
            # Durability order: run file → manifest append →
            # checkpoint append.  A crash at any point leaves a
            # resumable directory (see repro.robustness.checkpoint).
            with tel.tracer.span(
                "checkpoint", cat="robustness", run=run_id,
                cp=f"checkpoint:{run_id}", cp_from=f"flush:{run_id}",
            ):
                manifest.append_run(
                    RunRecord(
                        run_id=run_id,
                        path=os.path.relpath(run_file.path, output_dir),
                        crc32=crc32_of_file(run_file.path),
                        min_doc=run_file.min_doc,
                        max_doc=run_file.max_doc,
                        entry_count=run_file.entry_count,
                        byte_size=run_file.byte_size,
                        first_doc=run_first_doc,
                        docs=run_docs,
                        postings=run_postings,
                        file_indices=tuple(run_file_indices),
                        files=tuple(
                            os.path.basename(collection.files[i])
                            for i in run_file_indices
                        ),
                    )
                )
                save_checkpoint(
                    output_dir,
                    {
                        "fingerprint": fingerprint,
                        "assignment": assignment,
                        "doc_table": doc_table,
                        "file_works": file_works,
                        "robustness": robustness,
                        "doc_offset": doc_offset,
                        "token_count": token_count,
                        "posting_count": posting_count,
                        "run_count": run_count,
                        "next_file_index": k + 1,
                    },
                    [*cpu_indexers, *gpu_indexers],
                )
            run_file_indices = []
            run_first_doc = doc_offset
            run_docs = 0

        inline_parser: list[Parser] = []

        def parse_file_inline(
            k: int,
        ) -> tuple[int, ParsedFile | None, Exception | None, RetryOutcome | None]:
            """Parse one file on the engine thread (mp degraded-slot path)."""
            if not inline_parser:
                inline_parser.append(
                    Parser(
                        parser_id=0, trie=trie, strip_html=cfg.strip_html,
                        regroup=cfg.regroup, positional=cfg.positional,
                    )
                )
            parser = inline_parser[0]
            path = collection.files[k]

            def call() -> ParsedFile:
                parser.parser_id = k % cfg.num_parsers
                return parser.parse_file(path, sequence=k)

            try:
                parsed, outcome = retry_call(call, cfg.retry, path)
            except _PERMANENT_READ_ERRORS as exc:
                return k, None, exc, None
            robustness.merge_outcome(outcome.retries, outcome.backoff_s)
            return k, parsed, None, outcome

        hooks = BuildHooks(
            config=cfg,
            collection=collection,
            assignment=assignment,
            popular_set=popular_set,
            cpu_indexers=cpu_indexers,
            gpu_indexers=gpu_indexers,
            trie=trie,
            robustness=robustness,
            injector=injector,
            watch=watch,
            tel=tel,
            start_file=start_file,
            doc_offset=doc_offset,
            split_batch=lambda batch: self._split_batch(
                batch, assignment, popular_set
            ),
            index_batch=lambda batch, offset: self._index_batch(
                batch, offset, assignment, popular_set, cpu_indexers, gpu_indexers
            ),
            aggregate_group_work=self._aggregate_group_work,
            record_file=record_file,
            close_run=close_run,
            is_run_boundary=is_run_boundary,
            handle_read_failure=lambda k, err: self._handle_read_failure(
                collection, k, err, robustness
            ),
            fail_gpu=lambda ordinal, k: self._fail_gpu(
                ordinal, k, gpu_indexers, assignment, robustness
            ),
            make_parsed_stream=lambda prefetch: self._parsed_files(
                collection, trie, watch, tel,
                start=start_file, robustness=robustness, prefetch=prefetch,
            ),
            parse_file_inline=parse_file_inline,
        )
        # close_run above late-binds this name: by the time any backend
        # reaches a run boundary, the backend exists.
        backend: ExecutionBackend = create_backend(resolve_backend_name(cfg), hooks)
        supervisor_report: SupervisorReport | None = None
        with tel.tracer.span(
            "run_loop", start_file=start_file, backend=backend.name
        ):
            try:
                pipeline_stats = backend.run()
            finally:
                supervisor_report = backend.supervisor_report()
                backend.close()

        # ---- 4. dictionary epilogue (Table VI) ------------------------ #
        with watch.measure("dict_combine"), tel.tracer.span("dict.combine"):
            dictionary = Dictionary.combine(
                [ix.shard for ix in [*cpu_indexers, *gpu_indexers]]
            )
        with watch.measure("dict_write"), tel.tracer.span("dict.write"):
            save_dictionary(dictionary, os.path.join(output_dir, "dictionary.bin"))
            range_map.save(output_dir)
            doc_table.save(output_dir)
        clear_checkpoint(output_dir)  # the build is durable without it now

        # ---- 5. Table V split + simulated timing ----------------------- #
        # Bucket by the indexer's *kind*: after a GPU failover, the slot in
        # gpu_indexers holds a CPU fallback whose work (including what the
        # dead GPU indexed first — see GpuFailover.tokens_before_failure)
        # counts on the CPU side.
        for ix in [*cpu_indexers, *gpu_indexers]:
            if ix.kind == "cpu":
                split.cpu_tokens += ix.total.tokens
                split.cpu_terms += ix.total.new_terms
                split.cpu_characters += ix.shard.string_bytes() - ix.total.new_terms
            else:
                split.gpu_tokens += ix.total.tokens
                split.gpu_terms += ix.total.new_terms
                split.gpu_characters += ix.shard.string_bytes() - ix.total.new_terms

        metrics.set_gauge("dictionary.terms", dictionary.term_count())
        metrics.set_gauge("dictionary.string_heap_bytes", dictionary.string_bytes())
        metrics.set_gauge("split.cpu_tokens", split.cpu_tokens)
        metrics.set_gauge("split.gpu_tokens", split.gpu_tokens)
        with tel.tracer.span("simulate", cat="model"):
            report = simulate_full_build(file_works, cfg, self.costs)

        result = EngineResult(
            output_dir=output_dir,
            dictionary=dictionary,
            assignment=assignment,
            file_works=file_works,
            report=report,
            split=split,
            term_count=dictionary.term_count(),
            token_count=token_count,
            posting_count=posting_count,
            document_count=doc_offset,
            run_count=run_count,
            stopwatch=watch,
            indexer_reports={
                f"{ix.kind}{ix.indexer_id}": ix.total
                for ix in [*cpu_indexers, *gpu_indexers]
            },
            robustness=robustness,
            pipeline=pipeline_stats,
            supervisor=supervisor_report,
        )
        return result

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
        timings["measured_union_seconds"] = watch.wall()
        if result.pipeline is not None:
            # Pipelined stall/idle wall-clock: quarantined with the other
            # timings; the registry only sees deterministic pipeline.*.
            timings.update(result.pipeline.timings())
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

    # ------------------------------------------------------------------ #
    # Robustness plumbing
    # ------------------------------------------------------------------ #

    def _fingerprint(self, collection: Collection) -> str:
        """Identity of (config, collection) a checkpoint must match."""
        basis = (
            f"{self.config!r}|{collection.name}|{collection.num_files}|"
            f"{collection.seed}"
        )
        return hashlib.sha256(basis.encode("utf-8")).hexdigest()[:16]

    def _handle_read_failure(
        self,
        collection: Collection,
        file_index: int,
        error: Exception,
        robustness: RobustnessReport,
    ) -> None:
        """Apply the ``on_error`` policy to a permanently unreadable file."""
        cfg = self.config
        if cfg.on_error == "strict":
            raise error
        path = collection.files[file_index]
        reason = f"{type(error).__name__}: {error}"
        if cfg.on_error == "quarantine":
            dest = collection.quarantine_file(
                file_index, reason, quarantine_dir=cfg.quarantine_dir
            )
            robustness.skipped.append(
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
            robustness.skipped.append(
                SkippedFile(file_index=file_index, path=path, reason=reason)
            )
            obs.count("robustness.skipped")

    def _fail_gpu(
        self,
        ordinal: int,
        file_index: int,
        gpu_indexers: list,
        assignment: WorkAssignment,
        robustness: RobustnessReport,
    ) -> None:
        """Replace a dead GPU indexer with a CPU fallback, mid-build.

        The fallback adopts the failed indexer's dictionary shard and
        postings accumulator *objects*, so term ids, accumulated postings
        and run output are exactly what the GPU would have produced — the
        index stays correct; only the (simulated) speed degrades.
        """
        if not 0 <= ordinal < len(gpu_indexers):
            return
        failed = gpu_indexers[ordinal]
        if failed.kind != "gpu":
            return  # this ordinal already failed over
        replacement = CPUIndexer(failed.indexer_id, failed.shard)
        replacement.accumulator = failed.accumulator
        replacement.total = failed.total
        gpu_indexers[ordinal] = replacement
        assignment.mark_gpu_failed(ordinal)
        robustness.gpu_failovers.append(
            GpuFailover(
                gpu_ordinal=ordinal,
                indexer_id=failed.indexer_id,
                file_index=file_index,
                collections=len(assignment.gpu_sets[ordinal]),
                tokens_before_failure=failed.total.tokens,
            )
        )
        obs.count("robustness.gpu_failovers")
        t = obs.current()
        if t is not None:
            t.tracer.instant(
                "gpu_failover", cat="robustness", gpu=ordinal, file=file_index
            )

    # ------------------------------------------------------------------ #

    def _parsed_files(
        self,
        collection: Collection,
        trie: TrieTable,
        watch: Stopwatch,
        tel: Telemetry,
        start: int = 0,
        robustness: RobustnessReport | None = None,
        prefetch: int | None = None,
    ) -> Iterator[tuple[int, ParsedFile | None, Exception | None, RetryOutcome | None]]:
        """Yield ``(file_index, parsed, error, retry_outcome)`` in order.

        Every container read runs under the config's retry policy; a file
        that stays unreadable yields ``parsed=None`` with the permanent
        ``error`` for the caller's ``on_error`` policy (a fatal injected
        fault propagates — that *is* the crash).  ``start`` skips files a
        resumed build already indexed.

        With a positive lookahead (``prefetch`` argument, defaulting to
        ``config.parse_prefetch``) a thread pool reads, decompresses and
        parses up to that many files ahead — gzip inflation and the regex
        scan release the GIL, so the lookahead genuinely overlaps with
        indexing (the paper's parser/indexer pipeline, executed for real).
        Results are always consumed in file order, so indexes are
        byte-identical to a serial build.

        Each worker *thread* owns one stable trace lane (``parser-w<n>``):
        spans on a lane never overlap, which is what Perfetto-style
        timeline rows require.  The paper's round-robin parser slot for
        file ``k`` (``k % num_parsers``) is recorded as the ``parser``
        span attribute instead of rotating the lane per file.
        """
        cfg = self.config

        def make_parser() -> Parser:
            return Parser(
                parser_id=0,
                trie=trie,
                strip_html=cfg.strip_html,
                regroup=cfg.regroup,
                positional=cfg.positional,
            )

        def attempt(
            parser: Parser, k: int, path: str
        ) -> tuple[ParsedFile | None, Exception | None, RetryOutcome | None]:
            """Parse under retry; classify the outcome for the caller."""
            def call() -> ParsedFile:
                # The paper's parser-array slot for this file: stamped on
                # the batch (and the parse_file span) for round-robin
                # accounting, while the trace lane stays per-thread.
                parser.parser_id = k % cfg.num_parsers
                return parser.parse_file(path, sequence=k)

            try:
                parsed, outcome = retry_call(call, cfg.retry, path)
                return parsed, None, outcome
            except _PERMANENT_READ_ERRORS as exc:
                return None, exc, None

        def merge(outcome: RetryOutcome | None) -> None:
            if outcome is not None and robustness is not None:
                robustness.merge_outcome(outcome.retries, outcome.backoff_s)

        indices = range(start, len(collection.files))
        window = cfg.parse_prefetch if prefetch is None else prefetch

        if window <= 0:
            parser = make_parser()
            for k in indices:
                path = collection.files[k]
                with watch.measure("parse"), tel.tracer.span(
                    "parse", cat="parse", file=k, cp=f"parse:{k}"
                ):
                    parsed, error, outcome = attempt(parser, k, path)
                merge(outcome)
                yield k, parsed, error, outcome
            return

        import itertools
        import threading
        from concurrent.futures import ThreadPoolExecutor

        local = threading.local()
        lane_ids = itertools.count()
        lane_lock = threading.Lock()

        def parse_one(
            k: int,
        ) -> tuple[ParsedFile | None, Exception | None, RetryOutcome | None]:
            parser = getattr(local, "parser", None)
            if parser is None:
                parser = make_parser()
                with lane_lock:
                    worker = next(lane_ids)
                parser.lane_override = f"parser-w{worker}"
                local.parser = parser
            return attempt(parser, k, collection.files[k])

        with ThreadPoolExecutor(max_workers=window) as pool:
            pending = deque()
            files = iter(indices)
            for k in itertools.islice(files, window):
                pending.append((k, pool.submit(parse_one, k)))
            while pending:
                k, future = pending.popleft()
                # Worker threads trace their own "parse" spans on the
                # parser lanes; the engine lane records only the wait.
                with watch.measure("parse"), tel.tracer.span(
                    "parse.wait", cat="parse", file=k,
                    cp=f"collect:{k}", cp_from=f"parse:{k}",
                ):
                    parsed, error, outcome = future.result()
                merge(outcome)
                nxt = next(files, None)
                if nxt is not None:
                    pending.append((nxt, pool.submit(parse_one, nxt)))
                yield k, parsed, error, outcome

    def _index_batch(
        self,
        batch: ParsedBatch,
        doc_offset: int,
        assignment: WorkAssignment,
        popular_set: set[int],
        cpu_indexers: list[CPUIndexer],
        gpu_indexers: list[GPUIndexer],
    ) -> tuple[GroupWork, GroupWork]:
        """Route one buffer's collections to their bound indexers, inline.

        The serial path: split the buffer per (indexer, group), index
        each sub-batch on the engine thread in deterministic order, and
        aggregate the group work.  The pipelined path runs the *same*
        split and aggregation around worker-pool dispatch
        (``_run_pipelined``), which is what keeps the two modes
        byte-identical.
        """
        tasks = self._split_batch(batch, assignment, popular_set)
        results = [
            (cpu_indexers[idx] if kind == "cpu" else gpu_indexers[idx]).index_batch(
                sub, doc_offset
            )
            for kind, idx, _is_popular, sub in tasks
        ]
        return self._aggregate_group_work(batch, tasks, results)

    def _split_batch(
        self,
        batch: ParsedBatch,
        assignment: WorkAssignment,
        popular_set: set[int],
    ) -> list[tuple[str, int, bool, ParsedBatch]]:
        """Partition one buffer into per-(indexer, group) sub-batches.

        Returns ``(kind, indexer_index, is_popular, sub_batch)`` tuples
        sorted into the serial loop's historical consumption order (CPU
        slots before GPU slots, then by index) — term-id allocation order
        depends on it.  Runs on the engine thread in both modes:
        ``bind_unseen`` mutates the assignment and must see collections
        in file order.  Sub-batches are built per (indexer, group) so
        group-level work attribution stays exact even on CPU-only
        configurations.
        """
        if batch.ungrouped is not None:
            # Regrouping disabled (ablation): the whole document-order
            # stream goes through one CPU indexer — the paper's ~15×
            # comparison is against a *serial* indexer, and splitting an
            # ungrouped stream would duplicate collections across shards.
            return [("cpu", 0, False, batch)]

        subs: dict[tuple[str, int, bool], ParsedBatch] = {}
        for cidx, stream in batch.collections.items():
            kind, idx = assignment.bind_unseen(cidx)
            is_popular = cidx in popular_set
            key = (kind, idx, is_popular)
            sub = subs.get(key)
            if sub is None:
                sub = ParsedBatch(
                    parser_id=batch.parser_id,
                    sequence=batch.sequence,
                    source_file=batch.source_file,
                    num_docs=batch.num_docs,
                )
                subs[key] = sub
            sub.collections[cidx] = stream
            if batch.positions is not None:
                if sub.positions is None:
                    sub.positions = {}
                sub.positions[cidx] = batch.positions[cidx]
            sub.tokens_per_collection[cidx] = batch.tokens_per_collection[cidx]
            sub.chars_per_collection[cidx] = batch.chars_per_collection[cidx]
        return [
            (kind, idx, is_popular, sub)
            for (kind, idx, is_popular), sub in sorted(
                subs.items(), key=lambda kv: (kv[0][0], kv[0][1], kv[0][2])
            )
        ]

    def _aggregate_group_work(
        self,
        batch: ParsedBatch,
        tasks: list[tuple[str, int, bool, ParsedBatch]],
        results: list[Any],
    ) -> tuple[GroupWork, GroupWork]:
        """Fold per-sub-batch indexer reports into (popular, unpopular) work.

        ``results`` is parallel to ``tasks``; entries are
        :class:`~repro.indexers.base.IndexerReport` or GPU batch reports
        carrying one.  Pure aggregation — safe to run on the engine
        thread after out-of-order worker completion.
        """
        if batch.ungrouped is not None:
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
            largest = max(sub.tokens_per_collection.values(), default=0)
            g.largest_collection_tokens = max(g.largest_collection_tokens, largest)
        for g in groups.values():
            if g.tokens:
                g.visits_per_token = g.node_visits / g.tokens
        return groups[True], groups[False]
