"""The execution-backend seam: serial, threaded, multiprocess.

:class:`~repro.core.engine.IndexingEngine` decides *what* to do with a
parsed file — split it per indexer, aggregate the group work, advance
the doc-ID cursor, close runs, apply error policy.  A backend decides
*where the work runs*:

``serial``
    Everything inline on the engine thread — the reference
    implementation the other two must match byte for byte.
``threaded``
    PR 4's worker-thread pool (:mod:`repro.core.pipeline_exec`): one
    thread per indexer slot behind a bounded queue, with the engine
    keeping at most ``pipeline_depth`` parsed files in flight.
``multiprocess``
    :mod:`repro.core.mp_backend`: parsers and indexers as OS processes
    exchanging the compact parsed-stream encoding over shared-memory
    rings, supervised by :mod:`repro.robustness.supervise` (heartbeats,
    crash/hang recovery, graceful degradation).

All three consume the same engine callbacks (:class:`BuildHooks`) and
preserve the same ordering contract — per-slot FIFO dispatch, per-file
bookkeeping strictly in file order, quiesced run boundaries — so their
output is byte-identical; ``tests/test_exec_backend.py`` enforces it in
the tier-1 path.

Backend selection: ``config.exec_backend`` (CLI ``build --exec``, env
``REPRO_EXEC_BACKEND``).  ``auto`` maps to ``threaded`` when
``pipeline_depth > 0`` and ``serial`` otherwise, which keeps every
pre-seam config (and CI's ``REPRO_PIPELINE_DEPTH`` matrix leg) meaning
exactly what it meant before the seam existed.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Iterator

from repro.core.config import PlatformConfig
from repro.core.pipeline_exec import (
    QUEUE_DEPTH_BUCKETS,
    IndexerPool,
    PipelineStats,
)
from repro.core.workload import GroupWork
from repro.util.timing import Stopwatch, now

if TYPE_CHECKING:
    from concurrent.futures import Future

    from repro.corpus.collection import Collection
    from repro.indexers.assignment import WorkAssignment
    from repro.obs.runtime import Telemetry
    from repro.parsing.parser import ParsedFile
    from repro.parsing.regroup import ParsedBatch
    from repro.postings.lists import PostingsList
    from repro.robustness import faults
    from repro.robustness.policy import RobustnessReport
    from repro.robustness.retry import RetryOutcome
    from repro.robustness.supervise import SupervisorReport

__all__ = [
    "BuildHooks",
    "ExecutionBackend",
    "SerialBackend",
    "ThreadedBackend",
    "resolve_backend_name",
    "create_backend",
    "DEFAULT_CONCURRENT_DEPTH",
]

#: In-flight window used when a concurrent backend is forced explicitly
#: (``--exec threaded|multiprocess``) on a config with ``pipeline_depth=0``.
DEFAULT_CONCURRENT_DEPTH = 3

#: ``(file_index, parsed, permanent_error, retry_outcome)`` — the parsed
#: stream contract shared by every backend.
ParsedStream = Iterator[
    tuple[int, "ParsedFile | None", Exception | None, "RetryOutcome | None"]
]


@dataclass
class BuildHooks:
    """Everything the engine lends a backend for one build.

    The callables close over engine-private state (doc-ID cursor, run
    bookkeeping, error policy) and must only ever be invoked from the
    engine thread, in file order — that discipline, not any property of
    the backends, is what makes the three modes byte-identical.
    """

    config: PlatformConfig
    collection: "Collection"
    assignment: "WorkAssignment"
    popular_set: set[int]
    cpu_indexers: list[Any]
    gpu_indexers: list[Any]
    trie: Any
    robustness: "RobustnessReport"
    injector: "faults.FaultInjector | None"
    watch: Stopwatch
    tel: "Telemetry"
    start_file: int
    doc_offset: int
    #: ``(batch) -> [(kind, idx, is_popular, sub_batch)]``, engine thread.
    split_batch: Callable[["ParsedBatch"], list[tuple[str, int, bool, "ParsedBatch"]]]
    #: Serial inline indexing of one whole batch at a doc offset.
    index_batch: Callable[["ParsedBatch", int], tuple[GroupWork, GroupWork]]
    aggregate_group_work: Callable[..., tuple[GroupWork, GroupWork]]
    record_file: Callable[..., None]
    close_run: Callable[[int], None]
    is_run_boundary: Callable[[int], bool]
    handle_read_failure: Callable[[int, Exception], None]
    fail_gpu: Callable[[int, int], None]
    #: ``(prefetch) -> ParsedStream`` over the engine's in-process parser.
    make_parsed_stream: Callable[[int], ParsedStream]
    #: ``(k) -> (k, parsed, error, outcome)`` — parse one file inline on
    #: the engine thread (retry policy applied, robustness merged).  The
    #: multiprocess backend uses it when a parser slot degrades.
    parse_file_inline: Callable[
        [int],
        tuple[int, "ParsedFile | None", Exception | None, "RetryOutcome | None"],
    ]

    def indexer_for(self, kind: str, idx: int) -> Any:
        return (self.cpu_indexers if kind == "cpu" else self.gpu_indexers)[idx]


@dataclass
class _InflightFile:
    """One parsed file dispatched to the worker pool, awaiting its drain."""

    file_index: int
    parsed: "ParsedFile"
    outcome: "RetryOutcome | None"
    #: ``(kind, indexer_index, is_popular, sub_batch)`` in dispatch order.
    tasks: list[tuple[str, int, bool, "ParsedBatch"]]
    futures: list["Future[Any]"] = field(default_factory=list)
    #: Multiprocess backend: per-task ids, parallel to ``tasks``.
    task_ids: list[int] = field(default_factory=list)


class ExecutionBackend:
    """Base class: the engine's four entry points into a backend."""

    name = "abstract"

    def __init__(self, hooks: BuildHooks) -> None:
        self.hooks = hooks

    def run(self) -> PipelineStats | None:
        """Consume the parsed stream to completion; called exactly once."""
        raise NotImplementedError

    def drain_run_postings(self) -> "dict[int, PostingsList]":
        """Collect every indexer's accumulated postings for ``close_run``.

        Called from the engine's ``close_run`` at a quiesced run boundary.
        The base implementation drains the engine-resident indexer
        objects; the multiprocess backend overrides it to pull the
        run's postings, mutation logs and forest-free indexer state out
        of its worker processes and replay the logs engine-side (so the
        checkpoint and the dictionary epilogue keep seeing authoritative
        objects).
        """
        run_lists: "dict[int, PostingsList]" = {}
        for indexer in [*self.hooks.cpu_indexers, *self.hooks.gpu_indexers]:
            run_lists.update(indexer.drain_postings())
        return run_lists

    def supervisor_report(self) -> "SupervisorReport | None":
        return None

    def close(self) -> None:
        """Release workers/segments; idempotent, runs in a ``finally``."""


class SerialBackend(ExecutionBackend):
    """The reference loop: parse, index inline, bookkeep — one thread."""

    name = "serial"

    def run(self) -> PipelineStats | None:
        h = self.hooks
        next_offset = h.doc_offset
        for k, parsed, error, outcome in h.make_parsed_stream(h.config.parse_prefetch):
            if h.injector is not None:
                for ordinal in h.injector.gpu_failures(k):
                    h.fail_gpu(ordinal, k)

            if error is not None:
                h.handle_read_failure(k, error)
            else:
                assert parsed is not None
                batch = parsed.batch
                with h.watch.measure("index"), h.tel.tracer.span(
                    "index", cat="index", file=k,
                    docs=batch.num_docs, tokens=batch.total_tokens,
                    cp=f"index:{k}", cp_from=f"parse:{k}",
                ):
                    pop_work, unpop_work = h.index_batch(batch, next_offset)
                h.record_file(k, parsed, outcome, pop_work, unpop_work)
                next_offset += batch.num_docs

            if h.is_run_boundary(k):
                h.close_run(k)
        return None


class ThreadedBackend(ExecutionBackend):
    """PR 4's pipelined pool behind the seam (formerly ``_run_pipelined``).

    One :class:`~repro.core.pipeline_exec.IndexerWorker` thread per
    indexer slot consumes that slot's bounded queue; the engine thread
    splits each parsed file into per-(indexer, group) sub-batches,
    dispatches them, and keeps at most ``depth`` files in flight.
    Draining always collects the *oldest* file first and runs the shared
    ``record_file`` bookkeeping, so doc table, range map and counters
    advance in file order exactly as in the serial loop.

    Run boundaries, GPU failovers and error-policy decisions quiesce the
    window first (every in-flight file drained, every queue empty),
    giving ``close_run``'s accumulator drain / checkpoint pickle and
    ``fail_gpu``'s indexer swap a settled, single-threaded view.

    Determinism: everything recorded to the metrics registry here
    (dispatch counts, in-flight depth) is a pure function of the file
    sequence and the config; wall-clock stalls go to the trace and the
    quarantined ``timings`` section via :class:`PipelineStats`.
    """

    name = "threaded"

    def __init__(self, hooks: BuildHooks) -> None:
        super().__init__(hooks)
        self.depth = hooks.config.pipeline_depth or DEFAULT_CONCURRENT_DEPTH
        self._pool: IndexerPool | None = None

    def run(self) -> PipelineStats:
        h = self.hooks
        cfg = h.config
        depth = self.depth
        metrics = h.tel.metrics
        pool = IndexerPool(cfg.num_cpu_indexers, cfg.num_gpus, depth).start()
        self._pool = pool
        stats = pool.stats
        metrics.set_gauge("pipeline.depth", depth)
        metrics.set_gauge("pipeline.workers", len(pool.workers))
        inflight: deque[_InflightFile] = deque()
        # Dispatch-side doc-ID cursor: runs ahead of the drain-side
        # offset (advanced by ``record_file``) by exactly the documents
        # currently in flight.
        next_offset = h.doc_offset

        def collect_oldest(reason: str) -> None:
            item = inflight.popleft()
            t0 = now()
            with h.tel.tracer.span(
                "pipeline.wait", cat="pipeline", file=item.file_index, reason=reason,
                cp=f"drain:{item.file_index}", cp_from=f"index:{item.file_index}",
            ):
                results = [future.result() for future in item.futures]
            waited = now() - t0
            h.watch.charge("pipeline.wait", waited)
            (stats.backpressure if reason == "backpressure" else stats.quiesce).add(
                waited
            )
            pop_work, unpop_work = h.aggregate_group_work(
                item.parsed.batch, item.tasks, results
            )
            h.record_file(item.file_index, item.parsed, item.outcome, pop_work, unpop_work)

        def quiesce(reason: str) -> None:
            while inflight:
                collect_oldest(reason)

        prefetch = cfg.parse_prefetch if cfg.parse_prefetch > 0 else depth
        try:
            for k, parsed, error, outcome in h.make_parsed_stream(prefetch):
                if h.injector is not None:
                    failures = h.injector.gpu_failures(k)
                    if failures:
                        # The failover swaps the indexer object in its
                        # slot; drain everything dispatched to the old
                        # object first so its accumulator state is final.
                        quiesce("quiesce")
                        for ordinal in failures:
                            h.fail_gpu(ordinal, k)

                if error is not None:
                    # Error-policy decisions happen on the engine thread
                    # in file order; a "strict" abort propagates through
                    # the finally below with the pool shut down.
                    h.handle_read_failure(k, error)
                else:
                    assert parsed is not None
                    while len(inflight) >= depth:
                        collect_oldest("backpressure")
                    batch = parsed.batch
                    tasks = h.split_batch(batch)
                    with h.tel.tracer.span(
                        "pipeline.dispatch", cat="pipeline", file=k, tasks=len(tasks),
                        cp=f"dispatch:{k}", cp_from=f"collect:{k}",
                    ):
                        futures = [
                            pool.submit(
                                kind, idx, h.indexer_for(kind, idx), sub, next_offset
                            )
                            for kind, idx, _is_popular, sub in tasks
                        ]
                    inflight.append(
                        _InflightFile(k, parsed, outcome, tasks, futures=futures)
                    )
                    next_offset += batch.num_docs
                    stats.files += 1
                    stats.max_inflight = max(stats.max_inflight, len(inflight))
                    metrics.set_gauge("pipeline.queue_depth", len(inflight))
                    metrics.observe(
                        "pipeline.inflight", len(inflight), buckets=QUEUE_DEPTH_BUCKETS
                    )

                if h.is_run_boundary(k):
                    quiesce("quiesce")
                    h.close_run(k)
        finally:
            pool.shutdown()
        metrics.set_gauge("pipeline.queue_depth", 0)
        for key, tasks_done in sorted(stats.worker_tasks.items()):
            metrics.set_gauge(f"pipeline.tasks.{key}", tasks_done)
        return stats

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown()


def resolve_backend_name(config: PlatformConfig) -> str:
    """Map ``config.exec_backend`` to a concrete backend name."""
    mode = config.exec_backend
    if mode == "auto":
        return "threaded" if config.pipeline_depth > 0 else "serial"
    return mode


def create_backend(name: str, hooks: BuildHooks) -> ExecutionBackend:
    """Instantiate the named backend over ``hooks``.

    The multiprocess implementation is imported lazily so serial and
    threaded builds never pay for (or depend on) the shm machinery.
    """
    if name == "serial":
        return SerialBackend(hooks)
    if name == "threaded":
        return ThreadedBackend(hooks)
    if name == "multiprocess":
        # Imported lazily: the multiprocess machinery (shared memory,
        # process spawning) should cost nothing unless selected.
        from repro.core.mp_backend import MultiprocessBackend

        return MultiprocessBackend(hooks)
    raise ValueError(f"unknown execution backend {name!r}")
