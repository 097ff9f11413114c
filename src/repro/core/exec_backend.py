"""The execution-backend seam: serial and multiprocess.

:class:`~repro.core.engine.IndexingEngine` decides *what* to do with a
parsed file — split it per indexer, aggregate the group work, advance
the doc-ID cursor, close runs, apply error policy.  A backend decides
*where the work runs*:

``serial``
    Everything inline on the engine thread — the default, and the
    reference implementation the other must match byte for byte.
    ``config.parse_prefetch`` gives its loop a read-ahead thread pool.
``multiprocess``
    :mod:`repro.core.mp_backend`: parsers and indexers as OS processes
    exchanging the compact parsed-stream encoding over shared-memory
    rings, supervised by :mod:`repro.robustness.supervise` (heartbeats,
    crash/hang recovery, graceful degradation).

Both drive the build through the same engine callbacks
(:class:`BuildHooks`) and preserve the same ordering contract — per-slot
FIFO dispatch, per-file bookkeeping strictly in file order, quiesced run
boundaries — so their output is byte-identical;
``tests/test_exec_backend.py`` enforces it in the tier-1 path.

Backend selection: ``config.exec_backend`` (CLI ``build --exec``, env
``REPRO_EXEC_BACKEND``) — the single execution switch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterator, Protocol

from repro.core.config import PlatformConfig
from repro.core.workload import GroupWork
from repro.util.timing import Stopwatch

if TYPE_CHECKING:
    from repro.core.engine import RunBoundaryState
    from repro.corpus.collection import Collection
    from repro.obs.runtime import Telemetry
    from repro.parsing.parser import ParsedFile
    from repro.parsing.regroup import ParsedBatch
    from repro.postings.lists import PostingsList
    from repro.robustness import faults
    from repro.robustness.retry import RetryOutcome
    from repro.robustness.supervise import SupervisorReport

__all__ = [
    "BuildHooks",
    "ExecutionBackend",
    "SerialBackend",
    "StallStat",
    "PipelineStats",
    "QUEUE_DEPTH_BUCKETS",
    "create_backend",
    "DEFAULT_CONCURRENT_DEPTH",
]

#: The multiprocess backend's in-flight window when
#: ``config.pipeline_depth`` is 0.
DEFAULT_CONCURRENT_DEPTH = 3

#: Histogram geometry for the deterministic ``pipeline.inflight``
#: distribution (files in flight after each dispatch).
QUEUE_DEPTH_BUCKETS: tuple[int, ...] = (1, 2, 4, 8, 16, 32, 64)

#: ``(file_index, parsed, permanent_error, retry_outcome)`` — the parsed
#: stream contract shared by both backends.
ParsedStream = Iterator[
    tuple[int, "ParsedFile | None", Exception | None, "RetryOutcome | None"]
]

#: ``(kind, indexer_index, is_popular, sub_batch)`` in dispatch order.
Tasks = list[tuple[str, int, bool, "ParsedBatch"]]


class BuildHooks(Protocol):
    """What the engine lends a backend for one build.

    Implemented by the engine's per-build object
    (``repro.core.engine._Build``).  The methods work on engine-private
    state (doc-ID cursor, run bookkeeping, error policy) and must only
    ever be invoked from the engine thread, in file order — that
    discipline, not any property of the backends, is what makes the two
    modes byte-identical.
    """

    config: PlatformConfig
    collection: "Collection"
    #: Counters, assignment, robustness report and the indexer slots.
    state: "RunBoundaryState"
    #: First file this build indexes (non-zero on resume).
    start_file: int
    injector: "faults.FaultInjector | None"
    watch: Stopwatch
    tel: "Telemetry"

    def split_batch(self, batch: "ParsedBatch") -> Tasks: ...

    def index_batch(
        self, batch: "ParsedBatch", doc_offset: int
    ) -> tuple[GroupWork, GroupWork]:
        """Serial only: index one whole batch inline at a doc offset."""

    def aggregate_group_work(
        self, batch: "ParsedBatch", tasks: Tasks, results: list[Any]
    ) -> tuple[GroupWork, GroupWork]: ...

    def record_file(
        self, k: int, parsed: "ParsedFile", outcome: "RetryOutcome | None",
        pop_work: GroupWork, unpop_work: GroupWork,
    ) -> None: ...

    def close_run(self, k: int) -> None: ...

    def is_run_boundary(self, k: int) -> bool: ...

    def handle_read_failure(self, k: int, error: Exception) -> None: ...

    def fail_gpu(self, ordinal: int, k: int) -> None: ...

    def make_parsed_stream(self) -> ParsedStream:
        """Serial only: the engine's in-process parser over the files
        from ``start_file`` on, ``config.parse_prefetch`` files ahead."""

    def parse_file_inline(
        self, k: int
    ) -> tuple[int, "ParsedFile | None", Exception | None, "RetryOutcome | None"]:
        """Parse one file on the engine thread (retry policy applied,
        robustness merged).  The multiprocess backend uses it when a
        parser slot degrades."""

    def indexer_for(self, kind: str, idx: int) -> Any: ...


@dataclass
class StallStat:
    """Count/total/max of one kind of engine-side stall (wall-clock)."""

    events: int = 0
    seconds: float = 0.0
    max_seconds: float = 0.0

    def add(self, seconds: float) -> None:
        self.events += 1
        self.seconds += seconds
        self.max_seconds = max(self.max_seconds, seconds)


@dataclass
class PipelineStats:
    """A multiprocess build's execution summary (serial builds have none).

    ``files``/``tasks``/``max_inflight`` are deterministic functions of
    the dispatch sequence; the stall stats are wall-clock and belong in
    the ``timings`` quarantine.
    """

    depth: int
    workers: int
    files: int = 0
    tasks: int = 0
    max_inflight: int = 0
    #: Engine blocked because ``depth`` files were in flight.
    backpressure: StallStat = field(default_factory=StallStat)
    #: Engine drained the whole window at a run boundary / GPU failover.
    quiesce: StallStat = field(default_factory=StallStat)
    #: Per worker slot: sub-batches dispatched to it.
    worker_tasks: dict[str, int] = field(default_factory=dict)

    def timings(self) -> dict[str, float]:
        """Wall-clock stall summary for ``run.metrics.json``'s timings.

        Flattened count/total/max per stall kind — a quarantine-safe
        stand-in for a stall histogram (the full distribution is in the
        trace's ``pipeline.wait`` spans).
        """
        out: dict[str, float] = {}
        for kind, stat in (("backpressure", self.backpressure), ("quiesce", self.quiesce)):
            out[f"pipeline.stall.{kind}.events"] = float(stat.events)
            out[f"pipeline.stall.{kind}.seconds"] = stat.seconds
            out[f"pipeline.stall.{kind}.max_seconds"] = stat.max_seconds
        return out


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
        for indexer in self.hooks.state.indexers:
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
        next_offset = h.state.doc_offset
        for k, parsed, error, outcome in h.make_parsed_stream():
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


def create_backend(name: str, hooks: BuildHooks) -> ExecutionBackend:
    """Instantiate the named backend over ``hooks``."""
    if name == "serial":
        return SerialBackend(hooks)
    if name == "multiprocess":
        # Imported lazily: the multiprocess machinery (shared memory,
        # process spawning) should cost nothing unless selected.
        from repro.core.mp_backend import MultiprocessBackend

        return MultiprocessBackend(hooks)
    raise ValueError(f"unknown execution backend {name!r}")
