"""The execution-backend seam: serial and multiprocess.

:class:`~repro.core.engine.IndexingEngine` decides *what* to do with a
parsed file — split it per indexer, aggregate the group work, advance
the doc-ID cursor, close runs, apply error policy.  A backend decides
*where the parsing runs*:

``serial``
    Everything inline on the engine thread — the default, and the
    reference implementation the other must match byte for byte.
``multiprocess``
    :mod:`repro.core.mp_backend`: the same loop, fed by one supervised
    parse-ahead worker *process* that returns each file in the compact
    parsed-stream encoding (crash/stall recovery and graceful
    degradation booked by :mod:`repro.robustness.supervise`).

Both run :meth:`SerialBackend.run` over a parsed stream that arrives in
file order through the same engine callbacks (:class:`BuildHooks`), so
their output is byte-identical by construction;
``tests/test_exec_backend.py`` enforces it in the tier-1 path.

Backend selection: ``config.exec_backend`` (CLI ``build --exec``, env
``REPRO_EXEC_BACKEND``) — the single execution switch.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator, Protocol

from repro.core.config import PlatformConfig
from repro.core.workload import GroupWork
from repro.util.timing import Stopwatch

if TYPE_CHECKING:
    from repro.core.engine import RunBoundaryState
    from repro.core.mp_backend import ParseWorker
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
    "SerialBackend",
    "create_backend",
]

#: ``(file_index, parsed, permanent_error, retry_outcome)`` — the parsed
#: stream contract shared by both backends.
ParsedStream = Iterator[
    tuple[int, "ParsedFile | None", Exception | None, "RetryOutcome | None"]
]

#: ``(kind, indexer_index, is_popular, sub_batch)`` in dispatch order.
Tasks = list[tuple[str, int, bool, "ParsedBatch"]]


#: What parsing one file yields: ``(parsed, permanent_error, retry_outcome)``.
ParseResult = tuple["ParsedFile | None", Exception | None, "RetryOutcome | None"]


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

    def index_batch(
        self, batch: "ParsedBatch", doc_offset: int
    ) -> tuple[GroupWork, GroupWork]:
        """Index one whole batch inline at a doc offset."""

    def record_file(
        self, k: int, parsed: "ParsedFile", outcome: "RetryOutcome | None",
        pop_work: GroupWork, unpop_work: GroupWork,
    ) -> None: ...

    def close_run(self, k: int) -> None: ...

    def is_run_boundary(self, k: int) -> bool: ...

    def handle_read_failure(self, k: int, error: Exception) -> None: ...

    def fail_gpu(self, ordinal: int, k: int) -> None: ...

    def make_parsed_stream(self, ahead: "ParseWorker | None" = None) -> ParsedStream:
        """The files from ``start_file`` on, parsed, in file order —
        through the parse worker ``ahead`` when given, else on the
        engine thread."""

    def parse_file_inline(self, k: int) -> ParseResult:
        """Parse one file on the engine thread under the retry policy.
        The multiprocess backend uses it for a poisoned file and once
        its worker slot has degraded."""


class SerialBackend:
    """The reference loop: parse, index inline, bookkeep — one thread.

    Also the base class: a backend may change where the parsed stream
    comes from (:meth:`parsed_stream`) and what it reports and releases
    afterwards, never the loop.
    """

    name = "serial"

    def __init__(self, hooks: BuildHooks) -> None:
        self.hooks = hooks

    def parsed_stream(self) -> ParsedStream:
        return self.hooks.make_parsed_stream()

    def run(self) -> None:
        """Consume the parsed stream to completion; called exactly once."""
        h = self.hooks
        next_offset = h.state.doc_offset
        for k, parsed, error, outcome in self.parsed_stream():
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
                ):
                    pop_work, unpop_work = h.index_batch(batch, next_offset)
                h.record_file(k, parsed, outcome, pop_work, unpop_work)
                next_offset += batch.num_docs

            if h.is_run_boundary(k):
                h.close_run(k)

    def drain_run_postings(self) -> "dict[int, PostingsList]":
        """Every indexer's accumulated postings, for ``close_run``."""
        run_lists: "dict[int, PostingsList]" = {}
        for indexer in self.hooks.state.indexers:
            run_lists.update(indexer.drain_postings())
        return run_lists

    def supervisor_report(self) -> "SupervisorReport | None":
        """What process supervision saw (``None``: no processes)."""
        return None

    def close(self) -> None:
        """Release workers; idempotent, runs in a ``finally``."""


def create_backend(name: str, hooks: BuildHooks) -> SerialBackend:
    """Instantiate the named backend over ``hooks``."""
    if name == "serial":
        return SerialBackend(hooks)
    if name == "multiprocess":
        # Imported lazily: the process machinery should cost nothing
        # unless selected.
        from repro.core.mp_backend import MultiprocessBackend

        return MultiprocessBackend(hooks)
    raise ValueError(f"unknown execution backend {name!r}")
