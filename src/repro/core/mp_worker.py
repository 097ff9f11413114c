"""Worker-process entry points for the multiprocess execution backend.

This module is deliberately a leaf: it imports no engine code, every
entry point is a module-level function (picklable under the ``spawn``
start method), and nothing here starts a process at import time — the
RPR110 lint rule holds all ``multiprocessing`` call sites in the tree to
that fork-bomb-safe layout, this module included.

One worker process runs :func:`worker_main` with a :class:`WorkerSpec`
describing its identity and its two shared-memory rings (task ring:
engine → worker, result ring: worker → engine).  Messages are pickled
tuples framed by :class:`~repro.core.shm_ring.ShmRing`; bulk payloads —
parsed streams — travel inside them as :mod:`repro.parsing.stream_codec`
bytes, and indexer state/postings as pickles (the same discipline the
checkpoint layer uses).

Protocol, indexer workers (slot keys ``cpu-<i>`` / ``gpu-<j>``)::

    ("state", state_pickle)                      -> (no reply)
    ("index", tid, tag, doc_offset, batch_bytes) -> ("done", tid, report, delta)
    ("boundary", tid)     -> ("boundary", tid, postings_pickle, mutation_log, state_pickle, delta)
    ("snapshot", tid)     -> ("snapshot", tid, state_pickle, delta)
    ("stop",)                                    -> (worker exits)

A ``boundary`` reply is O(run): ``postings_pickle`` is the drained
accumulator, ``mutation_log`` the shard's forest-changing inserts since
the previous boundary, and ``state_pickle`` the indexer with its shard's
forest left out (``BaseIndexer.without_forest`` — counters, device
state, the id cursor).  The engine replays the log into its own copy of
the shard; the dictionary so far never crosses the ring again after the
initial ``state`` push.  ``snapshot`` (mid-run, GPU failover only) and
``state`` carry the whole indexer, forest and unjournalled log included.

Protocol, parse workers (slot keys ``parser-<w>``)::

    ("parse", k, path, tag) -> ("parsed", k, file_bytes, attempts, backoff_s, delta)
                             | ("parse_error", k, exc_pickle, attempts, backoff_s, delta)
                             | ("parse_fatal", k, exc_pickle, delta)
    ("stop",)               -> (worker exits)

``delta`` is ``(fault_counts, fault_events, metrics_delta, spans,
profile)`` — what the worker-side fault injector, the worker-local
metrics registry, the worker-local tracer, and (under ``--profile``)
the worker's sampling profiler did since the previous reply.  The
engine folds all of it into its own injector/registry/tracer/profile,
so chaos assertions, the deterministic metrics file, the per-lane
trace, and the merged ``run.profile.json`` stay backend-agnostic: a
multiprocess build reports the same ``parse.*`` / ``index.*`` /
``btree.*`` counters — and the same ``parse_file`` / ``index_batch``
lanes — a serial build does.  ``spans`` is ``(worker_epoch, [Span,
...])`` or ``None``; both tracers read the same monotonic clock, so the
engine re-bases the epochs and the lanes line up on one timeline.
``profile`` is a :data:`repro.obs.profile.ProfileDelta` or ``None``;
because it rides *every* reply, a worker that is later SIGKILLed has
already shipped all samples up to its last completed task — profile
loss on a crash is bounded by one task, exactly like spans.

Failure discipline: the worker heartbeats (a counter in the result
ring's header) on every transport poll and around every task; it exits
on its own only when orphaned (parent pid gone) or told to stop.  Task
exceptions are reported, not fatal — the *engine* decides whether an
error aborts the build.  ``SIGKILL``-style deaths are the supervisor's
problem by design: the worker owns no shared-memory segments (it only
attaches) and no durable output, so there is nothing a dying worker can
leak or corrupt beyond its in-flight tasks, which the engine's journal
replays.
"""

from __future__ import annotations

import os
import pickle
from dataclasses import dataclass
from typing import Callable

from repro.core.config import PlatformConfig
from repro.core.shm_ring import RingSpec, ShmRing, forget_inherited_segments
from repro.corpus.warc import CorruptContainerError
from repro.dictionary.trie import TrieTable
from repro.obs import runtime as obs_runtime
from repro.obs.metrics import MetricsRegistry
from repro.obs.profile import ProfileDelta, SamplingProfiler
from repro.obs.trace import Span, Tracer
from repro.parsing.parser import Parser
from repro.parsing.stream_codec import decode_batch, encode_parsed_file
from repro.robustness import faults
from repro.robustness.errors import RetryExhausted
from repro.robustness.retry import retry_call

__all__ = ["WorkerSpec", "worker_main"]

#: Mirrors the engine's permanent-read-error classification without
#: importing the engine: these go to the ``on_error`` policy, anything
#: else that escapes a parse is fatal to the build.
_PERMANENT_READ_ERRORS = (CorruptContainerError, RetryExhausted, OSError)


@dataclass(frozen=True)
class WorkerSpec:
    """Everything a worker process needs — plain data, pickle-friendly.

    Deliberately contains no multiprocessing primitives (no queues,
    locks, or conditions): a crashed peer can never strand this worker
    on a dead synchronization object, and the spec pickles under any
    start method.
    """

    key: str                    # slot key: "cpu-0" | "gpu-1" | "parser-2"
    kind: str                   # "indexer" | "parser"
    incarnation: int            # 1 + number of supervisor restarts
    task_ring: RingSpec
    result_ring: RingSpec
    config: PlatformConfig
    fault_plan: "faults.FaultPlan | None"
    parent_pid: int


class _WorkerDelta:
    """What the worker's injector and metrics did since the last reply."""

    def __init__(
        self,
        injector: "faults.FaultInjector | None",
        registry: MetricsRegistry | None,
        tracer: Tracer | None = None,
        profiler: SamplingProfiler | None = None,
    ) -> None:
        self._injector = injector
        self._registry = registry
        self._tracer = tracer
        self._profiler = profiler
        self._counts: dict[str, int] = {}
        self._events = 0
        self._metrics = registry.snapshot() if registry is not None else None

    def take(
        self,
    ) -> tuple[
        dict[str, int],
        list[tuple[str, str]],
        dict[str, dict[str, object]],
        "tuple[float, list[Span]] | None",
        "ProfileDelta | None",
    ]:
        inj = self._injector
        if inj is None:
            counts_delta: dict[str, int] = {}
            events: list[tuple[str, str]] = []
        else:
            counts = dict(inj.counts)
            counts_delta = {
                kind: n - self._counts.get(kind, 0)
                for kind, n in counts.items()
                if n - self._counts.get(kind, 0)
            }
            events = list(inj.events[self._events:])
            self._counts = counts
            self._events = len(inj.events)
        if self._registry is None:
            metrics_delta: dict[str, dict[str, object]] = {}
        else:
            after = self._registry.snapshot()
            metrics_delta = MetricsRegistry.delta(self._metrics, after)
            self._metrics = after
        spans: "tuple[float, list[Span]] | None" = None
        if self._tracer is not None:
            drained = self._tracer.drain_spans()
            if drained:
                spans = (self._tracer.epoch, drained)
        profile: "ProfileDelta | None" = None
        if self._profiler is not None:
            profile = self._profiler.drain_delta()
        return counts_delta, events, metrics_delta, spans, profile


def worker_main(spec: WorkerSpec) -> None:
    """Run one worker to completion.  The process's whole life."""
    # Forked children inherit the engine's created-segment registry and
    # its atexit sweep; disown it or a clean worker exit would unlink
    # rings the engine (and sibling workers) still use.
    forget_inherited_segments()
    # Under the fork start method the child inherits the engine's
    # installed telemetry and fault injector; neither may run here — the
    # engine owns the durable metrics file, and faults must fire under
    # *worker* context (or not at all).  Metrics and spans emitted by
    # parse/index code land in worker-local instruments and travel home
    # as reply deltas.
    obs_runtime.uninstall()
    faults.uninstall()
    registry: MetricsRegistry | None = None
    tracer: Tracer | None = None
    if spec.config.telemetry:
        registry = MetricsRegistry()
        tracer = Tracer()
        obs_runtime.install(
            obs_runtime.Telemetry(tracer=tracer, metrics=registry)
        )
    injector: "faults.FaultInjector | None" = None
    if spec.fault_plan is not None:
        injector = faults.FaultInjector(spec.fault_plan)
        injector.set_worker_context(spec.key, spec.incarnation)
        faults.install(injector)
    profiler: SamplingProfiler | None = None
    if spec.config.profile:
        # Worker-side sampler: lane = slot key, so a restarted worker's
        # samples merge into the same lane (with a second pid recorded).
        profiler = SamplingProfiler(
            spec.config.profile_interval_s, lane=spec.key
        )
        profiler.start()

    tasks = ShmRing.attach(spec.task_ring)
    results = ShmRing.attach(spec.result_ring)

    def on_wait() -> None:
        # Heartbeat while polling either ring; exit if orphaned (the
        # engine died without stopping us — never outlive it).
        results.beat("producer")
        if os.getppid() != spec.parent_pid:
            os._exit(2)

    def reply(msg: tuple) -> None:
        results.beat("producer")
        results.put_frame(pickle.dumps(msg), on_wait=on_wait)

    delta = _WorkerDelta(injector, registry, tracer, profiler)
    try:
        if spec.kind == "indexer":
            _indexer_loop(spec, tasks, results, injector, delta, on_wait, reply)
        else:
            _parser_loop(spec, tasks, injector, delta, on_wait, reply)
    finally:
        if profiler is not None:
            profiler.stop()
        tasks.close()
        results.close()


def _indexer_loop(
    spec: WorkerSpec,
    tasks: ShmRing,
    results: ShmRing,
    injector: "faults.FaultInjector | None",
    delta: _WorkerDelta,
    on_wait: Callable[[], None],
    reply: Callable[[tuple], None],
) -> None:
    indexer = None
    while True:
        frame = tasks.get_frame(on_wait=on_wait)
        results.beat("producer")
        cmd = pickle.loads(frame)
        op = cmd[0]
        if op == "stop":
            return
        if op == "state":
            indexer = pickle.loads(cmd[1])
        elif op == "index":
            _, tid, tag, doc_offset, payload = cmd
            if injector is not None:
                injector.worker_event(tag)  # may stall or SIGKILL us here
            try:
                result = indexer.index_batch(decode_batch(payload), doc_offset)
                # The engine aggregates the report only; a GPU batch's work
                # items and kernel result stay on this side of the ring.
                result = getattr(result, "report", result)
            except Exception as exc:  # repro-lint: disable=RPR005 - cross-process propagation: the engine unpickles and re-raises
                reply(("error", tid, pickle.dumps(exc), *delta.take()))
            else:
                reply(("done", tid, result, *delta.take()))
        elif op == "boundary":
            # What the run added, never the dictionary so far: the
            # engine replays the log into its own copy of the shard, so
            # the state travels without the forest (the stub a
            # checkpoint record pickles) and the reply is O(run).
            postings = pickle.dumps(indexer.drain_postings())
            log = indexer.shard.take_mutation_log()
            state = pickle.dumps(indexer.without_forest())
            reply(("boundary", cmd[1], postings, log, state, *delta.take()))
        elif op == "snapshot":
            reply(("snapshot", cmd[1], pickle.dumps(indexer), *delta.take()))
        else:
            raise RuntimeError(f"unknown indexer-worker op {op!r}")


def _parser_loop(
    spec: WorkerSpec,
    tasks: ShmRing,
    injector: "faults.FaultInjector | None",
    delta: _WorkerDelta,
    on_wait: Callable[[], None],
    reply: Callable[[tuple], None],
) -> None:
    cfg = spec.config
    # The trie table is a pure function of its height — building a local
    # copy is exact, so parse workers need no engine state at all.
    parser = Parser(
        parser_id=0,
        trie=TrieTable(height=cfg.trie_height),
        strip_html=cfg.strip_html,
        regroup=cfg.regroup,
        positional=cfg.positional,
    )
    while True:
        frame = tasks.get_frame(on_wait=on_wait)
        cmd = pickle.loads(frame)
        if cmd[0] == "stop":
            return
        _, k, path, tag = cmd
        if injector is not None:
            injector.worker_event(tag)  # may stall or SIGKILL us here

        def call() -> object:
            # The paper's round-robin parser-array slot for this file,
            # stamped exactly as the in-process stream does it.
            parser.parser_id = k % cfg.num_parsers
            return parser.parse_file(path, sequence=k)

        try:
            parsed, outcome = retry_call(call, cfg.retry, path)
        except _PERMANENT_READ_ERRORS as exc:
            reply(("parse_error", k, pickle.dumps(exc), 1, 0.0, *delta.take()))
        except BaseException as exc:  # repro-lint: disable=RPR005 - FatalFault crosses the process boundary; the engine re-raises it
            reply(("parse_fatal", k, pickle.dumps(exc), *delta.take()))
        else:
            reply(
                (
                    "parsed",
                    k,
                    encode_parsed_file(parsed),
                    outcome.attempts,
                    outcome.backoff_s,
                    *delta.take(),
                )
            )
