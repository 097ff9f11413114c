"""The multiprocess execution backend: one parse-ahead worker + the serial loop.

``config.exec_backend`` (CLI ``build --exec``, env ``REPRO_EXEC_BACKEND``)
is the single execution switch.  ``serial`` parses every file inline on
the engine thread — the default, and the reference the other must match
byte for byte.  ``multiprocess`` hands the same run loop
(:meth:`repro.core.engine._Build.index_stream`) a :class:`ParseWorker`
to parse ahead; it is the only thing the choice changes, so the output
is identical by construction (the tier-1 byte-identity tests enforce
it).

Process layout::

    parse worker ("parser-0")        engine process
    ─────────────────────────        ─────────────────────────────────────
    parse file k+1, k+2, …    ──▶    decode file k, index it inline,
    (read, inflate, tokenize,        record_file, close_run  — the
    stem, regroup, encode)           serial run loop, unchanged

The worker is a ``concurrent.futures.ProcessPoolExecutor(max_workers=1)``
running :func:`repro.core.engine._parse_under_retry` on the files from
the build's start file on, :data:`PARSE_AHEAD_WINDOW` files ahead of the
indexers, and returning each as :mod:`repro.parsing.stream_codec` bytes.
The engine decodes them *in file order* and runs the serial loop over
them, so output and run boundaries are those of a serial build by
construction: nothing is dispatched, drained, replayed or quiesced.

Lifetime: the engine's open phase starts the worker as soon as it knows
the start file and nothing left can refuse the build — a fresh build
right before Phase 1 sampling (file 0), a resume right after the journal
and manifest checks (the journal's next file) — and submits the first
window at once, so the fork, the worker's init and its cold first file
overlap the sampler.  The run loop binds the build (for inline parses)
and closes the worker when the loop ends; an open phase that raises
closes it itself, so no refused build leaves a process behind.

One worker, whatever ``config.num_parsers`` says: parsing is the smaller
half of a build (0.66 s against 1.0 s of index + write on the web
profile, 1.43 against 1.7 s on text), so one worker is never the
bottleneck, a second only contends for the engine's core, and one
parser object seeing the files in order keeps every ``ParseMetrics``
field equal to the serial build's.  ``num_parsers`` still stamps the
paper's round-robin slot (``k % num_parsers``) on each batch for the
discrete-event replay.

Supervision (:mod:`repro.robustness.supervise` keeps the books) needs no
heartbeat: the executor reports a dead worker itself
(``BrokenProcessPool`` — a **crash**), and a file whose result has not
arrived ``heartbeat_timeout_s`` after the engine *started waiting for
it* is a **stall** (the worker is killed).  Either way the files still
owed are resubmitted to a fresh executor while the restart budget
lasts; a file that was in flight for ``poison_threshold`` deaths is
parsed inline; an exhausted budget degrades the rest of the build to
inline parsing.  A false stall verdict costs parallelism, never bytes —
all durable effects happen on the engine thread.

Worker-side fault-injection counts, metrics, spans and profile samples
ride home on every reply and are folded into the engine's
injector/registry/tracer/profile, so chaos assertions,
``run.metrics.json`` and ``run.profile.json`` stay backend-agnostic.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeout
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Callable, Sequence

from repro.core.config import PlatformConfig
from repro.core.engine import ParseResult, _parse_under_retry
from repro.dictionary.trie import TrieTable
from repro.obs import runtime as obs_runtime
from repro.obs.metrics import MetricsRegistry
from repro.obs.profile import ProfileDelta, SamplingProfiler
from repro.obs.trace import Span, Tracer
from repro.parsing.parser import Parser
from repro.parsing.stream_codec import (
    decode_batch,  # noqa: F401 - harness wrap target, see the end of this module
    decode_parsed_file,
    encode_batch,  # noqa: F401 - harness wrap target, see the end of this module
    encode_parsed_file,
)
from repro.postings.lists import RunPostings
from repro.robustness import faults
from repro.robustness.retry import RetryOutcome
from repro.robustness.supervise import Supervisor, WorkerFailure

__all__ = ["MultiprocessBackend", "ParseWorker", "PARSE_AHEAD_WINDOW", "WORKER_KEY"]

#: Files submitted to the worker ahead of the one the engine indexes.
#: Two keeps the worker busy across a run boundary's write + checkpoint
#: while holding at most two encoded files (≈ 0.4 MB on the web profile).
PARSE_AHEAD_WINDOW = 2

#: The one worker slot: supervisor bookkeeping key and trace/profile lane.
WORKER_KEY = faults.WORKER_SLOT

#: The per-reply telemetry delta: fault counts, fault events, metrics
#: delta, ``(worker_epoch, spans)`` or ``None``, profile delta or ``None``.
Delta = tuple[
    dict[str, int],
    list[tuple[str, str]],
    dict[str, dict[str, object]],
    "tuple[float, list[Span]] | None",
    "ProfileDelta | None",
]

#: What the worker answers for one file: ``(status, value, retry outcome,
#: delta)`` — see :func:`_parse_task`.
Reply = tuple[str, object, "RetryOutcome | None", Delta]


# ---------------------------------------------------------------------- #
# Worker side — module-level functions, picklable under ``spawn``
# ---------------------------------------------------------------------- #


class _WorkerDelta:
    """What the worker's injector and instruments did since the last reply."""

    def __init__(
        self,
        injector: "faults.FaultInjector | None",
        registry: MetricsRegistry | None,
        tracer: Tracer | None,
        profiler: SamplingProfiler | None,
    ) -> None:
        self._injector = injector
        self._registry = registry
        self._tracer = tracer
        self._profiler = profiler
        self._counts: dict[str, int] = {}
        self._events = 0
        self._metrics = registry.snapshot() if registry is not None else None

    def take(self) -> Delta:
        inj = self._injector
        counts_delta: dict[str, int] = {}
        events: list[tuple[str, str]] = []
        if inj is not None:
            counts = dict(inj.counts)
            counts_delta = {
                kind: n - self._counts.get(kind, 0)
                for kind, n in counts.items()
                if n - self._counts.get(kind, 0)
            }
            events = list(inj.events[self._events:])
            self._counts = counts
            self._events = len(inj.events)
        metrics_delta: dict[str, dict[str, object]] = {}
        if self._registry is not None:
            after = self._registry.snapshot()
            metrics_delta = MetricsRegistry.delta(self._metrics, after)
            self._metrics = after
        spans: "tuple[float, list[Span]] | None" = None
        if self._tracer is not None:
            drained = self._tracer.drain_spans()
            if drained:
                spans = (self._tracer.epoch, drained)
        profile = self._profiler.drain_delta() if self._profiler is not None else None
        return counts_delta, events, metrics_delta, spans, profile


@dataclass
class _WorkerState:
    """What the worker process keeps between tasks."""

    config: PlatformConfig
    parser: Parser
    injector: "faults.FaultInjector | None"
    delta: _WorkerDelta


#: Set once per worker process by :func:`_worker_init`; never in the engine.
_state: _WorkerState | None = None


def _exit_when_orphaned(parent_pid: int) -> None:
    # An idle executor worker blocks on its call queue forever if the
    # engine is SIGKILLed (a forked child holds the queue's write end
    # too, so it never sees EOF): never outlive the engine.
    while os.getppid() == parent_pid:
        time.sleep(0.5)
    os._exit(2)


def _worker_init(
    config: PlatformConfig,
    fault_plan: "faults.FaultPlan | None",
    incarnation: int,
    parent_pid: int,
) -> None:
    """The executor's ``initializer``: the worker's private instruments."""
    global _state
    threading.Thread(
        target=_exit_when_orphaned, args=(parent_pid,),
        name="repro-orphan-watch", daemon=True,
    ).start()
    # A forked child inherits the engine's installed telemetry and fault
    # injector; neither may run here — the engine owns the durable
    # metrics file, and faults must fire under *worker* context.  What
    # parse code emits lands in worker-local instruments and travels
    # home as reply deltas.
    obs_runtime.uninstall()
    faults.uninstall()
    registry: MetricsRegistry | None = None
    tracer: Tracer | None = None
    if config.telemetry:
        registry, tracer = MetricsRegistry(), Tracer()
        obs_runtime.install(obs_runtime.Telemetry(tracer=tracer, metrics=registry))
    injector: "faults.FaultInjector | None" = None
    if fault_plan is not None:
        injector = faults.FaultInjector(fault_plan)
        # ``FaultSpec.times`` bounds worker faults per incarnation.
        injector.set_worker_context(WORKER_KEY, incarnation)
        faults.install(injector)
    profiler: SamplingProfiler | None = None
    if config.profile:
        # Lane = slot key, so a restarted worker's samples merge into
        # the same lane (with a second pid recorded).
        profiler = SamplingProfiler(config.profile_interval_s, lane=WORKER_KEY)
        profiler.start()
    # The trie table is a pure function of its height — a local copy is
    # exact, so the worker needs no engine state at all.
    parser = Parser(
        parser_id=0,
        trie=TrieTable(height=config.trie_height),
        strip_html=config.strip_html,
        regroup=config.regroup,
        positional=config.positional,
    )
    parser.lane_override = WORKER_KEY
    _state = _WorkerState(
        config, parser, injector, _WorkerDelta(injector, registry, tracer, profiler)
    )


def _parse_task(k: int, path: str, tag: str) -> Reply:
    """Parse file ``k`` in the worker; ``(status, value, outcome, delta)``.

    ``"parsed"`` carries the encoded file, ``"error"`` the permanent read
    error for the engine's ``on_error`` policy, ``"fatal"`` whatever else
    escaped (an injected :class:`FatalFault`): returned, not raised, so
    the telemetry delta comes home with it and the engine re-raises.
    """
    state = _state
    assert state is not None, "parse task outside an initialised worker"
    if state.injector is not None:
        state.injector.worker_event(tag)  # may stall or SIGKILL us here
    try:
        parsed, error, outcome = _parse_under_retry(state.parser, path, k, state.config)
    except Exception as exc:  # repro-lint: disable=RPR005 - crosses the process boundary; the engine re-raises it
        return "fatal", exc, None, state.delta.take()
    if parsed is None:
        return "error", error, None, state.delta.take()
    return "parsed", encode_parsed_file(parsed), outcome, state.delta.take()


# ---------------------------------------------------------------------- #
# Engine side
# ---------------------------------------------------------------------- #


class ParseWorker:
    """The supervised parse-ahead process, as the engine's look-ahead source.

    Constructed already parsing files ``start`` … ``start + window − 1``;
    ``window``, ``start``, ``submit(k)``, ``collect(k)`` and ``close()``
    are what :meth:`repro.core.engine._Build.make_parsed_stream` drives;
    everything else here is recovery.  Engine-thread only.
    """

    window = PARSE_AHEAD_WINDOW

    def __init__(
        self,
        config: PlatformConfig,
        files: Sequence[str],
        start: int,
        injector: "faults.FaultInjector | None",
        tel: obs_runtime.Telemetry,
    ) -> None:
        """Fork the worker and submit files ``start`` … ``start + window − 1``.

        Needs no build: the engine starts it as soon as it knows where
        the build starts, so the worker's fork, init and first files
        overlap whatever the engine does before its run loop.
        """
        self.files = files
        self.start = start
        self.config = config
        self.injector = injector
        self.tel = tel
        self.policy = config.supervisor
        self.sup = Supervisor(self.policy)
        #: Parses a file on the engine thread (poisoned, or the slot
        #: degraded); bound by the run loop, the only caller of collect.
        self.parse_inline: Callable[[int], ParseResult] | None = None
        # ``fork`` where available (cheap, inherits the warmed
        # interpreter), else ``spawn``; the RPR110 lint rule keeps the
        # worker entry points spawn-safe either way.
        method = "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"
        self._ctx = multiprocessing.get_context(method)
        self._pool: ProcessPoolExecutor | None = None
        self._incarnation = 0
        #: File index → its future; ``None`` once the file is to be
        #: parsed inline (poisoned, or the slot degraded).
        self._outstanding: dict[int, Future | None] = {}
        self._start_pool()
        for k in range(start, min(start + self.window, len(files))):
            self.submit(k)

    # -- the look-ahead contract ---------------------------------------- #

    def submit(self, k: int) -> None:
        self._outstanding[k] = self._send(k)

    def collect(self, k: int) -> ParseResult:
        while True:
            future = self._outstanding[k]
            if future is None:
                del self._outstanding[k]
                assert self.parse_inline is not None, "collect before the run loop"
                return self.parse_inline(k)
            try:
                reply = future.result(timeout=self.policy.heartbeat_timeout_s)
            except FutureTimeout:
                self._recover(
                    k, "stall",
                    f"no result {self.policy.heartbeat_timeout_s:.2f}s into the wait",
                )
            except BrokenProcessPool:
                self._recover(k, "crash", "worker process died")
            else:
                del self._outstanding[k]
                return self._unpack(reply)

    def close(self) -> None:
        """Stop the worker; idempotent.  A worker still parsing (the
        build is aborting) is killed rather than waited for."""
        busy = any(f is not None and not f.done() for f in self._outstanding.values())
        self._stop_pool(kill=busy)
        self._outstanding.clear()

    # -- transport ------------------------------------------------------- #

    def _tag(self, k: int) -> str:
        # Carries the file path (for FaultSpec.path_substring) and the
        # slot key, and doubles as the poison identity.
        return f"{self.files[k]}::{WORKER_KEY}"

    def _send(self, k: int) -> Future | None:
        if self._pool is None:
            return None
        try:
            return self._pool.submit(_parse_task, k, self.files[k], self._tag(k))
        except BrokenProcessPool as exc:
            # The worker died while the engine was indexing; the verdict
            # belongs to the collect that finds this file owed.
            failed: Future = Future()
            failed.set_exception(exc)
            return failed

    def _unpack(self, reply: Reply) -> ParseResult:
        status, value, outcome, delta = reply
        self._merge_delta(delta)
        if status == "parsed":
            return decode_parsed_file(value), None, outcome
        assert isinstance(value, Exception)
        if status == "error":
            return None, value, None
        raise value

    # -- lifecycle and recovery ------------------------------------------ #

    def _start_pool(self) -> None:
        self._incarnation += 1
        self._pool = ProcessPoolExecutor(
            max_workers=1,
            mp_context=self._ctx,
            initializer=_worker_init,
            initargs=(
                self.config,
                self.injector.plan if self.injector is not None else None,
                self._incarnation,
                os.getpid(),
            ),
        )

    def _stop_pool(self, kill: bool) -> None:
        pool, self._pool = self._pool, None
        if pool is None:
            return
        if kill:
            # The executor has no public handle on its processes; a dead
            # one surfaces as BrokenProcessPool on every future it owed.
            for proc in list((pool._processes or {}).values()):
                proc.kill()
        # Joins the worker and the executor's manager thread, so every
        # future is settled (and no process survives) on return.
        pool.shutdown(wait=True, cancel_futures=True)

    def _recover(self, k: int, kind: str, detail: str) -> None:
        """File ``k``'s result will not arrive: restart, poison or degrade."""
        sup, tag = self.sup, self._tag(k)
        # `repro explain` blames the wait this span overlaps on the
        # supervisor, not on transport.
        with self.tel.tracer.span(
            "supervisor.recover", cat="robustness", worker=WORKER_KEY, kind=kind,
        ) as tags:
            self._stop_pool(kill=True)
            if sup.note_task_crash(tag):
                sup.record_poisoned(tag)
                self._outstanding[k] = None
            # Files the dead worker had already parsed keep their results.
            lost = [
                j for j, f in self._outstanding.items()
                if f is not None
                and not (f.done() and not f.cancelled() and f.exception() is None)
            ]
            action = "restart" if sup.allow_restart() else "degrade"
            sup.record_failure(
                WorkerFailure(WORKER_KEY, kind, self._incarnation, detail, tag, action)
            )
            tags["action"] = action
            if action == "degrade":
                sup.record_degraded(requeued=len(lost))
            else:
                delay = sup.restart_delay_s()
                sup.record_restart(requeued=len(lost))
                if delay > 0:
                    time.sleep(delay)
                self._start_pool()
            for j in lost:
                self._outstanding[j] = self._send(j)

    # -- worker-delta folding -------------------------------------------- #

    def _merge_delta(self, delta: Delta) -> None:
        fault_counts, fault_events, metrics_delta, spans, profile = delta
        tel = self.tel
        inj = self.injector
        if inj is not None and (fault_counts or fault_events):
            inj.merge_child_counts(fault_counts, fault_events)
        if spans is not None and tel.tracer.enabled:
            worker_epoch, worker_spans = spans
            tel.tracer.absorb(worker_spans, worker_epoch)
        if profile is not None and tel.profile is not None:
            tel.profile.absorb(profile)
        tel.metrics.absorb(metrics_delta)


# ---------------------------------------------------------------------- #
# Frozen-harness contact surface — delete with ROADMAP item 1(b).
#
# ``benchmarks/perf/tracing.py`` (which a perf PR may not edit) wraps, by
# attribute, ``repro.core.mp_backend:{encode_batch, decode_batch,
# decode_parsed_file}`` and ``MultiprocessBackend.drain_run_postings``
# (looked up in the class's own ``__dict__``), and drives
# ``repro.core.shm_ring.ShmRing`` itself.  ``decode_parsed_file`` is
# really called above; the rest exists only so those wraps bind and a
# traced build reports ``warnings == []`` — the layers they time
# (``mp.encode_s``, ``mp.drain_s``, ``mp.ring_wait_s``) read 0.
# ---------------------------------------------------------------------- #


class MultiprocessBackend:
    """A wrap target only: no build constructs it."""

    def drain_run_postings(self) -> RunPostings:
        return RunPostings.empty()
