"""The multiprocess execution backend: supervised workers over shm rings.

Process layout (engine process + one OS process per slot)::

    engine ──task ring──▶ parser-w ──result ring──▶ engine   (w per parser)
    engine ──task ring──▶ cpu-i/gpu-j ──result ring──▶ engine (per indexer)

Parsers ship whole files back as :mod:`repro.parsing.stream_codec`
bytes; indexer workers hold a private copy of their indexer object and
stream sub-batches in / reports out.  All *durable* effects — doc table,
run files, manifest, checkpoint — happen on the engine thread through
the shared :class:`~repro.core.exec_backend.BuildHooks`, which is what
makes worker failures recoverable with at-most-once side effects.

Ordering contract (byte-identity with serial):

- files are assigned to parser slots round-robin and *collected in
  global file order*, so the engine sees parsed files exactly as the
  serial loop would;
- sub-batches are split and dispatched on the engine thread in file
  order, per-slot FIFO rings preserve that order per indexer, and the
  drain window always collects the oldest file first;
- run boundaries quiesce the window, then pull what the run added out
  of every worker — its postings, its shard's mutation log and a
  forest-free indexer state — and replay the log into the engine's own
  copy of the shard, so ``close_run``'s checkpoint and the dictionary
  epilogue operate on authoritative objects while the bytes on the ring
  stay proportional to the run, not to the dictionary so far.

Supervision (:mod:`repro.robustness.supervise`) is passive: every
blocking ring wait doubles as the supervision tick.  A dead or silent
worker is recovered by restart (fresh rings — a SIGKILL mid-frame
poisons a ring — the engine-side indexer, which *is* the state at the
last install, pickled and pushed, journal replayed, already-collected
replies discarded by task id) or, when budgets or poison say stop, by
degrading the slot to inline execution on that same object.
Worker-side fault-injection counts and metric emissions return as reply
deltas and are folded into the engine's injector/registry, keeping
chaos assertions and ``run.metrics.json`` backend-agnostic.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import time
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from repro.core.exec_backend import (
    DEFAULT_CONCURRENT_DEPTH,
    QUEUE_DEPTH_BUCKETS,
    BuildHooks,
    ExecutionBackend,
    ParsedStream,
    PipelineStats,
    Tasks,
)
from repro.core.mp_worker import WorkerSpec, worker_main
from repro.core.shm_ring import RingTimeout, ShmRing, sweep_created_segments
from repro.parsing.stream_codec import decode_batch, decode_parsed_file, encode_batch
from repro.robustness.retry import RetryOutcome
from repro.robustness.supervise import Supervisor, SupervisorReport, WorkerFailure
from repro.util.timing import now

if TYPE_CHECKING:
    from repro.parsing.parser import ParsedFile
    from repro.postings.lists import PostingsList

__all__ = ["MultiprocessBackend"]

#: Files dispatched ahead per parser slot (its private parse lookahead).
_PARSE_LOOKAHEAD = 2


class _SlotInterrupted(Exception):
    """A blocking put was abandoned because its slot was recovered."""


@dataclass
class _Journal:
    """One dispatched sub-batch, replayable into a restarted worker."""

    tid: int
    tag: str
    doc_offset: int
    payload: bytes
    collected: bool = False


@dataclass
class _InflightFile:
    """One parsed file dispatched to the workers, awaiting its drain."""

    file_index: int
    parsed: "ParsedFile"
    outcome: RetryOutcome | None
    tasks: Tasks
    #: Per-task ids, parallel to ``tasks``.
    task_ids: list[int]


class _Handle:
    """One live worker incarnation: process + its two rings."""

    __slots__ = (
        "proc", "incarnation", "task_ring", "result_ring",
        "last_beats", "last_change",
    )

    def __init__(
        self,
        proc: Any,
        incarnation: int,
        task_ring: ShmRing,
        result_ring: ShmRing,
    ) -> None:
        self.proc = proc
        self.incarnation = incarnation
        self.task_ring = task_ring
        self.result_ring = result_ring
        self.last_beats = result_ring.beats("producer")
        self.last_change = now()


class _Slot:
    """One logical worker slot, surviving restarts and degradation."""

    def __init__(self, key: str) -> None:
        self.key = key
        self.mode = "process"  # "process" | "inline"
        self.handle: _Handle | None = None
        #: Bumped on every restart/degrade; generation-guarded puts let
        #: nested recovery abandon sends the replay already covered.
        self.generation = 0


class _IndexerSlot(_Slot):
    def __init__(self, key: str, kind: str, idx: int) -> None:
        super().__init__(key)
        self.kind = kind
        self.idx = idx
        #: Every sub-batch dispatched since the engine-side indexer was
        #: last installed (start, run boundary, snapshot), in order.
        self.journal: list[_Journal] = []
        self.by_tid: dict[int, _Journal] = {}
        #: Replayed-task ids whose duplicate "done" replies to skip.
        self.discard: set[int] = set()
        #: Results produced by inline (degraded) execution, by task id.
        self.inline_results: dict[int, Any] = {}

    def uncollected(self) -> int:
        return sum(1 for e in self.journal if not e.collected)


class _ParserSlot(_Slot):
    def __init__(self, key: str, w: int) -> None:
        super().__init__(key)
        self.w = w
        #: ``(file_index, path, tag)`` dispatched but not yet collected.
        self.outstanding: deque[tuple[int, str, str]] = deque()
        self.next_k = 0

    def uncollected(self) -> int:
        return len(self.outstanding)


class MultiprocessBackend(ExecutionBackend):
    """Parsers + indexers as supervised OS processes (see module doc)."""

    name = "multiprocess"

    def __init__(self, hooks: BuildHooks) -> None:
        super().__init__(hooks)
        cfg = hooks.config
        self.policy = cfg.supervisor
        self.sup = Supervisor(self.policy)
        self.depth = cfg.pipeline_depth or DEFAULT_CONCURRENT_DEPTH
        method = self.policy.start_method or (
            "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"
        )
        self._ctx = multiprocessing.get_context(method)
        self._tid = 0
        self._closed = False
        self._islots: list[_IndexerSlot] = [
            _IndexerSlot(f"cpu-{i}", "cpu", i)
            for i in range(len(hooks.state.cpu_indexers))
        ] + [
            _IndexerSlot(f"gpu-{j}", "gpu", j)
            for j in range(len(hooks.state.gpu_indexers))
        ]
        self._islot_map = {(s.kind, s.idx): s for s in self._islots}
        remaining = len(hooks.collection.files) - hooks.start_file
        self._pslots: list[_ParserSlot] = [
            _ParserSlot(f"parser-{w}", w)
            for w in range(min(cfg.num_parsers, max(0, remaining)))
        ]
        self.stats = PipelineStats(depth=self.depth, workers=len(self._islots))

    # ------------------------------------------------------------------ #
    # Run loop
    # ------------------------------------------------------------------ #

    def run(self) -> PipelineStats:
        h = self.hooks
        metrics = h.tel.metrics
        stats = self.stats
        inflight: deque[_InflightFile] = deque()
        next_offset = h.state.doc_offset

        def collect_oldest(reason: str) -> None:
            item = inflight.popleft()
            t0 = now()
            with h.tel.tracer.span(
                "pipeline.wait", cat="pipeline", file=item.file_index, reason=reason,
                cp=f"drain:{item.file_index}", cp_from=f"index:{item.file_index}",
            ):
                results = []
                for (kind, idx, _pop, sub), tid in zip(item.tasks, item.task_ids):
                    slot = self._islot_map[(kind, idx)]
                    results.append(
                        self._collect_result(slot, tid, self._task_tag(sub, slot))
                    )
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

        try:
            self._start_workers()
            metrics.set_gauge("pipeline.depth", self.depth)
            metrics.set_gauge("pipeline.workers", len(self._islots))
            for k, parsed, error, outcome in self._parsed_stream():
                if h.injector is not None:
                    failures = h.injector.gpu_failures(k)
                    if failures:
                        quiesce("quiesce")
                        self._gpu_failover(failures, k)

                if error is not None:
                    h.handle_read_failure(k, error)
                else:
                    assert parsed is not None
                    while len(inflight) >= self.depth:
                        collect_oldest("backpressure")
                    batch = parsed.batch
                    tasks = h.split_batch(batch)
                    task_ids = []
                    with h.tel.tracer.span(
                        "pipeline.dispatch", cat="pipeline", file=k, tasks=len(tasks),
                        cp=f"dispatch:{k}", cp_from=f"collect:{k}",
                    ):
                        for kind, idx, _pop, sub in tasks:
                            slot = self._islot_map[(kind, idx)]
                            task_ids.append(self._dispatch(slot, sub, next_offset))
                    inflight.append(_InflightFile(k, parsed, outcome, tasks, task_ids))
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
            self.close()
        metrics.set_gauge("pipeline.queue_depth", 0)
        for key, tasks_done in sorted(stats.worker_tasks.items()):
            metrics.set_gauge(f"pipeline.tasks.{key}", tasks_done)
        return stats

    def supervisor_report(self) -> SupervisorReport:
        return self.sup.report

    # ------------------------------------------------------------------ #
    # Dispatch / collect (indexer slots)
    # ------------------------------------------------------------------ #

    @staticmethod
    def _task_tag(sub: Any, slot: _Slot) -> str:
        # Carries both the file path (for FaultSpec.path_substring) and
        # the slot key (for FaultSpec.worker), and doubles as the poison
        # identity: "the same sub-batch killed N incarnations".
        return f"{sub.source_file}::{slot.key}"

    def _next_tid(self) -> int:
        self._tid += 1
        return self._tid

    def _dispatch(self, slot: _IndexerSlot, sub: Any, doc_offset: int) -> int:
        tid = self._next_tid()
        tag = self._task_tag(sub, slot)
        self.stats.tasks += 1
        self.stats.worker_tasks[slot.key] = self.stats.worker_tasks.get(slot.key, 0) + 1
        if slot.mode == "inline":
            obj = self.hooks.indexer_for(slot.kind, slot.idx)
            res = obj.index_batch(sub, doc_offset)
            slot.inline_results[tid] = getattr(res, "report", res)
            return tid
        # Journal *before* sending: if the put itself triggers recovery,
        # replay (restart) or inline re-execution (degrade) has already
        # seen this entry and the returned False is safe to ignore.
        payload = encode_batch(sub)
        entry = _Journal(tid, tag, doc_offset, payload)
        slot.journal.append(entry)
        slot.by_tid[tid] = entry
        self._put(slot, ("index", tid, tag, doc_offset, payload), tag=tag)
        return tid

    def _collect_result(self, slot: _IndexerSlot, tid: int, tag: str) -> Any:
        while True:
            if slot.mode == "inline":
                return slot.inline_results.pop(tid)
            msg = slot.handle.result_ring.get_frame(
                timeout=self.policy.supervise_interval_s
            )
            if msg is None:
                self._supervise(slot, tag)
                continue
            cmd = pickle.loads(msg)
            op = cmd[0]
            if op == "done":
                _, rtid, result, fc, fe, md, sp, pf = cmd
                if rtid in slot.discard:
                    # Duplicate completion of a replayed, already-
                    # collected task; its effects were counted once.
                    slot.discard.discard(rtid)
                    continue
                self._merge_delta(fc, fe, md, sp, pf)
                if rtid != tid:
                    raise RuntimeError(
                        f"{slot.key}: expected reply for task {tid}, got {rtid}"
                    )
                entry = slot.by_tid.get(tid)
                if entry is not None:
                    entry.collected = True
                return result
            if op == "error":
                _, _rtid, exc_blob, fc, fe, md, sp, pf = cmd
                self._merge_delta(fc, fe, md, sp, pf)
                raise pickle.loads(exc_blob)
            raise RuntimeError(f"{slot.key}: unexpected reply {op!r}")

    def _collect_control(
        self, slot: _IndexerSlot, tid: int, opname: str, tag: str
    ) -> tuple | None:
        """Await a boundary/snapshot reply; ``None`` if the slot recovered
        (caller re-issues) or degraded (caller goes inline)."""
        gen = slot.generation
        while True:
            if slot.mode != "process" or slot.generation != gen:
                return None
            msg = slot.handle.result_ring.get_frame(
                timeout=self.policy.supervise_interval_s
            )
            if msg is None:
                self._supervise(slot, tag)
                continue
            cmd = pickle.loads(msg)
            op = cmd[0]
            if op == "done" and cmd[1] in slot.discard:
                slot.discard.discard(cmd[1])
                continue
            if op == opname and cmd[1] == tid:
                return cmd
            raise RuntimeError(
                f"{slot.key}: unexpected reply {op!r} while awaiting {opname}"
            )

    # ------------------------------------------------------------------ #
    # Run boundaries / GPU failover
    # ------------------------------------------------------------------ #

    def drain_run_postings(self) -> "dict[int, PostingsList]":
        run_lists: "dict[int, PostingsList]" = {}
        for slot in self._islots:
            run_lists.update(self._drain_slot(slot))
        return run_lists

    def _drain_slot(self, slot: _IndexerSlot) -> "dict[int, PostingsList]":
        cmd = self._control_roundtrip(slot, "boundary")
        if cmd is None:
            return self.hooks.indexer_for(slot.kind, slot.idx).drain_postings()
        # Engine compute from here on, outside ``drain.wait`` — `repro
        # critpath` blames that span on transport, not on this work.
        _, _, postings_blob, log, state_blob, fc, fe, md, sp, pf = cmd
        # Payload only: the telemetry delta on the same frame carries
        # wall-clock ring counters, and the registry is deterministic.
        self.hooks.tel.metrics.observe(
            "mp.boundary.bytes", len(postings_blob) + len(log) + len(state_blob)
        )
        self._merge_delta(fc, fe, md, sp, pf)
        # The forest stays on this side: replay the run's log into it
        # and put the worker's small state around it.  Replay re-emits
        # the entries into the shard's own log, where close_run's
        # checkpoint takes them as under every backend.  A mid-run
        # snapshot leaves its unjournalled entries in that log already,
        # and the worker's log then starts with them: skip, not re-apply.
        obj = pickle.loads(state_blob)
        shard = self.hooks.indexer_for(slot.kind, slot.idx).shard
        shard.apply_log(log[len(shard.mutation_log):], recorded=obj.shard)
        obj.shard = shard
        self._install(slot, obj)
        return pickle.loads(postings_blob)

    def _refresh_state(self, slot: _IndexerSlot) -> None:
        """Pull current state out of a worker without draining postings:
        the whole indexer, its forest and unjournalled log included."""
        cmd = self._control_roundtrip(slot, "snapshot")
        if cmd is None:
            return
        _, _, state_blob, fc, fe, md, sp, pf = cmd
        self._merge_delta(fc, fe, md, sp, pf)
        self._install(slot, pickle.loads(state_blob))

    def _control_roundtrip(self, slot: _IndexerSlot, opname: str) -> tuple | None:
        """Issue a boundary/snapshot op until its reply arrives; ``None``
        once the slot runs inline.  The roundtrip is transport `repro
        critpath` must see as its own causal edge (ring-wait, not flush)."""
        if slot.mode != "process":
            return None
        with self.hooks.tel.tracer.span(
            "drain.wait", cat="pipeline", worker=slot.key,
            cp=f"{opname}:{slot.key}", cp_from=f"index:{slot.key}",
        ):
            while slot.mode == "process":
                tid = self._next_tid()
                tag = f"<{opname}::{slot.key}>"
                if not self._put(slot, (opname, tid), tag=tag):
                    continue
                cmd = self._collect_control(slot, tid, opname, tag)
                if cmd is not None:
                    return cmd
        return None

    def _install(self, slot: _IndexerSlot, obj: Any) -> None:
        """``obj`` is the worker's state as of its last reply: it becomes
        the engine's authoritative object — which is also what a
        restarted worker is seeded from and what a degraded slot
        continues on — and the journal resets."""
        state = self.hooks.state
        lst = state.cpu_indexers if slot.kind == "cpu" else state.gpu_indexers
        lst[slot.idx] = obj
        slot.journal.clear()
        slot.by_tid.clear()
        slot.discard.clear()

    def _gpu_failover(self, ordinals: list[int], k: int) -> None:
        # Window already quiesced by the caller.  Refresh the engine-side
        # object so fail_gpu adopts the worker's accumulated shard state,
        # then push the CPU-fallback object back as the worker's state.
        for ordinal in ordinals:
            slot = self._islot_map.get(("gpu", ordinal))
            if slot is None:
                continue
            self._refresh_state(slot)
            self.hooks.fail_gpu(ordinal, k)
            if slot.mode == "process":
                state = pickle.dumps(self.hooks.indexer_for("gpu", ordinal))
                self._put(slot, ("state", state))

    # ------------------------------------------------------------------ #
    # Parsed stream (parser slots)
    # ------------------------------------------------------------------ #

    def _parsed_stream(self) -> ParsedStream:
        h = self.hooks
        n = len(h.collection.files)
        start = h.start_file
        P = len(self._pslots)
        if P == 0:
            return
        for slot in self._pslots:
            slot.next_k = start + slot.w
            self._top_up(slot)
        for k in range(start, n):
            slot = self._pslots[(k - start) % P]
            result = self._collect_parse(slot, k)
            self._top_up(slot)
            yield result

    def _top_up(self, slot: _ParserSlot) -> None:
        n = len(self.hooks.collection.files)
        P = len(self._pslots)
        while len(slot.outstanding) < _PARSE_LOOKAHEAD and slot.next_k < n:
            k = slot.next_k
            slot.next_k += P
            path = self.hooks.collection.files[k]
            tag = f"{path}::{slot.key}"
            # Outstanding *before* sending — same journaling discipline
            # as _dispatch; replay and inline both cover this entry.
            slot.outstanding.append((k, path, tag))
            if slot.mode == "process":
                self._put(slot, ("parse", k, path, tag), tag=tag)

    def _collect_parse(
        self, slot: _ParserSlot, k: int
    ) -> "tuple[int, object, Exception | None, RetryOutcome | None]":
        h = self.hooks
        with h.watch.measure("parse"), h.tel.tracer.span(
            "parse.wait", cat="parse", file=k,
            cp=f"collect:{k}", cp_from=f"parse:{k}",
        ):
            while True:
                if slot.mode == "inline":
                    if slot.outstanding and slot.outstanding[0][0] == k:
                        slot.outstanding.popleft()
                    return h.parse_file_inline(k)
                assert slot.outstanding and slot.outstanding[0][0] == k
                tag = slot.outstanding[0][2]
                msg = slot.handle.result_ring.get_frame(
                    timeout=self.policy.supervise_interval_s
                )
                if msg is None:
                    self._supervise(slot, tag)
                    continue
                cmd = pickle.loads(msg)
                op = cmd[0]
                if op == "parsed":
                    _, rk, payload, attempts, backoff_s, fc, fe, md, sp, pf = cmd
                    if rk != k:
                        raise RuntimeError(
                            f"{slot.key}: expected file {k}, got {rk}"
                        )
                    slot.outstanding.popleft()
                    self._merge_delta(fc, fe, md, sp, pf)
                    outcome = RetryOutcome(attempts=attempts, backoff_s=backoff_s)
                    h.state.robustness.merge_outcome(outcome.retries, outcome.backoff_s)
                    return k, decode_parsed_file(payload), None, outcome
                if op == "parse_error":
                    _, rk, exc_blob, _att, _bo, fc, fe, md, sp, pf = cmd
                    slot.outstanding.popleft()
                    self._merge_delta(fc, fe, md, sp, pf)
                    return k, None, pickle.loads(exc_blob), None
                if op == "parse_fatal":
                    _, _rk, exc_blob, fc, fe, md, sp, pf = cmd
                    self._merge_delta(fc, fe, md, sp, pf)
                    raise pickle.loads(exc_blob)
                raise RuntimeError(f"{slot.key}: unexpected reply {op!r}")

    # ------------------------------------------------------------------ #
    # Transport with passive supervision
    # ------------------------------------------------------------------ #

    def _put(self, slot: _Slot, msg: tuple, gen: int | None = None,
             tag: str | None = None) -> bool:
        """Send one message; ``False`` if the slot was recovered or
        degraded mid-send (the recovery already covered the message)."""
        if gen is None:
            gen = slot.generation
        if slot.mode != "process" or slot.generation != gen:
            return False
        ring = slot.handle.task_ring

        def on_wait() -> None:
            # Runs once per poll while the ring is full — the only time
            # a put can block is a worker that stopped draining.
            self._supervise(slot, tag)
            if slot.mode != "process" or slot.generation != gen:
                raise _SlotInterrupted()

        try:
            ring.put_frame(pickle.dumps(msg), on_wait=on_wait)
        except _SlotInterrupted:
            return False
        return True

    def _supervise(self, slot: _Slot, tag: str | None) -> None:
        """One passive supervision tick for ``slot`` (engine thread)."""
        h = slot.handle
        if h.proc.is_alive():
            beats = h.result_ring.beats("producer")
            t = now()
            if beats != h.last_beats:
                h.last_beats = beats
                h.last_change = t
                return
            if t - h.last_change <= self.policy.heartbeat_timeout_s:
                return
            kind = "stall"
            detail = f"heartbeat silent for {t - h.last_change:.2f}s"
            h.proc.kill()
            h.proc.join()
        else:
            kind = "crash"
            detail = f"exit code {h.proc.exitcode}"
        self._recover(slot, kind, detail, tag)

    def _recover(self, slot: _Slot, kind: str, detail: str,
                 tag: str | None) -> None:
        # The span nests inside whatever engine wait triggered
        # supervision; `repro critpath` subtracts these intervals from
        # the wait before blaming transport (supervisor restart/replay
        # edges in the causal graph).
        with self.hooks.tel.tracer.span(
            "supervisor.recover", cat="robustness", worker=slot.key, kind=kind,
        ) as tags:
            incarnation = slot.handle.incarnation if slot.handle else 0
            poison = tag is not None and self.sup.note_task_crash(tag)
            if poison:
                self.sup.record_poisoned(tag)
            if poison or not self.sup.allow_restart(slot.key):
                self.sup.record_failure(
                    WorkerFailure(slot.key, kind, incarnation, detail, tag, "degrade")
                )
                tags["action"] = "degrade"
                self._degrade(slot)
                return
            delay = self.sup.restart_delay_s(slot.key)
            self.sup.record_failure(
                WorkerFailure(slot.key, kind, incarnation, detail, tag, "restart")
            )
            self.sup.record_restart(slot.key, requeued=slot.uncollected())
            tags["action"] = "restart"
            if delay > 0:
                time.sleep(delay)
            slot.generation += 1
            self._spawn(slot)
            self._replay(slot)

    def _replay(self, slot: _Slot) -> None:
        """Re-seed a restarted worker and resend everything in flight."""
        gen = slot.generation
        if isinstance(slot, _IndexerSlot):
            # Replies for already-collected tasks were consumed once;
            # the fresh incarnation will re-emit them — skip by id.
            slot.discard = {e.tid for e in slot.journal if e.collected}
            # The engine-side object is the state at the last install —
            # pickled here, on the fault path, not at every boundary.
            state = pickle.dumps(self.hooks.indexer_for(slot.kind, slot.idx))
            if not self._put(slot, ("state", state), gen=gen):
                return
            for e in list(slot.journal):
                msg = ("index", e.tid, e.tag, e.doc_offset, e.payload)
                if not self._put(slot, msg, gen=gen, tag=e.tag):
                    return
        else:
            assert isinstance(slot, _ParserSlot)
            for k, path, tag in list(slot.outstanding):
                if not self._put(slot, ("parse", k, path, tag), gen=gen, tag=tag):
                    return

    def _degrade(self, slot: _Slot) -> None:
        """Leave the process fleet: this slot runs inline from now on."""
        requeued = slot.uncollected()
        self._kill_slot(slot)
        slot.generation += 1
        slot.mode = "inline"
        self.sup.record_degraded(slot.key, requeued=requeued)
        if isinstance(slot, _IndexerSlot):
            # The engine-side object is the state at the last install:
            # replay the journal into it inline; results the engine
            # never got to collect become inline results, everything
            # else was already consumed once and is simply re-applied to
            # reach the same post-journal state the worker would have
            # had.
            obj = self.hooks.indexer_for(slot.kind, slot.idx)
            for e in slot.journal:
                res = obj.index_batch(decode_batch(e.payload), e.doc_offset)
                if not e.collected:
                    slot.inline_results[e.tid] = getattr(res, "report", res)
            slot.journal.clear()
            slot.by_tid.clear()
            slot.discard.clear()
        # Parser slots: outstanding files re-parse inline on collection.

    # ------------------------------------------------------------------ #
    # Worker lifecycle
    # ------------------------------------------------------------------ #

    def _start_workers(self) -> None:
        h = self.hooks
        for slot in self._islots:
            self._spawn(slot)
            state = pickle.dumps(h.indexer_for(slot.kind, slot.idx))
            self._put(slot, ("state", state))
        for slot in self._pslots:
            self._spawn(slot)
        self.sup.report.workers = len(self._islots) + len(self._pslots)
        h.tel.metrics.set_gauge("supervisor.workers", self.sup.report.workers)

    def _spawn(self, slot: _Slot) -> None:
        incarnation = slot.handle.incarnation + 1 if slot.handle else 1
        if slot.handle is not None:
            # SIGKILL can land mid-frame, leaving a ring unparseable —
            # every incarnation gets fresh rings instead of resyncing.
            self._kill_slot(slot)
        cap = self.policy.ring_capacity_bytes
        # Edge labels are per slot (not per incarnation) so restart
        # telemetry accumulates under one causal edge per ring.
        task_ring = ShmRing.create(
            f"{slot.key}-t{incarnation}", cap, edge=f"{slot.key}.task"
        )
        result_ring = ShmRing.create(
            f"{slot.key}-r{incarnation}", cap, edge=f"{slot.key}.result"
        )
        spec = WorkerSpec(
            key=slot.key,
            kind="indexer" if isinstance(slot, _IndexerSlot) else "parser",
            incarnation=incarnation,
            task_ring=task_ring.spec(),
            result_ring=result_ring.spec(),
            config=self.hooks.config,
            fault_plan=(
                self.hooks.injector.plan if self.hooks.injector is not None else None
            ),
            parent_pid=os.getpid(),
        )
        proc = self._ctx.Process(
            target=worker_main, args=(spec,), name=f"repro-{slot.key}", daemon=True
        )
        proc.start()
        slot.handle = _Handle(proc, incarnation, task_ring, result_ring)

    def _kill_slot(self, slot: _Slot, graceful: bool = False) -> None:
        h = slot.handle
        if h is None:
            return
        slot.handle = None
        try:
            if h.proc.is_alive():
                if graceful:
                    try:
                        h.task_ring.put_frame(pickle.dumps(("stop",)), timeout=0.5)
                        h.proc.join(timeout=2.0)
                    except RingTimeout:
                        pass
                if h.proc.is_alive():
                    h.proc.kill()
                    h.proc.join(timeout=10.0)
        finally:
            h.task_ring.unlink()
            h.result_ring.unlink()

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        for slot in [*self._islots, *self._pslots]:
            self._kill_slot(slot, graceful=True)
        # Safety net for segments created but never bound to a handle
        # (e.g. an exception between the two ShmRing.create calls).
        sweep_created_segments()

    # ------------------------------------------------------------------ #
    # Worker-delta folding
    # ------------------------------------------------------------------ #

    def _merge_delta(
        self,
        fault_counts: dict[str, int],
        fault_events: list[tuple[str, str]],
        metrics_delta: dict[str, dict[str, object]],
        spans: "tuple[float, list[object]] | None" = None,
        profile: "tuple | None" = None,
    ) -> None:
        inj = self.hooks.injector
        if inj is not None and (fault_counts or fault_events):
            inj.merge_child_counts(fault_counts, fault_events)
        tracer = self.hooks.tel.tracer
        if spans is not None and tracer.enabled:
            worker_epoch, worker_spans = spans
            tracer.absorb(worker_spans, worker_epoch)
        tel_profile = self.hooks.tel.profile
        if profile is not None and tel_profile is not None:
            tel_profile.absorb(profile)
        if not metrics_delta:
            return
        reg = self.hooks.tel.metrics
        if not reg.enabled:
            return
        for mname, value in metrics_delta.get("counters", {}).items():
            reg.count(mname, value)
        for mname, value in metrics_delta.get("gauges", {}).items():
            reg.set_gauge(mname, value)
        for mname, hist_delta in metrics_delta.get("histograms", {}).items():
            hist = reg.histogram(mname, tuple(hist_delta["buckets"]))
            for i, c in enumerate(hist_delta["counts"]):
                hist.counts[i] += c
            hist.count += hist_delta["count"]
            hist.total += hist_delta["sum"]
