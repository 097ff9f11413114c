"""The shared-memory ring protocol verifier (``repro lint --protocol``).

``core/shm_ring.py`` is a hand-rolled protocol: SPSC shared-memory byte
rings with copy-then-publish counters, and a created-segment registry
swept exactly once by its owner.  (No build uses the rings since PR 23 —
the frozen benchmark harness still drives them; this module, the ring
module and ``tests/test_shm_ring.py`` go together, ROADMAP item 5(v).)
This module encodes those two protocols as small transition systems and
lets the bounded model checker (:mod:`repro.lint.modelcheck`)
exhaustively explore every producer/consumer/crash interleaving within
the model bounds, proving four invariant families:

- **torn-frame** — a consumer never observes a byte that differs from
  what the producer published for that stream position (covers
  wraparound, chunked frames, and resumable partial reads);
- **lost-frame-under-replay** — no frame is assembled twice or out of
  order when a crashed peer's ring is recreated and its frames resent;
- **double-unlink** — no shared-memory segment is ever unlinked by a
  non-owner or unlinked twice;
- **heartbeat-monotonicity** — an observer never sees a liveness
  counter move backwards within one incarnation.

Each model has *bug knobs* (``bug=...``) that re-introduce the exact
mistakes the real code avoids — publishing ``tail`` before the copy,
sweeping an inherited registry — so the tests can prove the checker
actually distinguishes the correct protocol from its mutations (a
checker that passes everything proves nothing).

**Model–code conformance.**  A model is only evidence about the code if
the code does what the model says.  The RPR12x rules at the bottom are
AST checks pinning ``shm_ring.py`` to the modeled update *order*:
publish-after-copy (RPR120) and attach/unlink registry hygiene
(RPR123).  When a refactor changes the order, the lint run fails even
though the model still passes — the model cannot silently drift from
the code.

Everything here is stdlib-only and never imports the engine.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, replace
from typing import Iterator

from repro.lint.framework import Finding, SourceFile, rule
from repro.lint.modelcheck import ExploreResult, explore

__all__ = [
    "RingProtocolModel",
    "SegmentProtocolModel",
    "ProtocolReport",
    "default_models",
    "verify_protocol",
    "INVARIANT_FAMILIES",
]

#: The four families ``repro lint --protocol`` must prove.
INVARIANT_FAMILIES = (
    "torn-frame",
    "lost-frame-under-replay",
    "double-unlink",
    "heartbeat-monotonicity",
)


# ---------------------------------------------------------------------- #
# Model 1 — the SPSC byte ring (torn frames, wraparound, heartbeats)
# ---------------------------------------------------------------------- #


@dataclass(frozen=True)
class _RingState:
    """One interleaving point of producer, consumer, and supervisor."""

    buf: tuple[int, ...]            # ring cells; 0 = never written
    head: int                       # consumer-published bytes (epoch)
    tail: int                       # producer-published bytes (epoch)
    stream: tuple[int, ...]         # ground truth: byte published at pos i
    epoch_order: tuple[int, ...]    # frame ids in this epoch's send order
    nsent: int                      # frames fully published this epoch
    psent: int                      # bytes of current frame published
    pcopied: int                    # bytes copied but not yet published
    pannounced: int                 # bytes published but not yet copied (bug)
    cacc: int                       # bytes assembled toward current frame
    ndone: int                      # frames fully assembled this epoch
    pending: tuple[tuple[int, int], ...]  # (pos, truth) read-later (bug)
    delivered: frozenset            # frame ids delivered to the engine
    torn: bool                      # a late read observed a wrong byte
    hb: int                         # producer heartbeat counter (epoch)
    hb_seen: int                    # supervisor's last observed heartbeat
    pcrash: int                     # producer crashes injected so far
    ccrash: int                     # consumer crashes injected so far


class RingProtocolModel:
    """Byte-level SPSC ring with chunked frames and crash injection.

    ``frames`` length-``frame_len`` frames stream through a ring of
    ``capacity_frames * frame_len`` bytes (capacity ≥ 2 frames by
    default), one byte per copy step so every chunk boundary is an
    interleaving point.  A crash of either role (≥ 1 injected crash
    point per role) resets the ring — fresh segment, zeroed counters,
    undelivered frames resent in order — recreate, never resync.

    Bug knobs: ``publish-before-copy`` (tail advances before the cell is
    written), ``overwrite-unread`` (the free-space check allows clobbering
    one unread byte), ``consumer-early-publish`` (head advances before the
    byte is read), ``nonmonotonic-heartbeat`` (``beat`` can decrement).
    """

    def __init__(
        self,
        capacity_frames: int = 2,
        frames: int = 3,
        frame_len: int = 2,
        producer_crashes: int = 1,
        consumer_crashes: int = 1,
        max_beats: int = 2,
        bug: str | None = None,
    ) -> None:
        if capacity_frames < 2:
            raise ValueError("the modeled ring must hold >= 2 frames")
        self.capacity = capacity_frames * frame_len
        self.frames = frames
        self.frame_len = frame_len
        self.producer_crashes = producer_crashes
        self.consumer_crashes = consumer_crashes
        self.max_beats = max_beats
        self.bug = bug
        self.name = "spsc-ring" + (f"[bug={bug}]" if bug else "")

    # byte identity: frame f, offset b -> a nonzero id stable across replay
    def _byte(self, fid: int, b: int) -> int:
        return fid * self.frame_len + b + 1

    def initial_states(self) -> "list[_RingState]":
        return [
            _RingState(
                buf=(0,) * self.capacity,
                head=0, tail=0, stream=(),
                epoch_order=tuple(range(self.frames)),
                nsent=0, psent=0, pcopied=0, pannounced=0,
                cacc=0, ndone=0, pending=(),
                delivered=frozenset(), torn=False,
                hb=0, hb_seen=0, pcrash=0, ccrash=0,
            )
        ]

    def _crash(self, s: _RingState) -> _RingState:
        """Fresh ring + resend of every undelivered frame."""
        remaining = tuple(f for f in range(self.frames) if f not in s.delivered)
        return replace(
            s,
            buf=(0,) * self.capacity, head=0, tail=0, stream=(),
            epoch_order=remaining, nsent=0, psent=0, pcopied=0,
            pannounced=0, cacc=0, ndone=0, pending=(),
            hb=0, hb_seen=0,
        )

    def actions(self, s: _RingState) -> Iterator[tuple[str, _RingState]]:
        L, C = self.frame_len, self.capacity
        sending = s.nsent < len(s.epoch_order)
        fid = s.epoch_order[s.nsent] if sending else -1
        free = C - (s.tail - s.head)

        # -- producer ------------------------------------------------- #
        if self.bug == "publish-before-copy":
            # Mutant: tail is published first, the cell is written later.
            if sending and s.psent + s.pannounced < L and free > 0 and s.pannounced < 1:
                truth = self._byte(fid, s.psent + s.pannounced)
                yield "p.announce", replace(
                    s, tail=s.tail + 1, stream=s.stream + (truth,),
                    pannounced=s.pannounced + 1,
                )
            if s.pannounced > 0:
                pos = (s.tail - s.pannounced) % C
                buf = list(s.buf)
                buf[pos] = self._byte(fid, s.psent)
                nxt = replace(
                    s, buf=tuple(buf), psent=s.psent + 1,
                    pannounced=s.pannounced - 1,
                )
                if nxt.psent == L and nxt.pannounced == 0:
                    nxt = replace(nxt, psent=0, nsent=nxt.nsent + 1)
                yield "p.fill", nxt
        else:
            may_copy = free - s.pcopied > 0
            if self.bug == "overwrite-unread":
                # Mutant: off-by-one free check can clobber one unread byte.
                may_copy = free - s.pcopied >= 0
            if sending and s.psent + s.pcopied < L and may_copy:
                pos = (s.tail + s.pcopied) % C
                buf = list(s.buf)
                buf[pos] = self._byte(fid, s.psent + s.pcopied)
                yield "p.copy", replace(s, buf=tuple(buf), pcopied=s.pcopied + 1)
            if s.pcopied > 0:
                ids = tuple(
                    self._byte(fid, s.psent + i) for i in range(s.pcopied)
                )
                nxt = replace(
                    s, tail=s.tail + s.pcopied, stream=s.stream + ids,
                    psent=s.psent + s.pcopied, pcopied=0,
                )
                if nxt.psent == L:
                    nxt = replace(nxt, psent=0, nsent=nxt.nsent + 1)
                yield "p.publish", nxt

        # -- consumer ------------------------------------------------- #
        def _complete(nxt: _RingState) -> _RingState:
            if nxt.cacc == L:
                done_id = nxt.epoch_order[nxt.ndone]
                return replace(
                    nxt, cacc=0, ndone=nxt.ndone + 1,
                    delivered=nxt.delivered | {done_id},
                )
            return nxt

        if self.bug == "consumer-early-publish":
            if s.head < s.tail and len(s.pending) < 1:
                yield "c.publish", replace(
                    s, head=s.head + 1,
                    pending=s.pending + ((s.head, s.stream[s.head]),),
                )
            if s.pending:
                pos, truth = s.pending[0]
                rest = s.pending[1:]
                if s.buf[pos % C] != truth:
                    yield "c.read-late", replace(s, pending=rest, torn=True)
                else:
                    yield "c.read-late", _complete(
                        replace(s, pending=rest, cacc=s.cacc + 1)
                    )
        elif s.head < s.tail:
            val = s.buf[s.head % C]
            if val != s.stream[s.head]:
                yield "c.read", replace(s, head=s.head + 1, torn=True)
            else:
                yield "c.read", _complete(
                    replace(s, head=s.head + 1, cacc=s.cacc + 1)
                )

        # -- heartbeats + supervisor observation ----------------------- #
        if self.bug == "nonmonotonic-heartbeat":
            if s.hb > 0:
                yield "p.beat", replace(s, hb=s.hb - 1)
        if s.hb < self.max_beats:
            yield "p.beat", replace(s, hb=s.hb + 1)
        if s.hb != s.hb_seen:
            yield "s.observe", replace(s, hb_seen=s.hb)

        # -- injected crashes (either role, every interleaving point) -- #
        if s.pcrash < self.producer_crashes:
            yield "crash.producer", replace(self._crash(s), pcrash=s.pcrash + 1)
        if s.ccrash < self.consumer_crashes:
            yield "crash.consumer", replace(self._crash(s), ccrash=s.ccrash + 1)

    def invariants(self):
        def torn(s: _RingState) -> str | None:
            if s.torn:
                return "consumer assembled a byte that differs from what the producer published"
            for i in range(s.head, s.tail):
                if s.buf[i % self.capacity] != s.stream[i]:
                    return (
                        f"published-but-unread position {i} holds "
                        f"{s.buf[i % self.capacity]} instead of {s.stream[i]}"
                    )
            return None

        def heartbeat(s: _RingState) -> str | None:
            if s.hb < s.hb_seen:
                return (
                    f"supervisor saw heartbeat {s.hb_seen}, counter now {s.hb} "
                    "(moved backwards within one incarnation)"
                )
            return None

        def lost(s: _RingState) -> str | None:
            # Delivery completeness at quiescence is covered by the
            # deadlock check; here: a frame must never be *assembled* out
            # of replay order (duplicate assembly is discarded by id).
            if s.ndone > len(s.epoch_order):
                return "consumer assembled more frames than this epoch sent"
            return None

        return [
            ("torn-frame", torn),
            ("heartbeat-monotonicity", heartbeat),
            ("lost-frame-under-replay", lost),
        ]

    def is_terminal(self, s: _RingState) -> bool:
        return (
            len(s.delivered) == self.frames
            and s.nsent == len(s.epoch_order)
            and s.ndone == len(s.epoch_order)
            and s.head == s.tail
            and s.pcopied == 0
            and s.pannounced == 0
            and not s.pending
        )


# ---------------------------------------------------------------------- #
# Model 2 — segment ownership (create/registry/sweep/fork inheritance)
# ---------------------------------------------------------------------- #


@dataclass(frozen=True)
class _SegState:
    seg: str            # "absent" | "live" | "gone"
    reg_engine: bool    # in the engine's created-segment registry
    reg_worker: bool    # in a forked worker's inherited registry copy
    worker: str         # "none" | "live" | "exited"
    engine_exited: bool
    bad_unlink: str     # "" or a description of the ownership violation


class SegmentProtocolModel:
    """Lifecycle of one engine-created segment across fork and exit.

    The discipline: only the creator unlinks; a forked worker *disowns*
    its inherited registry first thing (``forget_inherited_segments``);
    an explicit ``unlink`` forgets the registry entry before the
    syscall so the ``atexit`` sweep cannot unlink the name twice.
    ``bug="no-forget-inherited"`` lets a cleanly exiting worker sweep
    the engine's segments; ``bug="unlink-without-forget"`` leaves the
    registry entry behind an explicit unlink.
    """

    def __init__(self, bug: str | None = None) -> None:
        self.bug = bug
        self.name = "segment-ownership" + (f"[bug={bug}]" if bug else "")

    def initial_states(self) -> "list[_SegState]":
        return [
            _SegState(
                seg="absent", reg_engine=False, reg_worker=False,
                worker="none", engine_exited=False, bad_unlink="",
            )
        ]

    def actions(self, s: _SegState) -> Iterator[tuple[str, _SegState]]:
        if s.engine_exited:
            return
        if s.seg == "absent":
            yield "e.create", replace(s, seg="live", reg_engine=True)
        if s.seg == "live" and s.worker == "none":
            yield "w.fork", replace(s, worker="live", reg_worker=True)
        if s.worker == "live":
            if s.reg_worker and self.bug != "no-forget-inherited":
                yield "w.forget-inherited", replace(s, reg_worker=False)
            # A SIGKILLed worker runs no atexit sweep: always safe.
            yield "w.kill", replace(s, worker="exited", reg_worker=False)
            # A clean exit runs the worker's atexit sweep over whatever
            # its registry still holds.  Under the correct discipline a
            # clean exit implies worker_main ran, whose first statement
            # disowns the inherited registry — so the sweep is a no-op;
            # exiting with the registry intact is exactly the mutation.
            if not s.reg_worker:
                yield "w.exit-clean", replace(s, worker="exited")
            elif self.bug == "no-forget-inherited":
                nxt = replace(s, worker="exited", reg_worker=False)
                if s.seg == "live":
                    nxt = replace(
                        nxt, seg="gone",
                        bad_unlink="a worker's atexit sweep unlinked a "
                                   "segment the engine still owns",
                    )
                elif s.seg == "gone":
                    nxt = replace(
                        nxt, bad_unlink="a worker's atexit sweep re-unlinked "
                                        "an already-unlinked segment",
                    )
                yield "w.exit-clean", nxt
        if s.seg == "live" and s.reg_engine:
            forgot = self.bug != "unlink-without-forget"
            yield "e.unlink", replace(s, seg="gone", reg_engine=not forgot)
        if s.worker != "live":
            # Engine exit runs the engine's atexit sweep.
            nxt = replace(s, engine_exited=True)
            if s.reg_engine:
                if s.seg == "live":
                    nxt = replace(nxt, seg="gone", reg_engine=False)
                elif s.seg == "gone":
                    nxt = replace(
                        nxt, reg_engine=False,
                        bad_unlink="the atexit sweep re-unlinked a segment "
                                   "already unlinked explicitly",
                    )
            yield "e.exit", nxt

    def invariants(self):
        def double_unlink(s: _SegState) -> str | None:
            return s.bad_unlink or None

        def leak(s: _SegState) -> str | None:
            if s.engine_exited and s.seg == "live":
                return "engine exited with a live segment still on the host"
            return None

        return [("double-unlink", double_unlink), ("segment-leak", leak)]

    def is_terminal(self, s: _SegState) -> bool:
        return s.engine_exited and s.worker != "live"


# ---------------------------------------------------------------------- #
# The verifier entry point
# ---------------------------------------------------------------------- #


@dataclass
class ProtocolReport:
    """One model's exhaustive-exploration verdict."""

    name: str
    result: ExploreResult
    families: dict[str, bool]

    @property
    def ok(self) -> bool:
        return self.result.ok and all(self.families.values())

    def to_dict(self) -> dict[str, object]:
        return {
            "model": self.name,
            "states": self.result.states,
            "transitions": self.result.transitions,
            "terminal_states": self.result.terminal_states,
            "elapsed_s": round(self.result.elapsed_s, 3),
            "complete": self.result.complete,
            "families": dict(self.families),
            "violations": [
                {"invariant": v.invariant, "detail": v.detail,
                 "trace": list(v.trace)}
                for v in (*self.result.violations, *self.result.deadlocks)
            ],
        }


def default_models() -> list[object]:
    """The two correct-protocol models ``--protocol`` must prove."""
    return [RingProtocolModel(), SegmentProtocolModel()]


def verify_protocol(max_states: int = 500_000) -> list[ProtocolReport]:
    """Exhaustively check every default model; one report per model."""
    reports = []
    for model in default_models():
        result = explore(model, max_states=max_states)
        families = result.invariant_families(model)
        # The bounded-wait family lives in the deadlock detector.
        families["bounded-wait"] = not result.deadlocks
        reports.append(ProtocolReport(model.name, result, families))
    return reports


# ---------------------------------------------------------------------- #
# RPR12x — model/code conformance rules
# ---------------------------------------------------------------------- #


def _functions(sf: SourceFile) -> "dict[str, list[ast.AST]]":
    """Every function definition, grouped by name (fixtures hold twins)."""
    out: "dict[str, list[ast.AST]]" = {}
    for node in ast.walk(sf.tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            out.setdefault(node.name, []).append(node)
    return out


def _calls_named(fn: ast.AST, name: str) -> "list[ast.Call]":
    """Calls whose callee name/attr equals ``name``."""
    hits = []
    for node in ast.walk(fn):
        if isinstance(node, ast.Call):
            func = node.func
            if (isinstance(func, ast.Name) and func.id == name) or (
                isinstance(func, ast.Attribute) and func.attr == name
            ):
                hits.append(node)
    return hits


def _store_calls(fn: ast.AST, offset_name: str) -> "list[ast.Call]":
    """``self._store(<offset_name>, ...)`` calls inside ``fn``."""
    return [
        call
        for call in _calls_named(fn, "_store")
        if call.args
        and isinstance(call.args[0], ast.Name)
        and call.args[0].id == offset_name
    ]


def _buf_write_lines(fn: ast.AST) -> "list[int]":
    """Lines assigning into ``self._buf[...]`` (the data copy)."""
    lines = []
    for node in ast.walk(fn):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if (
                    isinstance(target, ast.Subscript)
                    and isinstance(target.value, ast.Attribute)
                    and target.value.attr == "_buf"
                ):
                    lines.append(node.lineno)
    return lines


def _buf_read_lines(fn: ast.AST) -> "list[int]":
    """Lines loading from ``self._buf[...]`` (the data copy out)."""
    lines = []
    for node in ast.walk(fn):
        if (
            isinstance(node, ast.Subscript)
            and isinstance(node.ctx, ast.Load)
            and isinstance(node.value, ast.Attribute)
            and node.value.attr == "_buf"
        ):
            lines.append(node.lineno)
    return lines


@rule("RPR120", "ring-publish-order")
def check_ring_publish_order(sf: SourceFile) -> Iterator[Finding]:
    """Ring counters are published *after* the copy they cover.

    The torn-frame proof in the protocol model assumes the producer
    stores ``tail`` only after the bytes below it are in the buffer, and
    the consumer stores ``head`` only after it has copied the bytes out.
    This rule pins ``put_frame``/``get_frame`` in any ``shm_ring.py`` to
    that order, so the model cannot drift from the code.
    """
    if not sf.parts or sf.parts[-1] != "shm_ring.py":
        return
    fns = _functions(sf)
    for put in fns.get("put_frame", []):
        stores = _store_calls(put, "_TAIL_OFF")
        copies = _buf_write_lines(put)
        if not stores:
            yield sf.finding(
                "RPR120", put,
                "put_frame never publishes _TAIL_OFF; the modeled producer "
                "publishes tail after every chunk copy",
            )
        for store in stores:
            late_copy = [line for line in copies if line > store.lineno]
            if late_copy:
                yield sf.finding(
                    "RPR120", store,
                    "put_frame publishes _TAIL_OFF before the data copy on "
                    f"line {min(late_copy)}; the model proves no-torn-frame "
                    "only for copy-then-publish order",
                )
    for get in fns.get("get_frame", []):
        stores = _store_calls(get, "_HEAD_OFF")
        reads = _buf_read_lines(get)
        if not stores:
            yield sf.finding(
                "RPR120", get,
                "get_frame never publishes _HEAD_OFF; the modeled consumer "
                "publishes head after every chunk copy-out",
            )
        for store in stores:
            late_read = [line for line in reads if line > store.lineno]
            if late_read:
                yield sf.finding(
                    "RPR120", store,
                    "get_frame publishes _HEAD_OFF before copying the bytes "
                    f"out on line {min(late_read)}; the producer may reuse "
                    "them mid-read (torn frame)",
                )


@rule("RPR123", "segment-hygiene")
def check_segment_hygiene(sf: SourceFile) -> Iterator[Finding]:
    """Attach untracks; unlink forgets the registry entry first.

    The double-unlink proof assumes (1) an attaching process removes the
    segment from its resource tracker (or a dying worker unlinks the
    engine's live segment), and (2) an explicit ``unlink`` removes the
    created-segment registry entry *before* the syscall, so the atexit
    sweep cannot unlink the same name again.
    """
    if not sf.parts or sf.parts[-1] != "shm_ring.py":
        return
    fns = _functions(sf)
    for attach in fns.get("attach", []):
        untracks = _calls_named(attach, "_untrack")
        opens = _calls_named(attach, "SharedMemory")
        if not untracks:
            yield sf.finding(
                "RPR123", attach,
                "attach() never calls _untrack; the worker's resource "
                "tracker would unlink the engine's live segment at worker "
                "exit",
            )
        elif opens and min(u.lineno for u in untracks) < min(
            o.lineno for o in opens
        ):
            yield sf.finding(
                "RPR123", untracks[0],
                "attach() untracks before the SharedMemory attach; the "
                "tracker entry is created by the attach itself",
            )
    for unlink in fns.get("unlink", []):
        syscalls = [
            node
            for node in ast.walk(unlink)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "unlink"
            and isinstance(node.func.value, ast.Attribute)
            and node.func.value.attr == "_shm"
        ]
        forgets = _calls_named(unlink, "_forget_created")
        if syscalls and not forgets:
            yield sf.finding(
                "RPR123", syscalls[0],
                "unlink() never calls _forget_created; the atexit sweep "
                "will unlink the same segment a second time",
            )
        elif syscalls and forgets and min(
            f.lineno for f in forgets
        ) > min(c.lineno for c in syscalls):
            yield sf.finding(
                "RPR123", forgets[0],
                "unlink() forgets the registry entry after the syscall; a "
                "sweep racing the window unlinks the name twice",
            )
    for create in fns.get("create", []):
        if not _calls_named(create, "_register_created"):
            yield sf.finding(
                "RPR123", create,
                "create() never calls _register_created; an aborted build "
                "would leak the segment (no sweep entry)",
            )
