"""SPSC byte rings over POSIX shared memory.

**No build uses this module.**  It was the transport of the ring-based
multiprocess backend that PR 23 replaced with a parse-ahead process
(:mod:`repro.core.mp_backend`); it stays only because the frozen
benchmark harness (``benchmarks/perf``, which a perf PR may not edit)
still *drives* a pair of rings for its ``shm_ring.roundtrip_mb_s`` /
``frames_s`` layers and scans ``/dev/shm`` with
:func:`list_repro_segments`.  ROADMAP item 5(v): the next PR that opens
``benchmarks/perf/`` deletes this file, the ring/segment models and
RPR120/RPR123 in :mod:`repro.lint.protocol`, and ``tests/test_shm_ring.py``
in one go.

Each ring is one ``multiprocessing.shared_memory`` segment holding a
small header plus a circular byte buffer:

====== ======= ==========================================================
offset  width  field
====== ======= ==========================================================
0       u64    ``tail`` — total bytes ever written (producer-advanced)
8       u64    ``head`` — total bytes ever read (consumer-advanced)
16      u64    producer heartbeat counter
24      u64    consumer heartbeat counter
32      …      circular data region (``capacity`` bytes)
====== ======= ==========================================================

Messages are length-prefixed *frames* written through the byte stream,
so a frame larger than the ring capacity simply streams through in
chunks.  Single producer, single consumer, and the counters are
monotonic, so plain polling reads are safe: the consumer only trusts
bytes below ``tail``, the producer only reuses bytes below ``head``, and
each side publishes its counter *after* the copy it covers (CPython
bytearray/memoryview stores plus the GIL-crossing on
``struct.pack_into`` give the needed ordering on every platform CPython
supports).

When a metrics registry is installed and armed, ``put_frame`` /
``get_frame`` additionally record ``shm.ring.*`` telemetry (frame-size
and occupancy histograms, wait-poll counters); with telemetry off the
checks collapse to one global read, and ring bytes are never touched
either way.  Nothing reads these counters any more — they go with the
file.

**No cross-process locks or conditions.**  A crashed peer can never
leave a mutex held; the survivor just times out.

Crash-safety of the segments themselves: only the creating process ever
unlinks a segment; peers attach.  Every created segment is recorded in
a module registry swept by ``atexit``.  On Python ≤ 3.12 the attach side
must also be told not to "track" the segment, or a dying peer's resource
tracker unlinks it out from under the creator (:func:`_untrack`).
"""

from __future__ import annotations

import atexit
import os
import re
import struct
import threading
import time
from dataclasses import dataclass
from typing import Callable
from multiprocessing import resource_tracker, shared_memory

from repro.obs import runtime as obs_runtime
from repro.util.timing import now

__all__ = [
    "RingSpec",
    "RingTimeout",
    "ShmRing",
    "SHM_PREFIX",
    "segment_name",
    "forget_inherited_segments",
    "sweep_created_segments",
    "list_repro_segments",
    "orphan_segments",
]

#: Every segment this project creates starts with this, so a leak check
#: can scan ``/dev/shm`` without false positives from other software.
SHM_PREFIX = "repro_mp"

_HEADER = 32
_TAIL_OFF, _HEAD_OFF, _PROD_HB_OFF, _CONS_HB_OFF = 0, 8, 16, 24
_U64 = struct.Struct("<Q")
_FRAME_LEN = struct.Struct("<I")

#: Poll sleep bounds: start fine-grained (sub-millisecond handoff), back
#: off to keep an idle wait from burning the single CPU the container has.
_POLL_MIN_S = 0.0002
_POLL_MAX_S = 0.002


class RingTimeout(TimeoutError):
    """A bounded ring operation did not complete within its deadline."""


def _ring_metrics() -> "obs_runtime.MetricsRegistry | None":
    """The installed, armed metrics registry — or ``None``.

    The disabled path is one global read plus two attribute tests; ring
    telemetry never touches the buffer or the header words, so with
    telemetry off (or a Null registry installed) ``put_frame`` /
    ``get_frame`` behave byte-for-byte as before the ``shm.ring.*``
    instrumentation existed (pinned by ``tests/test_shm_ring.py``).
    """
    tel = obs_runtime.current()
    if tel is None:
        return None
    m = tel.metrics
    return m if m.enabled else None


@dataclass(frozen=True)
class RingSpec:
    """Enough to attach to an existing ring from another process."""

    name: str
    capacity: int
    #: Causal edge label (e.g. ``"cpu-0.task"``) for per-edge wait
    #: attribution in `repro critpath`; ``None`` keeps telemetry
    #: aggregate-only.  Slot-stable across worker restarts.
    edge: str | None = None


# ---------------------------------------------------------------------- #
# Created-segment registry (engine side)
# ---------------------------------------------------------------------- #

_created_lock = threading.Lock()
_created: dict[str, shared_memory.SharedMemory] = {}
_name_seq = 0


def segment_name(suffix: str) -> str:
    """A unique segment name carrying the creator's pid.

    The pid is what lets :func:`orphan_segments` distinguish a segment
    leaked by a dead build from one owned by a live concurrent build.
    """
    global _name_seq
    with _created_lock:
        _name_seq += 1
        seq = _name_seq
    return f"{SHM_PREFIX}_{os.getpid()}_{seq}_{suffix}"


def _register_created(shm: shared_memory.SharedMemory) -> None:
    with _created_lock:
        _created[shm.name] = shm


def _forget_created(name: str) -> None:
    with _created_lock:
        _created.pop(name, None)


def forget_inherited_segments() -> None:
    """Disown the creator's registry in a forked worker process.

    A forked child inherits ``_created`` (and the ``atexit`` sweep) from
    the engine; without this reset, a cleanly exiting worker would
    unlink rings the engine still uses.  Workers call this first thing.
    """
    with _created_lock:
        _created.clear()


def sweep_created_segments() -> list[str]:
    """Unlink every segment this process created and still holds.

    Idempotent; runs at ``atexit`` and from the multiprocess backend's
    ``finally``, so even an aborted build (fatal fault, strict-mode read
    error, KeyboardInterrupt) reclaims its shared memory.
    """
    with _created_lock:
        leaked = list(_created.items())
        _created.clear()
    swept = []
    for name, shm in leaked:
        try:
            shm.close()
        except OSError:
            pass
        _retrack(shm)
        try:
            shm.unlink()
        except FileNotFoundError:
            pass
        swept.append(name)
    return swept


atexit.register(sweep_created_segments)

_SEGMENT_RE = re.compile(rf"^{SHM_PREFIX}_(\d+)_")


def list_repro_segments(shm_dir: str = "/dev/shm") -> list[str]:
    """All ``repro_*`` segments currently visible on this host."""
    try:
        names = os.listdir(shm_dir)
    except OSError:
        return []
    return sorted(n for n in names if n.startswith("repro_"))


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    return True


def orphan_segments(shm_dir: str = "/dev/shm") -> list[str]:
    """``repro_*`` segments whose creating process is gone (or unknown).

    A segment named by a live pid belongs to a build still running
    somewhere on the host and is not a leak; anything else is.
    """
    orphans = []
    for name in list_repro_segments(shm_dir):
        m = _SEGMENT_RE.match(name)
        if m is None or not _pid_alive(int(m.group(1))):
            orphans.append(name)
    return orphans


def _untrack(shm: shared_memory.SharedMemory) -> None:
    """Stop this process's resource tracker from unlinking the segment.

    Python ≤ 3.12 registers attached (not just created) segments with the
    resource tracker, whose exit-time cleanup would unlink live segments
    the engine still uses.  ``SharedMemory(track=False)`` only exists
    from 3.13; unregistering right after attach is the portable fix.
    """
    try:
        resource_tracker.unregister(shm._name, "shared_memory")  # type: ignore[attr-defined]
    except Exception:  # repro-lint: disable=RPR005 - best-effort bookkeeping on a private API
        pass


def _retrack(shm: shared_memory.SharedMemory) -> None:
    """Balance the tracker book right before an unlink.

    Under the fork start method a worker's :func:`_untrack` removes the
    (shared) tracker's entry for the engine's segment, so the engine's
    ``unlink`` — which unregisters internally — would make the tracker
    print a spurious KeyError traceback.  Re-registering first is a
    no-op when the entry is still there and restores it when it isn't.
    """
    try:
        resource_tracker.register(shm._name, "shared_memory")  # type: ignore[attr-defined]
    except Exception:  # repro-lint: disable=RPR005 - best-effort bookkeeping on a private API
        pass


class ShmRing:
    """One single-producer/single-consumer byte ring (see module doc)."""

    def __init__(self, shm: shared_memory.SharedMemory, capacity: int, owner: bool,
                 edge: str | None = None) -> None:
        self._shm = shm
        self._capacity = capacity
        self._owner = owner
        self._edge = edge
        self._buf = shm.buf
        self._closed = False
        # Consumer-side reassembly of the frame currently being read:
        # survives a timed-out get_frame so no byte is ever dropped.
        self._acc = bytearray()
        self._need_header = True
        self._frame_len = 0

    # -- lifecycle ------------------------------------------------------ #

    @classmethod
    def create(cls, suffix: str, capacity: int,
               edge: str | None = None) -> "ShmRing":
        """Create a new ring segment (engine side only)."""
        if capacity < 16:
            raise ValueError(f"ring capacity must be >= 16 bytes, got {capacity}")
        shm = shared_memory.SharedMemory(
            name=segment_name(suffix), create=True, size=_HEADER + capacity
        )
        _register_created(shm)
        shm.buf[:_HEADER] = b"\x00" * _HEADER
        return cls(shm, capacity, owner=True, edge=edge)

    @classmethod
    def attach(cls, spec: RingSpec) -> "ShmRing":
        """Attach to an engine-created ring (worker side)."""
        shm = shared_memory.SharedMemory(name=spec.name)
        _untrack(shm)
        return cls(shm, spec.capacity, owner=False, edge=spec.edge)

    def spec(self) -> RingSpec:
        return RingSpec(
            name=self._shm.name, capacity=self._capacity, edge=self._edge
        )

    @property
    def name(self) -> str:
        return self._shm.name

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._buf = None  # type: ignore[assignment]
        try:
            self._shm.close()
        except OSError:
            pass

    def unlink(self) -> None:
        """Destroy the segment (owner side; idempotent)."""
        self.close()
        if not self._owner:
            return
        _forget_created(self._shm.name)
        _retrack(self._shm)
        try:
            self._shm.unlink()
        except FileNotFoundError:
            pass

    # -- header words --------------------------------------------------- #

    def _load(self, offset: int) -> int:
        return _U64.unpack_from(self._buf, offset)[0]

    def _store(self, offset: int, value: int) -> None:
        _U64.pack_into(self._buf, offset, value)

    def beat(self, role: str) -> None:
        """Bump this side's liveness counter (cheap; call freely)."""
        off = _PROD_HB_OFF if role == "producer" else _CONS_HB_OFF
        self._store(off, self._load(off) + 1)

    def beats(self, role: str) -> int:
        off = _PROD_HB_OFF if role == "producer" else _CONS_HB_OFF
        return self._load(off)

    # -- waiting -------------------------------------------------------- #

    @staticmethod
    def _wait(deadline: float | None, on_wait: "Callable[[], None] | None",
              poll_s: float) -> float:
        """One poll step; returns the next (backed-off) poll interval."""
        if on_wait is not None:
            on_wait()
        if deadline is not None and now() >= deadline:
            raise RingTimeout()
        time.sleep(poll_s)
        return min(poll_s * 2, _POLL_MAX_S)

    # -- producer side --------------------------------------------------- #

    def put_frame(self, data: bytes, timeout: float | None = None,
                  on_wait: "Callable[[], None] | None" = None) -> None:
        """Write one length-prefixed frame, chunking through the ring.

        Blocks while the ring is full; ``on_wait`` runs once per poll
        (heartbeats, supervision checks).  Raises :class:`RingTimeout`
        if the whole frame cannot be written within ``timeout`` seconds —
        note a partially written frame then remains pending, so a timed
        out producer must treat the ring as poisoned (the backend
        recreates rings rather than resuming them).
        """
        payload = _FRAME_LEN.pack(len(data)) + data
        deadline = None if timeout is None else now() + timeout
        capacity = self._capacity
        tail = self._load(_TAIL_OFF)
        m = _ring_metrics()
        if m is not None:
            # Frame-size and entry-occupancy distributions: the two
            # inputs to the "batch frames / resize rings" decision the
            # profile report's hot-path section feeds (ROADMAP).
            m.observe("shm.ring.frame_bytes", len(data))
            m.observe("shm.ring.occupancy_bytes", tail - self._load(_HEAD_OFF))
        wait_polls = 0
        wait_s = 0.0
        sent = 0
        poll_s = _POLL_MIN_S
        try:
            while sent < len(payload):
                free = capacity - (tail - self._load(_HEAD_OFF))
                if free <= 0:
                    wait_polls += 1
                    wait_s += poll_s
                    poll_s = self._wait(deadline, on_wait, poll_s)
                    continue
                poll_s = _POLL_MIN_S
                n = min(free, len(payload) - sent)
                pos = tail % capacity
                first = min(n, capacity - pos)
                self._buf[_HEADER + pos : _HEADER + pos + first] = payload[sent : sent + first]
                if n > first:
                    self._buf[_HEADER : _HEADER + n - first] = payload[
                        sent + first : sent + n
                    ]
                sent += n
                tail += n
                self._store(_TAIL_OFF, tail)  # publish *after* the copy
        finally:
            if m is not None and wait_polls:
                m.count("shm.ring.producer_wait_polls", wait_polls)
                m.count("shm.ring.producer_wait_s", wait_s)
                if self._edge is not None:
                    m.count(f"shm.ring.edge.{self._edge}.producer_wait_s", wait_s)

    # -- consumer side --------------------------------------------------- #

    def get_frame(self, timeout: float | None = None,
                  on_wait: "Callable[[], None] | None" = None) -> bytes | None:
        """Read one frame; ``None`` on timeout (no bytes are lost).

        A timed-out call leaves any partially received frame buffered in
        this object, and the next call resumes it — so a slow producer
        just makes the consumer poll again, while a *dead* producer
        leaves the consumer returning ``None`` forever (which is exactly
        the signal the supervisor acts on).
        """
        deadline = None if timeout is None else now() + timeout
        capacity = self._capacity
        m = _ring_metrics()
        wait_polls = 0
        wait_s = 0.0
        poll_s = _POLL_MIN_S
        while True:
            want = (_FRAME_LEN.size if self._need_header else self._frame_len) - len(
                self._acc
            )
            if want > 0:
                head = self._load(_HEAD_OFF)
                avail = self._load(_TAIL_OFF) - head
                if avail <= 0:
                    wait_polls += 1
                    wait_s += poll_s
                    try:
                        poll_s = self._wait(deadline, on_wait, poll_s)
                    except RingTimeout:
                        if m is not None and wait_polls:
                            m.count("shm.ring.consumer_wait_polls", wait_polls)
                            m.count("shm.ring.consumer_wait_s", wait_s)
                            if self._edge is not None:
                                m.count(
                                    f"shm.ring.edge.{self._edge}.consumer_wait_s",
                                    wait_s,
                                )
                        return None
                    continue
                poll_s = _POLL_MIN_S
                n = min(avail, want)
                pos = head % capacity
                first = min(n, capacity - pos)
                self._acc += self._buf[_HEADER + pos : _HEADER + pos + first]
                if n > first:
                    self._acc += self._buf[_HEADER : _HEADER + n - first]
                self._store(_HEAD_OFF, head + n)  # publish *after* the copy
                continue
            if self._need_header:
                self._frame_len = _FRAME_LEN.unpack(self._acc)[0]
                self._acc = bytearray()
                self._need_header = False
                continue
            frame = bytes(self._acc)
            self._acc = bytearray()
            self._need_header = True
            if m is not None and wait_polls:
                m.count("shm.ring.consumer_wait_polls", wait_polls)
                m.count("shm.ring.consumer_wait_s", wait_s)
                if self._edge is not None:
                    m.count(f"shm.ring.edge.{self._edge}.consumer_wait_s", wait_s)
            return frame
