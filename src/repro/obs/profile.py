"""Cross-process sampling profiler with a flamegraph export.

Attribution *below* span granularity: spans say ``parse file_00017``
took 40 ms, but not how much of that was stemming vs. tokenizing vs.
``encode_parsed_file``.  This module supplies that view with three
pieces:

:class:`SamplingProfiler`
    A per-process deterministic-interval wall-clock sampler.  A daemon
    thread ticks every ``interval_s`` seconds and captures the Python
    stack of the *primary* thread — the one that started it — via
    ``sys._current_frames()``, aggregating ``stack → sample count`` in
    memory.  The engine and the parse worker each do their work on one
    thread; every other thread in those processes (a process pool's
    queue feeder and manager, the sampler itself) only waits, and
    sampling them ranked ``threading.wait`` / ``select`` first in every
    report.  No tracing hooks, no per-call overhead — cost is
    proportional to the tick rate, not the workload (the overhead gate
    in ``tests/test_profile.py`` pins it at ≤ 5%).  The tick is
    *deterministic-interval*: the next tick is scheduled at
    ``previous + interval`` (re-anchored after an overrun), so sample
    counts approximate ``elapsed / interval`` instead of drifting with
    scheduler jitter.

:class:`Profile`
    The merge container.  The engine owns one; its own sampler and
    the parse worker's drained deltas are absorbed into it, keyed by
    lane (``engine``, ``parser-0``) with the
    contributing pids recorded per lane — after a supervisor restart
    a lane simply carries two pids.  Worker deltas travel in the same
    replies as span/metrics deltas (see ``core/mp_backend.py``), so a
    crashed worker's profile survives exactly like its spans: whatever
    it shipped before dying is kept.

Aggregation and export
    :func:`self_seconds` / :func:`cumulative_seconds` (the two columns
    of ``repro explain``'s profile view, rendered by
    :mod:`repro.obs.stats`) and :func:`to_folded` (collapsed-stack text
    for ``flamegraph.pl``).

Frame identity is ``path:function:first_lineno`` — a pure function of
the source tree, which is what makes profile *structure* (the call-site
set) reproducible across identical seeded runs even though sample
counts are wall-clock measurements.

This module reads ``time.monotonic`` directly: a sampler *is* a clock
consumer, which is why ``obs/profile.py`` sits inside the RPR008 clock
fence alongside ``util/timing.py`` (see ``repro.lint.rules``).  It is
engine-free and stdlib-only, importable from workers before the engine
is.
"""

from __future__ import annotations

import os
import sys
import threading
import time
from typing import Any, Callable, Mapping

from .profile_schema import build_profile_payload

__all__ = [
    "DEFAULT_PROFILE_INTERVAL_S",
    "SamplingProfiler",
    "Profile",
    "ProfileDelta",
    "frame_id",
    "self_seconds",
    "cumulative_seconds",
    "to_folded",
]

DEFAULT_PROFILE_INTERVAL_S = 0.01

#: Maximum captured stack depth; deeper frames are truncated at the root.
_MAX_DEPTH = 128

#: A drained per-process sample batch: (pid, {lane: samples},
#: [(lane, frames_root_first, count), ...]).  Plain picklable builtins so
#: it rides the worker reply tuples unchanged.
ProfileDelta = tuple


def frame_id(code: Any) -> str:
    """``path:function:first_lineno`` for a code object.

    The path is shortened to start at the last ``repro/`` component so
    ids are stable across checkouts and virtualenvs; foreign code keeps
    its basename only.
    """
    path = code.co_filename.replace(os.sep, "/")
    idx = path.rfind("/repro/")
    if idx >= 0:
        path = path[idx + 1 :]
    elif path.startswith("repro/"):
        pass
    else:
        path = path.rsplit("/", 1)[-1]
    return f"{path}:{code.co_name}:{code.co_firstlineno}"


class SamplingProfiler:
    """Deterministic-interval wall-clock sampler for one thread.

    ``frames_source`` defaults to ``sys._current_frames`` and is
    injectable so tests can drive :meth:`sample_once` with synthetic
    thread→frame maps and get bit-reproducible aggregates.
    """

    def __init__(
        self,
        interval_s: float = DEFAULT_PROFILE_INTERVAL_S,
        lane: str = "engine",
        frames_source: Callable[[], Mapping[int, Any]] | None = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if interval_s <= 0:
            raise ValueError(f"interval_s must be positive, got {interval_s!r}")
        self._interval_s = float(interval_s)
        self._lane = lane
        self._frames_source = frames_source or sys._current_frames
        self._clock = clock
        self._lock = threading.Lock()
        # stack tuple (root-first) → samples; guarded by _lock.
        self._counts: dict[tuple, int] = {}
        self._samples = 0
        self._frame_ids: dict[int, str] = {}  # id(code) → frame_id cache
        self._thread: threading.Thread | None = None
        # The two fields below are shared with the sampler thread
        # without a lock; each has one writer and a happens-before edge.
        #
        # Written once in start() before Thread.start() (the edge); the
        # sampler thread only reads it afterwards.
        self._primary_ident: int | None = None
        # Written by start() before the sampler exists (Thread.start()
        # is the edge) and by stop(), whose Thread.join() bounds the
        # sampler's last read: a stale read costs at most one extra
        # tick, never a lost or corrupted sample.
        self._stop_requested = False

    @property
    def interval_s(self) -> float:
        return self._interval_s

    def start(self) -> None:
        """Start the sampler thread; the calling thread becomes the one
        it samples."""
        if self._thread is not None:
            raise RuntimeError("profiler already started")
        self._primary_ident = threading.get_ident()
        self._stop_requested = False
        self._thread = threading.Thread(
            target=self._run, name="repro-prof-sampler", daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        """Stop and join the sampler thread (idempotent)."""
        thread = self._thread
        if thread is None:
            return
        # Plain flag write: the sampler only ever reads it, and the
        # join below is the happens-before edge (see __init__).
        self._stop_requested = True
        thread.join(timeout=5.0)
        self._thread = None

    def _run(self) -> None:
        interval = self._interval_s
        next_tick = self._clock() + interval
        while not self._stop_requested:
            delay = next_tick - self._clock()
            if delay > 0:
                time.sleep(delay)
                if self._stop_requested:
                    break
            else:
                # Overrun (GIL stall, suspended process): re-anchor so
                # we don't burst-sample to catch up.
                next_tick = self._clock()
            self.sample_once()
            next_tick += interval

    def sample_once(self) -> None:
        """Capture one sample of the primary thread's stack."""
        frame = self._frames_source().get(self._primary_ident)
        if frame is None:
            return
        stack = self._capture(frame)
        with self._lock:
            self._counts[stack] = self._counts.get(stack, 0) + 1
            self._samples += 1

    def _capture(self, frame: Any) -> tuple:
        ids = self._frame_ids
        stack: list[str] = []
        depth = 0
        while frame is not None and depth < _MAX_DEPTH:
            code = frame.f_code
            fid = ids.get(id(code))
            if fid is None:
                fid = frame_id(code)
                ids[id(code)] = fid
            stack.append(fid)
            frame = frame.f_back
            depth += 1
        stack.reverse()  # root-first, the collapsed-stack order
        return tuple(stack)

    def drain_delta(self) -> ProfileDelta | None:
        """Take and clear the accumulated samples as a picklable delta.

        Returns ``None`` when nothing was sampled, so idle worker
        replies stay as small as before profiling existed.
        """
        with self._lock:
            if not self._samples:
                return None
            counts, samples = self._counts, self._samples
            self._counts, self._samples = {}, 0
        lane = self._lane
        stacks = [(lane, frames, n) for frames, n in counts.items()]
        return (os.getpid(), {lane: samples}, stacks)


class Profile:
    """Merged cross-process view: engine + worker deltas by lane."""

    def __init__(self, interval_s: float = DEFAULT_PROFILE_INTERVAL_S) -> None:
        if interval_s <= 0:
            raise ValueError(f"interval_s must be positive, got {interval_s!r}")
        self.interval_s = float(interval_s)
        self._lock = threading.Lock()
        self._pids: dict[str, set[int]] = {}
        self._counts: dict[str, dict[tuple, int]] = {}

    def absorb(self, delta: ProfileDelta | None) -> None:
        """Fold one drained delta in; tolerates ``None`` (empty delta)."""
        if delta is None:
            return
        pid, samples, stacks = delta
        with self._lock:
            for lane in samples:
                self._pids.setdefault(lane, set()).add(pid)
                self._counts.setdefault(lane, {})
            for lane, frames, n in stacks:
                bucket = self._counts[lane]
                key = tuple(frames)
                bucket[key] = bucket.get(key, 0) + n

    def to_payload(self, meta: Mapping[str, Any] | None = None) -> dict[str, Any]:
        with self._lock:
            return build_profile_payload(
                self.interval_s, dict(self._pids), self._counts, meta=meta
            )


# ---------------------------------------------------------------------------
# Aggregation over payloads


def self_seconds(payload: Mapping[str, Any]) -> dict[str, float]:
    """frame → attributed self time (leaf samples × interval)."""
    interval = payload["interval_s"]
    out: dict[str, float] = {}
    for entry in payload["stacks"]:
        leaf = entry["frames"][-1]
        out[leaf] = out.get(leaf, 0.0) + entry["count"] * interval
    return out


def cumulative_seconds(payload: Mapping[str, Any]) -> dict[str, float]:
    """frame → time with the frame anywhere on the stack (deduplicated
    per stack, so recursion doesn't double-count)."""
    interval = payload["interval_s"]
    out: dict[str, float] = {}
    for entry in payload["stacks"]:
        weight = entry["count"] * interval
        for frame in set(entry["frames"]):
            out[frame] = out.get(frame, 0.0) + weight
    return out


# ---------------------------------------------------------------------------
# Export


def to_folded(payload: Mapping[str, Any]) -> str:
    """Collapsed-stack text: ``lane;frame;frame count`` per line, the
    input format of ``flamegraph.pl`` that other flame-graph viewers
    import too (``repro explain --folded``)."""
    lines = [
        ";".join([entry["lane"]] + list(entry["frames"])) + f" {entry['count']}"
        for entry in payload["stacks"]
    ]
    return "\n".join(lines) + ("\n" if lines else "")
