"""Cross-process sampling profiler with flamegraph export.

Attribution *below* span granularity: spans say ``parse file_00017``
took 40 ms, but not how much of that was stemming vs. tokenizing vs.
``encode_parsed_file``.  This module supplies that view with three
pieces:

:class:`SamplingProfiler`
    A per-process deterministic-interval wall-clock sampler.  A daemon
    thread ticks every ``interval_s`` seconds and captures the Python
    stack of every *other* thread via ``sys._current_frames()``,
    aggregating ``(lane, stack) → sample count`` in memory.  No
    tracing hooks, no per-call overhead — cost is proportional to the
    tick rate, not the workload (the overhead gate in
    ``tests/test_profile.py`` pins it at ≤ 5%).  The tick is
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

Report/export helpers
    :func:`to_folded` (collapsed-stack text for ``flamegraph.pl``),
    :func:`to_speedscope` (https://speedscope.app JSON),
    :func:`render_profile_report` (per-lane totals plus the top-N
    self/cumulative table), and :func:`render_profile_diff` / :func:`top_regressed` (behind
    ``repro profile --diff``).

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
    "top_functions",
    "top_regressed",
    "to_folded",
    "to_speedscope",
    "render_profile_report",
    "render_profile_diff",
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
    """Deterministic-interval wall-clock sampler for one process.

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
        # lane → {stack tuple (root-first) → samples}; guarded by _lock.
        self._counts: dict[str, dict[tuple, int]] = {}
        self._samples: dict[str, int] = {}
        self._frame_ids: dict[int, str] = {}  # id(code) → frame_id cache
        self._thread: threading.Thread | None = None
        # The three fields below are shared with the sampler thread
        # without a lock; each has one writer and a happens-before edge.
        #
        # Written once by the sampler thread itself, as the first
        # statement of _run, and read only by that thread's sample loop.
        self._self_ident: int | None = None
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
        """Start the sampler thread; the calling thread becomes the
        lane's primary (sampled under the bare lane name)."""
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
        self._self_ident = threading.get_ident()
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
        """Capture one sample of every thread except the sampler and
        the package's other housekeeping threads (named ``repro-*``:
        they only ever sleep, and would rank first in every report)."""
        frames = self._frames_source()
        names = {t.ident: t.name for t in threading.enumerate()}
        with self._lock:
            for ident, frame in frames.items():
                if ident == self._self_ident or names.get(ident, "").startswith("repro-"):
                    continue
                if ident == self._primary_ident:
                    lane = self._lane
                else:
                    lane = f"{self._lane}/{names.get(ident, 'unnamed')}"
                stack = self._capture(frame)
                if not stack:
                    continue
                bucket = self._counts.setdefault(lane, {})
                bucket[stack] = bucket.get(stack, 0) + 1
                self._samples[lane] = self._samples.get(lane, 0) + 1

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
            counts = self._counts
            samples = self._samples
            self._counts = {}
            self._samples = {}
        stacks = [
            (lane, frames, n)
            for lane, bucket in counts.items()
            for frames, n in bucket.items()
        ]
        return (os.getpid(), samples, stacks)


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


def top_functions(
    payload: Mapping[str, Any], mode: str = "self", n: int = 10
) -> list[tuple[str, float]]:
    """Top-``n`` (frame, seconds) by self or cumulative time."""
    if mode not in ("self", "cum"):
        raise ValueError(f"mode must be 'self' or 'cum', got {mode!r}")
    table = self_seconds(payload) if mode == "self" else cumulative_seconds(payload)
    ranked = sorted(table.items(), key=lambda kv: (-kv[1], kv[0]))
    return ranked[:n]


def top_regressed(
    old: Mapping[str, float], new: Mapping[str, float], n: int = 5
) -> list[tuple[str, float, float, float]]:
    """Frames whose attributed time grew: (frame, old_s, new_s, delta)
    sorted by delta descending (``repro profile --diff``)."""
    rows = []
    for frame, new_s in new.items():
        old_s = old.get(frame, 0.0)
        if new_s > old_s:
            rows.append((frame, old_s, new_s, new_s - old_s))
    rows.sort(key=lambda r: (-r[3], r[0]))
    return rows[:n]


# ---------------------------------------------------------------------------
# Exports


def to_folded(payload: Mapping[str, Any]) -> str:
    """Collapsed-stack text: ``lane;frame;frame count`` per line, the
    input format of ``flamegraph.pl`` and speedscope's importer."""
    lines = [
        ";".join([entry["lane"]] + list(entry["frames"])) + f" {entry['count']}"
        for entry in payload["stacks"]
    ]
    return "\n".join(lines) + ("\n" if lines else "")


def to_speedscope(payload: Mapping[str, Any], name: str = "repro") -> dict[str, Any]:
    """Speedscope file-format JSON (one "sampled" profile per lane)."""
    interval = payload["interval_s"]
    frame_index: dict[str, int] = {}
    frames: list[dict[str, str]] = []

    def _idx(frame: str) -> int:
        i = frame_index.get(frame)
        if i is None:
            i = len(frames)
            frame_index[frame] = i
            frames.append({"name": frame})
        return i

    by_lane: dict[str, list[dict[str, Any]]] = {}
    for entry in payload["stacks"]:
        by_lane.setdefault(entry["lane"], []).append(entry)

    profiles = []
    for lane in sorted(by_lane):
        samples = []
        weights = []
        total = 0.0
        for entry in by_lane[lane]:
            samples.append([_idx(f) for f in entry["frames"]])
            weight = entry["count"] * interval
            weights.append(weight)
            total += weight
        profiles.append(
            {
                "type": "sampled",
                "name": lane,
                "unit": "seconds",
                "startValue": 0,
                "endValue": total,
                "samples": samples,
                "weights": weights,
            }
        )
    return {
        "$schema": "https://www.speedscope.app/file-format-schema.json",
        "name": name,
        "exporter": "repro profile",
        "activeProfileIndex": 0,
        "shared": {"frames": frames},
        "profiles": profiles,
    }


# ---------------------------------------------------------------------------
# Reports

def _fmt_seconds(seconds: float) -> str:
    return f"{seconds:8.3f}s"


def render_profile_report(
    payload: Mapping[str, Any],
    top: int = 10,
    mode: str = "self",
) -> str:
    """ASCII report for ``repro profile``: header, per-lane totals and
    the top-N function table."""
    interval = payload["interval_s"]
    lanes = payload["lanes"]
    total = sum(entry["samples"] for entry in lanes.values())
    lines = [
        f"profile: {total} sample(s) across {len(lanes)} lane(s), "
        f"interval {interval * 1000:.1f}ms "
        f"(~{total * interval:.3f}s attributed)"
    ]
    for lane in sorted(lanes):
        entry = lanes[lane]
        pids = ",".join(str(p) for p in entry["pids"])
        lines.append(f"  lane {lane:<24} {entry['samples']:>7} sample(s)  pid {pids}")

    label = "self" if mode == "self" else "cumulative"
    lines.append("")
    lines.append(f"top {top} function(s) by {label} time:")
    ranked = top_functions(payload, mode=mode, n=top)
    if ranked:
        cum = cumulative_seconds(payload)
        slf = self_seconds(payload)
        lines.append(f"  {'self':>9}  {'cum':>9}  frame")
        for frame, _secs in ranked:
            lines.append(
                f"  {_fmt_seconds(slf.get(frame, 0.0))}  "
                f"{_fmt_seconds(cum.get(frame, 0.0))}  {frame}"
            )
    else:
        lines.append("  (no samples)")
    return "\n".join(lines)


def render_profile_diff(
    old: Mapping[str, Any],
    new: Mapping[str, Any],
    top: int = 10,
    mode: str = "self",
) -> str:
    """Diff report for ``repro profile --diff OLD NEW``."""
    table = self_seconds if mode == "self" else cumulative_seconds
    old_t, new_t = table(old), table(new)
    regressed = top_regressed(old_t, new_t, n=top)
    improved = top_regressed(new_t, old_t, n=top)  # symmetric: shrunk frames
    old_total = sum(e["samples"] for e in old["lanes"].values()) * old["interval_s"]
    new_total = sum(e["samples"] for e in new["lanes"].values()) * new["interval_s"]
    label = "self" if mode == "self" else "cumulative"
    lines = [
        f"profile diff ({label} time): "
        f"~{old_total:.3f}s -> ~{new_total:.3f}s attributed"
    ]
    # Disjoint lanes (e.g. a serial artifact against a multiprocess one:
    # no parser-*/cpu-* lanes on one side) would otherwise read as every
    # frame "regressing" from zero — say explicitly which lanes only one
    # side sampled so the tables below are read per shared lane.
    old_lanes, new_lanes = set(old["lanes"]), set(new["lanes"])
    for lane in sorted(old_lanes - new_lanes):
        lines.append(
            f"note: lane {lane!r} only in OLD "
            f"({old['lanes'][lane]['samples']} sample(s)) — "
            "its frames read as improvements"
        )
    for lane in sorted(new_lanes - old_lanes):
        lines.append(
            f"note: lane {lane!r} only in NEW "
            f"({new['lanes'][lane]['samples']} sample(s)) — "
            "its frames read as regressions"
        )
    lines.append(f"top {top} regressed function(s):")
    if regressed:
        lines.append(f"  {'old':>9}  {'new':>9}  {'delta':>9}  frame")
        for frame, old_s, new_s, delta in regressed:
            lines.append(
                f"  {_fmt_seconds(old_s)}  {_fmt_seconds(new_s)}  "
                f"+{delta:7.3f}s  {frame}"
            )
    else:
        lines.append("  (none)")
    lines.append(f"top {top} improved function(s):")
    if improved:
        lines.append(f"  {'old':>9}  {'new':>9}  {'delta':>9}  frame")
        for frame, new_s, old_s, delta in improved:
            lines.append(
                f"  {_fmt_seconds(old_s)}  {_fmt_seconds(new_s)}  "
                f"-{delta:7.3f}s  {frame}"
            )
    else:
        lines.append("  (none)")
    return "\n".join(lines)
