"""Span tracing with Chrome trace-event export.

A :class:`Tracer` records *spans* — named, nested intervals of wall
time, one lane per worker (engine thread, parser thread, indexer) — and
exports them in the Chrome trace-event format (the ``traceEvents`` JSON
consumed by Perfetto and ``chrome://tracing``), so the pipeline's stage
overlap becomes a visible lane-per-worker timeline.

Design constraints, in order:

1. **Cheap when off.**  The :class:`NullTracer` hands out a single
   pre-allocated context manager; a disabled build does no clock reads,
   no allocation, and no locking per span.
2. **Cheap when on.**  Entering a span is two clock reads, one tuple of
   stack bookkeeping, and one lock-protected list append on exit.
3. **Deterministic-safe.**  Spans carry wall-clock timings, which differ
   between runs; everything *derived* from spans therefore lives outside
   the deterministic metrics sections (see :mod:`repro.obs.schema`).
   Span *structure* (names, lanes, nesting, args) is deterministic.
4. **Thread-correct.**  Threads may trace concurrently; nesting stacks
   are thread-local and the finished list is lock-protected.

Spans record seconds relative to the tracer's epoch; the Chrome export
converts to integer microseconds (the format's native unit).
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Iterable, Iterator

__all__ = ["Span", "Tracer", "NullTracer", "load_chrome_trace"]


@dataclass(frozen=True)
class Span:
    """One finished span: a named interval on a worker lane."""

    name: str
    cat: str
    lane: str
    start_s: float  # seconds since the tracer's epoch
    end_s: float
    depth: int  # nesting depth within the lane (0 = top level)
    parent: str | None  # enclosing span's name on the same lane
    args: dict[str, Any] = field(default_factory=dict)

    @property
    def duration_s(self) -> float:
        return self.end_s - self.start_s


class Tracer:
    """Collects spans and exports Chrome trace-event JSON."""

    enabled = True

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self._clock = clock
        self.epoch = clock()
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    # ------------------------------------------------------------------ #
    # Recording
    # ------------------------------------------------------------------ #

    def _stack(self, lane: str) -> list[str]:
        stacks: dict[str, list[str]] | None = getattr(self._local, "stacks", None)
        if stacks is None:
            stacks = {}
            self._local.stacks = stacks
        return stacks.setdefault(lane, [])

    @contextmanager
    def span(
        self, name: str, cat: str = "build", lane: str = "engine", **args: Any
    ) -> Iterator[dict[str, Any]]:
        """Trace one interval; yields the span's mutable ``args`` dict.

        Callers may add tags after entry (e.g. byte counts known only
        once the work is done)::

            with tracer.span("parse", lane="parser-0", file=k) as tags:
                parsed = parse(path)
                tags["docs"] = parsed.num_docs
        """
        stack = self._stack(lane)
        parent = stack[-1] if stack else None
        depth = len(stack)
        stack.append(name)
        start = self._clock() - self.epoch
        try:
            yield args
        finally:
            end = self._clock() - self.epoch
            stack.pop()
            record = Span(
                name=name, cat=cat, lane=lane, start_s=start, end_s=end,
                depth=depth, parent=parent, args=args,
            )
            with self._lock:
                self.spans.append(record)

    def instant(self, name: str, cat: str = "build", lane: str = "engine",
                **args: Any) -> None:
        """Record a zero-duration marker (e.g. a checkpoint boundary)."""
        now = self._clock() - self.epoch
        stack = self._stack(lane)
        record = Span(
            name=name, cat=cat, lane=lane, start_s=now, end_s=now,
            depth=len(stack), parent=stack[-1] if stack else None, args=args,
        )
        with self._lock:
            self.spans.append(record)

    # ------------------------------------------------------------------ #
    # Cross-process span shipping (the multiprocess backend)
    # ------------------------------------------------------------------ #

    def drain_spans(self) -> list[Span]:
        """Remove and return every finished span recorded so far.

        Worker processes drain their local tracer on each reply and ship
        the spans to the engine, which :meth:`absorb`\\ s them — so a
        multiprocess build's trace still shows per-worker lanes.
        """
        with self._lock:
            out = self.spans
            self.spans = []
        return out

    def absorb(self, spans: Iterable[Span], epoch: float) -> None:
        """Adopt spans recorded by another tracer on the *same clock*.

        ``epoch`` is the foreign tracer's epoch on that shared clock
        (``time.perf_counter`` is ``CLOCK_MONOTONIC`` on Linux, so
        engine and worker processes agree); spans are re-based onto this
        tracer's epoch so lanes line up on one timeline.
        """
        shift = epoch - self.epoch
        rebased = [
            replace(s, start_s=s.start_s + shift, end_s=s.end_s + shift)
            for s in spans
        ]
        with self._lock:
            self.spans.extend(rebased)

    # ------------------------------------------------------------------ #
    # Queries (used by repro explain / the tests)
    # ------------------------------------------------------------------ #

    def find(self, name: str) -> list[Span]:
        """All finished spans with ``name``, in completion order."""
        with self._lock:
            return [s for s in self.spans if s.name == name]

    def lanes(self) -> list[str]:
        """Distinct lanes in first-seen order."""
        seen: dict[str, None] = {}
        with self._lock:
            for s in self.spans:
                seen.setdefault(s.lane, None)
        return list(seen)

    # ------------------------------------------------------------------ #
    # Chrome trace-event export
    # ------------------------------------------------------------------ #

    def to_chrome(self) -> dict[str, Any]:
        """The trace as a Chrome trace-event JSON object.

        Every span becomes a complete ("ph": "X") event with integer
        microsecond timestamps; each lane gets a ``thread_name``
        metadata event so Perfetto labels the timeline rows.
        """
        with self._lock:
            spans = list(self.spans)
        events: list[dict[str, Any]] = []
        tids: dict[str, int] = {}
        for s in spans:
            tid = tids.setdefault(s.lane, len(tids) + 1)
            events.append(
                {
                    "name": s.name,
                    "cat": s.cat,
                    "ph": "X",
                    "ts": round(s.start_s * 1e6),
                    "dur": round(s.duration_s * 1e6),
                    "pid": 1,
                    "tid": tid,
                    "args": s.args,
                }
            )
        for lane, tid in tids.items():
            events.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": 1,
                    "tid": tid,
                    "args": {"name": lane},
                }
            )
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write(self, path: str) -> str:
        """Write the Chrome trace JSON to ``path``; returns ``path``."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_chrome(), fh, separators=(",", ":"))
        return path


class NullTracer(Tracer):
    """The disabled tracer: every operation is a no-op.

    ``span()`` returns one shared, re-entrant context manager, so a
    disabled build pays a dict lookup and a function call per span —
    no clock reads, no allocation, no lock.
    """

    enabled = False

    def __init__(self) -> None:
        super().__init__(clock=lambda: 0.0)
        self._null_args: dict[str, Any] = {}

    @contextmanager
    def _null_cm(self) -> Iterator[dict[str, Any]]:
        yield self._null_args

    def span(self, name: str, cat: str = "build", lane: str = "engine",
             **args: Any):  # type: ignore[override]
        return self._null_cm()

    def instant(self, name: str, cat: str = "build", lane: str = "engine",
                **args: Any) -> None:
        return None


def load_chrome_trace(path: str) -> list[dict[str, Any]]:
    """Load and structurally check a Chrome trace file.

    Returns the ``traceEvents`` list.  Raises :class:`ValueError` when
    the file is not a loadable Chrome trace (the integration tests and
    ``repro explain`` rely on this to reject damaged artifacts).
    """
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    if not isinstance(payload, dict) or "traceEvents" not in payload:
        raise ValueError(f"{path}: not a Chrome trace (missing 'traceEvents')")
    events = payload["traceEvents"]
    if not isinstance(events, list):
        raise ValueError(f"{path}: 'traceEvents' is not a list")
    for i, ev in enumerate(events):
        if not isinstance(ev, dict) or "ph" not in ev or "name" not in ev:
            raise ValueError(f"{path}: event #{i} lacks 'ph'/'name'")
        if ev["ph"] == "X" and ("ts" not in ev or "dur" not in ev):
            raise ValueError(f"{path}: complete event #{i} lacks 'ts'/'dur'")
    return events
