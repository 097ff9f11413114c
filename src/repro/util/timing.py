"""Wall-clock and simulated-time instruments.

``Timer`` measures real elapsed time (used by the benchmark harnesses when
they time the functional implementation).  ``Stopwatch`` accumulates *named*
durations — either real or simulated seconds — and is how the engine builds
the per-phase rows of Table IV and Table VI (sampling time, parser time,
indexer time, dictionary combine, dictionary write).

This module and :mod:`repro.obs` are the **only** places allowed to read
the wall clock directly (lint rule RPR008): ad-hoc ``time.perf_counter()``
calls scattered through the engine produce timings no tracer sees and no
stopwatch can reconcile.  Everything else calls :func:`now`.

A build's stopwatch times one thread: every :meth:`Stopwatch.measure`
runs on the engine thread, and no two measurements nest or overlap, so
``total()`` never exceeds the build's wall time (``EngineResult`` reports
both as ``cpu_seconds`` / ``wall_seconds``).
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator

__all__ = ["Timer", "Stopwatch", "now"]


def now() -> float:
    """The blessed monotonic clock (seconds, arbitrary epoch).

    Use this instead of ``time.perf_counter()`` outside this module and
    ``repro.obs`` — lint rule RPR008 enforces it.
    """
    return time.perf_counter()


class Timer:
    """Context-manager wall-clock timer.

    >>> with Timer() as t:
    ...     _ = sum(range(10))
    >>> t.elapsed >= 0.0
    True
    """

    def __init__(self) -> None:
        self._start = 0.0
        self.elapsed = 0.0

    def __enter__(self) -> "Timer":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc: object) -> None:
        self.elapsed = time.perf_counter() - self._start


@dataclass
class Stopwatch:
    """Accumulator of named durations in seconds.

    Durations can come from real timing (:meth:`measure`) or be charged
    directly from the discrete-event simulator (:meth:`charge`); the engine
    mixes both when producing its reports.
    """

    buckets: dict[str, float] = field(default_factory=dict)

    def charge(self, name: str, seconds: float) -> None:
        """Add ``seconds`` to the named bucket."""
        if seconds < 0:
            raise ValueError(f"cannot charge negative time {seconds} to {name!r}")
        self.buckets[name] = self.buckets.get(name, 0.0) + seconds

    @contextmanager
    def measure(self, name: str) -> Iterator[None]:
        """Measure a real code block into the named bucket."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.charge(name, time.perf_counter() - start)

    def get(self, name: str) -> float:
        """Seconds accumulated under ``name`` (0.0 if absent)."""
        return self.buckets.get(name, 0.0)

    def total(self) -> float:
        """Sum across all buckets."""
        return sum(self.buckets.values())
