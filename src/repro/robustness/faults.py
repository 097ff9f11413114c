"""Deterministic, seedable I/O fault injection for chaos tests.

The paper's experiments assume a pristine shared disk; production web
corpora do not cooperate.  This module lets tests and benchmarks inject
the failure modes that matter for a long-running indexing service —
transient read errors, truncated gzip members, flipped bytes, slow reads,
a mid-build process crash, and a dying GPU — **on demand and
reproducibly**: every decision derives from the plan's seed and the file
path, never from global randomness.

The container read path (:func:`repro.corpus.warc._inflate`) consults the
installed injector at three points::

    before_read(path)       -> may sleep, raise TransientReadError/FatalFault
    corrupt_raw(path, b)    -> may truncate / flip the *compressed* bytes
    corrupt_inflated(path, b)-> may flip the *decompressed* bytes

and the engine asks :meth:`FaultInjector.gpu_failures` before indexing
each file.  Install with the :func:`inject` context manager::

    plan = FaultPlan(seed=7, specs=[
        FaultSpec(kind="transient", path_substring="file_00002", times=2),
        FaultSpec(kind="flip", path_substring="file_00004"),
    ])
    with inject(plan) as injector:
        engine.build(collection, out)
    assert injector.counts["transient"] == 2

Specs can be restricted to a build *stage* (``"sampling"`` vs
``"build"``) so a crash aimed at the run loop does not fire during the
sampling pre-pass; the engine advertises the current stage via
:func:`set_stage`.
"""

from __future__ import annotations

import os
import random
import signal
import threading
import time
import zlib
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

from repro.robustness.errors import FatalFault, TransientReadError

__all__ = [
    "FaultSpec",
    "FaultPlan",
    "FaultInjector",
    "inject",
    "install",
    "uninstall",
    "active",
    "set_stage",
]

#: Fault kinds understood by the injector.
KINDS = (
    "transient",  # raise TransientReadError on the first `times` reads
    "slow",       # sleep `delay_s` before the read
    "truncate",   # chop the tail off the compressed bytes (truncated gzip)
    "flip",       # flip one byte of the decompressed stream
    "flip_raw",   # flip one byte of the compressed stream (CRC/zlib error)
    "fatal",      # raise FatalFault (simulated crash; no policy catches it)
    "gpu_fail",   # kill GPU `gpu_index` before indexing file `file_index`
    # Process-level faults, fired from *inside* the multiprocess
    # backend's parse worker via `worker_event` (see "Worker-context
    # faults" below):
    "worker_crash",  # SIGKILL the worker process before it parses a file
    "worker_stall",  # sleep `delay_s` inside the worker before it parses a file
)

#: Kinds that only fire inside the worker process (`worker_event`).
WORKER_KINDS = ("worker_crash", "worker_stall")

#: The multiprocess backend's one worker slot (its parse-ahead process).
WORKER_SLOT = "parser-0"


@dataclass(frozen=True)
class FaultSpec:
    """One fault to inject.

    ``path_substring`` selects files (``None`` matches every file);
    ``stage`` restricts the spec to the sampling pre-pass or the build
    loop; ``times`` bounds how many reads of a matching file are affected
    (transient faults recover after ``times`` attempts — that is what
    makes them transient).  Worker kinds fire in the one parse worker
    (:data:`WORKER_SLOT`), and there ``times`` bounds the *incarnation*
    that still fires: a restarted worker (incarnation ``times`` + 1)
    survives, which is what lets one spec express both "crash once,
    recover" (``times=1``) and "poison file that kills every
    incarnation" (large ``times``).
    """

    kind: str
    path_substring: str | None = None
    stage: str | None = None  # "sampling" | "build" | None (any)
    times: int = 1
    delay_s: float = 0.0          # slow reads / worker stalls
    truncate_bytes: int = 16      # how much tail to chop
    gpu_index: int = 0            # gpu_fail: which GPU ordinal dies
    file_index: int = 0           # gpu_fail: before which file it dies

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; expected one of {KINDS}")
        if self.times < 1:
            raise ValueError("times must be >= 1")

    def matches(self, path: str, stage: str) -> bool:
        if self.stage is not None and self.stage != stage:
            return False
        return self.path_substring is None or self.path_substring in path


@dataclass(frozen=True)
class FaultPlan:
    """A seed plus the list of faults to inject."""

    seed: int = 0
    specs: tuple[FaultSpec, ...] = ()

    def __init__(self, seed: int = 0, specs: Iterable[FaultSpec] = ()) -> None:
        object.__setattr__(self, "seed", seed)
        object.__setattr__(self, "specs", tuple(specs))


class FaultInjector:
    """Applies a :class:`FaultPlan` deterministically and counts events.

    Byte positions to flip and bytes to truncate derive from
    ``crc32(path) ^ seed`` so the same plan corrupts the same bytes on
    every run — chaos tests stay reproducible.  Every hook runs on one
    thread per process (the engine, or the parse worker, whose counts
    come home through :meth:`merge_child_counts`); the counters keep
    their lock all the same.
    """

    def __init__(self, plan: FaultPlan, sleep: Callable[[float], None] = time.sleep) -> None:
        self.plan = plan
        self._sleep = sleep
        self._lock = threading.Lock()
        #: reads seen per (spec position, path) — drives `times` budgets.
        self._hits: dict[tuple[int, str], int] = {}
        #: events actually injected, by kind.
        self.counts: dict[str, int] = {}
        #: (kind, path) log, in injection order.
        self.events: list[tuple[str, str]] = []
        self.stage = "build"
        #: Worker-context identity, set inside multiprocess-backend
        #: worker processes (never in the engine process).
        self.worker_key: str | None = None
        self.worker_incarnation = 1

    # ------------------------------------------------------------------ #

    def _rng_for(self, path: str) -> random.Random:
        return random.Random(zlib.crc32(path.encode("utf-8")) ^ self.plan.seed)

    def _record(self, kind: str, path: str) -> None:
        with self._lock:
            self.counts[kind] = self.counts.get(kind, 0) + 1
            self.events.append((kind, path))

    def _claim(self, spec_pos: int, spec: FaultSpec, path: str) -> bool:
        """Consume one of the spec's `times` budget for this path."""
        with self._lock:
            key = (spec_pos, path)
            used = self._hits.get(key, 0)
            if used >= spec.times:
                return False
            self._hits[key] = used + 1
            return True

    def _matching(self, path: str, kind: str) -> Iterator[tuple[int, FaultSpec]]:
        for pos, spec in enumerate(self.plan.specs):
            if spec.kind == kind and spec.matches(path, self.stage):
                yield pos, spec

    # ------------------------------------------------------------------ #
    # Hooks called from the container read path
    # ------------------------------------------------------------------ #

    def before_read(self, path: str) -> None:
        """Slow / transient / fatal faults, in that order of severity.

        Called by the container read path through the module-level
        :func:`active` indirection.
        """
        for pos, spec in self._matching(path, "slow"):
            if self._claim(pos, spec, path):
                self._record("slow", path)
                self._sleep(spec.delay_s)
        for pos, spec in self._matching(path, "fatal"):
            if self._claim(pos, spec, path):
                self._record("fatal", path)
                raise FatalFault(path)
        for pos, spec in self._matching(path, "transient"):
            if self._claim(pos, spec, path):
                self._record("transient", path)
                raise TransientReadError(path, "injected transient read error")

    def corrupt_raw(self, path: str, data: bytes) -> bytes:
        """Truncation / raw byte flips on the compressed stream."""
        for pos, spec in self._matching(path, "truncate"):
            if self._claim(pos, spec, path):
                self._record("truncate", path)
                cut = min(max(spec.truncate_bytes, 1), max(len(data) - 1, 0))
                data = data[: len(data) - cut]
        for pos, spec in self._matching(path, "flip_raw"):
            if self._claim(pos, spec, path) and data:
                self._record("flip_raw", path)
                data = _flip_one(data, self._rng_for(path))
        return data

    def corrupt_inflated(self, path: str, data: bytes) -> bytes:
        """Byte flips on the decompressed stream."""
        for pos, spec in self._matching(path, "flip"):
            if self._claim(pos, spec, path) and data:
                self._record("flip", path)
                data = _flip_one(data, self._rng_for(path))
        return data

    # ------------------------------------------------------------------ #
    # Worker-context faults (multiprocess backend)
    # ------------------------------------------------------------------ #

    def set_worker_context(self, worker_key: str, incarnation: int) -> None:
        """Identify the current process as worker ``worker_key``.

        Called once at worker startup (the executor initializer in
        :mod:`repro.core.mp_backend`); the incarnation number (1 for
        the original process, +1 per supervisor restart) is what
        ``times`` bounds for worker fault kinds.
        """
        self.worker_key = worker_key
        self.worker_incarnation = incarnation

    def _claim_once(self, spec_pos: int, tag: str) -> bool:
        """At most one firing per (spec, tag) within this process.

        Worker kinds bound firings by *incarnation* (each restart is a
        fresh process with a fresh injector), not by the `times` budget
        the read-path kinds consume via :meth:`_claim`.
        """
        with self._lock:
            key = (spec_pos, tag)
            if self._hits.get(key, 0):
                return False
            self._hits[key] = 1
            return True

    def worker_event(self, tag: str) -> None:
        """Stall or kill this worker before it parses the file tagged ``tag``.

        Called by the worker process only, between dequeue and execution
        — so a crash always leaves the in-flight file unanswered and the
        supervisor must resubmit it.  ``worker_crash`` uses ``SIGKILL``:
        no atexit hooks, no finally blocks.
        """
        if self.worker_key is None:
            return
        for kind in WORKER_KINDS:
            for pos, spec in self._matching(tag, kind):
                if self.worker_incarnation > spec.times:
                    continue
                if not self._claim_once(pos, tag):
                    continue
                self._record(kind, tag)
                if kind == "worker_stall":
                    self._sleep(spec.delay_s)
                else:
                    os.kill(os.getpid(), signal.SIGKILL)

    def merge_child_counts(
        self, counts: dict[str, int], events: list[tuple[str, str]]
    ) -> None:
        """Fold a worker process's injector activity into this injector.

        The multiprocess backend ships its worker a copy of the plan;
        faults the copy injects (retries it caused, bytes it flipped) are
        invisible to the engine-side injector until the worker reports
        its counter deltas back.  Merging keeps chaos-test assertions
        backend-agnostic.
        """
        with self._lock:
            for kind, n in counts.items():
                self.counts[kind] = self.counts.get(kind, 0) + n
            self.events.extend(events)

    # ------------------------------------------------------------------ #
    # Hook called from the engine's run loop
    # ------------------------------------------------------------------ #

    def gpu_failures(self, file_index: int) -> list[int]:
        """GPU ordinals that die before indexing ``file_index``."""
        failed: list[int] = []
        for pos, spec in enumerate(self.plan.specs):
            if spec.kind != "gpu_fail" or spec.file_index != file_index:
                continue
            if self._claim(pos, spec, f"<gpu{spec.gpu_index}>"):
                self._record("gpu_fail", f"<gpu{spec.gpu_index}>")
                failed.append(spec.gpu_index)
        return failed


def _flip_one(data: bytes, rng: random.Random) -> bytes:
    out = bytearray(data)
    pos = rng.randrange(len(out))
    out[pos] ^= 1 << rng.randrange(8)
    return bytes(out)


# ---------------------------------------------------------------------- #
# Module-level installation (the read path has no injector parameter)
# ---------------------------------------------------------------------- #

_active: FaultInjector | None = None


def install(injector: FaultInjector) -> FaultInjector:
    """Make ``injector`` the process-wide active injector."""
    global _active
    _active = injector
    return injector


def uninstall() -> None:
    """Remove the active injector (reads become fault-free again)."""
    global _active
    _active = None


def active() -> FaultInjector | None:
    """The installed injector, or ``None`` (the common, zero-cost case)."""
    return _active


def set_stage(stage: str) -> None:
    """Advertise the current build stage to stage-filtered specs."""
    if _active is not None:
        _active.stage = stage


@contextmanager
def inject(
    plan: FaultPlan, sleep: Callable[[float], None] = time.sleep
) -> Iterator[FaultInjector]:
    """Install a plan for the duration of a ``with`` block."""
    injector = FaultInjector(plan, sleep=sleep)
    install(injector)
    try:
        yield injector
    finally:
        uninstall()
