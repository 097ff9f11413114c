"""Worker supervision for the multiprocess execution backend.

:mod:`repro.core.mp_backend` owns the *mechanism* — processes, rings,
the engine-side indexer state, journal replay.  This module owns the
*policy* and the *bookkeeping*: when is a worker considered crashed or
hung, how many restarts does it get, when does a sub-batch count as
poison, and what does the build report about all of it.

Failure taxonomy (docs/ROBUSTNESS.md, "Process supervision"):

``crash``
    The worker process exited — nonzero exit code, ``SIGKILL``, OOM.
    Detected by the engine observing ``Process.is_alive() == False``
    while replies are still owed.
``stall``
    The process is alive but its heartbeat counter (a plain u64 in the
    ring header, bumped every worker loop iteration and every transport
    poll) stopped advancing for longer than ``heartbeat_timeout_s``.
    The supervisor kills it and treats it like a crash — by the time a
    heartbeat is this stale the worker is wedged in user code, and
    requeue-after-kill is the only move that preserves the build.
``poison``
    The same task tag killed ``poison_threshold`` worker incarnations.
    Restarting again would loop forever, so the slot degrades instead.

Recovery ladder, in order:

1. **Restart + requeue** — up to ``max_restarts`` per worker, paced by
   the PR 1 retry/backoff policy.  The engine replays the slot's journal
   (every sub-batch since the last run boundary) into a fresh process
   seeded with the engine-side indexer (the worker's state at that
   boundary, pickled on demand); side effects stay at-most-once
   because all durable writes (run files, manifest, checkpoint) happen
   on the engine, never in workers.
2. **Degrade** — restart budget exhausted or poison detected: the slot
   leaves the process fleet and runs inline on the engine thread (the
   serial execution path) for the rest of the build.  The
   build completes, byte-identical; only wall-clock parallelism is lost.

Every decision is counted in the deterministic metrics registry
(``supervisor.restarts``, ``supervisor.requeued``,
``supervisor.heartbeat_misses``, ``supervisor.degraded``,
``supervisor.poisoned``) and mirrored as trace instants, so
``repro stats`` / ``repro verify`` can surface what happened after the
fact.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass, field

from repro.obs import runtime as obs
from repro.robustness.retry import RetryPolicy

__all__ = [
    "SupervisorPolicy",
    "Supervisor",
    "SupervisorReport",
    "WorkerFailure",
]


@dataclass(frozen=True)
class SupervisorPolicy:
    """Knobs of the multiprocess backend's supervision layer."""

    #: Restarts allowed per worker slot before it degrades to inline
    #: execution.  The budget is per-slot, not global: one flaky indexer
    #: should not spend the parsers' budget.
    max_restarts: int = 2
    #: Heartbeat silence after which a live process counts as hung.
    heartbeat_timeout_s: float = 10.0
    #: How many worker incarnations one task tag may kill before the
    #: task is declared poison and the slot degrades.
    poison_threshold: int = 2
    #: How long the engine waits on a ring before running its passive
    #: supervision checks (liveness, heartbeat age).  Small enough that
    #: a crash is noticed promptly; large enough to stay off the CPU.
    supervise_interval_s: float = 0.05
    #: Backoff between worker restarts — reuses the PR 1 retry policy
    #: (deterministic jitter, capped exponential).
    restart_backoff: RetryPolicy = field(
        default_factory=lambda: RetryPolicy(max_attempts=3, base_delay_s=0.01)
    )
    #: Byte capacity of each task/result ring.
    ring_capacity_bytes: int = 1 << 20
    #: ``multiprocessing`` start method; ``None`` picks ``fork`` where
    #: available (cheap, inherits the warmed interpreter) and ``spawn``
    #: elsewhere.  The RPR110 lint rule keeps the worker entry points
    #: spawn-safe either way.
    start_method: str | None = None

    def __post_init__(self) -> None:
        if self.max_restarts < 0:
            raise ValueError("max_restarts must be >= 0")
        if self.heartbeat_timeout_s <= 0:
            raise ValueError("heartbeat_timeout_s must be > 0")
        if self.poison_threshold < 1:
            raise ValueError("poison_threshold must be >= 1")
        if self.ring_capacity_bytes < 4096:
            raise ValueError("ring_capacity_bytes must be >= 4096")
        if self.start_method not in (None, "fork", "spawn", "forkserver"):
            raise ValueError(f"unknown start method {self.start_method!r}")


@dataclass
class WorkerFailure:
    """One detected worker failure, for the build report."""

    worker: str          # slot key, e.g. "cpu-0", "parser-1"
    kind: str            # "crash" | "stall"
    incarnation: int
    detail: str = ""
    task_tag: str | None = None
    action: str = ""     # "restart" | "degrade" | "poison"


@dataclass
class SupervisorReport:
    """What supervision did during one build (returned on EngineResult)."""

    workers: int = 0
    restarts: int = 0
    requeued: int = 0
    heartbeat_misses: int = 0
    degraded: int = 0
    poisoned: int = 0
    failures: list[WorkerFailure] = field(default_factory=list)
    degraded_slots: list[str] = field(default_factory=list)
    poisoned_tasks: list[str] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.failures


class Supervisor:
    """Policy decisions + counters for one build's worker fleet.

    Engine-thread only: the multiprocess backend supervises *passively*,
    running these checks inside its blocking ring waits, so there is no
    monitor thread and no cross-thread state to lock.
    """

    def __init__(self, policy: SupervisorPolicy) -> None:
        self.policy = policy
        self.report = SupervisorReport()
        self._restarts_by_worker: dict[str, int] = {}
        self._task_crashes: dict[str, int] = {}

    # -- decisions ------------------------------------------------------ #

    def allow_restart(self, worker: str) -> bool:
        return self._restarts_by_worker.get(worker, 0) < self.policy.max_restarts

    def restart_delay_s(self, worker: str) -> float:
        """Deterministic backoff before the next restart of ``worker``.

        Seeded from (worker, restart ordinal), never the wall clock, so a
        rerun of the same fault plan paces restarts identically.
        """
        nth = self._restarts_by_worker.get(worker, 0)
        rng = random.Random(zlib.crc32(worker.encode("utf-8")) ^ nth)
        return self.policy.restart_backoff.delay_for(nth + 1, rng)

    def note_task_crash(self, task_tag: str) -> bool:
        """Record that ``task_tag`` was in flight when a worker died.

        Returns ``True`` once the tag crosses the poison threshold.
        """
        n = self._task_crashes.get(task_tag, 0) + 1
        self._task_crashes[task_tag] = n
        return n >= self.policy.poison_threshold

    # -- event recording ------------------------------------------------ #

    def _instant(self, name: str, **tags: object) -> None:
        t = obs.current()
        if t is not None:
            t.tracer.instant(name, cat="supervisor", **tags)

    def record_failure(self, failure: WorkerFailure) -> None:
        self.report.failures.append(failure)
        if failure.kind == "stall":
            self.report.heartbeat_misses += 1
            obs.count("supervisor.heartbeat_misses")
        self._instant(
            f"supervisor.{failure.kind}",
            worker=failure.worker,
            incarnation=failure.incarnation,
            action=failure.action,
        )

    def record_restart(self, worker: str, requeued: int) -> None:
        self._restarts_by_worker[worker] = self._restarts_by_worker.get(worker, 0) + 1
        self.report.restarts += 1
        self.report.requeued += requeued
        obs.count("supervisor.restarts")
        if requeued:
            obs.count("supervisor.requeued", requeued)
        self._instant("supervisor.restart", worker=worker, requeued=requeued)

    def record_degraded(self, worker: str, requeued: int = 0) -> None:
        self.report.degraded += 1
        self.report.requeued += requeued
        self.report.degraded_slots.append(worker)
        obs.count("supervisor.degraded")
        if requeued:
            obs.count("supervisor.requeued", requeued)
        self._instant("supervisor.degraded", worker=worker)

    def record_poisoned(self, task_tag: str) -> None:
        self.report.poisoned += 1
        self.report.poisoned_tasks.append(task_tag)
        obs.count("supervisor.poisoned")
        self._instant("supervisor.poison", task=task_tag)
