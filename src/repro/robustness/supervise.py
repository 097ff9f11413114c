"""Worker supervision for the multiprocess execution backend.

:mod:`repro.core.mp_backend` owns the *mechanism* — the parse-ahead
worker process, its executor, resubmission.  This module owns the
*policy* and the *bookkeeping*: how many restarts the worker gets, when
a file counts as poison, and what the build reports about all of it.

Failure taxonomy (docs/ROBUSTNESS.md, "Process supervision"):

``crash``
    The worker process exited — nonzero exit code, ``SIGKILL``, OOM.
    The executor reports it itself: every result the worker still owed
    raises ``BrokenProcessPool``.
``stall``
    The result of the file the engine is waiting for has not arrived
    ``heartbeat_timeout_s`` after the wait *began*.  The backend kills
    the worker and treats it like a crash.  A slow-but-alive worker can
    be misjudged; that costs a restart (parallelism), never bytes — the
    worker owns no durable output.
``poison``
    The same file was in flight for ``poison_threshold`` worker deaths.
    Handing it to a worker again would loop forever, so the engine
    parses it inline.

Recovery ladder, in order:

1. **Restart + resubmit** — up to ``max_restarts``, paced by the PR 1
   retry/backoff policy: a fresh executor, every file still owed
   submitted again in file order.  Side effects stay at-most-once
   because all durable writes (run files, manifest, checkpoint) happen
   on the engine, never in the worker.
2. **Degrade** — restart budget exhausted: the slot leaves the process
   model and every remaining file is parsed inline on the engine thread
   (the serial execution path).  The build completes, byte-identical;
   only wall-clock parallelism is lost.

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
from repro.robustness.faults import WORKER_SLOT
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

    #: Restarts allowed before the worker slot degrades to inline
    #: execution.
    max_restarts: int = 2
    #: How long the engine waits for one file's result before the worker
    #: counts as hung (measured from when the wait began).
    heartbeat_timeout_s: float = 10.0
    #: How many worker incarnations one file may kill before it is
    #: declared poison and parsed inline.
    poison_threshold: int = 2
    #: Backoff between worker restarts — reuses the PR 1 retry policy
    #: (deterministic jitter, capped exponential).
    restart_backoff: RetryPolicy = field(
        default_factory=lambda: RetryPolicy(max_attempts=3, base_delay_s=0.01)
    )
    #: Not read by any build: the frozen benchmark harness sizes its
    #: ``ShmRing`` drive from it (ROADMAP item 1(b) deletes both).
    ring_capacity_bytes: int = 1 << 20

    def __post_init__(self) -> None:
        if self.max_restarts < 0:
            raise ValueError("max_restarts must be >= 0")
        if self.heartbeat_timeout_s <= 0:
            raise ValueError("heartbeat_timeout_s must be > 0")
        if self.poison_threshold < 1:
            raise ValueError("poison_threshold must be >= 1")
        if self.ring_capacity_bytes < 4096:
            raise ValueError("ring_capacity_bytes must be >= 4096")


@dataclass
class WorkerFailure:
    """One detected worker failure, for the build report."""

    worker: str          # slot key ("parser-0")
    kind: str            # "crash" | "stall"
    incarnation: int
    detail: str = ""
    task_tag: str | None = None
    action: str = ""     # "restart" | "degrade"


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
    """Policy decisions + counters for one build's worker slot.

    Engine-thread only: the multiprocess backend supervises *passively*,
    from inside its wait for the next parsed file, so there is no
    monitor thread and no cross-thread state to lock.  There is one slot
    (:data:`~repro.robustness.faults.WORKER_SLOT`), so ``report.restarts``
    is its restart count.
    """

    def __init__(self, policy: SupervisorPolicy) -> None:
        self.policy = policy
        self.report = SupervisorReport()
        self._task_crashes: dict[str, int] = {}

    # -- decisions ------------------------------------------------------ #

    def allow_restart(self) -> bool:
        return self.report.restarts < self.policy.max_restarts

    def restart_delay_s(self) -> float:
        """Deterministic backoff before the worker's next restart.

        Seeded from (slot key, restart ordinal), never the wall clock, so
        a rerun of the same fault plan paces restarts identically.
        """
        nth = self.report.restarts
        rng = random.Random(zlib.crc32(WORKER_SLOT.encode("utf-8")) ^ nth)
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

    def record_restart(self, requeued: int) -> None:
        self.report.restarts += 1
        self.report.requeued += requeued
        obs.count("supervisor.restarts")
        if requeued:
            obs.count("supervisor.requeued", requeued)
        self._instant("supervisor.restart", worker=WORKER_SLOT, requeued=requeued)

    def record_degraded(self, requeued: int = 0) -> None:
        self.report.degraded += 1
        self.report.requeued += requeued
        self.report.degraded_slots.append(WORKER_SLOT)
        obs.count("supervisor.degraded")
        if requeued:
            obs.count("supervisor.requeued", requeued)
        self._instant("supervisor.degraded", worker=WORKER_SLOT)

    def record_poisoned(self, task_tag: str) -> None:
        self.report.poisoned += 1
        self.report.poisoned_tasks.append(task_tag)
        obs.count("supervisor.poisoned")
        self._instant("supervisor.poison", task=task_tag)
