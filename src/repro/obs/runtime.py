"""Process-wide telemetry installation (mirrors ``robustness.faults``).

The deep layers that emit telemetry — checkpoint writes, the retry
wrapper, the fault injector's victims — sit far below the engine and
have no natural parameter to thread a registry through.  Like the fault
injector, telemetry is therefore *installed*: the engine (or a test)
makes a :class:`Telemetry` current for the duration of a build, and any
module can cheaply ask for it::

    from repro.obs import runtime

    runtime.count("robustness.checkpoint_saves")   # no-op when nothing
                                                   # is installed

The module-level helpers (:func:`count`, :func:`observe`) are written so
the uninstrumented path is one global read and one ``is None`` test.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator

from repro.obs.metrics import MetricsRegistry, NullRegistry
from repro.obs.profile import Profile
from repro.obs.trace import NullTracer, Tracer

__all__ = [
    "Telemetry",
    "install",
    "uninstall",
    "current",
    "session",
    "count",
    "observe",
    "tracer",
    "metrics",
]


@dataclass
class Telemetry:
    """One build's tracer + metrics registry (+ optional merged
    profile), as a unit."""

    tracer: Tracer
    metrics: MetricsRegistry
    #: Merge target for sampling-profiler deltas when the build runs
    #: with ``--profile``; ``None`` (the default) means not profiling.
    #: Orthogonal to ``enabled``: a profiled build with telemetry off
    #: still collects samples.
    profile: Profile | None = None

    @property
    def enabled(self) -> bool:
        return self.tracer.enabled

    @classmethod
    def create(cls, enabled: bool = True) -> "Telemetry":
        """An armed bundle, or the near-free disabled variant."""
        if enabled:
            return cls(tracer=Tracer(), metrics=MetricsRegistry())
        return cls(tracer=NullTracer(), metrics=NullRegistry())


_current: Telemetry | None = None


def install(telemetry: Telemetry) -> Telemetry:
    """Make ``telemetry`` the process-wide current bundle."""
    global _current
    _current = telemetry
    return telemetry


def uninstall() -> None:
    """Remove the current bundle (deep-layer emissions become no-ops)."""
    global _current
    _current = None


def current() -> Telemetry | None:
    """The installed bundle, or ``None`` (the common, zero-cost case)."""
    return _current


@contextmanager
def session(telemetry: Telemetry) -> Iterator[Telemetry]:
    """Install for a scope, restoring whatever was current before."""
    previous = current()
    install(telemetry)
    try:
        yield telemetry
    finally:
        if previous is None:
            uninstall()
        else:
            install(previous)


#: Shared disabled bundle: lets call sites instrument unconditionally
#: (``obs.tracer().span(...)``) and still be near-free outside a build.
_null = Telemetry(tracer=NullTracer(), metrics=NullRegistry())


def tracer() -> Tracer:
    """The current tracer, or a shared :class:`NullTracer`."""
    t = _current
    return t.tracer if t is not None else _null.tracer


def metrics() -> MetricsRegistry:
    """The current registry, or a shared :class:`NullRegistry`."""
    t = _current
    return t.metrics if t is not None else _null.metrics


def count(name: str, amount: int | float = 1) -> None:
    """Increment a counter on the current registry, if any is installed."""
    t = _current
    if t is not None:
        t.metrics.count(name, amount)


def observe(name: str, value: int | float) -> None:
    """Observe into a default-bucket histogram on the current registry."""
    t = _current
    if t is not None:
        t.metrics.observe(name, value)
