"""RPR008 fixture: benchmark-style timeit clocks outside the fence.

Models the clock misuse a ``benchmarks/bench_*.py`` script would commit:
timing must flow through ``repro.util.timing`` (now / Timer / Stopwatch),
not a private ``timeit.default_timer`` read.
"""

import timeit

from timeit import default_timer  # noqa: F401


def measure():
    """Direct bench-clock call."""
    start = timeit.default_timer()
    return timeit.default_timer() - start


def injected(clock=timeit.default_timer):
    """Passing the timer as a callable is dependency injection — ok."""
    return clock


def quiet():
    """Same violation, suppressed."""
    return timeit.default_timer()  # repro-lint: disable=RPR008 - fixture: suppression check
