"""Low-level utilities shared across the reproduction.

This package deliberately contains only dependency-free helpers:

- :mod:`repro.util.rng` — deterministic RNG construction so every synthetic
  corpus and every simulation is reproducible from a single integer seed.
- :mod:`repro.util.timing` — wall-clock timers plus the simulated-time
  ``Stopwatch`` used by the engine's metrics.
- :mod:`repro.util.fmt` — human-readable size/throughput formatting used by
  the benchmark harnesses when printing paper-style tables.
"""

from repro.util.fmt import fmt_bytes, fmt_count, fmt_mbps, fmt_seconds, render_table
from repro.util.rng import derive_seed, make_rng
from repro.util.timing import Stopwatch, Timer

__all__ = [
    "Timer",
    "Stopwatch",
    "make_rng",
    "derive_seed",
    "fmt_bytes",
    "fmt_count",
    "fmt_mbps",
    "fmt_seconds",
    "render_table",
]
