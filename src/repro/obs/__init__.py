"""Observability for the indexing engine: spans, metrics, artifacts.

The paper's evaluation is a story about *where time goes* — stage
overlap (Fig 9/10), per-trie-collection skew (Section III.E), the
CPU/GPU work split (Table V).  This package makes those stories visible
on the functional build:

- :mod:`repro.obs.trace` — a low-overhead span tracer with nested spans
  per pipeline stage, one lane per worker, exportable as Chrome
  trace-event JSON (open in Perfetto or ``chrome://tracing``);
- :mod:`repro.obs.metrics` — a registry of counters, gauges, and
  fixed-bucket histograms whose values are **seed-deterministic**
  (wall-clock measurements are quarantined in a separate ``timings``
  section, so two identical seeded builds produce identical metrics);
- :mod:`repro.obs.schema` — the ``run.metrics.json`` artifact format and
  its validator (no external jsonschema dependency);
- :mod:`repro.obs.profile` + :mod:`repro.obs.profile_schema` — a
  cross-process sampling profiler (``build --profile``) whose merged
  view lands in ``run.profile.json``, with a folded-stack export;
- :mod:`repro.obs.runtime` — process-wide installation, mirroring
  :mod:`repro.robustness.faults`, so deep layers (checkpointing, retry)
  can emit counters without threading a registry through every call;
- :mod:`repro.obs.stats` — ``repro explain``: one report over a
  build's trace, metrics and profile, and one diff engine for two
  builds.

Instrumentation is **on by default** (``PlatformConfig.telemetry``) and
collapses to near-no-ops when disabled: the null tracer hands out one
shared reusable context manager and the null registry's instruments
discard writes.

This package is stdlib-only and engine-free: importing it never pulls in
the engine, so ``repro.lint`` and the CLI's lazy import discipline are
preserved.
"""

from __future__ import annotations

from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry, NullRegistry
from repro.obs.profile import Profile, SamplingProfiler, to_folded
from repro.obs.profile_schema import (
    PROFILE_FILENAME,
    PROFILE_SCHEMA_VERSION,
    load_profile,
    validate_profile,
    write_profile,
)
from repro.obs.runtime import Telemetry, current, install, session, uninstall
from repro.obs.schema import (
    METRICS_FILENAME,
    METRICS_SCHEMA,
    TRACE_FILENAME,
    load_metrics,
    validate_metrics,
    write_metrics,
)
from repro.obs.trace import NullTracer, Span, Tracer, load_chrome_trace

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullRegistry",
    "NullTracer",
    "Span",
    "Telemetry",
    "Tracer",
    "Profile",
    "SamplingProfiler",
    "METRICS_FILENAME",
    "METRICS_SCHEMA",
    "PROFILE_FILENAME",
    "PROFILE_SCHEMA_VERSION",
    "TRACE_FILENAME",
    "current",
    "install",
    "load_chrome_trace",
    "load_metrics",
    "load_profile",
    "session",
    "to_folded",
    "uninstall",
    "validate_metrics",
    "validate_profile",
    "write_metrics",
    "write_profile",
]
