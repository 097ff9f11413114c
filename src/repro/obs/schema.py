"""The ``run.metrics.json`` artifact: format, writer, validator.

Every telemetry-enabled build writes one ``run.metrics.json`` next to
``build.manifest``.  The payload has five top-level sections:

``schema``
    The literal string ``"repro.run.metrics/1"``.  Bump the suffix on
    incompatible changes; readers reject unknown majors.
``meta``
    Provenance: collection name, config description, engine version.
    Informational — excluded from determinism comparisons (it may carry
    host-specific paths in the future).
``counters`` / ``gauges`` / ``histograms``
    The registry's deterministic contents (see :mod:`repro.obs.metrics`).
    Identical seeded builds must produce identical values here — the
    determinism test enforces it.
``timings``
    Wall-clock measurements (stopwatch buckets, wall/cpu seconds).  The
    *only* section allowed to differ between identical seeded builds.

Validation is hand-rolled (the container has no jsonschema): the
:data:`METRICS_SCHEMA` table drives the structural checks shared with
the other artifacts (:mod:`repro.obs.artifact`) and
:func:`validate_metrics` returns a list of human-readable problems —
empty means valid.  ``repro verify`` and CI fail on a non-empty list.
"""

from __future__ import annotations

from typing import Any, Mapping

from repro.obs.artifact import (
    is_number,
    load_artifact,
    validate_artifact,
    write_artifact,
)

__all__ = [
    "METRICS_FILENAME",
    "TRACE_FILENAME",
    "METRICS_SCHEMA_VERSION",
    "METRICS_SCHEMA",
    "build_payload",
    "validate_metrics",
    "write_metrics",
    "load_metrics",
]

METRICS_FILENAME = "run.metrics.json"
TRACE_FILENAME = "trace.json"
METRICS_SCHEMA_VERSION = "repro.run.metrics/1"

#: Top-level sections: name → (required, expected container type).
METRICS_SCHEMA: dict[str, tuple[bool, type]] = {
    "schema": (True, str),
    "meta": (False, dict),
    "counters": (True, dict),
    "gauges": (True, dict),
    "histograms": (True, dict),
    "timings": (True, dict),
}

def build_payload(
    snapshot: Mapping[str, dict[str, Any]],
    timings: Mapping[str, float],
    meta: Mapping[str, Any] | None = None,
) -> dict[str, Any]:
    """Assemble a schema-conformant payload from a registry snapshot."""
    return {
        "schema": METRICS_SCHEMA_VERSION,
        "meta": dict(meta) if meta else {},
        "counters": dict(snapshot.get("counters", {})),
        "gauges": dict(snapshot.get("gauges", {})),
        "histograms": {
            name: dict(h) for name, h in snapshot.get("histograms", {}).items()
        },
        "timings": {name: float(v) for name, v in sorted(timings.items())},
    }


def _check_metrics(payload: dict[str, Any], problems: list[str]) -> None:
    """Metric values are numbers; histogram buckets and counts add up."""
    for section in ("counters", "gauges", "timings"):
        for name, value in payload[section].items():
            if not isinstance(name, str):
                problems.append(f"{section}: non-string metric name {name!r}")
            if not is_number(value):
                problems.append(
                    f"{section}.{name}: value {value!r} is not a number"
                )
            elif section == "counters" and value < 0:
                problems.append(f"counters.{name}: negative counter {value!r}")

    for name, hist in payload["histograms"].items():
        where = f"histograms.{name}"
        if not isinstance(hist, dict):
            problems.append(f"{where}: not an object")
            continue
        missing = {"buckets", "counts", "count", "sum"} - set(hist)
        if missing:
            problems.append(f"{where}: missing key(s) {sorted(missing)}")
            continue
        buckets, counts = hist["buckets"], hist["counts"]
        if not isinstance(buckets, list) or not all(map(is_number, buckets)):
            problems.append(f"{where}: buckets must be a list of numbers")
            continue
        if sorted(buckets) != buckets or len(set(buckets)) != len(buckets):
            problems.append(f"{where}: buckets must be strictly increasing")
        if not isinstance(counts, list) or not all(
            isinstance(c, int) and not isinstance(c, bool) and c >= 0 for c in counts
        ):
            problems.append(f"{where}: counts must be non-negative integers")
            continue
        if len(counts) != len(buckets) + 1:
            problems.append(
                f"{where}: {len(counts)} count slot(s) for {len(buckets)} "
                "bucket(s); expected len(buckets) + 1"
            )
        if sum(counts) != hist["count"]:
            problems.append(
                f"{where}: count {hist['count']} != sum of bucket counts {sum(counts)}"
            )


def validate_metrics(payload: Any) -> list[str]:
    """Structural validation; returns problems (empty list = valid)."""
    return validate_artifact(
        payload, METRICS_SCHEMA, METRICS_SCHEMA_VERSION, _check_metrics
    )


def write_metrics(path: str, payload: Mapping[str, Any]) -> str:
    """Validate and write a metrics payload; returns ``path``."""
    return write_artifact(path, payload, validate_metrics)


def load_metrics(path: str) -> dict[str, Any]:
    """Load and validate a ``run.metrics.json``; raises on problems."""
    return load_artifact(path, validate_metrics)
