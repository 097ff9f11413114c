"""The ``run.critpath.json`` artifact: format, writer, validator.

``repro critpath`` distills a build's span trace and metrics into one
causal verdict — *which resource bounds wall-clock, and what buying it
down would be worth* — and persists it next to the other observability
artifacts (docs/OBSERVABILITY.md, "Critical-path analysis").  Sections:

``schema``
    The literal string ``"repro.run.critpath/1"``.  Bump the suffix on
    incompatible changes; readers reject unknown majors.
``meta``
    Free-form provenance (collection, config description, source
    artifact paths).  Informational only.
``backend``
    Which execution backend the analyzed build ran under (``serial`` /
    ``multiprocess``) — blame semantics depend on it.
``wall_seconds`` / ``path_seconds`` / ``coverage``
    The build's wall clock, the critical-path length, and their ratio.
    The engine thread collects every file in order, so the path tracks
    the wall closely; ``coverage`` far from 1.0 means the trace was
    truncated or foreign.
``blame``
    Resource → seconds decomposition of the critical path.  Resources
    are the closed vocabulary :data:`CRITPATH_RESOURCES`; the values
    must sum to ``path_seconds`` (the validator enforces it), which is
    what makes "ring-wait is 40% of this build" a checkable claim.
``edges``
    The path itself: ordered causal edges with their interval, owning
    lane, resource and a human-readable detail — enough to re-project
    the path onto the Chrome trace as a highlighted lane.
``lanes``
    Per-lane busy seconds (interval union of that lane's compute
    spans).  The what-if projector uses them as a floor: zeroing a
    wait cannot make the build faster than its busiest worker.
``projections``
    Ranked what-if predictions: scale factors per resource, the
    recomputed path length, and the implied speedup.

Validation is hand-rolled (no jsonschema in the container) on the
kernel in :mod:`repro.obs.artifact`: :func:`validate_critpath` returns a
list of human-readable problems — empty means valid.  ``repro
critpath`` refuses to write an invalid payload and CI fails on a
non-empty list.
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
    "CRITPATH_SCHEMA_VERSION",
    "CRITPATH_FILENAME",
    "CRITPATH_SCHEMA",
    "CRITPATH_RESOURCES",
    "validate_critpath",
    "write_critpath",
    "load_critpath",
]

CRITPATH_SCHEMA_VERSION = "repro.run.critpath/1"
CRITPATH_FILENAME = "run.critpath.json"

#: The closed blame vocabulary.  ``parse``/``index`` are compute the
#: engine was causally blocked on; ``ring-wait`` is the multiprocess
#: engine waiting on its parse worker with no worker compute running
#: (start-up, the parsed file crossing the process boundary; the name
#: dates from the ring transport); ``stall`` is the serial loop waiting
#: on its prefetch pool; ``supervisor`` is restart/replay recovery;
#: ``flush``/``merge`` are
#: the run-flush and dictionary epilogue; ``sampling`` the assignment
#: prepass; ``engine`` the coordinator's own bookkeeping (split,
#: record_file, uninstrumented gaps).
CRITPATH_RESOURCES = (
    "sampling",
    "parse",
    "index",
    "ring-wait",
    "stall",
    "supervisor",
    "flush",
    "merge",
    "engine",
)

#: Top-level sections: name → (required, expected container type).
CRITPATH_SCHEMA: dict[str, tuple[bool, type | tuple[type, ...]]] = {
    "schema": (True, str),
    "meta": (False, dict),
    "backend": (True, str),
    "wall_seconds": (True, (int, float)),
    "path_seconds": (True, (int, float)),
    "coverage": (True, (int, float)),
    "blame": (True, dict),
    "edges": (True, list),
    "lanes": (True, dict),
    "projections": (True, list),
}

#: Keys every edge entry must carry.
EDGE_KEYS = ("src", "dst", "start_s", "end_s", "seconds", "resource", "detail")

#: Sum-vs-path tolerance: float accumulation over thousands of edges.
_SUM_TOL = 1e-6


def _check_edges(edges: list, problems: list[str]) -> float:
    total = 0.0
    for i, edge in enumerate(edges):
        where = f"edges[{i}]"
        if not isinstance(edge, dict):
            problems.append(f"{where}: not an object")
            continue
        missing = [k for k in EDGE_KEYS if k not in edge]
        if missing:
            problems.append(f"{where}: missing key(s) {missing}")
            continue
        for key in ("src", "dst", "resource", "detail"):
            if not isinstance(edge[key], str):
                problems.append(f"{where}.{key}: {edge[key]!r} is not a string")
        for key in ("start_s", "end_s", "seconds"):
            if not is_number(edge[key]):
                problems.append(f"{where}.{key}: {edge[key]!r} is not a number")
        if is_number(edge["seconds"]):
            if edge["seconds"] < 0:
                problems.append(f"{where}: negative seconds {edge['seconds']!r}")
            else:
                total += edge["seconds"]
        if edge.get("resource") not in CRITPATH_RESOURCES:
            problems.append(
                f"{where}: unknown resource {edge.get('resource')!r} "
                f"(expected one of {', '.join(CRITPATH_RESOURCES)})"
            )
        if (
            is_number(edge["start_s"])
            and is_number(edge["end_s"])
            and edge["end_s"] < edge["start_s"]
        ):
            problems.append(f"{where}: end_s precedes start_s")
    return total


def _check_blame(
    blame: Mapping[str, Any], path_seconds: Any, problems: list[str]
) -> None:
    total = 0.0
    for resource, seconds in blame.items():
        if resource not in CRITPATH_RESOURCES:
            problems.append(
                f"blame: unknown resource {resource!r} "
                f"(expected one of {', '.join(CRITPATH_RESOURCES)})"
            )
        if not is_number(seconds) or seconds < 0:
            problems.append(
                f"blame[{resource!r}]: {seconds!r} is not a non-negative number"
            )
        else:
            total += seconds
    if is_number(path_seconds) and abs(total - path_seconds) > max(
        _SUM_TOL, _SUM_TOL * abs(path_seconds)
    ):
        problems.append(
            f"blame sums to {total!r} but path_seconds is {path_seconds!r} "
            "— the decomposition must cover the whole path"
        )


def _check_projections(projections: list, problems: list[str]) -> None:
    for i, proj in enumerate(projections):
        where = f"projections[{i}]"
        if not isinstance(proj, dict):
            problems.append(f"{where}: not an object")
            continue
        if not isinstance(proj.get("label"), str) or not proj.get("label"):
            problems.append(f"{where}: missing or empty 'label'")
        scales = proj.get("scales")
        if not isinstance(scales, dict):
            problems.append(f"{where}: 'scales' must be an object")
        else:
            for resource, factor in scales.items():
                if resource not in CRITPATH_RESOURCES:
                    problems.append(
                        f"{where}: scales has unknown resource {resource!r}"
                    )
                if not is_number(factor) or factor < 0:
                    problems.append(
                        f"{where}: scales[{resource!r}] {factor!r} "
                        "is not a non-negative number"
                    )
        for key in ("predicted_wall_s", "speedup"):
            if not is_number(proj.get(key)) or proj.get(key) < 0:
                problems.append(
                    f"{where}: {key} {proj.get(key)!r} is not a "
                    "non-negative number"
                )


def _check_critpath(payload: dict[str, Any], problems: list[str]) -> None:
    """Non-negative totals; edges and blame each sum to the path length."""
    for key in ("wall_seconds", "path_seconds", "coverage"):
        if payload[key] < 0:
            problems.append(f"{key} is negative")

    edge_total = _check_edges(payload["edges"], problems)
    _check_blame(payload["blame"], payload["path_seconds"], problems)
    if payload["edges"] and abs(edge_total - payload["path_seconds"]) > max(
        _SUM_TOL, _SUM_TOL * abs(payload["path_seconds"])
    ):
        problems.append(
            f"edges sum to {edge_total!r} but path_seconds is "
            f"{payload['path_seconds']!r}"
        )

    for lane, busy in payload["lanes"].items():
        if not isinstance(lane, str):
            problems.append(f"lanes: non-string lane name {lane!r}")
        if not is_number(busy) or busy < 0:
            problems.append(
                f"lanes[{lane!r}]: {busy!r} is not a non-negative number"
            )

    _check_projections(payload["projections"], problems)


def validate_critpath(payload: Any) -> list[str]:
    """Structural + semantic validation; returns problems (empty = valid)."""
    return validate_artifact(
        payload, CRITPATH_SCHEMA, CRITPATH_SCHEMA_VERSION, _check_critpath
    )


def write_critpath(path: str, payload: Mapping[str, Any]) -> str:
    """Validate and write a critpath payload; returns ``path``."""
    return write_artifact(path, payload, validate_critpath)


def load_critpath(path: str) -> dict[str, Any]:
    """Load and validate a ``repro.run.critpath`` file; raises on problems."""
    return load_artifact(path, validate_critpath)
