"""The ``run.profile.json`` artifact: format, writer, validator.

A profiled build (``repro build --profile``) writes one
``run.profile.json`` next to ``build.manifest``, merging the sampling
profiles of the engine process *and* the parse worker process.  The payload
has five top-level sections:

``schema``
    The literal string ``"repro.run.profile/1"``.  Bump the suffix on
    incompatible changes; readers reject unknown majors.
``meta``
    Provenance: collection name, config description.  Informational.
``interval_s``
    The sampler tick in seconds.  One sample ≈ ``interval_s`` seconds
    of attributed time; every seconds figure a report prints is
    ``count * interval_s``.
``lanes``
    One entry per sampled lane (``engine``, ``parser-0`` …): the OS
    pids that contributed (more than
    one after a supervisor restart) and the lane's total sample count.
``stacks``
    The aggregated call stacks: ``{"lane", "frames", "count"}`` with
    ``frames`` root-first (the collapsed-stack order).  Within a lane
    the stack counts sum to the lane's ``samples``, which is what makes
    the folded export a loss-free re-rendering of this file.

Unlike ``run.metrics.json`` there is no deterministic section: *every*
value here is a wall-clock measurement by construction.  What identical
seeded builds share is structure — frame ids are
``path:function:first_lineno``, pure functions of the source tree —
which is exactly what :func:`validate_profile` pins and what the
determinism test compares (call-site sets, never counts).

Validation is hand-rolled (the container has no jsonschema) on the
kernel in :mod:`repro.obs.artifact`: :func:`validate_profile` returns a
list of human-readable problems — empty means valid.  ``repro explain``
and the CI profile smoke job fail on a non-empty list.
"""

from __future__ import annotations

from typing import Any, Mapping

from repro.obs.artifact import load_artifact, validate_artifact, write_artifact

__all__ = [
    "PROFILE_FILENAME",
    "PROFILE_SCHEMA_VERSION",
    "PROFILE_SCHEMA",
    "build_profile_payload",
    "validate_profile",
    "write_profile",
    "load_profile",
]

PROFILE_FILENAME = "run.profile.json"
PROFILE_SCHEMA_VERSION = "repro.run.profile/1"

#: Top-level sections: name → (required, expected type(s)).
PROFILE_SCHEMA: dict[str, tuple[bool, Any]] = {
    "schema": (True, str),
    "meta": (False, dict),
    "interval_s": (True, (int, float)),
    "lanes": (True, dict),
    "stacks": (True, list),
}


def _is_count(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def build_profile_payload(
    interval_s: float,
    lane_pids: Mapping[str, Any],
    lane_stacks: Mapping[str, Mapping[tuple, int]],
    meta: Mapping[str, Any] | None = None,
) -> dict[str, Any]:
    """Assemble a schema-conformant payload from merged sampler state.

    ``lane_pids`` maps lane → pid(s) (an int or an iterable of ints);
    ``lane_stacks`` maps lane → {frame tuple (root-first): sample count}.
    Stacks are emitted in sorted (lane, frames) order so two payloads
    with the same call-site sets diff cleanly.
    """
    lanes: dict[str, Any] = {}
    stacks: list[dict[str, Any]] = []
    for lane in sorted(lane_stacks):
        counts = lane_stacks[lane]
        pids = lane_pids.get(lane, ())
        if isinstance(pids, int):
            pids = (pids,)
        lanes[lane] = {
            "pids": sorted(set(int(p) for p in pids)),
            "samples": sum(counts.values()),
        }
        for frames in sorted(counts):
            stacks.append(
                {
                    "lane": lane,
                    "frames": [str(f) for f in frames],
                    "count": int(counts[frames]),
                }
            )
    return {
        "schema": PROFILE_SCHEMA_VERSION,
        "meta": dict(meta) if meta else {},
        "interval_s": float(interval_s),
        "lanes": lanes,
        "stacks": stacks,
    }


def _check_profile(payload: dict[str, Any], problems: list[str]) -> None:
    """Positive tick; well-formed lanes and stacks; per-lane stack sums."""
    if payload["interval_s"] <= 0:
        problems.append(f"interval_s: {payload['interval_s']!r} is not positive")

    lane_declared: dict[str, int] = {}
    for lane, entry in payload["lanes"].items():
        where = f"lanes[{lane!r}]"
        if not isinstance(lane, str) or not lane:
            problems.append(f"lanes: non-string or empty lane name {lane!r}")
        if not isinstance(entry, dict):
            problems.append(f"{where}: not an object")
            continue
        missing = {"pids", "samples"} - set(entry)
        if missing:
            problems.append(f"{where}: missing key(s) {sorted(missing)}")
            continue
        pids = entry["pids"]
        if (
            not isinstance(pids, list)
            or not pids
            or not all(_is_count(p) and p > 0 for p in pids)
        ):
            problems.append(
                f"{where}: pids must be a non-empty list of positive integers"
            )
        if not _is_count(entry["samples"]) or entry["samples"] < 0:
            problems.append(f"{where}: samples must be a non-negative integer")
        else:
            lane_declared[lane] = entry["samples"]

    lane_counted: dict[str, int] = {}
    seen: set[tuple[str, tuple]] = set()
    for i, entry in enumerate(payload["stacks"]):
        where = f"stacks[{i}]"
        if not isinstance(entry, dict):
            problems.append(f"{where}: not an object")
            continue
        missing = {"lane", "frames", "count"} - set(entry)
        if missing:
            problems.append(f"{where}: missing key(s) {sorted(missing)}")
            continue
        lane, frames, count = entry["lane"], entry["frames"], entry["count"]
        if not isinstance(lane, str) or lane not in payload["lanes"]:
            problems.append(f"{where}: lane {lane!r} not declared in 'lanes'")
            continue
        if (
            not isinstance(frames, list)
            or not frames
            or not all(isinstance(f, str) and f for f in frames)
        ):
            problems.append(
                f"{where}: frames must be a non-empty list of non-empty strings"
            )
            continue
        if not _is_count(count) or count < 1:
            problems.append(f"{where}: count must be a positive integer")
            continue
        key = (lane, tuple(frames))
        if key in seen:
            problems.append(
                f"{where}: duplicate stack for lane {lane!r} (must be aggregated)"
            )
        seen.add(key)
        lane_counted[lane] = lane_counted.get(lane, 0) + count

    for lane, declared in lane_declared.items():
        counted = lane_counted.get(lane, 0)
        if counted != declared:
            problems.append(
                f"lanes[{lane!r}]: declares {declared} sample(s) but its "
                f"stacks sum to {counted}"
            )


def validate_profile(payload: Any) -> list[str]:
    """Structural validation; returns problems (empty list = valid)."""
    return validate_artifact(
        payload, PROFILE_SCHEMA, PROFILE_SCHEMA_VERSION, _check_profile
    )


def write_profile(path: str, payload: Mapping[str, Any]) -> str:
    """Validate and write a profile payload; returns ``path``."""
    return write_artifact(path, payload, validate_profile)


def load_profile(path: str) -> dict[str, Any]:
    """Load and validate a ``run.profile.json``; raises on problems."""
    return load_artifact(path, validate_profile)
