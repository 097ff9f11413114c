"""What the ``run.metrics.json`` and ``run.profile.json`` validators share.

Each artifact is described by a section table (``name → (required,
expected type)``; a tuple of types means "a number") and a
``<family>/<n>`` schema string.  :func:`validate_artifact` checks those,
then hands a structurally sound payload to the artifact's own semantic
checks.  Hand-rolled because the container has no jsonschema.
"""

from __future__ import annotations

import json
from typing import Any, Callable, Mapping

__all__ = ["is_number", "validate_artifact", "write_artifact", "load_artifact"]

Validator = Callable[[Any], list[str]]


def is_number(value: Any) -> bool:
    """An int or float that is not a bool (JSON ``true`` is not 1)."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def validate_artifact(
    payload: Any,
    sections: Mapping[str, tuple[bool, Any]],
    version: str,
    check: Callable[[dict[str, Any], list[str]], None],
) -> list[str]:
    """Problems with ``payload``, structural ones first; empty means valid."""
    # ``check(payload, problems)`` runs only once every section has its type.
    if not isinstance(payload, dict):
        return [f"payload is {type(payload).__name__}, expected an object"]
    problems: list[str] = []
    for key, (required, expected) in sections.items():
        if key not in payload:
            if required:
                problems.append(f"missing required section {key!r}")
            continue
        got = payload[key]
        if isinstance(got, bool) or not isinstance(got, expected):
            want = "a number" if isinstance(expected, tuple) else expected.__name__
            problems.append(f"section {key!r} is {type(got).__name__}, expected {want}")
    problems.extend(f"unknown section {k!r}" for k in payload if k not in sections)
    if problems:
        return problems

    schema, family = payload["schema"], version.rsplit("/", 1)[0]
    if schema.rsplit("/", 1)[0] != family:
        problems.append(f"schema {schema!r} is not a {family} payload")
    elif schema != version:
        problems.append(f"schema version {schema!r} != supported {version!r}")
    check(payload, problems)
    return problems


def write_artifact(path: str, payload: Mapping[str, Any], validate: Validator) -> str:
    """Validate ``payload``, then write it to ``path``; returns ``path``."""
    # An invalid payload is a programming error: fail loudly, never persist a lie.
    problems = validate(payload)
    if problems:
        raise ValueError(
            f"refusing to write invalid payload to {path}: {'; '.join(problems)}"
        )
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def load_artifact(path: str, validate: Validator) -> dict[str, Any]:
    """Load a JSON artifact and validate it; raises ``ValueError`` on problems."""
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    problems = validate(payload)
    if problems:
        raise ValueError(f"{path}: {'; '.join(problems)}")
    return payload
