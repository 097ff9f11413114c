"""Where a build's time went: the ``repro explain`` report and its diff.

Pure functions from telemetry artifacts to numbers and ASCII renderings:

- :func:`spans_from_chrome` — rebuild :class:`~repro.obs.trace.Span`
  records from an exported Chrome trace (the on-disk form);
- :func:`span_coverage` — fraction of the root span's wall time covered
  by instrumented child spans (the acceptance gate: ≥ 95%);
- :func:`lane_utilization` / :func:`stage_totals` — the per-worker and
  per-stage aggregates behind the utilization chart;
- :func:`engine_blame` — where the engine lane's wall went, per
  resource (the engine lane is the build's critical path);
- :func:`render_trace_summary`, :func:`render_metrics_summary` and
  :func:`render_profile_summary` — one view per artifact, using
  :mod:`repro.util.ascii_chart` for the bars;
- :func:`load_build_artifacts` / :func:`render_explain` — the
  ``repro explain`` report over one index directory;
- :func:`diff_table` / :func:`render_explain_diff` — ``repro explain
  --diff``: one diff engine over ``{name: number}`` tables (metrics
  timings, counters, gauges; profile lane and per-frame self seconds).
"""

from __future__ import annotations

import os
from typing import Any, Callable, Iterable, Mapping

from repro.obs.profile import cumulative_seconds, self_seconds
from repro.obs.profile_schema import PROFILE_FILENAME, load_profile
from repro.obs.schema import METRICS_FILENAME, TRACE_FILENAME, load_metrics
from repro.obs.trace import Span, load_chrome_trace
from repro.util.ascii_chart import bar_chart

__all__ = [
    "ROOT_SPAN",
    "spans_from_chrome",
    "interval_union_s",
    "span_coverage",
    "lane_utilization",
    "engine_blame",
    "stage_totals",
    "render_trace_summary",
    "render_metrics_summary",
    "render_profile_summary",
    "load_build_artifacts",
    "render_explain",
    "diff_table",
    "render_explain_diff",
]


def spans_from_chrome(events: Iterable[Mapping[str, Any]]) -> list[Span]:
    """Complete ("X") events back into :class:`Span` records.

    Lane names come from the ``thread_name`` metadata events the
    exporter always writes; an unlabelled tid falls back to ``tid-N``.
    Nesting depth/parent are not persisted in the Chrome format and are
    reconstructed as 0/None — the summaries here only need intervals.
    """
    events = list(events)
    lane_names: dict[int, str] = {}
    for ev in events:
        if ev.get("ph") == "M" and ev.get("name") == "thread_name":
            lane_names[ev.get("tid", 0)] = ev.get("args", {}).get("name", "")
    spans: list[Span] = []
    for ev in events:
        if ev.get("ph") != "X":
            continue
        tid = ev.get("tid", 0)
        start = ev["ts"] / 1e6
        spans.append(
            Span(
                name=ev["name"],
                cat=ev.get("cat", ""),
                lane=lane_names.get(tid) or f"tid-{tid}",
                start_s=start,
                end_s=start + ev["dur"] / 1e6,
                depth=0,
                parent=None,
                args=dict(ev.get("args", {})),
            )
        )
    spans.sort(key=lambda s: (s.start_s, s.end_s))
    return spans


def interval_union_s(intervals: Iterable[tuple[float, float]]) -> float:
    """Total length of the union of ``(start, end)`` intervals."""
    merged = 0.0
    cur_start: float | None = None
    cur_end = 0.0
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if cur_start is None or start > cur_end:
            if cur_start is not None:
                merged += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_start is not None:
        merged += cur_end - cur_start
    return merged


#: The engine's root span: every build's trace has exactly one.
ROOT_SPAN = "build"


def _root(spans: list[Span], root_name: str) -> Span | None:
    candidates = [s for s in spans if s.name == root_name]
    if not candidates:
        return None
    return max(candidates, key=lambda s: s.duration_s)


def span_coverage(spans: list[Span], root_name: str = ROOT_SPAN) -> float:
    """Fraction of the root span's duration covered by other spans.

    The union of every non-root span interval, clipped to the root span,
    over the root's duration.  This is the number the acceptance
    criterion bounds (≥ 0.95): time inside the build that no span
    accounts for is invisible to triage.
    """
    root = _root(spans, root_name)
    if root is None or root.duration_s <= 0:
        return 0.0
    clipped = [
        (max(s.start_s, root.start_s), min(s.end_s, root.end_s))
        for s in spans
        if s is not root
    ]
    return min(1.0, interval_union_s(clipped) / root.duration_s)


def lane_utilization(
    spans: list[Span], root_name: str = ROOT_SPAN
) -> dict[str, float]:
    """Per-lane busy fraction of the root span's wall time."""
    root = _root(spans, root_name)
    if root is None or root.duration_s <= 0:
        return {}
    lanes: dict[str, list[tuple[float, float]]] = {}
    for s in spans:
        if s is root:
            continue
        lanes.setdefault(s.lane, []).append(
            (max(s.start_s, root.start_s), min(s.end_s, root.end_s))
        )
    return {
        lane: interval_union_s(iv) / root.duration_s
        for lane, iv in sorted(lanes.items())
    }


#: The engine lane's chain spans and the resource each is filed under.
#: ``parse.wait`` (``None``) is split by :func:`engine_blame`; any other
#: engine-lane span (``build``, ``run_loop``, …) is a container.
_CHAIN_RESOURCE: dict[str, str | None] = {
    "sampling": "sampling",
    "parse": "parse",
    "parse.wait": None,
    "index": "index",
    "write_run": "flush",
    "checkpoint": "flush",
    "dict.combine": "merge",
    "dict.write": "merge",
    "simulate": "engine",
}

#: Blame pieces shorter than this are float noise (traces are in µs).
_NOISE_S = 1e-9


def engine_blame(spans: list[Span]) -> dict[str, float]:
    """Seconds of the root span's wall per resource, heaviest first.

    The engine thread collects and indexes every file in file order, so
    its lane is the build's critical path.  Each chain span on it is
    filed under its resource (:data:`_CHAIN_RESOURCE`); time between
    chain spans is ``engine``.  A ``parse.wait`` is split in priority
    order: overlap with a ``supervisor.recover`` span is ``supervisor``;
    overlap with the parse worker's ``parse_file`` is ``parse``; the
    rest is ``transport`` (worker start-up, the parsed file crossing the
    process boundary).
    """
    root = _root(spans, ROOT_SPAN)
    if root is None:
        return {}
    recover = [(s.start_s, s.end_s) for s in spans
               if s.name == "supervisor.recover"]
    busy = recover + [(s.start_s, s.end_s) for s in spans
                      if s.name == "parse_file" and s.lane != root.lane]
    chain = sorted(
        (s for s in spans if s.lane == root.lane and s.name in _CHAIN_RESOURCE),
        key=lambda s: (s.start_s, s.end_s),
    )
    blame: dict[str, float] = {}

    def add(resource: str, seconds: float) -> None:
        if seconds > _NOISE_S:
            blame[resource] = blame.get(resource, 0.0) + seconds

    def overlap(intervals: list[tuple[float, float]], start: float,
                end: float) -> float:
        return interval_union_s((max(a, start), min(b, end)) for a, b in intervals)

    cursor = root.start_s
    for span in chain:
        start = max(span.start_s, cursor)
        if start >= span.end_s:
            continue  # shadowed by an earlier chain span
        add("engine", start - cursor)
        resource = _CHAIN_RESOURCE[span.name]
        if resource is None:
            held = overlap(recover, start, span.end_s)
            waited = overlap(busy, start, span.end_s)
            add("supervisor", held)
            add("parse", waited - held)
            add("transport", span.end_s - start - waited)
        else:
            add(resource, span.end_s - start)
        cursor = span.end_s
    add("engine", root.end_s - cursor)
    return dict(sorted(blame.items(), key=lambda kv: (-kv[1], kv[0])))


def stage_totals(spans: list[Span]) -> dict[str, tuple[int, float]]:
    """Per span-name ``(count, total seconds)``, busiest first."""
    totals: dict[str, tuple[int, float]] = {}
    for s in spans:
        count, seconds = totals.get(s.name, (0, 0.0))
        totals[s.name] = (count + 1, seconds + s.duration_s)
    return dict(
        sorted(totals.items(), key=lambda kv: kv[1][1], reverse=True)
    )


def render_trace_summary(spans: list[Span]) -> str:
    """The trace view of ``repro explain``: the root span, where the
    engine's wall went (with the parse-side and indexer shares), the
    lane chart and the stage totals."""
    if not spans:
        return "(empty trace)"
    root = _root(spans, ROOT_SPAN)
    lines: list[str] = []
    if root is not None:
        lines.append(
            f"root span {root.name!r}: {root.duration_s:.3f}s wall, "
            f"{len(spans)} span(s), "
            f"coverage {span_coverage(spans) * 100:.1f}%"
        )
    else:
        lines.append(f"(no {ROOT_SPAN!r} root span; {len(spans)} span(s))")

    blame = engine_blame(spans)
    if root is not None and root.duration_s > 0 and blame:
        wall = root.duration_s
        lines.append("")
        lines.append(f"where the engine's wall went ({wall:.6f}s):")
        for resource, seconds in blame.items():
            lines.append(f"  {resource:<10} {seconds:10.6f}s  "
                         f"{seconds / wall * 100:5.1f}%")
        parse = [r for r in ("parse", "transport") if r in blame]
        parse_s = sum(blame[r] for r in parse)
        lines.append(
            f"  the engine spent {parse_s / wall * 100:.1f}% of the build "
            f"wall on the parse side ({' + '.join(parse) or 'none'}) and "
            f"{blame.get('index', 0.0) / wall * 100:.1f}% in the indexers "
            "(index)"
        )

    util = lane_utilization(spans)
    if util:
        lines.append("")
        lines.append("lane utilization (% of build wall time):")
        lines.append(bar_chart({k: v * 100 for k, v in util.items()}, unit="%"))

    lines.append("")
    lines.append("stage totals:")
    totals = stage_totals(spans)
    name_w = max(len(n) for n in totals)
    for name, (count, seconds) in totals.items():
        lines.append(f"  {name.ljust(name_w)}  {count:6d} span(s)  {seconds:10.4f}s")
    return "\n".join(lines)


# ---------------------------------------------------------------------- #
# Metrics rendering
# ---------------------------------------------------------------------- #


def render_metrics_summary(payload: Mapping[str, Any]) -> str:
    """Human-readable dump of one ``run.metrics.json`` payload."""
    lines: list[str] = [f"schema: {payload.get('schema')}"]
    meta = payload.get("meta") or {}
    for key in sorted(meta):
        lines.append(f"meta.{key}: {meta[key]}")
    for section in ("counters", "gauges"):
        table = payload.get(section) or {}
        if table:
            lines.append(f"\n{section}:")
            name_w = max(len(n) for n in table)
            for name in sorted(table):
                value = table[name]
                shown = f"{value:.6g}" if isinstance(value, float) else f"{value:,}"
                lines.append(f"  {name.ljust(name_w)}  {shown}")
    hists = payload.get("histograms") or {}
    if hists:
        lines.append("\nhistograms:")
        for name in sorted(hists):
            h = hists[name] or {}
            lines.append(
                f"  {name}: n={h.get('count', 0):,} sum={h.get('sum', 0):,} "
                f"buckets={len(h.get('buckets') or ())}"
            )
    timings = payload.get("timings") or {}
    if timings:
        lines.append("\ntimings (wall-clock, excluded from determinism):")
        name_w = max(len(n) for n in timings)
        for name in sorted(timings):
            lines.append(f"  {name.ljust(name_w)}  {timings[name]:.4f}s")

    # Derived throughput, guarded for zero-wall / empty-corpus builds: an
    # empty collection legitimately produces wall_seconds ≈ 0 and zero
    # bytes, and the summary must degrade to "0.00 MB/s", never divide.
    wall = timings.get("wall_seconds")
    if wall is not None:
        # An empty-corpus build never increments the parse counter at
        # all — treat the absent counter as zero bytes, same degradation.
        bytes_in = (payload.get("counters") or {}).get(
            "parse.uncompressed_bytes", 0
        )
        mbps = bytes_in / 1e6 / wall if wall > 0 else 0.0
        note = "" if wall > 0 and bytes_in > 0 else "  (empty or zero-wall build)"
        lines.append(f"\nderived measured throughput: {mbps:.2f} MB/s{note}")
    return "\n".join(lines)


# ---------------------------------------------------------------------- #
# Profile rendering
# ---------------------------------------------------------------------- #


def render_profile_summary(payload: Mapping[str, Any], top: int = 10) -> str:
    """The profile view of ``repro explain``: per-lane totals and the
    top-``top`` frames by self time, each with its cumulative time."""
    interval = payload["interval_s"]
    lanes = payload["lanes"]
    total = sum(entry["samples"] for entry in lanes.values())
    lines = [
        f"profile: {total} sample(s) across {len(lanes)} lane(s), "
        f"interval {interval * 1000:.1f}ms "
        f"(~{total * interval:.3f}s attributed)"
    ]
    for lane in sorted(lanes):
        entry = lanes[lane]
        pids = ",".join(str(p) for p in entry["pids"])
        lines.append(f"  lane {lane:<24} {entry['samples']:>7} sample(s)  pid {pids}")

    lines.append("")
    lines.append(f"top {top} function(s) by self time:")
    slf = self_seconds(payload)
    if slf:
        cum = cumulative_seconds(payload)
        lines.append(f"  {'self':>9}  {'cum':>9}  frame")
        for frame, seconds in sorted(slf.items(), key=lambda kv: (-kv[1], kv[0]))[:top]:
            lines.append(f"  {seconds:8.3f}s  {cum[frame]:8.3f}s  {frame}")
    else:
        lines.append("  (no samples)")
    return "\n".join(lines)


# ---------------------------------------------------------------------- #
# ``repro explain``: one index directory, or two diffed
# ---------------------------------------------------------------------- #


def load_build_artifacts(index_dir: str) -> dict[str, Any]:
    """The telemetry artifacts present in ``index_dir``, loaded.

    Keys are file names: ``trace.json`` maps to its spans,
    ``run.metrics.json`` and ``run.profile.json`` to their payloads.
    An absent artifact is an absent key (``--no-telemetry`` writes no
    trace or metrics, a build without ``--profile`` no profile); a
    damaged one raises ``ValueError``, as does a directory holding none.
    """
    if not os.path.isdir(index_dir):
        raise NotADirectoryError(f"not an index directory: {index_dir}")
    loaders: dict[str, Callable[[str], Any]] = {
        TRACE_FILENAME: lambda path: spans_from_chrome(load_chrome_trace(path)),
        METRICS_FILENAME: load_metrics,
        PROFILE_FILENAME: load_profile,
    }
    found = {
        name: load(os.path.join(index_dir, name))
        for name, load in loaders.items()
        if os.path.exists(os.path.join(index_dir, name))
    }
    if not found:
        raise ValueError(f"{index_dir}: no {', '.join(loaders)} to explain")
    return found


def render_explain(index_dir: str, artifacts: Mapping[str, Any], top: int = 10) -> str:
    """The ``repro explain`` report: a section per artifact present, and
    one line naming the ones that are not."""
    renderers: dict[str, Callable[[Any], str]] = {
        TRACE_FILENAME: render_trace_summary,
        METRICS_FILENAME: render_metrics_summary,
        PROFILE_FILENAME: lambda payload: render_profile_summary(payload, top),
    }
    missing = [name for name in renderers if name not in artifacts]
    sections = [f"(not in {index_dir}: {', '.join(missing)})"] if missing else []
    sections += [
        f"== {name} ==\n{render(artifacts[name])}"
        for name, render in renderers.items()
        if name in artifacts
    ]
    return "\n\n".join(sections)


def _fmt_number(value: float) -> str:
    return f"{value:,}" if isinstance(value, int) else f"{value:.4f}"


def diff_table(
    before: Mapping[str, float], after: Mapping[str, float], top: int = 10
) -> list[str]:
    """The one diff engine: rows for the names whose value differs.

    Largest absolute change first, at most ``top`` rows and a count of
    the rest.  A name on one side only reads ``new`` or ``gone``, never
    as a change from zero.  Values are whatever the table holds —
    seconds, counts — so nothing here judges better or worse.
    """
    changed = [
        name for name in set(before) | set(after)
        if before.get(name) != after.get(name)
    ]
    changed.sort(key=lambda name: (
        -abs(after.get(name, 0) - before.get(name, 0)), name
    ))
    if not changed:
        return []
    shown = changed[:top]
    name_w = max(len(name) for name in shown)
    rows = []
    for name in shown:
        a, b = before.get(name), after.get(name)
        if a is None or b is None:
            note = "new" if a is None else "gone"
        else:
            note = f"{(b - a) / a * 100:+.1f}%" if a else "from 0"
        rows.append(
            f"  {name.ljust(name_w)}  "
            f"{'-' if a is None else _fmt_number(a):>12}  ->  "
            f"{'-' if b is None else _fmt_number(b):>12}  {note}"
        )
    if len(changed) > top:
        rows.append(f"  ... and {len(changed) - top} more")
    return rows


def _diff_tables(
    artifacts: Mapping[str, Any],
) -> dict[str, dict[str, Mapping[str, float]]]:
    """Artifact name → the ``{name: number}`` tables ``--diff`` compares."""
    tables: dict[str, dict[str, Mapping[str, float]]] = {}
    metrics = artifacts.get(METRICS_FILENAME)
    if metrics is not None:
        tables[METRICS_FILENAME] = {
            section: metrics.get(section) or {}
            for section in ("timings", "counters", "gauges")
        }
    profile = artifacts.get(PROFILE_FILENAME)
    if profile is not None:
        interval = profile["interval_s"]
        tables[PROFILE_FILENAME] = {
            "lane seconds": {lane: entry["samples"] * interval
                             for lane, entry in profile["lanes"].items()},
            "self seconds": self_seconds(profile),
        }
    return tables


def render_explain_diff(
    labels: tuple[str, str],
    artifacts: tuple[Mapping[str, Any], Mapping[str, Any]],
    top: int = 10,
) -> str:
    """``repro explain --diff A B``: :func:`diff_table` over every table
    both builds recorded; an artifact only one side has is named, not
    diffed."""
    before, after = (_diff_tables(a) for a in artifacts)
    lines = [f"diff: {labels[0]} -> {labels[1]}"]
    for artifact in dict.fromkeys([*before, *after]):
        if artifact not in before or artifact not in after:
            side = labels[0] if artifact in before else labels[1]
            lines.append(f"\n{artifact}: only in {side}")
            continue
        for title, table in before[artifact].items():
            rows = diff_table(table, after[artifact][title], top)
            if rows:
                lines.append(f"\n{title} ({artifact}):")
                lines.extend(rows)
    if len(lines) == 1:
        lines.append("(no differences)")
    return "\n".join(lines)
