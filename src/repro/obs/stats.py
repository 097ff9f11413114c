"""Trace and metrics summarization for ``repro trace`` / ``repro stats``.

Pure functions from telemetry artifacts to numbers and ASCII renderings:

- :func:`spans_from_chrome` — rebuild :class:`~repro.obs.trace.Span`
  records from an exported Chrome trace (the on-disk form);
- :func:`span_coverage` — fraction of the root span's wall time covered
  by instrumented child spans (the acceptance gate: ≥ 95%);
- :func:`lane_utilization` / :func:`stage_totals` — the per-worker and
  per-stage aggregates behind the utilization chart;
- :func:`engine_blame` — where the engine lane's wall went, per
  resource (the engine lane is the build's critical path);
- :func:`render_trace_summary` — the ``repro trace`` report, using
  :mod:`repro.util.ascii_chart` for the bars;
- :func:`render_metrics_summary` / :func:`render_metrics_diff` — the
  ``repro stats`` report and the two-run regression-triage diff;
- :func:`metrics_regressions` — the ``--fail-on-regress`` gate behind
  ``repro stats --diff``: :func:`regression_gate` over the two runs'
  shared ``timings`` (counters and gauges are shown, never gated).
"""

from __future__ import annotations

from typing import Any, Iterable, Mapping

from repro.obs.trace import Span
from repro.util.ascii_chart import bar_chart

__all__ = [
    "spans_from_chrome",
    "interval_union_s",
    "span_coverage",
    "lane_utilization",
    "engine_blame",
    "stage_totals",
    "render_trace_summary",
    "render_metrics_summary",
    "render_metrics_diff",
    "regression_gate",
    "metrics_regressions",
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


def _root(spans: list[Span], root_name: str) -> Span | None:
    candidates = [s for s in spans if s.name == root_name]
    if not candidates:
        return None
    return max(candidates, key=lambda s: s.duration_s)


def span_coverage(spans: list[Span], root_name: str = "build") -> float:
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
    spans: list[Span], root_name: str = "build"
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


def engine_blame(
    spans: list[Span], root_name: str = "build"
) -> dict[str, float]:
    """Seconds of the root span's wall per resource, heaviest first.

    The engine thread collects and indexes every file in file order, so
    its lane is the build's critical path.  Each chain span on it is
    filed under its resource (:data:`_CHAIN_RESOURCE`); time between
    chain spans is ``engine``.  A ``parse.wait`` is split in priority
    order: overlap with a ``supervisor.recover`` span is ``supervisor``;
    overlap with a look-ahead lane's ``parse_file`` is ``parse``; the
    rest is ``transport`` under the multiprocess backend (worker
    start-up, the parsed file crossing the process boundary) and
    ``stall`` under serial (waiting on the prefetch pool).
    """
    root = _root(spans, root_name)
    if root is None:
        return {}
    backend = next(
        (s.args.get("backend") for s in spans if s.name == "run_loop"), None
    )
    remainder = "transport" if backend == "multiprocess" else "stall"
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
            add(remainder, span.end_s - start - waited)
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


def render_trace_summary(spans: list[Span], root_name: str = "build") -> str:
    """The ``repro trace`` report: coverage, lane chart, engine blame,
    stage table."""
    if not spans:
        return "(empty trace)"
    root = _root(spans, root_name)
    lines: list[str] = []
    if root is not None:
        lines.append(
            f"root span {root.name!r}: {root.duration_s:.3f}s wall, "
            f"{len(spans)} span(s), "
            f"coverage {span_coverage(spans, root_name) * 100:.1f}%"
        )
    else:
        lines.append(f"(no {root_name!r} root span; {len(spans)} span(s))")

    util = lane_utilization(spans, root_name)
    if util:
        lines.append("")
        lines.append("lane utilization (% of build wall time):")
        lines.append(bar_chart({k: v * 100 for k, v in util.items()}, unit="%"))

    blame = engine_blame(spans, root_name)
    if root is not None and root.duration_s > 0 and blame:
        wall = root.duration_s
        lines.append("")
        lines.append(f"where the engine's wall went ({wall:.6f}s):")
        for resource, seconds in blame.items():
            lines.append(f"  {resource:<10} {seconds:10.6f}s  "
                         f"{seconds / wall * 100:5.1f}%")
        parse = [r for r in ("parse", "transport", "stall") if r in blame]
        parse_s = sum(blame[r] for r in parse)
        lines.append(
            f"  the engine spent {parse_s / wall * 100:.1f}% of the build "
            f"wall on the parse side ({' + '.join(parse) or 'none'}) and "
            f"{blame.get('index', 0.0) / wall * 100:.1f}% in the indexers "
            "(index)"
        )

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


def render_metrics_diff(
    before: Mapping[str, Any],
    after: Mapping[str, Any],
    before_label: str = "before",
    after_label: str = "after",
) -> str:
    """Two-run regression triage: per-stage timing and counter deltas."""
    lines: list[str] = [f"diff: {before_label} -> {after_label}"]

    t_before = before.get("timings") or {}
    t_after = after.get("timings") or {}
    stages = sorted(set(t_before) | set(t_after))
    if stages:
        lines.append("\nper-stage timings (s):")
        name_w = max(len(n) for n in stages)
        for name in stages:
            a = t_before.get(name, 0.0)
            b = t_after.get(name, 0.0)
            pct = f"{(b - a) / a * 100:+7.1f}%" if a else "     new"
            lines.append(
                f"  {name.ljust(name_w)}  {a:10.4f}  ->  {b:10.4f}  {pct}"
            )

    for section in ("counters", "gauges"):
        s_before = before.get(section) or {}
        s_after = after.get(section) or {}
        changed = [
            name
            for name in sorted(set(s_before) | set(s_after))
            if s_before.get(name, 0) != s_after.get(name, 0)
        ]
        if changed:
            lines.append(f"\nchanged {section}:")
            name_w = max(len(n) for n in changed)
            for name in changed:
                a = s_before.get(name, 0)
                b = s_after.get(name, 0)
                lines.append(f"  {name.ljust(name_w)}  {a:,}  ->  {b:,}")

    if len(lines) == 1:
        lines.append("(no differences)")
    return "\n".join(lines)


def regression_gate(
    old: float, new: float, rel_threshold: float = 0.10, noise_floor: float = 0.0
) -> bool:
    """Did ``new`` worsen past ``max(rel_threshold · old, noise_floor)``?

    A slowdown must clear a *relative* bar (small regressions on big
    numbers matter) **and** the noise floor (so jitter can never fail a
    build on its own).  Values are "lower is better" seconds/counts.
    """
    return (new - old) > max(rel_threshold * old, noise_floor)


def metrics_regressions(
    before: Mapping[str, Any],
    after: Mapping[str, Any],
    rel_threshold: float = 0.10,
    noise_floor_s: float = 0.01,
) -> list[str]:
    """Timing regressions between two ``run.metrics.json`` payloads.

    The decision rule is :func:`regression_gate`, applied to every name
    the two ``timings`` sections share (``stage.*``, ``wall_seconds``),
    with ``noise_floor_s`` as the absolute floor so microsecond stages
    cannot trip a percentage gate on scheduler jitter.  Counters and
    gauges are work, not time: the diff shows them, the gate does not.

    Names on only one side never gate (a stage appearing or vanishing is
    a shape change for the human-readable diff, not a slowdown).
    Returns human-readable lines, empty when nothing worsened.
    """
    out: list[str] = []
    t_before = before.get("timings") or {}
    t_after = after.get("timings") or {}
    for name in sorted(set(t_before) & set(t_after)):
        a, b = float(t_before[name]), float(t_after[name])
        if regression_gate(a, b, rel_threshold, noise_floor_s):
            pct = f" ({(b - a) / a * 100:+.1f}%)" if a > 0 else ""
            out.append(f"timings.{name}: {a:.4f}s -> {b:.4f}s{pct}")
    return out
