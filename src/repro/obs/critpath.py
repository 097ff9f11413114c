"""Critical-path analysis of a build's trace, with blame and what-if projection.

The profiler ranks hot functions; this module answers the *causal*
question: which chain of events bounds wall-clock, which **resource**
each link is waiting on, and what buying a resource down would be worth
before anyone builds the optimization.

Ingestion is post-hoc: ``trace.json`` (the span timeline, with the parse
worker's lane re-based onto the engine clock by ``Tracer.absorb``).  No
new clocks are read — everything derives from the recorded artifact, so
the analysis is repeatable from it alone.

The causal model
----------------
The engine thread is the build's coordinator: every parsed file is
collected and indexed *on the engine lane in file order* (the ordering
contract that makes the backends byte-identical), so the critical path
necessarily threads through the engine lane's chain of spans::

    sampling → [parse | parse.wait → index]* → write_run/checkpoint
    → dict.combine/dict.write

Each link is a node named here and only here, from the span's name and
its ``file`` or ``run`` argument (``index:3``, ``write_run:run0``; a
once-per-build span such as ``dict.write`` is its bare name).  Causality
from another lane enters at the one wait link: the engine's
``parse.wait`` interval is refined against the look-ahead lanes'
``parse_file`` compute spans (the multiprocess backend's parse worker,
or the serial loop's ``parse_prefetch`` threads):

- wait time overlapping a ``supervisor.recover`` span is **supervisor**
  (restart/replay edges);
- wait time while a look-ahead lane runs ``parse_file`` is **parse** —
  the engine was causally bound by work serial mode would also pay for;
- the remainder — the engine blocked with *no* concurrent compute — is
  pure transport: **ring-wait** under the multiprocess backend (worker
  start-up, the parsed file crossing the process boundary, scheduling;
  the name dates from the ring transport and is part of the artifact
  schema), **stall** (the serial loop waiting on its ``parse_prefetch``
  pool) otherwise.

That remainder definition is what makes the flagship what-if honest:
``ring-wait → 0`` projects the build onto its serial-equivalent cost,
so the prediction is directly checkable against a measured ``--exec
serial`` vs ``--exec multiprocess`` gap (the CI profile job prints both
walls).

What-if projection scales each edge's seconds by its resource's factor
and recomputes the path length, floored by the busiest worker lane's
scaled compute (zeroing a wait cannot outrun the work itself).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping

from repro.obs.critpath_schema import CRITPATH_RESOURCES, CRITPATH_SCHEMA_VERSION
from repro.obs.schema import TRACE_FILENAME
from repro.obs.stats import spans_from_chrome
from repro.obs.trace import Span, load_chrome_trace

__all__ = [
    "PathEdge",
    "CriticalPath",
    "Projection",
    "analyze_spans",
    "analyze_trace_file",
    "analyze_index_dir",
    "build_critpath_payload",
    "default_projections",
    "project",
    "parse_what_if",
    "render_critpath_report",
    "render_critpath_diff",
    "to_chrome_overlay",
    "write_chrome_overlay",
]

#: Engine-lane spans that form the coordinator chain, i.e. the
#: candidate critical-path links.  ``build``/``run_loop`` are container
#: spans; everything else on the engine lane is a gap ("engine" blame).
_CHAIN_NAMES = frozenset({
    "sampling", "parse", "parse.wait", "index",
    "write_run", "checkpoint",
    "dict.combine", "dict.write", "simulate",
})

#: Worker-lane compute spans and the resource they represent.  Only the
#: outermost compute span per task is listed (``parse_file`` contains
#: ``read``/``regroup``) so interval unions never double-count.
_COMPUTE_RESOURCE = {
    "parse_file": "parse",
    "index_batch": "index",
    "merge.read_runs": "merge",
    "merge.write": "merge",
}

#: Direct resource classification for non-wait chain spans.
_DIRECT_RESOURCE = {
    "sampling": "sampling",
    "parse": "parse",
    "index": "index",
    "write_run": "flush",
    "checkpoint": "flush",
    "dict.combine": "merge",
    "dict.write": "merge",
    "simulate": "engine",
}

Interval = tuple[float, float]


# ---------------------------------------------------------------------- #
# Interval arithmetic (closed-open [start, end) segments)
# ---------------------------------------------------------------------- #


def _union(intervals: Iterable[Interval]) -> list[Interval]:
    merged: list[Interval] = []
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if merged and start <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], end))
        else:
            merged.append((start, end))
    return merged


def _intersect(a: list[Interval], b: list[Interval]) -> list[Interval]:
    out: list[Interval] = []
    i = j = 0
    while i < len(a) and j < len(b):
        start = max(a[i][0], b[j][0])
        end = min(a[i][1], b[j][1])
        if end > start:
            out.append((start, end))
        if a[i][1] <= b[j][1]:
            i += 1
        else:
            j += 1
    return out


def _subtract(a: list[Interval], b: list[Interval]) -> list[Interval]:
    out: list[Interval] = []
    for start, end in a:
        cursor = start
        for bs, be in b:
            if be <= cursor or bs >= end:
                continue
            if bs > cursor:
                out.append((cursor, bs))
            cursor = max(cursor, be)
            if cursor >= end:
                break
        if cursor < end:
            out.append((cursor, end))
    return out


def _total(intervals: Iterable[Interval]) -> float:
    return sum(end - start for start, end in intervals)


# ---------------------------------------------------------------------- #
# The analysis result
# ---------------------------------------------------------------------- #


@dataclass(frozen=True)
class PathEdge:
    """One causal link on the critical path."""

    src: str
    dst: str
    start_s: float
    end_s: float
    resource: str
    detail: str = ""

    @property
    def seconds(self) -> float:
        return self.end_s - self.start_s


@dataclass(frozen=True)
class Projection:
    """One what-if prediction: scale resources, recompute the path."""

    label: str
    scales: Mapping[str, float]
    predicted_wall_s: float
    speedup: float


@dataclass
class CriticalPath:
    """A build's critical path, blame decomposition and lane floors."""

    backend: str
    wall_seconds: float
    edges: list[PathEdge] = field(default_factory=list)
    #: Per worker lane: interval-union busy seconds and the dominant
    #: compute resource on that lane (the projection floor's scale key).
    lane_busy_s: dict[str, float] = field(default_factory=dict)
    lane_resource: dict[str, str] = field(default_factory=dict)

    @property
    def path_seconds(self) -> float:
        return sum(e.seconds for e in self.edges)

    def blame(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for edge in self.edges:
            out[edge.resource] = out.get(edge.resource, 0.0) + edge.seconds
        return out

    def top_resource(self, ignore: tuple[str, ...] = ("engine",)) -> str | None:
        """The heaviest blame resource, skipping ``ignore`` buckets."""
        ranked = sorted(
            ((s, r) for r, s in self.blame().items() if r not in ignore),
            reverse=True,
        )
        return ranked[0][1] if ranked else None


# ---------------------------------------------------------------------- #
# Graph construction
# ---------------------------------------------------------------------- #


def _node_id(span: Span) -> str:
    """A chain span's node: ``{name}:{file}``, ``{name}:run{run}`` or ``{name}``."""
    file_arg = span.args.get("file")
    if file_arg is not None:
        return f"{span.name}:{file_arg}"
    run_arg = span.args.get("run")
    if run_arg is not None:
        return f"{span.name}:run{run_arg}"
    return span.name


def _refine_wait(
    span: Span,
    prev: str,
    node: str,
    backend: str,
    parse_union: list[Interval],
    recover_union: list[Interval],
) -> list[PathEdge]:
    """Split one engine ``parse.wait`` interval into causally-attributed edges."""
    window = [(span.start_s, span.end_s)]
    pure_resource = "ring-wait" if backend == "multiprocess" else "stall"

    # Priority order: supervisor recovery first, then parse compute on a
    # look-ahead lane, then the pure-transport remainder.  (Indexing runs
    # on the engine thread, so no index compute overlaps a wait.)
    pieces: list[tuple[str, str, list[Interval]]] = []
    for resource, detail, busy in (
        ("supervisor", "restart/replay", recover_union),
        ("parse", "blocked on parse compute", parse_union),
    ):
        hit = _intersect(window, busy)
        if hit:
            pieces.append((resource, detail, hit))
            window = _subtract(window, hit)
    if window:
        pieces.append((pure_resource, span.name, window))
    return _emit_pieces(pieces, prev, node)


def _emit_pieces(
    pieces: list[tuple[str, str, list[Interval]]], prev: str, node: str
) -> list[PathEdge]:
    """Flatten attributed segments into temporally-ordered path edges."""
    flat = [
        (start, end, resource, detail)
        for resource, detail, segs in pieces
        for start, end in segs
    ]
    flat.sort()
    edges = []
    for i, (start, end, resource, detail) in enumerate(flat):
        last = i == len(flat) - 1
        edges.append(PathEdge(
            prev if i == 0 else f"{node}+{i}",
            node if last else f"{node}+{i + 1}",
            start, end, resource, detail,
        ))
    return edges


def analyze_spans(spans: list[Span], backend: str | None = None) -> CriticalPath:
    """Build the causal graph from a span timeline; compute the path.

    ``spans`` is the full trace (engine + worker lanes on one re-based
    clock).  ``backend`` overrides detection (normally read off the
    ``run_loop`` span's ``backend`` attribute).
    """
    if not spans:
        raise ValueError("empty trace: nothing to analyze")

    roots = [s for s in spans if s.name == "build"]
    root = max(roots, key=lambda s: s.duration_s) if roots else None
    t0 = root.start_s if root else min(s.start_s for s in spans)
    t1 = root.end_s if root else max(s.end_s for s in spans)
    if backend is None:
        loops = [s for s in spans if s.name == "run_loop"]
        backend = str(loops[0].args.get("backend", "serial")) if loops else "serial"

    engine_lanes = {root.lane} if root else {"engine"}
    chain = sorted(
        (s for s in spans if s.lane in engine_lanes and s.name in _CHAIN_NAMES),
        key=lambda s: (s.start_s, s.end_s),
    )
    recover_union = _union(
        (s.start_s, s.end_s) for s in spans if s.name == "supervisor.recover"
    )

    # Worker parse compute (what a wait can be blocked on) and per-lane
    # busy time (the projection floor).
    parse_intervals: list[Interval] = []
    lane_intervals: dict[str, list[Interval]] = {}
    lane_resource: dict[str, str] = {}
    for s in spans:
        resource = _COMPUTE_RESOURCE.get(s.name)
        if resource is None or s.lane in engine_lanes:
            continue
        if resource == "parse":
            parse_intervals.append((s.start_s, s.end_s))
        lane_intervals.setdefault(s.lane, []).append((s.start_s, s.end_s))
        lane_resource.setdefault(s.lane, resource)
    parse_union = _union(parse_intervals)
    lane_busy = {
        lane: _total(_union(v)) for lane, v in lane_intervals.items()
    }

    cp = CriticalPath(
        backend=backend,
        wall_seconds=max(0.0, t1 - t0),
        lane_busy_s=lane_busy,
        lane_resource=lane_resource,
    )

    cursor = t0
    prev = "start"
    for span in chain:
        start = max(span.start_s, cursor)
        if start >= span.end_s:
            continue  # fully shadowed by an earlier chain span
        node = _node_id(span)
        if span.start_s > cursor:
            cp.edges.append(PathEdge(
                prev, node, cursor, span.start_s, "engine", "coordinator",
            ))
            prev = node
        clipped = Span(
            name=span.name, cat=span.cat, lane=span.lane,
            start_s=start, end_s=span.end_s, depth=span.depth,
            parent=span.parent, args=span.args,
        )
        if span.name == "parse.wait":
            edges = _refine_wait(
                clipped, prev, node, backend, parse_union, recover_union
            )
        else:
            resource = _DIRECT_RESOURCE.get(span.name, "engine")
            edges = [PathEdge(prev, node, start, span.end_s,
                              resource, span.name)]
        cp.edges.extend(edges)
        prev = node
        cursor = span.end_s
    if cursor < t1:
        cp.edges.append(PathEdge(prev, "end", cursor, t1, "engine", "epilogue"))
    return cp


def analyze_trace_file(
    trace_path: str, backend: str | None = None
) -> CriticalPath:
    """Analyze a ``trace.json`` on disk (see :func:`analyze_spans`)."""
    events = load_chrome_trace(trace_path)
    spans = spans_from_chrome(events)
    return analyze_spans(spans, backend=backend)


def analyze_index_dir(index_dir: str) -> CriticalPath:
    """Analyze the ``trace.json`` an index directory's build wrote."""
    trace_path = os.path.join(index_dir, TRACE_FILENAME)
    if not os.path.exists(trace_path):
        raise FileNotFoundError(trace_path)
    return analyze_trace_file(trace_path)


# ---------------------------------------------------------------------- #
# What-if projection
# ---------------------------------------------------------------------- #


def project(cp: CriticalPath, scales: Mapping[str, float], label: str) -> Projection:
    """Scale each resource's edges, recompute the path length.

    The prediction is floored by the busiest worker lane's scaled
    compute: removing every wait still leaves the work itself, so
    "zero out ring-wait" can never predict outrunning the parsers.
    """
    for resource in scales:
        if resource not in CRITPATH_RESOURCES:
            raise ValueError(
                f"unknown resource {resource!r} "
                f"(expected one of {', '.join(CRITPATH_RESOURCES)})"
            )
    scaled_path = sum(
        e.seconds * scales.get(e.resource, 1.0) for e in cp.edges
    )
    lane_floor = max(
        (
            busy * scales.get(cp.lane_resource.get(lane, "engine"), 1.0)
            for lane, busy in cp.lane_busy_s.items()
        ),
        default=0.0,
    )
    predicted = max(scaled_path, lane_floor)
    speedup = cp.wall_seconds / predicted if predicted > 0 else 1.0
    return Projection(
        label=label,
        scales=dict(scales),
        predicted_wall_s=predicted,
        speedup=speedup,
    )


def default_projections(cp: CriticalPath) -> list[Projection]:
    """The ranked what-if menu: zero each blamed resource but ``engine``."""
    projections = [
        project(cp, {resource: 0.0}, f"{resource} -> 0")
        for resource, seconds in cp.blame().items()
        if resource != "engine" and seconds > 0
    ]
    projections.sort(key=lambda p: (-p.speedup, p.label))
    return projections


def parse_what_if(specs: Iterable[str]) -> dict[str, float]:
    """Parse CLI ``--what-if resource=scale`` specs into a scale map."""
    scales: dict[str, float] = {}
    for spec in specs:
        resource, sep, factor = spec.partition("=")
        resource = resource.strip()
        if not sep or resource not in CRITPATH_RESOURCES:
            raise ValueError(
                f"bad what-if spec {spec!r}: expected RESOURCE=SCALE with "
                f"RESOURCE one of {', '.join(CRITPATH_RESOURCES)}"
            )
        try:
            value = float(factor)
        except ValueError:
            raise ValueError(
                f"bad what-if scale {factor!r} in {spec!r}: not a number"
            ) from None
        if value < 0:
            raise ValueError(f"what-if scale must be >= 0, got {value}")
        scales[resource] = value
    return scales


# ---------------------------------------------------------------------- #
# Payload assembly
# ---------------------------------------------------------------------- #


def build_critpath_payload(
    cp: CriticalPath,
    projections: list[Projection] | None = None,
    meta: Mapping[str, Any] | None = None,
) -> dict[str, Any]:
    """Assemble the validated ``run.critpath.json`` payload."""
    if projections is None:
        projections = default_projections(cp)
    path_s = cp.path_seconds
    payload: dict[str, Any] = {
        "schema": CRITPATH_SCHEMA_VERSION,
        "backend": cp.backend,
        "wall_seconds": cp.wall_seconds,
        "path_seconds": path_s,
        "coverage": (path_s / cp.wall_seconds) if cp.wall_seconds > 0 else 0.0,
        "blame": {r: s for r, s in sorted(cp.blame().items())},
        "edges": [
            {
                "src": e.src,
                "dst": e.dst,
                "start_s": e.start_s,
                "end_s": e.end_s,
                "seconds": e.seconds,
                "resource": e.resource,
                "detail": e.detail,
            }
            for e in cp.edges
        ],
        "lanes": {
            lane: busy for lane, busy in sorted(cp.lane_busy_s.items())
        },
        "projections": [
            {
                "label": p.label,
                "scales": dict(p.scales),
                "predicted_wall_s": p.predicted_wall_s,
                "speedup": p.speedup,
            }
            for p in projections
        ],
    }
    if meta:
        payload["meta"] = dict(meta)
    return payload


# ---------------------------------------------------------------------- #
# Rendering
# ---------------------------------------------------------------------- #


def _fmt_s(seconds: float) -> str:
    if seconds >= 1.0:
        return f"{seconds:8.3f}s"
    return f"{seconds * 1e3:7.3f}ms"


def render_critpath_report(
    payload: Mapping[str, Any],
    extra_projections: list[Projection] | None = None,
) -> str:
    """ASCII report for ``repro critpath``: blame table and the ranked
    what-if predictions."""
    wall = payload["wall_seconds"]
    path_s = payload["path_seconds"]
    lines = [
        f"critical path: backend {payload['backend']}, wall {wall:.3f}s, "
        f"path {path_s:.3f}s ({payload['coverage'] * 100:.1f}% coverage), "
        f"{len(payload['edges'])} edge(s)"
    ]
    lines.append("")
    lines.append("blame by resource (seconds on the critical path):")
    blame = payload["blame"]
    ranked = sorted(blame.items(), key=lambda kv: (-kv[1], kv[0]))
    for resource, seconds in ranked:
        share = seconds / path_s * 100 if path_s > 0 else 0.0
        bar = "#" * int(round(share / 2))
        lines.append(
            f"  {resource:<10} {_fmt_s(seconds)}  {share:5.1f}%  {bar}"
        )
    top = next((r for s, r in sorted(
        ((s, r) for r, s in blame.items() if r != "engine"), reverse=True
    )), None)
    if top is not None:
        lines.append(f"  top blame resource: {top}")

    projections = list(payload["projections"])
    lines.append("")
    lines.append("what-if projections (ranked by predicted speedup):")
    rows = projections + [
        {
            "label": p.label,
            "predicted_wall_s": p.predicted_wall_s,
            "speedup": p.speedup,
        }
        for p in (extra_projections or [])
    ]
    if rows:
        for proj in rows:
            lines.append(
                f"  {proj['label']:<38} => predicted "
                f"{proj['speedup']:.2f}x "
                f"({wall:.3f}s -> {proj['predicted_wall_s']:.3f}s)"
            )
    else:
        lines.append("  (no blamed resources to project)")

    lanes = payload["lanes"]
    if lanes:
        lines.append("")
        lines.append("worker-lane compute (projection floor):")
        for lane, busy in sorted(lanes.items(), key=lambda kv: (-kv[1], kv[0])):
            lines.append(f"  lane {lane:<16} busy {busy:.3f}s")
    return "\n".join(lines)


def render_critpath_diff(
    old: Mapping[str, Any], new: Mapping[str, Any]
) -> str:
    """Diff report for ``repro critpath --diff OLD NEW``: per-resource
    blame movement, biggest mover first — the resource-level analogue
    of ``repro profile --diff``."""
    lines = [
        f"critpath diff: wall {old['wall_seconds']:.3f}s -> "
        f"{new['wall_seconds']:.3f}s "
        f"(backends {old['backend']} -> {new['backend']})"
    ]
    old_blame, new_blame = old["blame"], new["blame"]
    resources = sorted(
        set(old_blame) | set(new_blame),
        key=lambda r: -abs(new_blame.get(r, 0.0) - old_blame.get(r, 0.0)),
    )
    lines.append(f"  {'resource':<10} {'old':>9}  {'new':>9}  {'delta':>10}")
    worst: tuple[float, str] | None = None
    for resource in resources:
        o = old_blame.get(resource, 0.0)
        n = new_blame.get(resource, 0.0)
        delta = n - o
        lines.append(
            f"  {resource:<10} {o:8.3f}s  {n:8.3f}s  {delta:+9.3f}s"
        )
        if resource != "engine" and (worst is None or delta > worst[0]):
            worst = (delta, resource)
    if worst is not None and worst[0] > 0:
        lines.append(
            f"  slowest-growing resource: {worst[1]} ({worst[0]:+.3f}s)"
        )
    return "\n".join(lines)


# ---------------------------------------------------------------------- #
# Chrome-trace overlay
# ---------------------------------------------------------------------- #


def to_chrome_overlay(
    payload: Mapping[str, Any], trace: Mapping[str, Any]
) -> dict[str, Any]:
    """The build's Chrome trace plus a highlighted ``critical-path`` lane.

    Every path edge becomes one complete event named by its resource on
    a dedicated tid, so chrome://tracing / Perfetto shows the path as a
    solid lane above the per-worker lanes it threads through.
    """
    events = list(trace["traceEvents"])
    used_tids = {ev.get("tid", 0) for ev in events}
    tid = max(used_tids, default=0) + 1
    out = [dict(ev) for ev in events]
    out.append({
        "ph": "M", "name": "thread_name", "pid": 1, "tid": tid,
        "args": {"name": "critical-path"},
    })
    for edge in payload["edges"]:
        out.append({
            "ph": "X",
            "name": edge["resource"],
            "cat": "critpath",
            "pid": 1,
            "tid": tid,
            "ts": int(edge["start_s"] * 1e6),
            "dur": max(0, int(edge["seconds"] * 1e6)),
            "args": {
                "src": edge["src"],
                "dst": edge["dst"],
                "detail": edge["detail"],
            },
        })
    merged = {k: v for k, v in trace.items() if k != "traceEvents"}
    merged["traceEvents"] = out
    return merged


def write_chrome_overlay(
    payload: Mapping[str, Any], trace_path: str, out_path: str
) -> str:
    """Write ``trace_path``'s events + the critical-path lane to ``out_path``."""
    events = load_chrome_trace(trace_path)
    merged = to_chrome_overlay(
        payload, {"traceEvents": events, "displayTimeUnit": "ms"}
    )
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(merged, fh, separators=(",", ":"))
        fh.write("\n")
    return out_path
