"""Critical-path analysis: attribution, projection, schema, CLI.

The synthetic-span tests pin the causal model from
``repro.obs.critpath``'s docstring: engine waits are refined against
worker compute / supervisor recovery, and blame always sums to the
path, which always covers the wall.
"""

from __future__ import annotations

import hashlib
import json
import os
import re

import pytest

from repro.cli import main
from repro.core.config import PlatformConfig
from repro.core.engine import IndexingEngine
from repro.obs.critpath import (
    PathEdge,
    _intersect,
    _subtract,
    _union,
    analyze_spans,
    build_critpath_payload,
    default_projections,
    parse_what_if,
    project,
    render_critpath_diff,
    render_critpath_report,
)
from repro.obs.critpath_schema import (
    CRITPATH_FILENAME,
    CRITPATH_SCHEMA_VERSION,
    load_critpath,
    validate_critpath,
    write_critpath,
)
from repro.obs.schema import METRICS_FILENAME, TRACE_FILENAME
from repro.obs.trace import Span, load_chrome_trace
from repro.robustness.checkpoint import CHECKPOINT_FILENAME, MANIFEST_FILENAME


def S(name, lane, start, end, cat="x", **args):
    return Span(name=name, cat=cat, lane=lane, start_s=float(start),
                end_s=float(end), depth=0, parent=None, args=dict(args))


# ---------------------------------------------------------------------------
# Interval arithmetic


class TestIntervals:
    def test_union_merges_overlaps_and_drops_empties(self):
        assert _union([(3, 4), (0, 1), (0.5, 2), (5, 5)]) == [(0, 2), (3, 4)]

    def test_intersect(self):
        assert _intersect([(0, 4), (6, 8)], [(1, 2), (3, 7)]) == [
            (1, 2), (3, 4), (6, 7),
        ]

    def test_subtract(self):
        assert _subtract([(0, 10)], [(2, 3), (5, 7)]) == [
            (0, 2), (3, 5), (7, 10),
        ]
        assert _subtract([(0, 2)], [(0, 2)]) == []


# ---------------------------------------------------------------------------
# Attribution on synthetic traces


def _mp_spans():
    """A hand-built multiprocess build: wall 10s, every second accounted.

    The engine lane waits on the parse worker (``parse.wait``) and
    indexes each file itself; the worker's ``parse_file`` spans sit on
    the ``parser-0`` lane.  File 0's wait (0-4) starts with a supervisor
    restart (0-1) while the worker is parsing (0-2), then waits 2s with
    no compute; file 1's wait (5-6) overlaps its parse by 0.5s.  Then
    write_run 7-8 + checkpoint 8-8.5, dict.write 8.5-9.5 and a 0.5s
    epilogue.
    """
    return [
        S("build", "engine", 0, 10),
        S("run_loop", "engine", 0, 10, backend="multiprocess"),
        S("parse.wait", "engine", 0, 4, file=0),
        S("supervisor.recover", "engine", 0, 1, kind="worker_crash"),
        S("index", "engine", 4, 5, file=0),
        S("parse.wait", "engine", 5, 6, file=1),
        S("index", "engine", 6, 7, file=1),
        S("write_run", "engine", 7, 8, run=0),
        S("checkpoint", "engine", 8, 8.5, run=0),
        S("dict.write", "engine", 8.5, 9.5),
        S("parse_file", "parser-0", 0, 2, file=0),
        S("parse_file", "parser-0", 4, 5.5, file=1),
    ]


class TestAttribution:
    def test_blame_decomposition_on_a_multiprocess_build(self):
        cp = analyze_spans(_mp_spans())
        assert cp.backend == "multiprocess"
        assert cp.wall_seconds == pytest.approx(10.0)
        assert cp.path_seconds == pytest.approx(10.0)  # full coverage
        blame = cp.blame()
        assert blame["supervisor"] == pytest.approx(1.0)  # outranks parse 0-1
        assert blame["parse"] == pytest.approx(1.5)       # 1-2 and 5-5.5
        # 2s of file 0's wait + 0.5s of file 1's with no compute running.
        assert blame["ring-wait"] == pytest.approx(2.5)
        assert blame["index"] == pytest.approx(2.0)
        assert blame["flush"] == pytest.approx(1.5)
        assert blame["merge"] == pytest.approx(1.0)
        assert blame["engine"] == pytest.approx(0.5)
        assert cp.top_resource() == "ring-wait"
        assert sum(blame.values()) == pytest.approx(cp.path_seconds)

    def test_same_waits_without_workers_are_stall_in_serial(self):
        # Serial + parse_prefetch: the engine waits on its read-ahead pool.
        spans = [
            S("build", "engine", 0, 4),
            S("run_loop", "engine", 0, 4, backend="serial"),
            S("parse.wait", "engine", 0, 2, file=0),
            S("parse.wait", "engine", 2, 4, file=1),
        ]
        blame = analyze_spans(spans).blame()
        assert blame == {"stall": pytest.approx(4.0)}

    def test_supervisor_recovery_outranks_compute_overlap(self):
        spans = [
            S("build", "engine", 0, 4),
            S("run_loop", "engine", 0, 4, backend="multiprocess"),
            S("parse.wait", "engine", 0, 4, file=2),
            S("supervisor.recover", "engine", 0, 1, action="restart"),
            S("parse_file", "parser-0", 0, 3),
        ]
        blame = analyze_spans(spans).blame()
        assert blame["supervisor"] == pytest.approx(1.0)
        assert blame["parse"] == pytest.approx(2.0)
        assert blame["ring-wait"] == pytest.approx(1.0)

    def test_uninstrumented_gaps_fall_to_the_engine(self):
        spans = [
            S("build", "engine", 0, 5),
            S("parse", "engine", 1, 2, file=0),
            S("index", "engine", 3, 4.5, file=0),
        ]
        cp = analyze_spans(spans, backend="serial")
        blame = cp.blame()
        assert blame["engine"] == pytest.approx(2.5)  # 0-1, 2-3, 4.5-5 gaps
        assert blame["parse"] == pytest.approx(1.0)
        assert blame["index"] == pytest.approx(1.5)
        assert cp.top_resource() == "index"  # ignores "engine"

    def test_edges_use_wired_cp_ids(self):
        """Node ids are synthesized from the span name and its ``file`` /
        ``run`` argument, with ``+i`` on the pieces of a split wait."""
        cp = analyze_spans(_mp_spans())
        nodes = {e.dst for e in cp.edges} | {e.src for e in cp.edges}
        assert {"start", "parse.wait:0", "index:1", "write_run:run0",
                "checkpoint:run0", "dict.write", "end"} <= nodes
        assert "parse.wait:0+1" in nodes
        shape = re.compile(r"(start|end|[a-z_.]+(:(\d+|run\d+))?)(\+\d+)?")
        assert all(shape.fullmatch(n) for n in nodes), sorted(nodes)

    def test_empty_trace_is_an_error(self):
        with pytest.raises(ValueError):
            analyze_spans([])


# ---------------------------------------------------------------------------
# What-if projection


class TestProjection:
    def test_zeroing_ring_wait_projects_the_serial_equivalent(self):
        cp = analyze_spans(_mp_spans())
        proj = project(cp, {"ring-wait": 0.0}, "ring-wait -> 0")
        assert proj.predicted_wall_s == pytest.approx(7.5)
        assert proj.speedup == pytest.approx(10.0 / 7.5)

    def test_lane_floor_caps_the_prediction(self):
        # Zeroing everything but parse cannot beat the parse worker's
        # lane: the path would be 1.5s, parser-0 is busy 3.5s.
        cp = analyze_spans(_mp_spans())
        everything_else = {"ring-wait": 0.0, "supervisor": 0.0, "index": 0.0,
                           "flush": 0.0, "merge": 0.0, "engine": 0.0}
        proj = project(cp, everything_else, "only parse left")
        assert proj.predicted_wall_s == pytest.approx(3.5)
        # The floor scales with the lane's own resource.
        proj2 = project(cp, {**everything_else, "parse": 0.5}, "parse halved")
        assert proj2.predicted_wall_s == pytest.approx(1.75)

    def test_unknown_resource_is_rejected(self):
        cp = analyze_spans(_mp_spans())
        with pytest.raises(ValueError, match="unknown resource"):
            project(cp, {"gpu": 0.5}, "bad")

    def test_default_projections_zero_each_blamed_resource(self):
        cp = analyze_spans(_mp_spans())
        projections = default_projections(cp)
        assert {p.label for p in projections} == {
            f"{r} -> 0" for r in cp.blame() if r != "engine"
        }
        assert projections[0].label == "ring-wait -> 0"
        speedups = [p.speedup for p in projections]
        assert speedups == sorted(speedups, reverse=True)

    def test_parse_what_if(self):
        assert parse_what_if(["ring-wait=0", "index=0.5"]) == {
            "ring-wait": 0.0, "index": 0.5,
        }
        for bad in ("ring-wait", "gpu=1", "index=fast", "index=-1"):
            with pytest.raises(ValueError):
                parse_what_if([bad])


# ---------------------------------------------------------------------------
# Schema


class TestSchema:
    def payload(self):
        return build_critpath_payload(
            analyze_spans(_mp_spans()), meta={"collection": "synthetic"}
        )

    def test_payload_is_valid_and_round_trips(self, tmp_path):
        payload = self.payload()
        assert payload["schema"] == CRITPATH_SCHEMA_VERSION
        assert validate_critpath(payload) == []
        path = write_critpath(str(tmp_path / CRITPATH_FILENAME), payload)
        assert load_critpath(path) == json.loads(json.dumps(payload))

    @pytest.mark.parametrize(
        "mutate, needle",
        [
            (lambda p: p.pop("blame"), "missing required section"),
            (lambda p: p.update(extra=1), "unknown section"),
            (lambda p: p.update(schema="repro.run.critpath/2"), "!= supported"),
            (lambda p: p.update(schema="other/1"), "is not a"),
            (lambda p: p["blame"].update(gpu=1.0), "unknown resource"),
            (lambda p: p["blame"].update(engine=99.0), "blame sums to"),
            (lambda p: p["edges"][0].pop("src"), "missing key"),
            (lambda p: p["edges"][0].update(resource="gpu"), "unknown resource"),
            (lambda p: p["edges"][0].update(seconds=-1), "negative seconds"),
            (lambda p: p["lanes"].update({"cpu-0": -1}), "non-negative"),
            (lambda p: p["projections"][0].pop("label"), "empty 'label'"),
            (lambda p: p["projections"][0]["scales"].update(gpu=1),
             "unknown resource"),
            (lambda p: p["projections"][0].update(speedup=-2), "speedup"),
        ],
    )
    def test_validator_rejects_malformations(self, mutate, needle):
        payload = self.payload()
        mutate(payload)
        problems = validate_critpath(payload)
        assert problems and any(needle in p for p in problems), problems

    def test_write_refuses_invalid(self, tmp_path):
        payload = self.payload()
        payload["blame"]["engine"] = 1e9
        with pytest.raises(ValueError, match="refusing to write"):
            write_critpath(str(tmp_path / "x.json"), payload)
        assert not (tmp_path / "x.json").exists()


# ---------------------------------------------------------------------------
# Rendering


class TestRendering:
    def test_report_names_the_top_resource_and_ranks_projections(self):
        payload = build_critpath_payload(analyze_spans(_mp_spans()))
        text = render_critpath_report(payload)
        assert "backend multiprocess" in text
        assert "top blame resource: ring-wait" in text
        assert "ring-wait -> 0" in text
        assert "lane parser-0" in text

    def test_diff_flags_the_slowest_growing_resource(self):
        old = build_critpath_payload(analyze_spans(_mp_spans()))
        spans = _mp_spans()
        grown = [
            S(s.name, s.lane, s.start_s, s.end_s + 3, **s.args)
            if s.name in ("build", "run_loop", "write_run") else s
            for s in spans
        ]
        new = build_critpath_payload(analyze_spans(grown))
        text = render_critpath_diff(old, new)
        assert "slowest-growing resource: flush" in text
        assert "backends multiprocess -> multiprocess" in text


# ---------------------------------------------------------------------------
# End-to-end: real builds, the CLI, and the bench block


@pytest.fixture(scope="module")
def built_index(tiny_collection, tmp_path_factory):
    out = str(tmp_path_factory.mktemp("critpath_idx") / "idx")
    IndexingEngine(PlatformConfig(sample_fraction=0.2)).build(
        tiny_collection, out
    )
    return out


class TestCli:
    def test_report_and_artifact(self, built_index, capsys):
        # The fixture's config leaves the backend to the environment
        # (the CI matrix exports REPRO_EXEC_BACKEND suite-wide).
        backend = PlatformConfig(sample_fraction=0.2).exec_backend
        assert main(["critpath", built_index]) == 0
        text = capsys.readouterr().out
        assert f"critical path: backend {backend}" in text
        payload = load_critpath(os.path.join(built_index, CRITPATH_FILENAME))
        assert payload["backend"] == backend
        assert payload["coverage"] == pytest.approx(1.0, abs=1e-6)
        assert payload["meta"]["index_dir"] == os.path.abspath(built_index)

    def test_what_if_flag(self, built_index, capsys):
        assert main(["critpath", built_index, "--no-write",
                     "--what-if", "index=0.5"]) == 0
        assert "what-if index=0.5" in capsys.readouterr().out

    def test_bad_what_if_is_a_usage_error(self, built_index, capsys):
        assert main(["critpath", built_index, "--what-if", "gpu=1"]) == 2
        assert "bad what-if spec" in capsys.readouterr().err

    def test_missing_target_and_missing_trace(self, tmp_path, capsys):
        assert main(["critpath"]) == 2
        empty = tmp_path / "no_trace"
        empty.mkdir()
        assert main(["critpath", str(empty)]) == 2
        capsys.readouterr()

    def test_diff_of_two_artifacts(self, built_index, tmp_path, capsys):
        assert main(["critpath", built_index]) == 0
        capsys.readouterr()
        assert main(["critpath", "--diff", built_index, built_index]) == 0
        out = capsys.readouterr().out
        assert "critpath diff" in out

    def test_chrome_overlay_adds_a_critical_path_lane(
            self, built_index, tmp_path, capsys):
        overlay = str(tmp_path / "overlay.json")
        assert main(["critpath", built_index, "--no-write",
                     "--chrome", overlay]) == 0
        capsys.readouterr()
        events = load_chrome_trace(overlay)
        names = {ev.get("args", {}).get("name") for ev in events
                 if ev.get("ph") == "M"}
        assert "critical-path" in names
        cp_events = [ev for ev in events if ev.get("cat") == "critpath"]
        assert cp_events
        original = load_chrome_trace(
            os.path.join(built_index, TRACE_FILENAME)
        )
        assert len(events) == len(original) + 1 + len(cp_events)


# ---------------------------------------------------------------------------
# The instrumentation must not change the index


_BUILD_LOGS = {MANIFEST_FILENAME, CHECKPOINT_FILENAME,
               METRICS_FILENAME, TRACE_FILENAME, CRITPATH_FILENAME}


def _digest(out_dir: str) -> str:
    h = hashlib.sha256()
    for name in sorted(os.listdir(out_dir)):
        if name in _BUILD_LOGS or os.path.isdir(os.path.join(out_dir, name)):
            continue
        h.update(name.encode())
        with open(os.path.join(out_dir, name), "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


class TestByteIdentity:
    @pytest.mark.parametrize("backend", ["serial", "multiprocess"])
    def test_telemetry_toggle_leaves_the_index_bytes_alone(
            self, backend, tiny_collection, tmp_path):
        digests = []
        for telemetry in (True, False):
            out = str(tmp_path / f"{backend}_{telemetry}")
            cfg = PlatformConfig(
                exec_backend=backend, telemetry=telemetry,
                num_parsers=2, num_cpu_indexers=1, num_gpus=1,
                sample_fraction=0.2, files_per_run=2,
            )
            IndexingEngine(cfg).build(tiny_collection, out)
            digests.append(_digest(out))
        assert digests[0] == digests[1]
