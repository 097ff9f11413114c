"""Telemetry end to end: one real build's artifacts, coverage, CLI.

Complements tests/test_obs.py (component contracts) and the determinism
test in tests/test_engine_integration.py (two identical seeded builds
produce identical counters/gauges/histograms — only ``timings`` and span
timestamps may differ).
"""

from __future__ import annotations

import hashlib
import os
import sys
from unittest import mock

import pytest

from repro.cli import main
from repro.core.config import PlatformConfig
from repro.core.engine import IndexingEngine
from repro.obs import runtime
from repro.obs.schema import (
    METRICS_FILENAME,
    METRICS_SCHEMA_VERSION,
    TRACE_FILENAME,
    load_metrics,
)
from repro.obs.stats import (
    engine_blame,
    lane_utilization,
    span_coverage,
    spans_from_chrome,
)
from repro.obs.trace import Tracer, load_chrome_trace
from repro.robustness.checkpoint import CHECKPOINT_FILENAME, MANIFEST_FILENAME
from repro.robustness.faults import FaultPlan, FaultSpec, inject


def _config(**overrides) -> PlatformConfig:
    defaults = dict(num_parsers=3, num_cpu_indexers=2, num_gpus=2, sample_fraction=0.2)
    defaults.update(overrides)
    return PlatformConfig(**defaults)


@pytest.fixture(scope="module")
def telemetry_build(tmp_path_factory, tiny_collection):
    out = str(tmp_path_factory.mktemp("obs_index"))
    result = IndexingEngine(_config()).build(tiny_collection, out)
    return result, out


class _CallClock:
    """A clock that reads how many function calls and returns (Python and
    C) the thread that installed it has made: a deterministic measure of
    work, where the wall clock is not."""

    def __init__(self) -> None:
        self.events = 0

    def __call__(self, frame, event, arg) -> None:  # the ``sys.setprofile`` hook
        self.events += 1

    def read(self) -> float:
        return float(self.events)


@pytest.fixture(scope="module")
def work_clock_spans(tmp_path_factory, tiny_collection):
    """The spans of a serial build whose tracer runs on a :class:`_CallClock`."""
    out = str(tmp_path_factory.mktemp("obs_work_clock"))
    clock = _CallClock()
    previous = sys.getprofile()
    with mock.patch.object(runtime, "Tracer", lambda: Tracer(clock=clock.read)):
        sys.setprofile(clock)
        try:
            result = IndexingEngine(_config(exec_backend="serial")).build(tiny_collection, out)
        finally:
            sys.setprofile(previous)
    return spans_from_chrome(load_chrome_trace(result.trace_path))


class TestArtifacts:
    def test_paths_reported_and_present(self, telemetry_build):
        result, out = telemetry_build
        assert result.metrics_path == os.path.join(out, METRICS_FILENAME)
        assert result.trace_path == os.path.join(out, TRACE_FILENAME)
        assert os.path.exists(result.metrics_path)
        assert os.path.exists(result.trace_path)

    def test_metrics_schema_valid_and_consistent(self, telemetry_build):
        result, out = telemetry_build
        payload = load_metrics(result.metrics_path)  # raises if invalid
        assert payload["schema"] == METRICS_SCHEMA_VERSION
        counters = payload["counters"]
        # The registry's totals agree with the engine's own accounting.
        assert counters["build.docs"] == result.document_count
        assert counters["build.tokens"] == result.token_count
        assert counters["runs.written"] == result.run_count
        assert (
            counters["index.cpu.tokens"] + counters["index.gpu.tokens"]
            == result.token_count
        )
        assert payload["gauges"]["dictionary.terms"] == result.term_count
        assert payload["timings"]["wall_seconds"] > 0

    def test_trace_loads_and_covers_build(self, telemetry_build, work_clock_spans):
        result, out = telemetry_build
        events = load_chrome_trace(result.trace_path)
        spans = spans_from_chrome(events)
        names = {s.name for s in spans}
        assert {"build", "sampling", "parse_file", "index_batch",
                "write_run"} <= names
        # The acceptance gate: instrumented spans account for >= 95% of
        # the build's work, counted in function calls (a wall-clock bar
        # would let a loaded box decide the verdict).
        assert span_coverage(work_clock_spans, "build") >= 0.95
        lanes = set(lane_utilization(spans, "build"))
        assert "engine" in lanes
        assert any(lane.startswith("parser-") for lane in lanes)

    def test_engine_result_clock_split(self, telemetry_build):
        result, _ = telemetry_build
        assert result.wall_seconds > 0
        # cpu_seconds sums per-stage buckets; with overlapping workers it
        # may exceed wall time but never collapses to zero.
        assert result.cpu_seconds > 0
        assert result.measured_throughput_mbps > 0

    def test_disabled_telemetry_writes_nothing(self, tiny_collection, tmp_path):
        out = str(tmp_path / "quiet")
        result = IndexingEngine(_config(telemetry=False)).build(tiny_collection, out)
        assert result.metrics_path is None and result.trace_path is None
        names = set(os.listdir(out))
        assert METRICS_FILENAME not in names
        assert TRACE_FILENAME not in names
        # The clock split still works without telemetry.
        assert result.wall_seconds > 0 and result.cpu_seconds > 0


class TestCli:
    def test_stats_on_index_dir(self, telemetry_build, capsys):
        """The metrics view moved from ``stats INDEX`` to ``explain``;
        ``stats`` reads collections only."""
        _, out = telemetry_build
        assert main(["explain", out]) == 0
        text = capsys.readouterr().out
        assert "== run.metrics.json ==" in text
        assert "counters:" in text and "build.tokens" in text
        assert "timings (wall-clock" in text
        assert "derived measured throughput:" in text
        assert "(not in" in text  # no --profile, so no run.profile.json
        assert main(["stats", out]) == 2
        assert "manifest.tsv" in capsys.readouterr().err

    def test_trace_report(self, telemetry_build, capsys):
        _, out = telemetry_build
        assert main(["explain", out]) == 0
        text = capsys.readouterr().out
        assert "== trace.json ==" in text
        assert "root span 'build'" in text
        # The blame comes first, then the lane chart, then stage totals.
        order = [text.index(heading) for heading in (
            "where the engine's wall went", "in the indexers (index)",
            "lane utilization", "stage totals:")]
        assert order == sorted(order)

    def test_engine_blame_covers_the_build_wall(self, telemetry_build):
        _, out = telemetry_build
        spans = spans_from_chrome(load_chrome_trace(os.path.join(out, TRACE_FILENAME)))
        (build,) = [s for s in spans if s.name == "build"]
        blame = engine_blame(spans)
        assert {"sampling", "index", "flush", "merge"} <= set(blame)
        assert sum(blame.values()) == pytest.approx(build.duration_s, abs=1e-6)

    def test_stats_diff(self, telemetry_build, tiny_collection, tmp_path, capsys):
        _, out = telemetry_build
        other = str(tmp_path / "other")
        IndexingEngine(_config(num_gpus=0)).build(tiny_collection, other)
        assert main(["explain", "--diff", out, other]) == 0
        text = capsys.readouterr().out
        assert text.startswith(f"diff: {out} -> {other}")
        assert "timings (run.metrics.json):" in text
        # The GPU's work moves to the CPU indexers: both counters change.
        counters = text[text.index("counters (run.metrics.json):"):]
        assert "index.gpu.tokens" in counters and "index.cpu.tokens" in counters

    def test_verify_reports_robustness_counters(self, telemetry_build, capsys):
        _, out = telemetry_build
        assert main(["verify", out]) == 0
        text = capsys.readouterr().out
        assert "robustness counters" in text
        assert "robustness.checkpoint_saves" in text

    def test_verify_fails_on_damaged_metrics(self, telemetry_build, tmp_path, capsys):
        import shutil

        _, out = telemetry_build
        damaged = str(tmp_path / "damaged")
        shutil.copytree(out, damaged)
        with open(os.path.join(damaged, METRICS_FILENAME), "w") as fh:
            fh.write('{"schema": "other/1"}')
        assert main(["verify", damaged]) == 1
        err = capsys.readouterr().err
        assert "metrics-schema" in err

    def test_stats_without_target_errors(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["stats"])
        assert exc.value.code == 2
        assert "collection" in capsys.readouterr().err


class TestExplain:
    """``repro explain`` on real builds, each artifact on or off."""

    def test_multiprocess_build_states_parse_and_index_shares(
            self, tiny_collection, tmp_path, capsys):
        """Unprompted, the report says what share of the wall the engine
        waited on the parse worker (parse + transport) and what share
        the indexers took, and the shares are the blame's.

        The worker starts before sampling and parses ahead, so on this
        collection it can finish every file before the engine asks for
        it; a slow read of file 4 (in the worker, stage ``build``) makes
        sure the engine waits on a parse."""
        out = str(tmp_path / "mp")
        slow = FaultSpec(kind="slow", path_substring="file_00004", stage="build",
                         delay_s=0.1)
        with inject(FaultPlan(specs=(slow,))):
            IndexingEngine(_config(exec_backend="multiprocess")).build(
                tiny_collection, out)
        assert main(["explain", out]) == 0
        text = capsys.readouterr().out
        spans = spans_from_chrome(load_chrome_trace(os.path.join(out, TRACE_FILENAME)))
        blame = engine_blame(spans)
        wall = max(s.duration_s for s in spans if s.name == "build")
        assert {"parse", "transport", "index"} <= set(blame)
        parse_pct = (blame["parse"] + blame["transport"]) / wall * 100
        index_pct = blame["index"] / wall * 100
        assert (f"the engine spent {parse_pct:.1f}% of the build wall on the "
                f"parse side (parse + transport) and {index_pct:.1f}% in the "
                "indexers (index)") in text

    def test_profile_without_telemetry(self, tiny_collection, tmp_path, capsys):
        out = str(tmp_path / "quiet")
        IndexingEngine(_config(telemetry=False, profile=True)).build(
            tiny_collection, out)
        assert main(["explain", out]) == 0
        lines = capsys.readouterr().out.splitlines()
        missing = [line for line in lines if line.startswith("(not in")]
        assert missing == [f"(not in {out}: {TRACE_FILENAME}, {METRICS_FILENAME})"]
        assert "== run.profile.json ==" in lines
        assert not any(line.startswith(("== trace", "== run.metrics")) for line in lines)

    def test_diff_of_a_build_with_itself(self, telemetry_build, capsys):
        _, out = telemetry_build
        assert main(["explain", "--diff", out, out]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == "(no differences)"

    def test_empty_directory_exits_2(self, tmp_path, capsys):
        assert main(["explain", str(tmp_path)]) == 2
        assert "error:" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# The instrumentation must not change the index


_BUILD_LOGS = {MANIFEST_FILENAME, CHECKPOINT_FILENAME,
               METRICS_FILENAME, TRACE_FILENAME}


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
