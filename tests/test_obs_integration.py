"""Telemetry end to end: one real build's artifacts, coverage, CLI.

Complements tests/test_obs.py (component contracts) and the determinism
test in tests/test_engine_integration.py (two identical seeded builds
produce identical counters/gauges/histograms — only ``timings`` and span
timestamps may differ).
"""

from __future__ import annotations

import hashlib
import os

import pytest

from repro.cli import main
from repro.core.config import PlatformConfig
from repro.core.engine import IndexingEngine
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
from repro.obs.trace import load_chrome_trace
from repro.robustness.checkpoint import CHECKPOINT_FILENAME, MANIFEST_FILENAME


def _config(**overrides) -> PlatformConfig:
    defaults = dict(num_parsers=3, num_cpu_indexers=2, num_gpus=2, sample_fraction=0.2)
    defaults.update(overrides)
    return PlatformConfig(**defaults)


@pytest.fixture(scope="module")
def telemetry_build(tmp_path_factory, tiny_collection):
    out = str(tmp_path_factory.mktemp("obs_index"))
    result = IndexingEngine(_config()).build(tiny_collection, out)
    return result, out


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

    def test_trace_loads_and_covers_build(self, telemetry_build):
        result, out = telemetry_build
        events = load_chrome_trace(result.trace_path)
        spans = spans_from_chrome(events)
        names = {s.name for s in spans}
        assert {"build", "sampling", "parse_file", "index_batch",
                "write_run"} <= names
        # The acceptance gate: instrumented spans account for >= 95% of
        # the build's wall time.
        assert span_coverage(spans, "build") >= 0.95
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
        _, out = telemetry_build
        assert main(["stats", out]) == 0
        text = capsys.readouterr().out
        assert "counters:" in text and "build.tokens" in text
        assert "timings (wall-clock" in text

    def test_trace_report(self, telemetry_build, capsys):
        _, out = telemetry_build
        assert main(["trace", out]) == 0
        text = capsys.readouterr().out
        assert "root span 'build'" in text
        assert "lane utilization" in text
        assert "where the engine's wall went" in text
        assert "in the indexers (index)" in text
        assert "stage totals:" in text

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
        assert main(["stats", "--diff", out, other]) == 0
        text = capsys.readouterr().out
        assert "per-stage timings" in text
        assert "index.gpu.tokens" in text  # gpu work disappears in the diff

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
        assert main(["stats"]) == 2
        assert "collection/index directory" in capsys.readouterr().err


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
