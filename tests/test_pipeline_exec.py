"""Pipelined execution: bounded queues, identical bytes, clean resume.

The contract under test (docs/ARCHITECTURE.md, "Pipeline execution"):
``pipeline_depth > 0`` overlaps parsing with indexing on worker threads,
but the index that comes out — runs, dictionary, doctable, runs.map —
is byte-identical to a serial build, and every deterministic metric
matches too.  Only wall-clock ``timings`` and the ``pipeline.*``
instruments (absent in serial builds) may differ.
"""

from __future__ import annotations

import filecmp
import hashlib
import os

import pytest

from repro.core.config import PIPELINE_DEPTH_ENV, PlatformConfig
from repro.core.engine import IndexingEngine
from repro.obs.schema import METRICS_FILENAME, TRACE_FILENAME, load_metrics
from repro.postings.reader import PostingsReader
from repro.robustness.checkpoint import (
    CHECKPOINT_FILENAME,
    MANIFEST_FILENAME,
    load_checkpoint,
)
from repro.robustness.errors import FatalFault
from repro.robustness.faults import FaultPlan, FaultSpec, inject
from tests.conftest import deterministic_metric_sections

_BUILD_LOGS = {MANIFEST_FILENAME, CHECKPOINT_FILENAME,
               METRICS_FILENAME, TRACE_FILENAME}


def _cfg(**overrides) -> PlatformConfig:
    defaults = dict(
        num_parsers=3, num_cpu_indexers=2, num_gpus=2,
        sample_fraction=0.2, files_per_run=2, pipeline_depth=0,
    )
    defaults.update(overrides)
    return PlatformConfig(**defaults)


def _digest(out_dir: str) -> str:
    """One hash over every index artifact (build logs excluded)."""
    h = hashlib.sha256()
    for name in sorted(os.listdir(out_dir)):
        if name in _BUILD_LOGS or os.path.isdir(os.path.join(out_dir, name)):
            continue
        h.update(name.encode())
        with open(os.path.join(out_dir, name), "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


class TestByteIdentical:
    @pytest.mark.parametrize("depth", [1, 2, 4])
    def test_pipelined_build_matches_serial(self, depth, tiny_collection, tmp_path):
        serial_dir = str(tmp_path / "serial")
        piped_dir = str(tmp_path / "piped")
        IndexingEngine(_cfg()).build(tiny_collection, serial_dir)
        result = IndexingEngine(_cfg(pipeline_depth=depth)).build(
            tiny_collection, piped_dir
        )
        assert result.document_count == tiny_collection.num_docs
        excluded = {"build.manifest", METRICS_FILENAME, TRACE_FILENAME}
        names = sorted(n for n in os.listdir(serial_dir) if n not in excluded)
        assert names == sorted(
            n for n in os.listdir(piped_dir) if n not in excluded
        )
        for name in names:
            assert filecmp.cmp(
                os.path.join(serial_dir, name),
                os.path.join(piped_dir, name),
                shallow=False,
            ), name
        assert deterministic_metric_sections(serial_dir) == deterministic_metric_sections(piped_dir)

    def test_pipelined_with_prefetch_and_positions(self, tiny_collection, tmp_path):
        serial_dir = str(tmp_path / "serial")
        piped_dir = str(tmp_path / "piped")
        IndexingEngine(_cfg(positional=True)).build(tiny_collection, serial_dir)
        IndexingEngine(
            _cfg(positional=True, pipeline_depth=3, parse_prefetch=2)
        ).build(tiny_collection, piped_dir)
        assert _digest(serial_dir) == _digest(piped_dir)
        reader = PostingsReader(piped_dir)
        assert reader.is_positional and reader.vocabulary()

    def test_two_pipelined_builds_deterministic(self, tiny_collection, tmp_path):
        # Same-named output dirs under same-length parents: even
        # checkpoint.bytes (which embeds absolute paths) must agree, as
        # must every pipeline.* counter/gauge/histogram — the pipeline
        # instruments are pure functions of the dispatch sequence.
        # (shm.ring.* wait polls/seconds and occupancy are wall-clock
        # measurements, so they stay out even between identical builds
        # when the CI matrix forces the multiprocess backend.)
        a = str(tmp_path / "a" / "idx")
        b = str(tmp_path / "b" / "idx")
        IndexingEngine(_cfg(pipeline_depth=2)).build(tiny_collection, a)
        IndexingEngine(_cfg(pipeline_depth=2)).build(tiny_collection, b)
        assert _digest(a) == _digest(b)
        am = load_metrics(os.path.join(a, METRICS_FILENAME))
        bm = load_metrics(os.path.join(b, METRICS_FILENAME))
        for section in ("counters", "gauges", "histograms"):
            cut = {
                side: {k: v for k, v in payload[section].items()
                       if not k.startswith("shm.ring.")}
                for side, payload in (("a", am), ("b", bm))
            }
            assert cut["a"] == cut["b"], section


class TestPipelineStats:
    def test_stats_surfaced_and_exported(self, tiny_collection, tmp_path):
        out = str(tmp_path / "idx")
        # Pin the threaded backend: the idle accounting asserted below is
        # the worker-*thread* pool's (REPRO_EXEC_BACKEND may say otherwise).
        result = IndexingEngine(
            _cfg(pipeline_depth=3, exec_backend="threaded")
        ).build(tiny_collection, out)
        p = result.pipeline
        assert p is not None
        assert p.depth == 3
        assert p.workers == 4  # 2 CPU shards + 2 simulated GPUs
        assert p.files == tiny_collection.num_files
        assert p.tasks >= p.files  # grouped mode fans each file out
        assert 1 <= p.max_inflight <= 3
        assert sum(p.worker_tasks.values()) == p.tasks
        # Wall-clock pipeline accounting lands in the quarantined
        # timings section, never in the deterministic registry.
        payload = load_metrics(os.path.join(out, METRICS_FILENAME))
        assert any(k.startswith("pipeline.idle.") for k in payload["timings"])
        assert payload["gauges"]["pipeline.depth"] == 3
        assert payload["gauges"]["pipeline.queue_depth"] == 0  # drained
        assert "pipeline.inflight" in payload["histograms"]

    def test_serial_build_has_no_pipeline(self, tiny_collection, tmp_path):
        out = str(tmp_path / "idx")
        result = IndexingEngine(_cfg(exec_backend="serial")).build(
            tiny_collection, out
        )
        assert result.pipeline is None
        payload = load_metrics(os.path.join(out, METRICS_FILENAME))
        assert not any(k.startswith("pipeline.") for k in payload["gauges"])


class TestFaultsUnderPipelining:
    def test_crash_then_resume_byte_identical(self, tiny_collection, tmp_path):
        """Resume × concurrency: prefetch + pipelining + mid-build crash."""
        concurrent = _cfg(pipeline_depth=2, parse_prefetch=2)
        base_out = str(tmp_path / "base")
        IndexingEngine(_cfg()).build(tiny_collection, base_out)
        out = str(tmp_path / "idx")
        plan = FaultPlan(specs=[
            FaultSpec(kind="fatal", path_substring="file_00004", stage="build"),
        ])
        with inject(plan):
            with pytest.raises(FatalFault):
                IndexingEngine(concurrent).build(tiny_collection, out)
        # The quiesced run boundaries left durable state behind.
        state = load_checkpoint(out)
        assert state["run_count"] == 2 and state["next_file_index"] == 4
        result = IndexingEngine(concurrent).build(
            tiny_collection, out, resume=True
        )
        assert result.robustness.resumed_runs == 2
        assert result.run_count == 3
        assert _digest(out) == _digest(base_out)
        assert not os.path.exists(os.path.join(out, CHECKPOINT_FILENAME))

    def test_gpu_failover_quiesces_and_preserves_postings(
        self, tiny_collection, tmp_path
    ):
        base_out = str(tmp_path / "base")
        base_result = IndexingEngine(_cfg()).build(tiny_collection, base_out)
        out = str(tmp_path / "idx")
        plan = FaultPlan(specs=[FaultSpec(kind="gpu_fail", gpu_index=0, file_index=3)])
        with inject(plan):
            result = IndexingEngine(_cfg(pipeline_depth=2)).build(
                tiny_collection, out
            )
        (fo,) = result.robustness.gpu_failovers
        assert fo.gpu_ordinal == 0 and fo.file_index == 3
        base = PostingsReader(base_out)
        degraded = PostingsReader(out)
        assert set(degraded.vocabulary()) == set(base.vocabulary())
        for term in base.vocabulary():
            assert degraded.postings(term) == base.postings(term), term
        assert result.split.gpu_tokens < base_result.split.gpu_tokens


class TestConfig:
    def test_negative_depth_rejected(self):
        with pytest.raises(ValueError, match="pipeline_depth"):
            PlatformConfig(pipeline_depth=-1)

    def test_env_override_sets_default(self, monkeypatch):
        monkeypatch.setenv(PIPELINE_DEPTH_ENV, "5")
        assert PlatformConfig().pipeline_depth == 5
        # An explicit value still wins over the environment.
        assert PlatformConfig(pipeline_depth=0).pipeline_depth == 0

    def test_malformed_env_rejected(self, monkeypatch):
        monkeypatch.setenv(PIPELINE_DEPTH_ENV, "fast")
        with pytest.raises(ValueError, match=PIPELINE_DEPTH_ENV):
            PlatformConfig()

    def test_describe_mentions_pipelining(self):
        assert "pipelined (depth 2)" in PlatformConfig(pipeline_depth=2).describe()
        assert "pipelined" not in PlatformConfig(pipeline_depth=0).describe()
