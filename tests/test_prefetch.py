"""Parse prefetching (the serial loop's read-ahead pool): identical output."""

from __future__ import annotations

import filecmp
import os

import pytest

from repro.core.config import PlatformConfig
from repro.core.engine import IndexingEngine
from tests.conftest import deterministic_metric_sections


def _cfg(**overrides) -> PlatformConfig:
    defaults = dict(num_parsers=3, num_cpu_indexers=2, num_gpus=1, sample_fraction=0.3)
    defaults.update(overrides)
    return PlatformConfig(**defaults)


def _assert_same_index_files(a: str, b: str) -> None:
    # build.manifest embeds a config fingerprint (resume safety), and
    # parse_prefetch is part of the config — compare index artifacts.
    # The telemetry artifacts carry wall-clock data and the same config
    # fingerprint; their deterministic metric sections are compared
    # structurally instead (docs/OBSERVABILITY.md).
    from repro.obs.schema import METRICS_FILENAME, TRACE_FILENAME

    excluded = {"build.manifest", METRICS_FILENAME, TRACE_FILENAME}
    names = sorted(n for n in os.listdir(a) if n not in excluded)
    assert names == sorted(n for n in os.listdir(b) if n not in excluded)
    for name in names:
        assert filecmp.cmp(
            os.path.join(a, name), os.path.join(b, name), shallow=False
        ), name


class TestPrefetch:
    @pytest.mark.parametrize("prefetch", [1, 2, 4])
    def test_prefetched_build_byte_identical(self, prefetch, tiny_collection, tmp_path):
        serial_dir = str(tmp_path / "serial")
        prefetch_dir = str(tmp_path / "prefetch")
        IndexingEngine(_cfg(parse_prefetch=0)).build(tiny_collection, serial_dir)
        result = IndexingEngine(_cfg(parse_prefetch=prefetch)).build(
            tiny_collection, prefetch_dir
        )
        assert result.document_count == tiny_collection.num_docs
        _assert_same_index_files(serial_dir, prefetch_dir)
        # Prefetching must not change what work was done, only when.
        assert deterministic_metric_sections(serial_dir) == deterministic_metric_sections(
            prefetch_dir
        )

    def test_prefetch_with_positions_and_grouped_runs(self, tiny_collection, tmp_path):
        out = str(tmp_path / "combo")
        result = IndexingEngine(
            _cfg(parse_prefetch=3, positional=True, files_per_run=2)
        ).build(tiny_collection, out)
        assert result.run_count == -(-tiny_collection.num_files // 2)
        from repro.postings.reader import PostingsReader

        reader = PostingsReader(out)
        assert reader.is_positional
        assert reader.vocabulary()
        plain = str(tmp_path / "plain")
        IndexingEngine(_cfg(positional=True, files_per_run=2)).build(
            tiny_collection, plain
        )
        _assert_same_index_files(plain, out)

    def test_invalid_prefetch(self):
        with pytest.raises(ValueError):
            PlatformConfig(parse_prefetch=-1)


class TestTraceLanes:
    """Regression: each prefetch worker thread owns one trace lane.

    The old code reassigned the shared ``parser_id`` (``k % num_parsers``)
    per file, so spans from different worker threads landed interleaved on
    the same ``parser-N`` lane and overlapped.  Lanes now key on the worker
    thread (``parser-wN``); the logical parser slot survives as the span's
    ``parser`` attribute.
    """

    def test_parse_spans_never_overlap_within_a_lane(self, tiny_collection, tmp_path):
        from repro.obs.schema import TRACE_FILENAME
        from repro.obs.stats import spans_from_chrome
        from repro.obs.trace import load_chrome_trace

        out = str(tmp_path / "lanes")
        # Pin the in-process engine loop: the parser-w* thread-lane
        # discipline under test is the prefetch pool's.  (The
        # multiprocess backend gives each parser *process* its own
        # residue-class lane, so overlap is impossible there by
        # construction.)
        IndexingEngine(
            _cfg(parse_prefetch=3, num_parsers=2, exec_backend="serial")
        ).build(tiny_collection, out)
        spans = spans_from_chrome(
            load_chrome_trace(os.path.join(out, TRACE_FILENAME))
        )
        parses = [s for s in spans if s.name == "parse_file"]
        assert parses
        by_lane: dict[str, list] = {}
        for s in parses:
            by_lane.setdefault(s.lane, []).append(s)
        for lane, lane_spans in by_lane.items():
            assert lane.startswith("parser-w"), lane
            lane_spans.sort(key=lambda s: s.start_s)
            for a, b in zip(lane_spans, lane_spans[1:]):
                assert a.end_s <= b.start_s, (
                    f"overlapping parse_file spans on lane {lane}"
                )
        # The logical parser slot is still recorded, just as an attribute.
        assert {s.args.get("parser") for s in parses} == {0, 1}
