"""Multi-disk run striping (§III.F parallel-reading layout)."""

from __future__ import annotations

import os

import pytest

from repro.core.config import PlatformConfig
from repro.core.engine import IndexingEngine
from repro.postings.output import DocRangeMap, RunWriter
from repro.postings.reader import PostingsReader
from tests.postings_oracle import OraclePostingsList, run_of


def _plist(pairs):
    pl = OraclePostingsList()
    for d, tf in pairs:
        pl.add_posting(d, tf)
    return pl


class TestStripedWriter:
    def test_round_robin_placement(self, tmp_path):
        writer = RunWriter(str(tmp_path), num_stripes=3)
        for run_id in range(6):
            writer.write_run(run_id, run_of({1: _plist([(run_id * 10, 1)])}))
        for run_id in range(6):
            expected_dir = os.path.join(str(tmp_path), f"disk{run_id % 3}")
            assert os.path.exists(
                os.path.join(expected_dir, f"run_{run_id:05d}.post")
            )

    def test_single_stripe_stays_flat(self, tmp_path):
        writer = RunWriter(str(tmp_path), num_stripes=1)
        writer.write_run(0, run_of({1: _plist([(0, 1)])}))
        assert os.path.exists(tmp_path / "run_00000.post")
        assert not os.path.exists(tmp_path / "disk0")

    def test_map_round_trips_relative_paths(self, tmp_path):
        writer = RunWriter(str(tmp_path), num_stripes=2)
        mapping = DocRangeMap()
        for run_id in range(4):
            mapping.add(writer.write_run(run_id, run_of({7: _plist([(run_id, 2)])})))
        mapping.save(str(tmp_path))
        reader = PostingsReader(str(tmp_path))
        assert reader.postings(7) == [(0, 2), (1, 2), (2, 2), (3, 2)]

    def test_invalid_stripes(self, tmp_path):
        with pytest.raises(ValueError):
            RunWriter(str(tmp_path), num_stripes=0)
        with pytest.raises(ValueError):
            PlatformConfig(output_stripes=0)


class TestEngineStriped:
    def test_striped_build_queryable(self, tiny_collection, reference_index, tmp_path):
        out = str(tmp_path / "striped")
        IndexingEngine(
            PlatformConfig(num_parsers=2, num_cpu_indexers=1, num_gpus=1,
                           sample_fraction=0.2, output_stripes=3)
        ).build(tiny_collection, out)
        # Runs really are spread over stripe directories.
        stripes = [d for d in os.listdir(out) if d.startswith("disk")]
        assert len(stripes) == 3
        per_stripe = [
            len([f for f in os.listdir(os.path.join(out, d)) if f.endswith(".post")])
            for d in sorted(stripes)
        ]
        assert sum(per_stripe) == tiny_collection.num_files
        assert max(per_stripe) - min(per_stripe) <= 1  # balanced
        # And the index is byte-identical in content.
        reader = PostingsReader(out)
        for term, expected in reference_index.items():
            assert reader.postings(term) == expected
