"""End-to-end engine builds: correctness against ground truth, reader
round trips, config variants, and Table V accounting."""

from __future__ import annotations

import os

import pytest

from repro.core.config import PlatformConfig
from repro.core.engine import IndexingEngine
from repro.postings.merge import merge_index
from repro.postings.reader import PostingsReader
from tests.conftest import deterministic_metric_sections


def _small_config(**overrides) -> PlatformConfig:
    defaults = dict(num_parsers=3, num_cpu_indexers=2, num_gpus=2, sample_fraction=0.2)
    defaults.update(overrides)
    return PlatformConfig(**defaults)


@pytest.fixture(scope="module")
def built(tmp_path_factory, tiny_collection):
    out = str(tmp_path_factory.mktemp("index"))
    engine = IndexingEngine(_small_config())
    result = engine.build(tiny_collection, out)
    return result, out


class TestBuildCorrectness:
    def test_index_matches_reference(self, built, reference_index):
        result, out = built
        reader = PostingsReader(out)
        vocab = reader.vocabulary()
        assert set(vocab) == set(reference_index)
        for term, expected in reference_index.items():
            assert reader.postings(term) == expected, term

    def test_counts_consistent(self, built, reference_index, tiny_collection):
        result, _ = built
        assert result.term_count == len(reference_index)
        assert result.document_count == tiny_collection.num_docs
        assert result.token_count == sum(
            tf for pl in reference_index.values() for _, tf in pl
        )
        assert result.posting_count == sum(len(pl) for pl in reference_index.values())
        assert result.run_count == tiny_collection.num_files

    def test_output_files_present(self, built, tiny_collection):
        _, out = built
        names = set(os.listdir(out))
        assert "dictionary.bin" in names
        assert "runs.map" in names
        runs = [n for n in names if n.startswith("run_")]
        assert len(runs) == tiny_collection.num_files

    def test_range_narrowed_query(self, built, reference_index):
        _, out = built
        reader = PostingsReader(out)
        term = max(reference_index, key=lambda t: len(reference_index[t]))
        full = reader.postings(term)
        mid = full[len(full) // 2][0]
        narrowed = reader.postings_in_range(term, 0, mid)
        assert narrowed == [p for p in full if p[0] <= mid]

    def test_merge_preserves_postings(self, built, reference_index, tmp_path):
        _, out = built
        merged_dir = str(tmp_path / "merged")
        stats = merge_index(out, merged_dir)
        assert stats["terms"] == len(reference_index)
        merged = PostingsReader(merged_dir)
        term = next(iter(reference_index))
        assert merged.postings(term) == reference_index[term]

    def test_table5_split_accounts_all_tokens(self, built):
        result, _ = built
        split = result.split
        assert split.cpu_tokens + split.gpu_tokens == result.token_count
        assert split.cpu_terms + split.gpu_terms == result.term_count
        assert split.cpu_tokens > 0 and split.gpu_tokens > 0

    def test_simulated_report_rows(self, built):
        result, _ = built
        rep = result.report
        assert rep.total_s > 0
        assert rep.pipeline.num_files == result.run_count
        assert len(result.file_works) == result.run_count
        assert result.wall_seconds > 0
        assert result.stopwatch.get("parse") > 0


class TestDeterminism:
    def test_two_builds_are_byte_identical(self, tiny_collection, tmp_path):
        """Same collection + config → identical on-disk artifacts.

        The telemetry artifacts are the deliberate exception: they carry
        wall-clock measurements (``timings`` section, span timestamps),
        so they are compared structurally instead — everything except
        timings must match exactly (see docs/OBSERVABILITY.md).
        """
        import filecmp
        import os

        from repro.obs.schema import METRICS_FILENAME, TRACE_FILENAME, load_metrics

        outs = []
        for tag in ("a", "b"):
            out = str(tmp_path / tag)
            IndexingEngine(_small_config()).build(tiny_collection, out)
            outs.append(out)
        names = sorted(os.listdir(outs[0]))
        assert names == sorted(os.listdir(outs[1]))
        wall_clock_artifacts = {METRICS_FILENAME, TRACE_FILENAME}
        for name in names:
            if name in wall_clock_artifacts:
                continue
            assert filecmp.cmp(
                os.path.join(outs[0], name), os.path.join(outs[1], name), shallow=False
            ), name

        a, b = (load_metrics(os.path.join(out, METRICS_FILENAME)) for out in outs)
        for section in ("schema", "meta"):
            assert a[section] == b[section], section
        assert deterministic_metric_sections(outs[0]) == deterministic_metric_sections(outs[1])


class TestConfigVariants:
    @pytest.mark.parametrize(
        "overrides",
        [
            dict(num_cpu_indexers=1, num_gpus=0),
            dict(num_cpu_indexers=0, num_gpus=2),
            dict(num_cpu_indexers=2, num_gpus=0),
            dict(codec="gamma"),
            dict(trie_height=2),
            dict(btree_degree=8),
            dict(use_string_cache=False),
            dict(gpu_schedule="static"),
        ],
        ids=[
            "1cpu", "gpu-only", "2cpu", "gamma-codec",
            "trie-h2", "degree-8", "no-cache", "static-sched",
        ],
    )
    def test_all_variants_build_identical_indexes(
        self, overrides, tiny_collection, reference_index, tmp_path
    ):
        out = str(tmp_path / "idx")
        result = IndexingEngine(_small_config(**overrides)).build(tiny_collection, out)
        reader = PostingsReader(out)
        assert set(reader.vocabulary()) == set(reference_index)
        # Spot-check the heaviest terms end to end.
        top = sorted(reference_index, key=lambda t: -len(reference_index[t]))[:20]
        for term in top:
            assert reader.postings(term) == reference_index[term], term

    def test_regroup_disabled_cpu_only(self, tiny_collection, reference_index, tmp_path):
        out = str(tmp_path / "idx")
        cfg = _small_config(num_gpus=0, num_cpu_indexers=2, regroup=False)
        IndexingEngine(cfg).build(tiny_collection, out)
        reader = PostingsReader(out)
        assert set(reader.vocabulary()) == set(reference_index)

    def test_regroup_disabled_with_gpus_rejected(self):
        with pytest.raises(ValueError):
            IndexingEngine(_small_config(regroup=False))

    def test_gpu_only_split_is_all_gpu(self, tiny_collection, tmp_path):
        out = str(tmp_path / "idx")
        result = IndexingEngine(
            _small_config(num_cpu_indexers=0, num_gpus=2)
        ).build(tiny_collection, out)
        assert result.split.cpu_tokens == 0
        assert result.split.gpu_tokens == result.token_count


class TestTextCollection:
    def test_strip_html_off(self, tiny_text_collection, tmp_path):
        out = str(tmp_path / "idx")
        cfg = _small_config(strip_html=False)
        result = IndexingEngine(cfg).build(tiny_text_collection, out)
        assert result.term_count > 0
        reader = PostingsReader(out)
        assert len(reader.vocabulary()) == result.term_count


class TestRouteTable:
    def test_a_tall_trie_costs_the_collections_seen(self, tmp_path):
        """The engine's route table grows with the collections a build
        touches, not with the trie: a table over all 309 M collections of a
        height-6 trie would be 618 MB.  Allocations are counted (traced
        peak), not timed."""
        import tracemalloc

        from repro.corpus.synthetic import CollectionSpec, SegmentSpec, generate_collection

        spec = CollectionSpec(name="tall", seed=3, segments=(SegmentSpec(
            name="main", num_files=1, docs_per_file=5, tokens_per_doc_mean=60,
            vocab_size=2000, zipf_s=1.0, html=True,
        ),))
        collection = generate_collection(spec, str(tmp_path / "corpus"))
        engine = IndexingEngine(_small_config(trie_height=6, telemetry=False))
        tracemalloc.start()
        try:
            result = engine.build(collection, str(tmp_path / "idx"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.term_count > 0
        assert peak < 16 << 20, f"traced peak {peak / 2**20:.1f} MB"
