"""CPU and GPU indexers: functional equality and cost accounting."""

from __future__ import annotations

import pytest

from repro.dictionary.dictionary import Dictionary, DictionaryShard
from repro.dictionary.trie import TrieTable
from repro.indexers.cpu import CPUCostModel, CPUIndexer
from repro.indexers.gpu import GPUIndexer
from repro.parsing.parser import Parser


def _parse_batch(texts, regroup=True, trie=None):
    parser = Parser(strip_html=False, regroup=regroup, trie=trie)
    batch, _ = parser.parse_texts(texts)
    return batch, parser.trie


TEXTS = [
    "parallel indexers build inverted files quickly on heterogeneous platforms",
    "the indexers consume parsed streams while parsers produce them 1999 zé",
    "parallel parsing with trie collections groups terms for cache locality",
]


def _index_of(indexer, trie):
    """Materialize {term: [(doc, tf)]} from an indexer's state."""
    out = {}
    for cidx, tree in indexer.shard.trees.items():
        prefix = trie.prefix_for(cidx)
        for suffix, tid in tree.items():
            plist = indexer.accumulator.lists.get(tid)
            if plist:
                out[prefix + suffix.decode()] = plist.postings()
    return out


class TestCPUIndexer:
    def test_builds_correct_postings(self):
        batch, trie = _parse_batch(TEXTS)
        ix = CPUIndexer(0, DictionaryShard(trie))
        report = ix.index_batch(batch, doc_offset=0)
        assert report.tokens == batch.total_tokens
        assert report.documents >= len(TEXTS)
        index = _index_of(ix, trie)
        parallel = trie.split("parallel")
        assert index["parallel"] == [(0, 1), (2, 1)]

    def test_doc_offset_applied(self):
        batch, trie = _parse_batch(["solo document words here"])
        ix = CPUIndexer(0, DictionaryShard(trie))
        ix.index_batch(batch, doc_offset=100)
        for plist in ix.accumulator.lists.values():
            assert all(doc == 100 for doc, _ in plist.postings())

    def test_modeled_seconds_positive(self):
        batch, trie = _parse_batch(TEXTS)
        ix = CPUIndexer(0, DictionaryShard(trie))
        report = ix.index_batch(batch, 0)
        assert report.modeled_seconds > 0

    def test_ungrouped_matches_grouped_functionally(self):
        trie = TrieTable()
        grouped, _ = _parse_batch(TEXTS, regroup=True, trie=trie)
        ungrouped, _ = _parse_batch(TEXTS, regroup=False, trie=trie)
        a = CPUIndexer(0, DictionaryShard(trie, shard_id=0))
        b = CPUIndexer(1, DictionaryShard(trie, shard_id=1))
        ra = a.index_batch(grouped, 0)
        rb = b.index_batch(ungrouped, 0)
        assert _index_of(a, trie) == _index_of(b, trie)
        assert ra.tokens == rb.tokens
        assert ra.new_terms == rb.new_terms
        # The ablation's point: same work, far worse modeled locality.
        assert rb.modeled_seconds > ra.modeled_seconds

    def test_ungrouped_reports_the_same_btree_work(self):
        """Each tree sees its suffixes in the same order either way, so the
        document-order path does the grouped path's B-tree work, and its
        report must say so (the ablation's modeled node visits read it)."""
        trie = TrieTable()
        grouped, _ = _parse_batch(TEXTS, regroup=True, trie=trie)
        ungrouped, _ = _parse_batch(TEXTS, regroup=False, trie=trie)
        ra = CPUIndexer(0, DictionaryShard(trie)).index_batch(grouped, 0)
        rb = CPUIndexer(0, DictionaryShard(trie)).index_batch(ungrouped, 0)
        assert (ra.btree.inserts, ra.btree.node_visits, ra.btree.full_string_fetches) == (21, 24, 1)
        assert rb.btree == ra.btree  # all ten fields

    def test_cost_model_cache_interpolation(self):
        cost = CPUCostModel()
        hot = cost.visit_cost(tree_bytes=1024)
        cold = cost.visit_cost(tree_bytes=1 << 30)
        assert hot == pytest.approx(cost.node_visit_hot_s)
        assert cold > hot
        assert cold <= cost.node_visit_cold_s


class TestGPUIndexer:
    def test_requires_regrouped_input(self):
        batch, trie = _parse_batch(TEXTS, regroup=False)
        gpu = GPUIndexer(0, DictionaryShard(trie))
        with pytest.raises(ValueError):
            gpu.index_batch(batch, 0)

    def test_matches_cpu_result(self):
        trie = TrieTable()
        batch, _ = _parse_batch(TEXTS, trie=trie)
        cpu = CPUIndexer(0, DictionaryShard(trie, shard_id=0))
        gpu = GPUIndexer(1, DictionaryShard(trie, shard_id=1))
        cpu.index_batch(batch, 0)
        gpu.index_batch(batch, 0)
        assert _index_of(cpu, trie) == _index_of(gpu, trie)

    def test_kernel_and_transfers_reported(self):
        batch, trie = _parse_batch(TEXTS)
        gpu = GPUIndexer(0, DictionaryShard(trie))
        out = gpu.index_batch(batch, 0)
        assert out.kernel is not None
        assert out.h2d_seconds > 0
        assert out.d2h_seconds > 0
        assert out.total_seconds >= out.kernel.elapsed_seconds
        assert len(out.work_items) == len(batch.collections)

    def test_ownership_respected(self):
        trie = TrieTable()
        batch, _ = _parse_batch(TEXTS, trie=trie)
        some_cidx = next(iter(batch.collections))
        gpu = GPUIndexer(0, DictionaryShard(trie, owned_collections={some_cidx}))
        out = gpu.index_batch(batch, 0)
        assert set(gpu.shard.trees) == {some_cidx}
        assert out.report.collections == 1


class TestDrain:
    def test_drain_between_runs(self):
        batch, trie = _parse_batch(TEXTS)
        ix = CPUIndexer(0, DictionaryShard(trie))
        ix.index_batch(batch, 0)
        first = ix.drain_postings()
        assert first
        assert not ix.accumulator.lists
        # Dictionary persists across runs; postings restart.
        batch2, _ = _parse_batch(["parallel again"], trie=trie)
        ix.index_batch(batch2, doc_offset=50)
        second = ix.drain_postings()
        tid = ix.shard.lookup("parallel")
        assert [d for d, _ in second[tid].postings()] == [50]
