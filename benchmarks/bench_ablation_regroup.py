"""Ablation A — Step-5 regrouping on vs off (§III.C).

"Even in the case when indexing is carried out by a serial CPU thread,
regrouping results in approximately 15-fold speedup ... due to improved
cache performance caused by the additional temporal locality."

Functionally both paths build identical indexes (asserted); the modeled
serial-indexing time ratio comes from the cache cost model, and the
wall-clock benchmark times the real grouped pipeline.
"""

from __future__ import annotations

from conftest import report

from repro.dictionary.dictionary import DictionaryShard
from repro.dictionary.trie import TrieTable
from repro.indexers.cpu import CPUIndexer
from repro.parsing.parser import Parser
from repro.util.fmt import render_table


def _index_batches(collection, regroup: bool, n_files: int = 4):
    trie = TrieTable()
    parser = Parser(trie=trie, regroup=regroup)
    indexer = CPUIndexer(0, DictionaryShard(trie))
    modeled = 0.0
    doc_offset = 0
    for seq, path in enumerate(collection.files[:n_files]):
        parsed = parser.parse_file(path, sequence=seq)
        rep = indexer.index_batch(parsed.batch, doc_offset)
        modeled += rep.modeled_seconds
        doc_offset += parsed.batch.num_docs
    return indexer, modeled


def test_regroup_ablation(benchmark, cw_mini):
    grouped, grouped_s = benchmark.pedantic(
        _index_batches, args=(cw_mini, True), rounds=1, iterations=1
    )
    ungrouped, ungrouped_s = _index_batches(cw_mini, False)

    # Identical dictionaries and B-tree work either way: each tree sees its
    # suffixes in the same order.
    assert dict(grouped.shard.terms()).keys() == dict(ungrouped.shard.terms()).keys()
    assert grouped.total.tokens == ungrouped.total.tokens
    assert grouped.total.btree == ungrouped.total.btree

    speedup = ungrouped_s / grouped_s
    rows = [
        ["regrouped (Step 5 on)", f"{grouped_s:.4f}", "1.00x"],
        ["document order (Step 5 off)", f"{ungrouped_s:.4f}", f"{speedup:.1f}x slower"],
        ["[paper] serial-indexer speedup from regrouping", "", "~15x"],
    ]
    report(
        "ablation_regroup",
        render_table(["Serial CPU indexing", "Modeled seconds", "Relative"], rows),
    )
    # The cache-locality model should put the win in the paper's decade.
    assert 4.0 < speedup < 40.0
