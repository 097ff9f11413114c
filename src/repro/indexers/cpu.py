"""The CPU indexer (Section III.D.1).

"A CPU indexer is executed by a single CPU thread, which follows the
commonly used procedures for building the B-tree and the corresponding
postings lists", with the node's 4-byte string cache consulted first on
every comparison.  The functional work is exactly
:meth:`~repro.indexers.base.BaseIndexer._index_rows`; what is CPU-
specific is the *cost model*: per-node-visit cost depends on whether the
collection's B-tree fits in the core's cache share.

Popular trie collections hold few distinct terms but enormous token
counts, so their small B-trees stay cache-resident and node visits are
cheap — the paper's entire rationale for routing popular collections to
the CPU.  :meth:`CPUIndexer.model_seconds` reproduces this: each
collection's visit cost interpolates between a cache-hit and a DRAM cost
by the fraction of the tree that fits in the modeled cache share.

It also supports consuming *ungrouped* streams (regrouping disabled) for
the ablation of Section III.C, where every token may hop to a different
B-tree and locality collapses.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.dictionary.btree import HEAP, NODES, BTreeStats
from repro.dictionary.layout import NODE_SIZE_BYTES
from repro.indexers.base import (
    _INSERTS, BaseIndexer, IndexerReport, _added_in_order, _row, _walk,
)
from repro.obs import runtime as obs
from repro.parsing.regroup import ParsedBatch

__all__ = ["CPUIndexer", "CPUCostModel"]


@dataclass(frozen=True)
class CPUCostModel:
    """Per-operation costs for one Xeon X5560 core (2.8 GHz era).

    Tuned by :mod:`repro.analysis.calibration` so one CPU indexer thread
    reproduces the paper's ~129.5 MB/s indexing throughput on the
    ClueWeb09 profile (Table IV, column 2).
    """

    #: Seconds per token of stream handling (fetch suffix, postings append).
    per_token_s: float = 90e-9
    #: Seconds per B-tree node visit when the tree is cache-resident.
    node_visit_hot_s: float = 25e-9
    #: Seconds per node visit when the tree spills to DRAM.
    node_visit_cold_s: float = 260e-9
    #: Extra cost when a comparison dereferences the full string.
    full_fetch_s: float = 60e-9
    #: Cost of a node split (allocation + two node copies).
    split_s: float = 900e-9
    #: Cache share available to one indexer thread for hot B-trees
    #: (two quad-cores share 2×8MB L3; parsers compete for it too).
    cache_share_bytes: int = 3 * 1024 * 1024
    #: When regrouping is disabled, every token hops to a different one of
    #: 17,613 trees: each node visit is a dependent chain of cache/TLB
    #: misses with no reuse at all, far beyond the streaming "cold" cost
    #: above.  Calibrated to the paper's ~15× serial-indexer speedup claim
    #: for regrouping (§III.C).
    ungrouped_thrash: float = 9.0

    def visit_cost(self, tree_bytes: "int | np.ndarray") -> "float | np.ndarray":
        """Interpolated per-visit cost by cache residency (scalar or array)."""
        resident = np.minimum(1.0, self.cache_share_bytes / np.maximum(tree_bytes, 1))
        return resident * self.node_visit_hot_s + (1.0 - resident) * self.node_visit_cold_s


class CPUIndexer(BaseIndexer):
    """One indexer thread running on a CPU core."""

    kind = "cpu"

    def __init__(self, indexer_id, shard, cost_model: CPUCostModel | None = None) -> None:
        super().__init__(indexer_id, shard)
        self.cost = cost_model if cost_model is not None else CPUCostModel()

    # ------------------------------------------------------------------ #
    # Functional indexing
    # ------------------------------------------------------------------ #

    def index_batch(self, batch: ParsedBatch, doc_offset: int) -> IndexerReport:
        """Consume all owned collections of one parsed buffer.

        Telemetry is read from :func:`repro.obs.runtime.current` rather
        than held on the indexer: indexers are pickled into the resume
        checkpoint, and a tracer (with its lock) must never ride along.
        """
        with obs.tracer().span(
            "index_batch", cat="index", lane=self.lane, file=batch.sequence,
        ) as tags:
            if batch.regrouped:
                rows = self._owned_rows(batch.order)
                report, tree_rows, grown = self._index_rows(batch, rows, doc_offset)
                report.modeled_seconds += _added_in_order(
                    self._model_collection_seconds(tree_rows, batch.tokens[rows], grown)
                )
            else:
                report = self._index_ungrouped(batch, doc_offset)
            tags["tokens"] = report.tokens
            tags["collections"] = report.collections
        self.total.merge(report)
        reg = obs.metrics()
        reg.count("index.cpu.tokens", report.tokens)
        reg.count("index.cpu.new_terms", report.new_terms)
        reg.count("btree.node_visits", report.btree.node_visits)
        reg.count("btree.node_splits", report.btree.splits)
        reg.count("btree.full_string_fetches", report.btree.full_string_fetches)
        return report

    def _index_ungrouped(self, batch: ParsedBatch, doc_offset: int) -> IndexerReport:
        """Ablation path: tokens in document order, no regrouping.

        Functionally equivalent (same dictionary, same postings, same
        B-tree work) but every token hops to a different collection's
        tree, so the model charges cold-cache node visits throughout — the
        paper reports regrouping is worth ~15× for a serial indexer.  The
        walk sees each token as a span of its own, so its per-span record
        is each token's work.
        """
        cidx_of = batch.entry_cidx[batch.ids]
        rows = self._owned_rows(cidx_of)
        ids = batch.ids[rows]
        collections = cidx_of[rows].tolist()
        trees = list(map(self.shard.tree_for, collections))
        spans = np.arange(len(trees) + 1, dtype=np.int32)
        suffixes = batch.entry_suffix
        lengths = np.fromiter(map(len, suffixes), dtype=np.int64, count=len(suffixes))
        tree_rows = np.fromiter(map(_row, trees), dtype=np.intp, count=len(trees))
        entry_term, records, mutated = _walk(
            self.shard, trees, tree_rows, spans[:-1], spans[1:], ids, suffixes)
        self.accumulator.add_batch(entry_term, ids, batch.docs[rows] + doc_offset)
        grown = self._record(tree_rows, records, mutated, batch)
        total = grown.sum(axis=0).tolist()
        report = IndexerReport(
            tokens=len(ids),
            new_terms=total[_INSERTS],
            characters=int(lengths[ids].sum()),
            documents=batch.num_docs,
            collections=len(set(collections)),
            btree=BTreeStats(*total),
        )
        cost = self.cost
        stats = BTreeStats(*grown.T)
        for visits, fetches, splits in zip(
            stats.node_visits.tolist(), stats.full_string_fetches.tolist(), stats.splits.tolist()
        ):
            report.modeled_seconds += (
                cost.per_token_s
                + visits * cost.node_visit_cold_s * cost.ungrouped_thrash
                + fetches * cost.full_fetch_s
                + splits * cost.split_s
            )
        return report

    # ------------------------------------------------------------------ #
    # Cost model
    # ------------------------------------------------------------------ #

    def _model_collection_seconds(
        self, tree_rows: np.ndarray, tokens: np.ndarray, grown: BTreeStats
    ) -> np.ndarray:
        """Modeled seconds of each regrouped collection's work.

        A tree's modeled size is its nodes plus its strings, one gather
        from the shard's table rows ``tree_rows``.  Elementwise over the
        per-collection arrays, in the order the scalar formula evaluates:
        the same IEEE operations on the same doubles, so the same bits.
        """
        cost = self.cost
        counts = self.shard.counts[tree_rows]
        tree_bytes = counts[:, NODES] * NODE_SIZE_BYTES + counts[:, HEAP]
        return (
            tokens * cost.per_token_s
            + grown.node_visits * cost.visit_cost(tree_bytes)
            + grown.full_string_fetches * cost.full_fetch_s
            + grown.splits * cost.split_s
        )
