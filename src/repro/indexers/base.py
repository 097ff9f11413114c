"""Shared indexer machinery.

Every indexer — CPU thread or GPU kernel — does the same functional job
(Fig 4): for each trie collection it owns, insert each term suffix into
the collection's B-tree and append the occurrence to the term's postings
list, using the global document ID (local ID + the offset the pipeline
assigns when the buffer is consumed).

:class:`IndexerReport` carries the Table V accounting (tokens, terms,
characters routed to this indexer) plus the B-tree work deltas the cost
models consume.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

import numpy as np

from repro.dictionary.btree import BTree, BTreeStats
from repro.dictionary.dictionary import DictionaryShard
from repro.parsing.regroup import ParsedBatch
from repro.postings.lists import PostingsAccumulator

__all__ = ["BaseIndexer", "IndexerReport"]


@dataclass
class IndexerReport:
    """Work performed by one indexer over one batch (or accumulated)."""

    tokens: int = 0
    new_terms: int = 0
    characters: int = 0
    documents: int = 0
    collections: int = 0
    btree: BTreeStats = field(default_factory=BTreeStats)
    #: Modeled execution time in simulated seconds (filled by cost models).
    modeled_seconds: float = 0.0

    def merge(self, other: "IndexerReport") -> None:
        self.tokens += other.tokens
        self.new_terms += other.new_terms
        self.characters += other.characters
        self.documents += other.documents
        self.collections += other.collections
        self.btree.merge(other.btree)
        self.modeled_seconds += other.modeled_seconds


class BaseIndexer:
    """Common stream-consumption logic for CPU and GPU indexers.

    Parameters
    ----------
    indexer_id:
        Unique across the engine; also the dictionary shard id, which
        partitions the term-id space.
    shard:
        The exclusive dictionary shard this indexer owns.

    Thread contract
    ---------------
    ``index_batch`` is safe to run concurrently *across* indexers — each
    owns a disjoint dictionary shard and postings accumulator, and
    telemetry instruments are internally locked — but one indexer's
    batches must be consumed by a single thread at a time, in file order
    (the accumulator requires non-decreasing document IDs per term).
    The serial loop indexes inline on the engine thread; the
    multiprocess backend gives every indexer slot exactly one worker
    process behind a FIFO ring.
    """

    kind = "base"

    def __init__(self, indexer_id: int, shard: DictionaryShard) -> None:
        self.indexer_id = indexer_id
        self.shard = shard
        self.accumulator = PostingsAccumulator()
        self.total = IndexerReport()

    @property
    def lane(self) -> str:
        """Stable trace-lane identity for this indexer's batch spans.

        One lane per indexer, so a timeline shows each indexer's
        ``index_batch`` spans on a row of its own.
        """
        return f"{self.kind}-{self.indexer_id}"

    # ------------------------------------------------------------------ #

    def owns(self, collection_index: int) -> bool:
        return self.shard.owned is None or collection_index in self.shard.owned

    def _owned_rows(self, batch: ParsedBatch) -> np.ndarray:
        """Rows of the batch's collection table this indexer consumes."""
        return np.flatnonzero(list(map(self.owns, batch.order.tolist())))

    def _index_rows(
        self, batch: ParsedBatch, rows: np.ndarray, doc_offset: int
    ) -> tuple[IndexerReport, list[BTree], BTreeStats]:
        """Consume the collections ``rows``, in order.

        This is the inner loop of Fig 4: every suffix is inserted into the
        collection's B-tree (getting the postings pointer) and the
        occurrence appended under the *global* document ID.  When the
        parser supplied positions, each occurrence also records its
        in-document token position.

        Returns the batch's one report (tokens, characters and documents
        are the parser's per-collection counts), the trees touched and a
        :class:`BTreeStats` whose fields are *arrays*, one element per
        collection: how far each tree's counters moved.  A collection has
        its own tree, so the counters are read once before and once after
        the whole walk.
        """
        assert batch.spans is not None
        if batch.positions is not None and len(batch.positions) != len(batch.ids):
            raise ValueError("positions column is not aligned with the token columns")
        trees = [self.shard.tree_for(cidx) for cidx in batch.order[rows].tolist()]
        before = [tree.stats.snapshot() for tree in trees]
        terms_before = sum(tree.term_count for tree in trees)

        # Views, not lists: a slice yields its ints as the walk reaches them.
        suffixes = batch.entry_suffix
        ids = memoryview(batch.ids)
        docs = memoryview(batch.docs + doc_offset)
        add_occurrence = self.accumulator.add_occurrence
        spans = zip(trees, batch.spans[rows].tolist())
        if batch.positions is None:
            for tree, (start, end) in spans:
                insert = tree.insert
                for entry, doc in zip(ids[start:end], docs[start:end]):
                    add_occurrence(insert(suffixes[entry])[0], doc)
        else:
            positions = memoryview(batch.positions)
            for tree, (start, end) in spans:
                insert = tree.insert
                for entry, doc, position in zip(
                    ids[start:end], docs[start:end], positions[start:end]
                ):
                    add_occurrence(insert(suffixes[entry])[0], doc, position)

        after = [tree.stats.snapshot() for tree in trees]
        grown = np.array(after, dtype=np.int64) - np.array(before, dtype=np.int64)
        grown = grown.reshape(-1, len(BTreeStats.__dataclass_fields__))
        report = IndexerReport(
            tokens=int(batch.tokens[rows].sum()),
            new_terms=sum(tree.term_count for tree in trees) - terms_before,
            characters=int(batch.chars[rows].sum()),
            documents=int(batch.documents[rows].sum()),
            collections=len(rows),
            btree=BTreeStats(*grown.sum(axis=0).tolist()),
        )
        return report, trees, BTreeStats(*grown.T)

    def index_batch(self, batch: ParsedBatch, doc_offset: int) -> IndexerReport:
        """Consume all owned collections of one parsed buffer."""
        raise NotImplementedError

    # ------------------------------------------------------------------ #

    def drain_postings(self):
        """End-of-run handoff of accumulated postings (Fig 8)."""
        return self.accumulator.drain()

    def without_forest(self) -> "BaseIndexer":
        """A shallow copy around :meth:`DictionaryShard.without_forest`.

        The indexer's small state — totals, device counters, the shard's
        identity and id cursor — without the dictionary: what a
        checkpoint record pickles.  The forest travels as mutation logs.
        """
        stub = copy.copy(self)
        stub.shard = self.shard.without_forest()
        return stub
