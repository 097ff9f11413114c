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
from itertools import chain
from operator import attrgetter

import numpy as np

from repro.dictionary.btree import _COUNTERS, BTree, BTreeStats
from repro.dictionary.dictionary import DictionaryShard
from repro.parsing.regroup import ParsedBatch
from repro.postings.lists import PostingsAccumulator, RunPostings

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


_stats = attrgetter("stats")
_NCOUNTERS = len(BTreeStats.__dataclass_fields__)
_INSERTS = list(BTreeStats.__dataclass_fields__).index("inserts")

#: The counters a descent that finds its suffix and splits nothing moves,
#: besides ``duplicate_hits``.
_repeat_counters = attrgetter(
    "node_visits", "key_comparisons", "cache_resolved", "full_string_fetches", "depth_sum"
)


def _counters(trees: list[BTree]) -> np.ndarray:
    """Every tree's ten counters, back to back in field order."""
    return np.fromiter(
        chain.from_iterable(map(_COUNTERS, map(_stats, trees))),
        dtype=np.int64, count=_NCOUNTERS * len(trees),
    )


def _walk(spans, ids, suffixes: list[bytes], repeated: list[bool]) -> list[int]:
    """Insert every token's suffix into its span's tree; entry id → term id.

    ``spans`` yields ``(tree, start, end, has_repeats)`` over ``ids``.  A
    descent that finds its suffix and splits no node is a pure function of
    (tree, suffix): while the tree has gained neither a term nor a node
    since an entry's last descent, its next occurrence would move the
    counters by exactly what that descent did, so it is charged without
    descending.  A descent that inserts or splits charges what is pending
    and forgets every recorded descent of the tree.  Term ids, the
    mutation log and every counter come out as if each token had descended.
    """
    entry_term = [0] * len(suffixes)
    for tree, start, end, has_repeats in spans:
        insert = tree.insert
        if not has_repeats:
            for entry in ids[start:end]:
                entry_term[entry] = insert(suffixes[entry])[0]
            continue
        stats = tree.stats
        #: entry → [repeats pending, counters before its descent, after].
        recorded: dict[int, list] = {}
        nodes = tree.node_count
        for entry in ids[start:end]:
            record = recorded.get(entry)
            if record is not None:
                record[0] += 1
                continue
            before = repeated[entry] and _repeat_counters(stats)
            entry_term[entry], created = insert(suffixes[entry])
            if created or tree.node_count != nodes:
                nodes = tree.node_count
                _charge(recorded, stats)
                recorded.clear()
            elif before:
                recorded[entry] = [0, before, _repeat_counters(stats)]
        _charge(recorded, stats)
    return entry_term


def _charge(recorded: dict[int, list], stats: BTreeStats) -> None:
    """Add every pending repeat of ``recorded`` to the tree's counters."""
    for pending, before, after in recorded.values():
        if pending:
            stats.duplicate_hits += pending
            stats.node_visits += pending * (after[0] - before[0])
            stats.key_comparisons += pending * (after[1] - before[1])
            stats.cache_resolved += pending * (after[2] - before[2])
            stats.full_string_fetches += pending * (after[3] - before[3])
            stats.depth_sum += pending * (after[4] - before[4])


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
    Both execution backends index inline on the engine thread.
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
        owned = self.shard.owned
        if owned is None:
            return np.arange(len(batch.order))
        return np.flatnonzero(np.isin(batch.order, np.fromiter(owned, np.int32, len(owned))))

    def _index_rows(
        self, batch: ParsedBatch, rows: np.ndarray, doc_offset: int
    ) -> tuple[IndexerReport, list[BTree], BTreeStats]:
        """Consume the collections ``rows``, in order.

        This is the inner loop of Fig 4: every suffix is inserted into the
        collection's B-tree (getting the postings pointer, :func:`_walk`)
        and the occurrences appended under the *global* document ID, one
        chunk of postings columns per batch
        (:meth:`~repro.postings.lists.PostingsAccumulator.add_batch`).
        When the parser supplied positions, each occurrence also records
        its in-document token position.

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
        owned = batch.order[rows].tolist()
        trees = list(map(self.shard.trees.get, owned))
        if None in trees:
            # A collection's first batch creates its tree.  (``is None``:
            # an empty tree is falsy.)
            tree_for = self.shard.tree_for
            trees = [tree_for(cidx) if tree is None else tree for cidx, tree in zip(owned, trees)]
        before = _counters(trees)

        # The owned tokens, back to back in row order.  (int32 throughout:
        # a batch's columns are; the temporaries stay half the size.)
        starts, ends = batch.spans[rows].T.astype(np.int32)
        lengths = ends - starts
        tiled = np.cumsum(lengths, dtype=np.int32)
        offsets = tiled - lengths
        take = np.repeat(starts - offsets, lengths)
        take += np.arange(len(take), dtype=np.int32)
        ids = batch.ids[take]
        # An entry that occurs once in the batch can have no repeat to charge.
        repeated = np.bincount(ids, minlength=len(batch.entry_suffix)) > 1
        repeats = np.zeros(len(ids) + 1, dtype=np.int32)
        np.cumsum(repeated[ids], out=repeats[1:])
        entry_term = _walk(
            zip(trees, offsets.tolist(), tiled.tolist(),
                (repeats[tiled] > repeats[offsets]).tolist()),
            memoryview(ids), batch.entry_suffix, repeated.tolist(),
        )
        self.accumulator.add_batch(
            entry_term,
            ids,
            batch.docs[take] + doc_offset,
            None if batch.positions is None else batch.positions[take],
        )

        grown = (_counters(trees) - before).reshape(-1, _NCOUNTERS)
        total = grown.sum(axis=0).tolist()
        report = IndexerReport(
            tokens=int(batch.tokens[rows].sum()),
            # A tree gains a term exactly when it counts an insert.
            new_terms=total[_INSERTS],
            characters=int(batch.chars[rows].sum()),
            documents=int(batch.documents[rows].sum()),
            collections=len(rows),
            btree=BTreeStats(*total),
        )
        return report, trees, BTreeStats(*grown.T)

    def index_batch(self, batch: ParsedBatch, doc_offset: int) -> IndexerReport:
        """Consume all owned collections of one parsed buffer."""
        raise NotImplementedError

    # ------------------------------------------------------------------ #

    def drain_postings(self) -> RunPostings:
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
