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
from operator import attrgetter

import numpy as np

from repro.dictionary.btree import BTreeStats
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


_NCOUNTERS = len(BTreeStats.__dataclass_fields__)
_INSERTS = list(BTreeStats.__dataclass_fields__).index("inserts")
#: A span's record: its tree's heap growth, then the ten counters.
_RECORD = 1 + _NCOUNTERS
_row = attrgetter("row")


def _added_in_order(values: np.ndarray) -> float:
    """``values`` added left to right, as a ``+=`` loop over them would:
    ``cumsum`` accumulates in order (``np.sum`` and, from Python 3.12,
    ``sum()`` do not), so the total is the same float."""
    return float(np.cumsum(values)[-1]) if len(values) else 0.0


def _walk(
    spans, ids, suffixes: list[bytes], repeated: list[bool]
) -> tuple[list[int], list[int], list[int]]:
    """Insert every token's suffix into its span's tree; count the work.

    ``spans`` yields ``(tree, start, end, has_repeats)`` over ``ids``.  Every
    descent (:meth:`~repro.dictionary.btree.BTree._descend`) hands back
    what it cost, and a span's counts stay in locals.  A descent that
    finds its suffix and splits no node is a pure function of (tree,
    suffix): while the tree has gained neither a term nor a node since an
    entry's last descent, its next occurrence would cost exactly what
    that descent did, so it is charged that descent's counts without
    descending.  A descent that inserts or splits forgets every recorded
    descent of the tree.  Term ids, the mutation log and every counter
    come out as if each token had gone through
    :meth:`~repro.dictionary.btree.BTree.insert`.

    Returns entry id → term id; each span's record, back to back: the
    bytes its new terms added to the heap (Fig 6 length bytes included),
    then its ten counters in :class:`BTreeStats` field order; and the
    entries whose descent inserted or split, in walk order (the mutation
    log's).
    """
    entry_term = [0] * len(suffixes)
    grown: list[int] = []
    mutated: list[int] = []
    for tree, start, end, has_repeats in spans:
        descend = tree._descend
        inserts = depth_sum = comparisons = fetches = splits = shifts = added = 0
        if has_repeats:
            #: entry → (depth, comparisons, fetches) of its recorded descent.
            recorded: dict[int, tuple[int, int, int]] = {}
            for entry in ids[start:end]:
                counts = recorded.get(entry)
                if counts is not None:
                    depth, probes, fetched = counts
                    depth_sum += depth
                    comparisons += probes
                    fetches += fetched
                    continue
                entry_term[entry], created, depth, probes, fetched, split, shifted = descend(
                    suffixes[entry], True
                )
                inserts += created
                depth_sum += depth
                comparisons += probes
                fetches += fetched
                shifts += shifted
                if created or split:
                    splits += split
                    recorded.clear()
                    mutated.append(entry)
                    if created:
                        added += len(suffixes[entry])
                elif repeated[entry]:
                    recorded[entry] = (depth, probes, fetched)
        else:
            for entry in ids[start:end]:
                entry_term[entry], created, depth, probes, fetched, split, shifted = descend(
                    suffixes[entry], True
                )
                inserts += created
                depth_sum += depth
                comparisons += probes
                fetches += fetched
                splits += split
                shifts += shifted
                if created or split:
                    mutated.append(entry)
                    if created:
                        added += len(suffixes[entry])
        # Every token is one insert or one duplicate hit (the walk makes no
        # search), and each visits one node more than its depth.
        tokens = end - start
        grown += (
            added + inserts, 0, inserts, tokens - inserts, depth_sum + tokens, comparisons,
            comparisons - fetches, fetches, splits, shifts, depth_sum,
        )
    return entry_term, grown, mutated


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

    def _owned_rows(self, collections: np.ndarray) -> np.ndarray:
        """Where ``collections`` (trie collection indices) names one this
        indexer consumes: rows of a batch's collection table (``order``)
        or, ungrouped, tokens."""
        owned = self.shard.owned
        if owned is None:
            return np.arange(len(collections))
        return np.flatnonzero(np.isin(collections, np.fromiter(owned, np.int32, len(owned))))

    def _index_rows(
        self, batch: ParsedBatch, rows: np.ndarray, doc_offset: int
    ) -> tuple[IndexerReport, np.ndarray, BTreeStats]:
        """Consume the collections ``rows``, in order.

        This is the inner loop of Fig 4: every suffix is inserted into the
        collection's B-tree (getting the postings pointer, :func:`_walk`)
        and the occurrences appended under the *global* document ID, one
        chunk of postings columns per batch
        (:meth:`~repro.postings.lists.PostingsAccumulator.add_batch`).
        When the parser supplied positions, each occurrence also records
        its in-document token position.

        Returns the batch's one report (tokens, characters and documents
        are the parser's per-collection counts), the shard's table rows of
        the trees touched and a :class:`BTreeStats` whose fields are
        *arrays*, one element per collection: how far each tree's counters
        moved.  A collection has its own tree and its own span, so that is
        the walk's per-span record; the batch's records are added into the
        table at once (:meth:`~repro.dictionary.btree.Forest.fold`), and
        the walk's mutated entries are logged at once.  No tree's counters
        are read.
        """
        assert batch.spans is not None
        if batch.positions is not None and len(batch.positions) != len(batch.ids):
            raise ValueError("positions column is not aligned with the token columns")
        owned = batch.order[rows].tolist()
        planted = self.shard.trees
        # A collection's first batch creates its tree: the batch's new
        # trees are planted at once.
        self.shard.plant([cidx for cidx in owned if cidx not in planted])
        trees = list(map(planted.__getitem__, owned))

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
        entry_term, records, mutated = _walk(
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
        tree_rows = np.fromiter(map(_row, trees), dtype=np.intp, count=len(trees))
        grown = self._record(tree_rows, records, mutated, batch)
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
        return report, tree_rows, BTreeStats(*grown.T)

    def _record(
        self, tree_rows: np.ndarray, records: list[int], mutated: list[int], batch: ParsedBatch
    ) -> np.ndarray:
        """Add the walk's span records into the shard's table rows
        ``tree_rows`` and log its mutated entries; returns the spans' ten
        counters, a row each."""
        grown = np.array(records, dtype=np.int64).reshape(-1, _RECORD)
        shard = self.shard
        shard.fold(tree_rows, grown)
        if mutated:
            shard.log_mutations(
                batch.entry_cidx[mutated].tolist(), map(batch.entry_suffix.__getitem__, mutated)
            )
        return grown[:, 1:]

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
