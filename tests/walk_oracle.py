"""The per-batch counter reads and repeat charging the walk replaced,
kept as a test oracle.

``repro.indexers.base._walk`` now takes each descent's counts from
``BTree._descend`` itself, keeps a span's counts in locals, folds them
into ``tree.stats`` once per span and hands them back as the batch's
per-collection record.  The code it replaced lives on here *verbatim*:
``_walk``, ``_charge``, ``_repeat_counters`` and ``_counters`` (with the
``_stats`` / ``_NCOUNTERS`` / ``_INSERTS`` helpers they use) from
``repro/indexers/base.py``, ``BaseIndexer._index_rows`` (which read every
touched tree's ten counters before and after the walk) and
``CPUIndexer._index_ungrouped`` (which read counters around every token
and left ``report.btree`` empty), as methods of :class:`OracleCPUIndexer`
and :class:`OracleGPUIndexer`, with the cost model's per-tree
``_model_collection_seconds`` they feed.  They run on the per-tree forest
of ``tests/forest_oracle.py``, whose trees carry the counters they read.  The parent walk inserts through
``BTree.insert``, whose counters are unchanged, so the differential tests
can require the new walk to leave exactly what the old one left: term
ids, every ``BTreeStats`` field of every tree, the mutation log, node
counts, postings and the per-collection ``grown`` rows.

:func:`descent_walk` is the walk that followed, kept *verbatim* too
(``repro.indexers.base._walk`` before it descended a batch at once): one
``BTree._descend`` per token of every span, a span's counts in locals,
and a repeated entry charged its recorded descent while its tree gained
neither a term nor a node.  ``tests/test_batched_walk.py`` requires the
batched walk to return what it returned — entry → term id, every span
record, the mutated entries in order — and to leave the same heap,
forest table, mutation log and trees.
"""

from __future__ import annotations

from itertools import chain
from operator import attrgetter

import numpy as np

from repro.dictionary.btree import _COUNTERS, BTreeStats
from repro.dictionary.layout import NODE_SIZE_BYTES
from repro.indexers.base import IndexerReport
from repro.indexers.cpu import CPUIndexer
from repro.indexers.gpu import GPUIndexer
from repro.parsing.regroup import ParsedBatch
from tests.forest_oracle import BTree

__all__ = ["OracleCPUIndexer", "OracleGPUIndexer", "descent_walk"]


# --------------------------------------------------------------------------- #
# Verbatim from the parent: repro/indexers/base.py
# --------------------------------------------------------------------------- #


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


class _OracleRows:
    """``BaseIndexer._index_rows`` as it was."""

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


# --------------------------------------------------------------------------- #
# Verbatim from the parent: repro/indexers/cpu.py
# --------------------------------------------------------------------------- #


class OracleCPUIndexer(_OracleRows, CPUIndexer):
    """:class:`CPUIndexer` with the parent's walk and counter reads."""

    def _index_ungrouped(self, batch: ParsedBatch, doc_offset: int) -> IndexerReport:
        """Ablation path: tokens in document order, no regrouping.

        Functionally equivalent (same dictionary, same postings) but every
        token hops to a different collection's tree, so the model charges
        cold-cache node visits throughout — the paper reports regrouping
        is worth ~15× for a serial indexer.
        """
        report = IndexerReport(documents=batch.num_docs)
        touched: set[int] = set()
        cost = self.cost
        suffixes, collections = batch.entry_suffix, batch.entry_cidx.tolist()
        for entry, global_doc in zip(batch.ids.tolist(), (batch.docs + doc_offset).tolist()):
            cidx, suffix = collections[entry], suffixes[entry]
            if not self.owns(cidx):
                continue
            tree = self.shard.tree_for(cidx)
            visits_before = tree.stats.node_visits
            fetches_before = tree.stats.full_string_fetches
            splits_before = tree.stats.splits
            terms_before = tree.term_count
            term_id, _ = tree.insert(suffix)
            self.accumulator.add_occurrence(term_id, global_doc)
            touched.add(cidx)
            report.tokens += 1
            report.characters += len(suffix)
            report.new_terms += tree.term_count - terms_before
            visits = tree.stats.node_visits - visits_before
            report.modeled_seconds += (
                cost.per_token_s
                + visits * cost.node_visit_cold_s * cost.ungrouped_thrash
                + (tree.stats.full_string_fetches - fetches_before) * cost.full_fetch_s
                + (tree.stats.splits - splits_before) * cost.split_s
            )
        report.collections = len(touched)
        return report

    def _model_collection_seconds(
        self, trees: list[BTree], tokens: np.ndarray, grown: BTreeStats
    ) -> np.ndarray:
        """Modeled seconds of each regrouped collection's work.

        Elementwise over the per-collection arrays, in the order the
        scalar formula evaluates: the same IEEE operations on the same
        doubles, so the same bits.
        """
        cost = self.cost
        tree_bytes = np.array(
            [t.node_count * NODE_SIZE_BYTES + t.store.byte_size for t in trees], dtype=np.int64
        )
        return (
            tokens * cost.per_token_s
            + grown.node_visits * cost.visit_cost(tree_bytes)
            + grown.full_string_fetches * cost.full_fetch_s
            + grown.splits * cost.split_s
        )


class OracleGPUIndexer(_OracleRows, GPUIndexer):
    """:class:`GPUIndexer` with the parent's walk and counter reads."""


# --------------------------------------------------------------------------- #
# Verbatim from the parent of the batched walk: repro/indexers/base.py
# --------------------------------------------------------------------------- #


def descent_walk(
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
