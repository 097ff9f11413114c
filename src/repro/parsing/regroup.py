"""Step 5 of the parser: regrouping terms by trie-collection index.

"This step regroups the terms into a number of groups, a group for each
trie collection index ... In addition, the prefix of each term captured by
the trie index is removed."  The paper's output for trie collection *i*::

    (Doc_ID1, term1, term2, ...), (Doc_ID2, term1, term2, ...), ...

with **local** document IDs is held here as *columns*: one ``int32`` row
per token — the document ordinal and an id into a batch-local *entry
table* ``entry id → (collection index, suffix bytes)`` — plus one span
``[start, end)`` of those rows per collection.  Stages exchange
contiguous integer slices, never per-token containers.

Step 5 is linear in the tokens: :func:`collection_ranks` ranks the
collections by first occurrence with a radix sort of the entry ids and
work over the entry table, and :func:`regroup` is one stable radix sort
of those ranks (16-bit keys up to 65,536 collections a batch).

Regrouping is the paper's single biggest serial-indexing win (~15× from
temporal cache locality: a whole group hits one small B-tree that stays in
cache).  The ablation benchmark disables it via ``Parser(regroup=False)``,
which leaves the same columns in document order, without spans.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Iterator

import numpy as np

__all__ = ["ParsedBatch", "collection_ranks", "regroup", "tiled_spans"]


_int32 = partial(np.empty, 0, np.int32)
_int64 = partial(np.empty, 0, np.int64)


@dataclass
class ParsedBatch:
    """One parser output buffer — the unit indexers consume.

    Three aligned groups of arrays.  *Token columns* (``ids``, ``docs``,
    ``positions``): one row per emitted token.  *Entry table*
    (``entry_cidx``, ``entry_suffix``): what an id in ``ids`` stands for.
    *Collection table* (``order``, ``spans``, ``tokens``, ``chars``,
    ``documents``): one row per trie collection, in **first-seen order** —
    the order indexers consume collections in and therefore allocate term
    ids in, part of the byte-identity contract.  When regrouping is
    disabled (ablation A) the token columns stay in document order and
    ``spans`` is ``None``.  A sub-batch (:meth:`select`) shares the token
    columns and the entry table and keeps a subset of the collection rows.
    """

    parser_id: int
    sequence: int
    source_file: str
    num_docs: int = 0
    entry_cidx: np.ndarray = field(default_factory=_int32)
    entry_suffix: list[bytes] = field(default_factory=list)
    ids: np.ndarray = field(default_factory=_int32)
    #: Local document ordinal of each token; non-decreasing within a span.
    docs: np.ndarray = field(default_factory=_int32)
    #: Positional builds: each token's ordinal in its document's emitted
    #: stream, taken before the sort.
    positions: np.ndarray | None = None
    order: np.ndarray = field(default_factory=_int32)
    #: ``[start, end)`` rows of the token columns, one pair per collection.
    spans: np.ndarray | None = field(default_factory=lambda: np.empty((0, 2), np.int64))
    tokens: np.ndarray = field(default_factory=_int64)
    chars: np.ndarray = field(default_factory=_int64)
    #: Distinct documents per collection (0 when not regrouped).
    documents: np.ndarray = field(default_factory=_int64)
    uncompressed_bytes: int = 0
    compressed_bytes: int = 0

    @property
    def regrouped(self) -> bool:
        return self.spans is not None

    @property
    def tokens_per_collection(self) -> dict[int, int]:
        return dict(zip(self.order.tolist(), self.tokens.tolist()))

    @property
    def chars_per_collection(self) -> dict[int, int]:
        return dict(zip(self.order.tolist(), self.chars.tolist()))

    @property
    def total_tokens(self) -> int:
        return int(self.tokens.sum())

    @property
    def total_chars(self) -> int:
        return int(self.chars.sum())

    def select(self, rows: list[int] | np.ndarray) -> "ParsedBatch":
        """The sub-batch of collection rows ``rows`` over the same columns."""
        assert self.spans is not None
        return replace(
            self, order=self.order[rows], spans=self.spans[rows], tokens=self.tokens[rows],
            chars=self.chars[rows], documents=self.documents[rows],
        )

    @property
    def collections(self) -> "Mapping[int, list[tuple[int, list[bytes]]]]":
        """Read-only ``{collection: [(local doc, [suffix, ...]), ...]}``.

        The paper's per-collection streams, materialised on demand for
        tests and the benchmark harness; nothing under ``src/`` reads it.
        """
        return _CollectionsView(self)


class _CollectionsView(Mapping):  # type: ignore[type-arg]
    def __init__(self, batch: ParsedBatch) -> None:
        self._batch = batch
        rows = batch.order.tolist() if batch.regrouped else []
        self._row = {cidx: i for i, cidx in enumerate(rows)}

    def __iter__(self) -> Iterator[int]:
        return iter(self._row)

    def __len__(self) -> int:
        return len(self._row)

    def __getitem__(self, cidx: int) -> list[tuple[int, list[bytes]]]:
        batch = self._batch
        assert batch.spans is not None
        start, end = batch.spans[self._row[cidx]].tolist()
        docs = batch.docs[start:end]
        suffixes = [batch.entry_suffix[i] for i in batch.ids[start:end].tolist()]
        cuts = [0, *(np.flatnonzero(np.diff(docs)) + 1).tolist(), end - start]
        return [(int(docs[a]), suffixes[a:b]) for a, b in zip(cuts, cuts[1:]) if b > a]


def tiled_spans(tokens: np.ndarray) -> np.ndarray:
    """``[start, end)`` per collection when the collections lie back to back."""
    ends = np.cumsum(tokens)
    return np.column_stack((ends - tokens, ends))


def _runs(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Stable sort of non-empty, non-negative ``values`` on the smallest
    unsigned type that holds them (a radix sort up to 16 bits): the
    permutation, and which of its positions start a run of equal values."""
    perm = np.argsort(values.astype(np.min_scalar_type(values.max())), kind="stable")
    ordered = values[perm]
    starts = np.ones(len(values), dtype=bool)
    np.not_equal(ordered[1:], ordered[:-1], out=starts[1:])
    return perm, starts


def collection_ranks(ids: np.ndarray, entry_cidx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A token column's collections in first-seen order, and each token's rank.

    ``ids`` indexes the entry table ``entry_cidx``.  Linear in the tokens:
    one stable radix sort of ``ids`` finds each entry's first token; a
    collection is first seen with the first of its entries, which one more
    stable sort over the entries finds; the token ranks are a gather.
    """
    if not len(ids):
        return entry_cidx[:0], np.zeros(0, dtype=np.intp)
    perm, starts = _runs(ids)
    first_token = np.zeros(len(ids), dtype=bool)
    first_token[perm[starts]] = True
    entries = ids[first_token]  # each entry once, in order of first occurrence
    cidx = entry_cidx[entries]
    perm, starts = _runs(cidx)
    leaders = perm[starts]  # each collection's first entry
    leads = np.zeros(len(cidx), dtype=bool)
    leads[leaders] = True
    # A leader's rank is the count of leaders before it; every entry of a
    # run takes its leader's.
    rank = np.empty(len(cidx), dtype=np.intp)
    rank[perm] = (np.cumsum(leads) - 1)[leaders][np.cumsum(starts) - 1]
    entry_rank = np.zeros(len(entry_cidx), dtype=np.intp)
    entry_rank[entries] = rank
    return cidx[leads], entry_rank[ids]


def regroup(rank: np.ndarray, order: np.ndarray) -> tuple[np.ndarray, dict[int, int]]:
    """Regroup a token stream by collection: one stable sort.

    ``rank`` holds each token's row in ``order``, the collections in
    first-seen order, documents back to back.  Returns ``(perm,
    tokens_per_collection)``: ``perm`` makes every collection contiguous,
    collections in ``order`` (the dict's order); within a collection
    documents and a document's tokens keep their order, so the indexer's
    append-only postings stay docID-sorted and term frequencies exact.
    The key is the smallest unsigned type that holds every row, so up to
    65,536 collections the stable sort is a radix sort.
    """
    k = len(order)
    perm = np.argsort(rank.astype(np.min_scalar_type(max(k - 1, 0))), kind="stable")
    return perm, dict(zip(order.tolist(), np.bincount(rank, minlength=k).tolist()))
