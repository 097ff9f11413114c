"""In-memory postings accumulation during a single run.

Indexers consume parser buffers in strict round-robin order (Section III.F),
so occurrences of a term arrive in non-decreasing global document order and
"the postings lists are intrinsically in sorted order": an arriving
occurrence either increments the term frequency of the list's last posting
(same document) or appends a fresh posting.

A run's postings are held as integer columns, never as an object per term.
Each batch appends one chunk of ``(term, document, tf[, positions])``
postings, sorted by term and run-length-merged per ``(term, document)``.
At the run boundary one stable sort by term of the concatenated chunks
lays each term's postings out in arrival order — document order — and
:class:`RunPostings` hands the columns to the run writer.  No per-term
sort is ever needed: one stable sort per run, by term, is the whole cost
over the paper's append.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping
from itertools import accumulate

import numpy as np

__all__ = ["PostingsList", "PostingsAccumulator", "RunPostings"]

#: One batch's postings: ``(term, document, tf, positions)`` columns, by
#: term and then arrival; ``positions`` holds ``tf`` values a posting, or is
#: ``None`` in a plain run.
_Chunk = tuple[np.ndarray, np.ndarray, np.ndarray, "np.ndarray | None"]


def _spans(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Indices of the segments ``[starts[i], starts[i] + lengths[i])``, back to back."""
    ends = np.cumsum(lengths)
    take = np.repeat(starts - (ends - lengths), lengths)
    take += np.arange(len(take), dtype=take.dtype)
    return take


def _firsts(keys: np.ndarray) -> np.ndarray:
    """Where each run of equal ``keys`` starts."""
    return np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))


class PostingsList:
    """DocID-sorted ``(doc ID, term frequency)`` pairs for one term.

    A read-only copy of one term's slice of a :class:`RunPostings`.
    Optionally *positional*: when occurrences carry token positions (the
    Ivory-style positional index the paper's §IV.D mentions), the list
    also holds each document's sorted in-document positions, enabling
    phrase queries.
    """

    __slots__ = ("doc_ids", "tfs", "positions")

    def __init__(
        self, doc_ids: list[int], tfs: list[int], positions: list[list[int]] | None = None
    ) -> None:
        self.doc_ids = doc_ids
        self.tfs = tfs
        #: Parallel to ``doc_ids`` when positional, else ``None``.
        self.positions = positions

    @property
    def is_positional(self) -> bool:
        return self.positions is not None

    def postings(self) -> list[tuple[int, int]]:
        """Materialize as ``[(doc ID, tf), ...]`` (positions dropped)."""
        return list(zip(self.doc_ids, self.tfs))

    def positional_postings(self) -> list[tuple[int, int, tuple[int, ...]]]:
        """Materialize as ``[(doc ID, tf, positions), ...]``."""
        if self.positions is None:
            raise ValueError("this postings list carries no positions")
        return [
            (doc, tf, tuple(pos))
            for doc, tf, pos in zip(self.doc_ids, self.tfs, self.positions)
        ]

    @property
    def document_frequency(self) -> int:
        """Number of distinct documents containing the term."""
        return len(self.doc_ids)

    @property
    def collection_frequency(self) -> int:
        """Total occurrences of the term."""
        return sum(self.tfs)

    def __len__(self) -> int:
        return len(self.doc_ids)

    def __iter__(self) -> Iterator[tuple[int, int]]:
        return iter(zip(self.doc_ids, self.tfs))


class RunPostings(Mapping[int, PostingsList]):
    """One run's postings lists as integer columns, by ascending term id.

    ``term_ids`` ascend (the run writer refuses a run whose do not); term
    ``term_ids[i]`` has ``counts[i]`` postings, each term's back to back
    in ``docs`` / ``tfs`` in document order.  ``positions`` holds ``tf``
    ascending positions a posting, back to back, or is ``None`` in a
    plain run.  The run writer reads the columns; as a mapping,
    ``run[term_id]`` materialises a :class:`PostingsList` for tests and
    inspection.
    """

    __slots__ = ("term_ids", "counts", "docs", "tfs", "positions", "_ends")

    def __init__(
        self,
        term_ids: np.ndarray,
        counts: np.ndarray,
        docs: np.ndarray,
        tfs: np.ndarray,
        positions: np.ndarray | None = None,
    ) -> None:
        self.term_ids = term_ids
        self.counts = counts
        self.docs = docs
        self.tfs = tfs
        self.positions = positions
        #: Where each term's postings and each posting's positions end.
        self._ends: tuple[np.ndarray, np.ndarray] | None = None

    @classmethod
    def empty(cls) -> "RunPostings":
        """A run without postings."""
        none = np.empty(0, dtype=np.int64)
        return cls(none, none, none, none)

    @classmethod
    def concat(cls, runs: Iterable["RunPostings"]) -> "RunPostings":
        """The lists of several runs as one run, in the order given.

        The indexers' shards hold disjoint id ranges in indexer order, so
        their runs joined end to end ascend.  Runs that overlap or come
        out of order stay so, and the run writer refuses them.  Plain and
        positional runs do not mix; an empty run has no mode.
        """
        runs = [run for run in runs if len(run)]
        if len(runs) < 2:
            return runs[0] if runs else cls.empty()
        if len({run.is_positional for run in runs}) > 1:
            raise ValueError("cannot mix positional and plain runs")
        term_ids, counts, docs, tfs = (
            np.concatenate([getattr(run, name) for run in runs])
            for name in ("term_ids", "counts", "docs", "tfs")
        )
        positions = None
        if runs[0].positions is not None:
            positions = np.concatenate([run.positions for run in runs])
        return cls(term_ids, counts, docs, tfs, positions)

    @property
    def is_positional(self) -> bool:
        return self.positions is not None

    @property
    def posting_count(self) -> int:
        return len(self.docs)

    def __len__(self) -> int:
        return len(self.term_ids)

    def __iter__(self) -> Iterator[int]:
        return iter(self.term_ids.tolist())

    def __getitem__(self, term_id: int) -> PostingsList:
        i = int(np.searchsorted(self.term_ids, term_id))
        if i == len(self.term_ids) or self.term_ids[i] != term_id:
            raise KeyError(term_id)
        if self._ends is None:
            self._ends = np.cumsum(self.counts), np.cumsum(self.tfs)
        posting_ends, position_ends = self._ends
        hi = int(posting_ends[i])
        lo = hi - int(self.counts[i])
        tfs = self.tfs[lo:hi].tolist()
        positions = None
        if self.positions is not None:
            end = int(position_ends[hi - 1])
            flat = self.positions[end - sum(tfs) : end].tolist()
            bounds = [0, *accumulate(tfs)]
            positions = [flat[a:b] for a, b in zip(bounds, bounds[1:])]
        return PostingsList(self.docs[lo:hi].tolist(), tfs, positions)


def _run_of(chunks: list[_Chunk]) -> RunPostings:
    """The chunks as one run; empties ``chunks`` once they are copied.

    One stable sort by term keeps each term's postings in arrival order,
    and a ``(term, document)`` posting cut at a batch seam is summed back
    into one.
    """
    if not chunks:
        return RunPostings.empty()
    terms, docs, tfs = (np.concatenate([chunk[i] for chunk in chunks]) for i in range(3))
    positions = None
    if chunks[0][3] is not None:
        positions = np.concatenate([chunk[3] for chunk in chunks])
    chunks.clear()
    order = np.argsort(terms, kind="stable")
    if positions is not None:
        positions = positions[_spans((np.cumsum(tfs) - tfs)[order], tfs[order])]
    terms, docs, tfs = terms[order], docs[order], tfs[order]
    del order
    seam = (terms[1:] == terms[:-1]) & (docs[1:] == docs[:-1])
    if seam.any():
        starts = np.flatnonzero(np.concatenate(([True], ~seam)))
        terms, docs = terms[starts], docs[starts]
        tfs = np.add.reduceat(tfs, starts, dtype=tfs.dtype)
    firsts = _firsts(terms)
    return RunPostings(terms[firsts], np.diff(firsts, append=len(terms)), docs, tfs, positions)


class PostingsAccumulator:
    """Per-indexer postings of one run, held as integer columns.

    At the end of each run the engine drains the accumulator (a
    :class:`RunPostings`) through a
    :class:`~repro.postings.output.RunWriter`, mirroring the paper's run
    lifecycle (Fig 8).  A run is plain or positional as a whole: its
    first occurrence decides.

    Every term held keeps its last document (and, positional, its last
    position) in a column sorted by term, so a batch is checked against
    the postings held before anything is appended.
    """

    __slots__ = (
        "_chunks", "_terms", "_last_docs", "_last_positions", "_positional", "_tokens",
        "_pending",
    )

    def __init__(self) -> None:
        self._reset()

    def _reset(self) -> None:
        self._chunks: list[_Chunk] = []
        #: Every term held, ascending, with its last document and position.
        self._terms = np.empty(0, dtype=np.int64)
        self._last_docs = np.empty(0, dtype=np.int64)
        self._last_positions = np.empty(0, dtype=np.int64)
        self._positional: bool | None = None
        self._tokens = 0
        self._pending: list[tuple[int, int, int | None]] = []

    def add_occurrence(
        self, term_id: int, doc_id: int, position: int | None = None
    ) -> None:
        """Record one token occurrence (optionally with its position).

        The row is buffered: it is checked, with the rows buffered beside
        it, as one batch at the next :meth:`add_batch`, :meth:`drain` or
        read of the accumulator.  A rejected buffer is dropped whole.
        """
        self._pending.append((term_id, doc_id, position))

    def _flush(self) -> None:
        if not self._pending:
            return
        terms, docs, positions = zip(*self._pending)
        self._pending = []
        plain = positions.count(None)
        if plain not in (0, len(positions)):
            raise ValueError("cannot mix positional and plain occurrences")
        self._add(
            np.array(terms, dtype=np.int64),
            np.array(docs, dtype=np.int64),
            None if plain else np.array(positions, dtype=np.int64),
        )

    def add_batch(
        self,
        term_ids: list[int],
        rows: np.ndarray,
        docs: np.ndarray,
        positions: np.ndarray | None = None,
    ) -> None:
        """Record token occurrences held as aligned columns, in row order.

        Row ``i`` is an occurrence of term ``term_ids[rows[i]]`` in document
        ``docs[i]`` (several slots of ``term_ids`` may name one term).  Rows
        that go back in document order within a term, or do not advance in
        position within a document — in the batch, or against the postings
        held — raise ``ValueError``, and then nothing has changed.
        """
        self._flush()
        if len(rows):
            self._add(np.array(term_ids, dtype=np.int64)[rows], docs, positions)

    def _add(self, terms: np.ndarray, docs: np.ndarray, positions: np.ndarray | None) -> None:
        positional = positions is not None
        if self._positional is not None and positional != self._positional:
            if positional:
                raise ValueError("cannot mix positional and plain occurrences in one run")
            raise ValueError("positional run requires a position per occurrence")
        order = np.argsort(terms, kind="stable")
        terms, docs = terms[order], docs[order]
        same_term = terms[1:] == terms[:-1]
        if np.any(same_term & (docs[1:] < docs[:-1])):
            raise ValueError("documents out of order; pipeline ordering invariant violated")
        same_posting = same_term & (docs[1:] == docs[:-1])
        if positions is not None:
            positions = positions[order]
            if np.any(same_posting & (positions[1:] <= positions[:-1])):
                raise ValueError("positions must ascend within a document")
        starts = np.flatnonzero(np.concatenate(([True], ~same_posting)))
        tfs = np.diff(starts, append=len(terms)).astype(np.int32)
        terms, docs = terms[starts], docs[starts]

        # The batch's terms against those held: where each is (or goes).
        firsts = _firsts(terms)
        lasts = np.append(firsts[1:], len(terms)) - 1
        batch_terms = terms[firsts]
        at = np.searchsorted(self._terms, batch_terms)
        held = at < len(self._terms)
        held[held] = self._terms[at[held]] == batch_terms[held]
        held_at = at[held]
        first_docs, last_docs = docs[firsts[held]], self._last_docs[held_at]
        back = np.flatnonzero(first_docs < last_docs)
        if back.size:
            i = back[0]
            raise ValueError(
                f"document {first_docs[i]} arrived after {last_docs[i]}; "
                "pipeline ordering invariant violated"
            )
        if positions is not None:
            first_positions = positions[starts[firsts[held]]]
            last_positions = self._last_positions[held_at]
            continued = first_docs == last_docs
            bad = np.flatnonzero(continued & (first_positions <= last_positions))
            if bad.size:
                i = bad[0]
                raise ValueError(
                    f"position {first_positions[i]} not after {last_positions[i]} "
                    f"within document {first_docs[i]}"
                )
            # Each term's last occurrence in the batch.
            ends = positions[np.append(starts[firsts[1:]], len(positions)) - 1]
            self._last_positions[held_at] = ends[held]
            self._last_positions = np.insert(self._last_positions, at[~held], ends[~held])

        self._last_docs[held_at] = docs[lasts[held]]
        self._last_docs = np.insert(self._last_docs, at[~held], docs[lasts[~held]])
        self._terms = np.insert(self._terms, at[~held], batch_terms[~held])
        self._chunks.append((terms, docs, tfs, positions))
        self._positional = positional
        self._tokens += len(order)

    def drain(self) -> RunPostings:
        """Hand over the run's postings and reset for the next run."""
        self._flush()
        chunks = self._chunks
        self._reset()
        return _run_of(chunks)

    @property
    def lists(self) -> RunPostings:
        """The postings held so far, as :meth:`drain` would hand them over."""
        self._flush()
        return _run_of(list(self._chunks))

    @property
    def token_count(self) -> int:
        self._flush()
        return self._tokens

    @property
    def term_count(self) -> int:
        self._flush()
        return len(self._terms)

    @property
    def posting_count(self) -> int:
        return self.lists.posting_count

    def __len__(self) -> int:
        return self.term_count
