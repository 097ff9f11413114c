"""In-memory postings accumulation during a single run.

Indexers consume parser buffers in strict round-robin order (Section III.F),
so occurrences of a term arrive in non-decreasing global document order and
"the postings lists are intrinsically in sorted order": an arriving
occurrence either increments the term frequency of the list's last posting
(same document) or appends a fresh posting.  No sort is ever needed — this
is one of the paper's key structural wins over sort-based indexing.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

__all__ = ["PostingsList", "PostingsAccumulator"]


class PostingsList:
    """DocID-sorted ``(doc ID, term frequency)`` pairs for one term.

    Optionally *positional*: when occurrences carry token positions (the
    Ivory-style positional index the paper's §IV.D mentions), the list
    also stores each document's sorted in-document positions, enabling
    phrase queries.
    """

    __slots__ = ("doc_ids", "tfs", "positions")

    def __init__(self) -> None:
        self.doc_ids: list[int] = []
        self.tfs: list[int] = []
        #: Parallel to ``doc_ids`` when positional, else ``None``.
        self.positions: list[list[int]] | None = None

    def add_occurrence(self, doc_id: int, position: int | None = None) -> None:
        """Record one occurrence of the term in ``doc_id``.

        Documents must arrive in non-decreasing order — the pipeline's
        ordered buffer consumption guarantees this; violating it means the
        scheduler is broken, so we fail loudly.  A positional list must
        receive a position with *every* occurrence.
        """
        if position is not None and self.positions is None:
            if self.doc_ids:
                raise ValueError("cannot mix positional and plain occurrences")
            self.positions = []
        if self.positions is not None and position is None:
            raise ValueError("positional list requires a position per occurrence")
        if self.doc_ids and doc_id == self.doc_ids[-1]:
            self.tfs[-1] += 1
            if self.positions is not None:
                doc_positions = self.positions[-1]
                if doc_positions and position <= doc_positions[-1]:
                    raise ValueError(
                        f"position {position} not after {doc_positions[-1]} "
                        f"within document {doc_id}"
                    )
                doc_positions.append(position)
            return
        if self.doc_ids and doc_id < self.doc_ids[-1]:
            raise ValueError(
                f"document {doc_id} arrived after {self.doc_ids[-1]}; "
                "pipeline ordering invariant violated"
            )
        self.doc_ids.append(doc_id)
        self.tfs.append(1)
        if self.positions is not None:
            self.positions.append([position])

    def add_posting(
        self, doc_id: int, tf: int, positions: list[int] | None = None
    ) -> None:
        """Append a pre-counted posting."""
        if tf < 1:
            raise ValueError(f"term frequency must be >= 1, got {tf}")
        if self.doc_ids and doc_id <= self.doc_ids[-1]:
            raise ValueError(
                f"posting for document {doc_id} is not strictly after {self.doc_ids[-1]}"
            )
        if positions is not None:
            if len(positions) != tf:
                raise ValueError(f"{tf} occurrences but {len(positions)} positions")
            if sorted(positions) != list(positions) or len(set(positions)) != tf:
                raise ValueError("positions must be strictly increasing")
            if self.positions is None:
                if self.doc_ids:
                    raise ValueError("cannot mix positional and plain postings")
                self.positions = []
            self.positions.append(list(positions))
        elif self.positions is not None:
            raise ValueError("positional list requires positions per posting")
        self.doc_ids.append(doc_id)
        self.tfs.append(tf)

    def extend(
        self, doc_ids: list[int], tfs: list[int], positions: list[list[int]] | None = None
    ) -> None:
        """Append postings built elsewhere from occurrences, in arrival order.

        What :meth:`add_occurrence` per occurrence would have made of them,
        with its checks where they meet the postings held: a first
        document equal to the last one held continues that posting.
        """
        if (positions is None) != (self.positions is None):
            if positions is None:
                raise ValueError("positional list requires a position per occurrence")
            if self.doc_ids:
                raise ValueError("cannot mix positional and plain occurrences")
            self.positions = []
        if self.doc_ids and doc_ids[0] <= self.doc_ids[-1]:
            if doc_ids[0] < self.doc_ids[-1]:
                raise ValueError(
                    f"document {doc_ids[0]} arrived after {self.doc_ids[-1]}; "
                    "pipeline ordering invariant violated"
                )
            if positions is not None:
                if positions[0][0] <= self.positions[-1][-1]:
                    raise ValueError(
                        f"position {positions[0][0]} not after {self.positions[-1][-1]} "
                        f"within document {doc_ids[0]}"
                    )
                self.positions[-1] += positions[0]
                positions = positions[1:]
            self.tfs[-1] += tfs[0]
            doc_ids, tfs = doc_ids[1:], tfs[1:]
        self.doc_ids += doc_ids
        self.tfs += tfs
        if positions is not None:
            self.positions += positions

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


class PostingsAccumulator:
    """Per-indexer map of term id → :class:`PostingsList` for one run.

    At the end of each run the engine drains the accumulator through a
    :class:`~repro.postings.output.RunWriter` and clears it, mirroring the
    paper's run lifecycle (Fig 8).
    """

    __slots__ = ("lists", "token_count")

    def __init__(self) -> None:
        self.lists: dict[int, PostingsList] = {}
        self.token_count = 0

    def add_occurrence(
        self, term_id: int, doc_id: int, position: int | None = None
    ) -> None:
        """Record one token occurrence (optionally with its position)."""
        plist = self.lists.get(term_id)
        if plist is None:
            plist = PostingsList()
            self.lists[term_id] = plist
        plist.add_occurrence(doc_id, position)
        self.token_count += 1

    def add_batch(
        self,
        term_ids: list[int],
        rows: np.ndarray,
        docs: np.ndarray,
        positions: np.ndarray | None = None,
    ) -> None:
        """Record token occurrences held as aligned columns, in row order.

        Row ``i`` is an occurrence of term ``term_ids[rows[i]]`` in document
        ``docs[i]`` (several slots of ``term_ids`` may name one term; a new
        list is keyed by the ``int`` object found there, not a copy).  One
        stable sort by term keeps each term's rows in arrival order,
        ``(term, document)`` run lengths are the term frequencies, and each
        term gets one :meth:`PostingsList.extend`.  Rows that go back in
        document order within a term, or do not advance in position within
        a document, raise ``ValueError`` before any list is touched.
        """
        if not len(rows):
            return
        terms = np.array(term_ids, dtype=np.int64)[rows]
        order = np.argsort(terms, kind="stable")
        terms, docs = terms[order], docs[order]
        same_term = terms[1:] == terms[:-1]
        if np.any(same_term & (docs[1:] < docs[:-1])):
            raise ValueError("documents out of order; pipeline ordering invariant violated")
        same_posting = same_term & (docs[1:] == docs[:-1])
        starts = np.concatenate(([0], np.flatnonzero(~same_posting) + 1))
        per_posting = None
        if positions is not None:
            positions = positions[order]
            if np.any(same_posting & (positions[1:] <= positions[:-1])):
                raise ValueError("positions must ascend within a document")
            flat, bounds = positions.tolist(), [*starts.tolist(), len(rows)]
            per_posting = [flat[a:b] for a, b in zip(bounds, bounds[1:])]
        doc_ids, tfs = docs[starts].tolist(), np.diff(starts, append=len(rows)).tolist()
        terms = terms[starts]
        cuts = [0, *(np.flatnonzero(terms[1:] != terms[:-1]) + 1).tolist(), len(terms)]
        slots = rows[order[starts[cuts[:-1]]]].tolist()
        for term_id, a, b in zip(map(term_ids.__getitem__, slots), cuts, cuts[1:]):
            plist = self.lists.get(term_id)
            if plist is None:
                plist = self.lists[term_id] = PostingsList()
            plist.extend(doc_ids[a:b], tfs[a:b], per_posting and per_posting[a:b])
        self.token_count += len(rows)

    def drain(self) -> dict[int, PostingsList]:
        """Hand over all lists and reset for the next run."""
        lists = self.lists
        self.lists = {}
        self.token_count = 0
        return lists

    @property
    def term_count(self) -> int:
        return len(self.lists)

    @property
    def posting_count(self) -> int:
        return sum(len(p) for p in self.lists.values())

    def __len__(self) -> int:
        return len(self.lists)
