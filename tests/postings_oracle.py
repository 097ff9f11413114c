"""The per-term postings lists, accumulator and run-writer blocking that
the columnar ones replaced, kept as test oracles.

``repro.postings.lists`` now holds a run's postings as integer columns
(one chunk per batch, one stable sort by term per run), and
``RunWriter.write_run`` encodes slices of those columns.  The code they
replaced lives on here *verbatim*: ``PostingsList`` with its mutators
(renamed ``OraclePostingsList``), ``PostingsAccumulator`` (renamed
``OracleAccumulator``) and ``RunWriter.write_run`` / ``_blocks`` /
``_encode_block`` (on ``OracleRunWriter``), so the differential tests can
require the new code to accept, reject and write exactly what the old
code did.  :func:`run_of` turns oracle lists into the
:class:`~repro.postings.lists.RunPostings` the run writer takes now.
"""

from __future__ import annotations

from itertools import chain
from typing import Iterator, Mapping

import numpy as np

from repro.postings.lists import RunPostings
from repro.postings.output import _BLOCK_POSTINGS, EncodedBlock, RunFile, RunWriter

__all__ = ["OraclePostingsList", "OracleAccumulator", "OracleRunWriter", "run_of"]


# --------------------------------------------------------------------------- #
# Verbatim from the parent: repro/postings/lists.py
# --------------------------------------------------------------------------- #


class OraclePostingsList:
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


class OracleAccumulator:
    """Per-indexer map of term id → :class:`OraclePostingsList` for one run.

    At the end of each run the engine drains the accumulator through a
    :class:`~repro.postings.output.RunWriter` and clears it, mirroring the
    paper's run lifecycle (Fig 8).
    """

    __slots__ = ("lists", "token_count")

    def __init__(self) -> None:
        self.lists: dict[int, OraclePostingsList] = {}
        self.token_count = 0

    def add_occurrence(
        self, term_id: int, doc_id: int, position: int | None = None
    ) -> None:
        """Record one token occurrence (optionally with its position)."""
        plist = self.lists.get(term_id)
        if plist is None:
            plist = OraclePostingsList()
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
        term gets one :meth:`OraclePostingsList.extend`.  Rows that go back in
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
                plist = self.lists[term_id] = OraclePostingsList()
            plist.extend(doc_ids[a:b], tfs[a:b], per_posting and per_posting[a:b])
        self.token_count += len(rows)

    def drain(self) -> dict[int, OraclePostingsList]:
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


# --------------------------------------------------------------------------- #
# Verbatim from the parent: repro/postings/output.py (RunWriter)
# --------------------------------------------------------------------------- #


class OracleRunWriter(RunWriter):
    """A :class:`RunWriter` whose ``write_run`` takes a dict of lists."""

    def write_run(self, run_id: int, lists: dict[int, OraclePostingsList]) -> "RunFile":
        """Compress and write all non-empty lists of a run; return its descriptor.

        Lists go to the codec's :meth:`~PostingsCodec.encode_lists` as
        columns, in term order, a block of about :data:`_BLOCK_POSTINGS`
        postings at a time; :meth:`write_encoded_run` writes the file.
        """
        return self.write_encoded_run(run_id, self._blocks(lists))

    def _blocks(self, lists: dict[int, OraclePostingsList]) -> Iterator[EncodedBlock]:
        block: list[tuple[int, OraclePostingsList]] = []
        postings = 0
        for term_id in sorted(lists):
            plist = lists[term_id]
            if not plist.doc_ids:
                continue
            block.append((term_id, plist))
            postings += len(plist.doc_ids)
            if postings >= _BLOCK_POSTINGS:
                yield self._encode_block(block, postings)
                block, postings = [], 0
        if block:
            yield self._encode_block(block, postings)

    def _encode_block(
        self, block: list[tuple[int, OraclePostingsList]], postings: int
    ) -> EncodedBlock:
        plists = [plist for _, plist in block]
        counts = np.array([len(plist.doc_ids) for plist in plists], dtype=np.int64)
        docs = np.fromiter(chain.from_iterable(p.doc_ids for p in plists), np.int64, postings)
        tfs = np.fromiter(chain.from_iterable(p.tfs for p in plists), np.int64, postings)
        positions = None
        if self.codec.positional and all(p.positions is not None for p in plists):
            per_posting = chain.from_iterable(p.positions for p in plists)
            positions = np.fromiter(chain.from_iterable(per_posting), np.int64)
        data, lengths = self.codec.encode_lists(counts, docs, tfs, positions)
        return (
            [term_id for term_id, _ in block],
            lengths.tolist(),
            data,
            min(plist.doc_ids[0] for plist in plists),
            max(plist.doc_ids[-1] for plist in plists),
        )


# --------------------------------------------------------------------------- #


def run_of(lists: Mapping[int, OraclePostingsList]) -> RunPostings:
    """The non-empty ``lists`` as the columns of one run, unchecked; the
    run is positional when every list is."""
    terms = sorted(term for term, plist in lists.items() if plist.doc_ids)
    chosen = [lists[term] for term in terms]
    positional = bool(chosen) and all(p.positions is not None for p in chosen)
    return RunPostings(
        np.array(terms, dtype=np.int64),
        np.array([len(p.doc_ids) for p in chosen], dtype=np.int64),
        np.array([d for p in chosen for d in p.doc_ids], dtype=np.int64),
        np.array([t for p in chosen for t in p.tfs], dtype=np.int64),
        np.array([q for p in chosen for ps in p.positions for q in ps], dtype=np.int64)
        if positional else None,
    )
