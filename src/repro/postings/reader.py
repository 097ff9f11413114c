"""Retrieval path over an output directory of run files.

"To retrieve a postings list for a certain term string, we look it up in
the dictionary and use the corresponding pointer to determine the location
of the partial postings list in each of the output files."  The reader also
implements the paper's range-narrowed search benefit: a query restricted to
a document-ID range only fetches partial lists from the run files whose
ranges overlap (counted in :attr:`PostingsReader.partial_fetches` so tests
and benchmarks can observe the saving).

Postings are sorted integer sequences, so the reader holds them as integer
columns, never as one object per posting (Pibiri & Venturini): the first
time a run is touched, its whole payload is decoded into ``int32`` document
and term-frequency columns, and one row index over every run's mapping
table maps a term id to its slices of those columns.
"""

from __future__ import annotations

import os
from typing import Callable

import numpy as np

from repro.postings.compression import get_codec
from repro.postings.output import (
    DocRangeMap,
    RunFile,
    read_run_table,
    verify_run_bytes,
)

__all__ = ["PostingsReader"]

_OVERLAP = "run files overlap in document order; output corrupt"

#: Payload bytes a run is decoded in at a time: the decode's temporaries
#: are a few ``int64`` per byte, so however large the run, they stay
#: small next to its columns.
_DECODE_BLOCK_BYTES = 1 << 16

Columns = tuple[np.ndarray, np.ndarray]


def _empty() -> np.ndarray:
    return np.empty(0, dtype=np.int32)


def _blocks(table: np.ndarray) -> list[np.ndarray]:
    """The table's rows in runs of whole lists about :data:`_DECODE_BLOCK_BYTES` long."""
    if not len(table):
        return []
    ends = np.cumsum(table[:, 2])
    return np.split(table, np.flatnonzero(np.diff((ends - 1) // _DECODE_BLOCK_BYTES)) + 1)


class _OpenRun:
    """A run file decoded into integer columns.

    ``columns`` (``int32``, read-only) holds the ``docs`` and ``tfs`` rows
    of every list of the run back to back in table order; list ``i`` is
    ``[starts[i], starts[i + 1])`` and belongs to ``term_ids[i]``
    (ascending).  ``run_id``, ``min_doc`` and ``max_doc`` are the
    header's.  Positional runs also keep their bytes and mapping table
    for :meth:`fetch`; other runs drop them once decoded.

    Opening is the one way a run is read, by the reader and by
    ``repro verify``: first the trailing CRC32, so a flipped byte
    anywhere in the run raises
    :class:`~repro.robustness.errors.ChecksumError` before a single
    posting is decoded; then the mapping table, checked by
    :func:`~repro.postings.output.read_run_table`; then every list,
    decoded strictly.
    """

    __slots__ = (
        "run_id", "min_doc", "max_doc", "codec", "term_ids", "starts", "columns",
        "docs", "tfs", "table", "data",
    )

    def __init__(self, path: str) -> None:
        with open(path, "rb") as fh:
            data = fh.read()
        verify_run_bytes(path, data)
        self.run_id, codec_name, self.min_doc, self.max_doc, table, _ = read_run_table(data)
        self.codec = get_codec(codec_name)
        view = memoryview(data)
        blocks = [
            self.codec.decode_lists(view[rows[0, 1] : rows[-1, 1] + rows[-1, 2]], rows[:, 2])
            for rows in _blocks(table)
        ]
        empty = (np.empty(0, dtype=np.int64), _empty(), _empty(), None)
        counts, docs, tfs, _ = zip(empty, *blocks)
        self.term_ids = np.ascontiguousarray(table[:, 0])
        self.starts = np.concatenate(([0], np.cumsum(np.concatenate(counts))))
        self.columns = np.stack((np.concatenate(docs), np.concatenate(tfs)))
        self.columns.flags.writeable = False
        self.docs, self.tfs = self.columns
        positional = self.codec.positional
        self.table = table if positional else None
        self.data = data if positional else None

    def row(self, term_id: int) -> int | None:
        """The table row of ``term_id``, ``None`` when the run lacks it."""
        row = int(self.term_ids.searchsorted(term_id))
        if row < len(self.term_ids) and self.term_ids[row] == term_id:
            return row
        return None

    def fetch(self, term_id: int) -> list:
        """Decode one partial list of a positional run (empty when absent)."""
        row = self.row(term_id)
        if row is None:
            return []
        _, offset, length = self.table[row].tolist()
        return self.codec.decode(self.data[offset : offset + length])


class _RowIndex:
    """Every run's non-empty lists, by term id.

    ``rows[i]`` is ``(run number, start, end)`` of a list of
    ``term_ids[i]``: ids ascend, and a term's rows are adjacent and in run
    order (a stable argsort of all runs' table term ids).  ``overlapping``
    holds the terms with a partial list that does not start after the
    previous run's one ends.
    """

    __slots__ = ("runs", "term_ids", "rows", "overlapping")

    def __init__(self, runs: list[_OpenRun]) -> None:
        listed = [np.flatnonzero(np.diff(opened.starts)) for opened in runs]

        def gather(column: Callable[[_OpenRun, np.ndarray], np.ndarray]) -> np.ndarray:
            return np.concatenate(
                [np.empty(0, dtype=np.int64)]
                + [column(opened, rows) for opened, rows in zip(runs, listed)]
            )

        term_ids = gather(lambda opened, rows: opened.term_ids[rows])
        order = np.argsort(term_ids, kind="stable")
        self.runs = runs
        self.term_ids = term_ids = term_ids[order]
        # One column at a time, so no temporary is wider than one.
        self.rows = np.empty((order.size, 3), dtype=np.int32)
        self.rows[:, 0] = np.repeat(np.arange(len(runs)), [rows.size for rows in listed])[order]
        self.rows[:, 1] = gather(lambda opened, rows: opened.starts[rows])[order]
        self.rows[:, 2] = gather(lambda opened, rows: opened.starts[rows + 1])[order]
        firsts = gather(lambda opened, rows: opened.docs[opened.starts[rows]])[order]
        lasts = gather(lambda opened, rows: opened.docs[opened.starts[rows + 1] - 1])[order]
        clash = (term_ids[1:] == term_ids[:-1]) & (firsts[1:] <= lasts[:-1])
        self.overlapping = set(term_ids[1:][clash].tolist())

    def parts(self, term_id: int) -> list[tuple[_OpenRun, int, int]]:
        """``(run, start, end)`` of each of the term's lists, in run order."""
        if term_id in self.overlapping:
            raise ValueError(_OVERLAP)
        found = self.rows[
            self.term_ids.searchsorted(term_id) : self.term_ids.searchsorted(term_id, "right")
        ].tolist()
        return [(self.runs[number], start, end) for number, start, end in found]


class PostingsReader:
    """Reads merged postings for a term across all run files.

    Parameters
    ----------
    output_dir:
        Directory produced by the engine: run files, ``runs.map`` and
        (optionally) a serialized dictionary ``dictionary.bin`` which lets
        callers query by term *string* instead of postings pointer.
    """

    def __init__(self, output_dir: str) -> None:
        self.output_dir = output_dir
        self.range_map = DocRangeMap.load(output_dir)
        self._open_runs: dict[int, _OpenRun] = {}
        #: Built by the first full lookup.
        self._index: _RowIndex | None = None
        self._term_ids: dict[str, int] | None = None
        #: Number of partial-list fetch operations performed (observability
        #: for the range-narrowing benefit).
        self.partial_fetches = 0
        dict_path = os.path.join(output_dir, "dictionary.bin")
        if os.path.exists(dict_path):
            from repro.dictionary.serialize import load_dictionary

            self._term_ids = load_dictionary(dict_path)

    # ------------------------------------------------------------------ #
    # Term resolution
    # ------------------------------------------------------------------ #

    def term_id(self, term: str) -> int | None:
        """Postings pointer for a term string (needs the dictionary file)."""
        if self._term_ids is None:
            raise RuntimeError(
                "no dictionary.bin in output directory; query by term_id instead"
            )
        return self._term_ids.get(term)

    def vocabulary(self) -> dict[str, int]:
        """The full term → postings-pointer map (dictionary required)."""
        if self._term_ids is None:
            raise RuntimeError("no dictionary.bin in output directory")
        return dict(self._term_ids)

    def _resolve(self, term: str | int) -> int | None:
        return term if isinstance(term, int) else self.term_id(term)

    # ------------------------------------------------------------------ #
    # Postings access
    # ------------------------------------------------------------------ #

    def _run(self, run: RunFile) -> _OpenRun:
        opened = self._open_runs.get(run.run_id)
        if opened is None:
            opened = self._open_runs[run.run_id] = _OpenRun(run.path)
            # Backfill lazily-loaded descriptor fields.
            run.min_doc, run.max_doc = opened.min_doc, opened.max_doc
            run.entry_count = len(opened.term_ids)
        return opened

    def close(self) -> None:
        """Free every decoded run; the next lookup decodes them again."""
        self._open_runs.clear()
        self._index = None

    def __enter__(self) -> "PostingsReader":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def _join(self, parts: list[tuple[_OpenRun, int, int]]) -> Columns:
        """Concatenate non-empty partial lists ``(run, start, end)``."""
        self.partial_fetches += len(parts)
        if len(parts) == 1:
            opened, start, end = parts[0]
            joined = opened.columns[:, start:end]
        elif parts:
            joined = np.concatenate(
                [opened.columns[:, start:end] for opened, start, end in parts], axis=1
            )
        else:
            return _empty(), _empty()
        return joined[0], joined[1]

    def postings_columns(self, term: str | int) -> Columns:
        """The full postings list as ``(docs, tfs)`` ``int32`` columns.

        Each run's partial list is a slice of that run's columns; they are
        spliced in run order.  A list found in one run comes back as a
        read-only view of the reader's own columns.
        """
        term_id = self._resolve(term)
        if term_id is None:
            return _empty(), _empty()
        if self._index is None:
            self._index = _RowIndex([self._run(run) for run in self.range_map.runs])
        return self._join(self._index.parts(term_id))

    def postings(self, term: str | int) -> list[tuple[int, int]]:
        """Full postings list, spliced across runs in run order.

        Runs are written in document order, so simple concatenation yields
        a globally docID-sorted list — the paper's "index is still
        monolithic for the entire document collection".  Positions (if the
        index is positional) are stripped; use :meth:`positional_postings`.
        """
        docs, tfs = self.postings_columns(term)
        return list(zip(docs.tolist(), tfs.tolist()))

    def positional_postings(
        self, term: str | int
    ) -> list[tuple[int, int, tuple[int, ...]]]:
        """``(doc, tf, positions)`` entries — requires a positional index."""
        if not self.is_positional:
            raise ValueError("this index was built without positions")
        term_id = self._resolve(term)
        if term_id is None:
            return []
        merged: list = []
        for run in self.range_map.runs:
            partial = self._run(run).fetch(term_id)
            if partial:
                self.partial_fetches += 1
                if merged and partial[0][0] <= merged[-1][0]:
                    raise ValueError(_OVERLAP)
                merged.extend(partial)
        return merged

    @property
    def is_positional(self) -> bool:
        """Whether the run files carry per-occurrence positions."""
        if not self.range_map.runs:
            return False
        return self._run(self.range_map.runs[0]).codec.positional

    def postings_columns_in_range(
        self, term: str | int, lo_doc: int, hi_doc: int
    ) -> Columns:
        """:meth:`postings_columns` restricted to documents in ``[lo_doc, hi_doc]``.

        Only run files whose document range overlaps are touched — the
        "faster search when narrowed down to a range of document IDs"
        benefit of the run-per-file output format.
        """
        term_id = self._resolve(term)
        if term_id is None:
            return _empty(), _empty()
        parts = []
        last = -1
        for run in self.range_map.runs_overlapping(lo_doc, hi_doc):
            opened = self._run(run)
            row = opened.row(term_id)
            if row is None:
                continue
            start, end = opened.starts[row : row + 2].tolist()
            if start < end:
                if opened.docs[start] <= last:
                    raise ValueError(_OVERLAP)
                last = opened.docs[end - 1]
                parts.append((opened, start, end))
        docs, tfs = self._join(parts)
        kept = slice(docs.searchsorted(lo_doc), docs.searchsorted(hi_doc, "right"))
        return docs[kept], tfs[kept]

    def postings_in_range(
        self, term: str | int, lo_doc: int, hi_doc: int
    ) -> list[tuple[int, int]]:
        """Postings restricted to documents in ``[lo_doc, hi_doc]``.

        See :meth:`postings_columns_in_range`, which this lists as
        ``(doc, tf)`` pairs.
        """
        docs, tfs = self.postings_columns_in_range(term, lo_doc, hi_doc)
        return list(zip(docs.tolist(), tfs.tolist()))

    def document_frequency(self, term: str | int) -> int:
        """Number of documents containing ``term``."""
        return len(self.postings_columns(term)[0])

    def run_count(self) -> int:
        """Number of run files in the index."""
        return len(self.range_map.runs)
