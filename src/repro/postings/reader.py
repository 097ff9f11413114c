"""Retrieval path over an output directory of run files.

"To retrieve a postings list for a certain term string, we look it up in
the dictionary and use the corresponding pointer to determine the location
of the partial postings list in each of the output files."  The paper's
other option, to "combine the partial postings lists of each term into a
single list", the reader takes in memory: its first full lookup runs the
merge's window join (:mod:`repro.postings.merge`) over every run and keeps
the result unencoded, as integer columns, never as one object per posting
(Pibiri & Venturini).  A lookup is one ``searchsorted`` and two slices.
A query restricted to a document-ID range (the paper's range-narrowed
search) only decodes the run files whose ranges overlap, counted in
:attr:`PostingsReader.partial_fetches` so tests and benchmarks can observe
the saving.
"""

from __future__ import annotations

import os
from contextlib import ExitStack
from typing import NamedTuple

import numpy as np

from repro.postings.compression import get_codec
from repro.postings.merge import distinct_term_ids, join_window, open_runs, read_windows
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
    empty = np.empty(0, dtype=np.int32)
    empty.flags.writeable = False
    return empty


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

    Opening reads one run, for range and positional lookups and for
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


class _Index(NamedTuple):
    """Every run's lists joined: ``term_ids[i]`` (ascending) has postings
    ``[bounds[i], bounds[i + 1])`` of ``docs`` / ``tfs`` (read-only
    ``int32``) from ``parts[i]`` non-empty partial lists, which overlap in
    document order for the terms in ``overlapping``."""

    term_ids: np.ndarray
    bounds: np.ndarray
    parts: np.ndarray
    overlapping: frozenset[int]
    docs: np.ndarray
    tfs: np.ndarray


def _join_runs(range_map: DocRangeMap) -> _Index:
    """Join every run, each decoded with its own codec, as the merge does."""
    with ExitStack() as stack:
        runs, _ = open_runs(range_map, stack)
        codecs = {run.codec: get_codec(run.codec) for run in runs}
        pieces = read_windows(runs, distinct_term_ids(runs), codecs)
        windows = [join_window(window, positional=False) for window in pieces]

    def column(field: str, dtype: type) -> np.ndarray:
        joined = np.concatenate([np.empty(0, dtype), *(getattr(w, field) for w in windows)])
        joined.flags.writeable = False
        return joined

    return _Index(
        column("term_ids", np.int64),
        np.concatenate(([0], np.cumsum(column("counts", np.int64)))),
        column("parts", np.int64),
        frozenset(column("clashes", np.int64).tolist()),
        column("docs", np.int32),
        column("tfs", np.int32),
    )


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
        #: Runs decoded one by one, for range, positional and codec reads.
        self._open_runs: dict[int, _OpenRun] = {}
        #: Built by the first full lookup.
        self._index: _Index | None = None
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
        return opened

    def close(self) -> None:
        """Free the joined index and decoded runs; lookups build them again."""
        self._open_runs.clear()
        self._index = None

    def __enter__(self) -> "PostingsReader":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def postings_columns(self, term: str | int) -> Columns:
        """The full postings list as read-only ``(docs, tfs)`` ``int32`` columns:
        two slices of the index the first call joins (``ValueError`` if the
        term's partial lists overlap)."""
        term_id = self._resolve(term)
        if term_id is None:
            return _empty(), _empty()
        index = self._index
        if index is None:
            index = self._index = _join_runs(self.range_map)
        i = int(index.term_ids.searchsorted(term_id))
        if i == len(index.term_ids) or index.term_ids[i] != term_id:
            return _empty(), _empty()
        if term_id in index.overlapping:
            raise ValueError(_OVERLAP)
        self.partial_fetches += int(index.parts[i])
        start, end = index.bounds[i : i + 2].tolist()
        return index.docs[start:end], index.tfs[start:end]

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
        parts = [np.empty((2, 0), dtype=np.int32)]
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
                parts.append(opened.columns[:, start:end])
        self.partial_fetches += len(parts) - 1
        docs, tfs = np.concatenate(parts, axis=1)
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
