"""The reader's splice at every lookup, kept as the joined reader's oracle.

Before ``PostingsReader`` kept one joined index, each full lookup spliced
the term's partial lists out of every run's own columns: a row index over
all runs' mapping tables (:class:`_RowIndex`), two ``searchsorted``, a
``tolist`` of rows and one ``np.concatenate``.  :class:`SplicingReader` is
``PostingsReader`` with that lookup put back, verbatim, so
``tests/test_reader_join.py`` can hold the joined reader to it.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.postings.reader import _OVERLAP, Columns, PostingsReader, _empty, _OpenRun


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


class SplicingReader(PostingsReader):
    """A reader whose full lookups splice every run's columns per call.

    ``_index`` holds a :class:`_RowIndex`; ``close`` drops it.
    """

    _index: _RowIndex | None  # type: ignore[assignment]

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
