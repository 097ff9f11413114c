"""Retrieval path over an output directory of run files.

"To retrieve a postings list for a certain term string, we look it up in
the dictionary and use the corresponding pointer to determine the location
of the partial postings list in each of the output files."  The reader also
implements the paper's range-narrowed search benefit: a query restricted to
a document-ID range only fetches partial lists from the run files whose
ranges overlap (counted in :attr:`PostingsReader.partial_fetches` so tests
and benchmarks can observe the saving).
"""

from __future__ import annotations

import os

from repro.postings.compression import get_codec
from repro.postings.output import (
    DocRangeMap,
    RunFile,
    read_run_header,
    verify_run_bytes,
)

__all__ = ["PostingsReader"]


class _OpenRun:
    """A run file parsed into (codec, mapping table, raw bytes).

    With ``use_mmap`` the payload stays file-backed and pages in on
    demand — the right mode for large indexes where a query touches a
    handful of partial lists out of gigabytes of runs.

    Opening verifies the file's trailing CRC32 (unless the reader was
    constructed with ``verify_checksums=False``): a flipped byte anywhere
    in the run raises :class:`~repro.robustness.errors.ChecksumError`
    before a single posting is decoded.
    """

    __slots__ = ("run", "codec", "table", "data", "_mm", "_fh")

    def __init__(self, run: RunFile, use_mmap: bool = False, verify: bool = True) -> None:
        self._mm = None
        self._fh = None
        if use_mmap:
            import mmap

            self._fh = open(run.path, "rb")
            self._mm = mmap.mmap(self._fh.fileno(), 0, access=mmap.ACCESS_READ)
            self.data = self._mm
        else:
            with open(run.path, "rb") as fh:
                self.data = fh.read()
        if verify:
            verify_run_bytes(run.path, bytes(self.data))
        header = bytes(self.data[:4096]) if use_mmap else self.data
        # Headers of big runs can exceed 4 KiB; fall back to the full map.
        try:
            _, codec_name, min_doc, max_doc, self.table, _ = read_run_header(header)
        except (EOFError, IndexError):
            _, codec_name, min_doc, max_doc, self.table, _ = read_run_header(
                bytes(self.data)
            )
        self.codec = get_codec(codec_name)
        self.run = run
        # Backfill lazily-loaded descriptor fields.
        run.min_doc, run.max_doc = min_doc, max_doc
        run.entry_count = len(self.table)

    def fetch(self, term_id: int) -> list[tuple[int, int]]:
        """Decode one partial postings list (empty when term absent)."""
        entry = self.table.get(term_id)
        if entry is None:
            return []
        offset, length = entry
        return self.codec.decode(bytes(self.data[offset : offset + length]))

    def close(self) -> None:
        """Release the mmap/file handle (no-op for in-memory runs)."""
        if self._mm is not None:
            self._mm.close()
            self._mm = None
        if self._fh is not None:
            self._fh.close()
            self._fh = None


class PostingsReader:
    """Reads merged postings for a term across all run files.

    Parameters
    ----------
    output_dir:
        Directory produced by the engine: run files, ``runs.map`` and
        (optionally) a serialized dictionary ``dictionary.bin`` which lets
        callers query by term *string* instead of postings pointer.
    """

    def __init__(self, output_dir: str, use_mmap: bool = False) -> None:
        self.output_dir = output_dir
        self.use_mmap = use_mmap
        self.range_map = DocRangeMap.load(output_dir)
        self._open_runs: dict[int, _OpenRun] = {}
        #: Every run, opened, in run order (filled by the first full lookup).
        self._all_runs: list[_OpenRun] | None = None
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
            opened = _OpenRun(run, use_mmap=self.use_mmap)
            self._open_runs[run.run_id] = opened
        return opened

    def close(self) -> None:
        """Release all open run files (important in mmap mode)."""
        for opened in self._open_runs.values():
            opened.close()
        self._open_runs.clear()
        self._all_runs = None

    def __enter__(self) -> "PostingsReader":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def _postings_raw(self, term: str | int) -> list:
        """Raw spliced entries (3-tuples when the index is positional)."""
        term_id = self._resolve(term)
        if term_id is None:
            return []
        if self._all_runs is None:
            self._all_runs = [self._run(run) for run in self.range_map.runs]
        merged: list = []
        for opened in self._all_runs:
            partial = opened.fetch(term_id)
            if partial:
                self.partial_fetches += 1
                if merged and partial[0][0] <= merged[-1][0]:
                    raise ValueError(
                        "run files overlap in document order; output corrupt"
                    )
                merged.extend(partial)
        return merged

    def postings(self, term: str | int) -> list[tuple[int, int]]:
        """Full postings list, spliced across runs in run order.

        Runs are written in document order, so simple concatenation yields
        a globally docID-sorted list — the paper's "index is still
        monolithic for the entire document collection".  Positions (if the
        index is positional) are stripped; use :meth:`positional_postings`.
        """
        entries = self._postings_raw(term)
        if self.is_positional:
            return [(e[0], e[1]) for e in entries]
        return entries  # already (doc, tf) pairs, in a list nobody else holds

    def positional_postings(
        self, term: str | int
    ) -> list[tuple[int, int, tuple[int, ...]]]:
        """``(doc, tf, positions)`` entries — requires a positional index."""
        if not self.is_positional:
            raise ValueError("this index was built without positions")
        return self._postings_raw(term)

    @property
    def is_positional(self) -> bool:
        """Whether the run files carry per-occurrence positions."""
        if not self.range_map.runs:
            return False
        return self._run(self.range_map.runs[0]).codec.positional

    def postings_in_range(
        self, term: str | int, lo_doc: int, hi_doc: int
    ) -> list[tuple[int, int]]:
        """Postings restricted to documents in ``[lo_doc, hi_doc]``.

        Only run files whose document range overlaps are touched — the
        "faster search when narrowed down to a range of document IDs"
        benefit of the run-per-file output format.
        """
        term_id = self._resolve(term)
        if term_id is None:
            return []
        out: list[tuple[int, int]] = []
        for run in self.range_map.runs_overlapping(lo_doc, hi_doc):
            partial = self._run(run).fetch(term_id)
            if partial:
                self.partial_fetches += 1
            out.extend((e[0], e[1]) for e in partial if lo_doc <= e[0] <= hi_doc)
        return out

    def document_frequency(self, term: str | int) -> int:
        """Number of documents containing ``term``."""
        return len(self.postings(term))

    def run_count(self) -> int:
        """Number of run files in the index."""
        return len(self.range_map.runs)
