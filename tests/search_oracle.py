"""The object-per-posting read path, kept as the oracle for the column one.

:class:`OracleReader` is ``PostingsReader`` before the reader moved to
integer columns: a ``dict`` mapping table per run, one ``codec.decode``
per partial list per lookup, lists of ``(doc, tf)`` tuples spliced in
Python.  :class:`OracleSearch` is ``SearchEngine``'s boolean and ranked
methods as they were: a per-posting ``math.log`` and ``dict.get``, a
``heapq.nsmallest`` top-k and a galloping intersection.  The code is the
old code verbatim except that the reader's memory-mapped mode, which
went with it, is gone, and that the mapping table comes from
``read_run_table`` (the one header parser) as an array, made here into
the ``{term: (offset, length)}`` dict the oracle looks up.
``tests/test_read_path_oracle.py`` checks the column reader and engine
against these, results and float scores both.
"""

from __future__ import annotations

import bisect
import heapq
import math
import os

from repro.postings.compression import get_codec
from repro.postings.output import (
    DocRangeMap,
    RunFile,
    read_run_table,
    verify_run_bytes,
)
from repro.search.query import QueryResult, normalize_query


class _OpenRun:
    """A run file parsed into (codec, mapping table, raw bytes)."""

    __slots__ = ("run", "codec", "table", "data")

    def __init__(self, run: RunFile, verify: bool = True) -> None:
        with open(run.path, "rb") as fh:
            self.data = fh.read()
        if verify:
            verify_run_bytes(run.path, bytes(self.data))
        _, codec_name, min_doc, max_doc, rows, _ = read_run_table(self.data)
        self.table = {term_id: (offset, length) for term_id, offset, length in rows.tolist()}
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


class OracleReader:
    """Reads merged postings for a term across all run files."""

    def __init__(self, output_dir: str) -> None:
        self.output_dir = output_dir
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

    def _run(self, run: RunFile) -> _OpenRun:
        opened = self._open_runs.get(run.run_id)
        if opened is None:
            opened = _OpenRun(run)
            self._open_runs[run.run_id] = opened
        return opened

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
        """Full postings list, spliced across runs in run order."""
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
        """Postings restricted to documents in ``[lo_doc, hi_doc]``."""
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


def _top_k(scores: dict[int, float], k: int) -> list[QueryResult]:
    """The ``k`` best hits: highest score first, ties by lowest doc id."""
    best = heapq.nsmallest(k, scores.items(), key=lambda kv: (-kv[1], kv[0]))
    return [QueryResult(doc, score) for doc, score in best]


class OracleSearch:
    """Boolean and ranked retrieval, one Python step per posting."""

    def __init__(self, index_dir: str, num_docs: int | None = None) -> None:
        self.reader = OracleReader(index_dir)
        if num_docs is None:
            highs = [r.max_doc for r in self.reader.range_map.runs if r.max_doc is not None]
            num_docs = (max(highs) + 1) if highs else 0
        self.num_docs = num_docs

    def _doc_sets(self, terms: list[str]) -> list[set[int]]:
        return [set(d for d, _ in self.reader.postings(t)) for t in terms]

    @staticmethod
    def _gallop_intersect(short: list[int], long: list[int]) -> list[int]:
        """Intersect two sorted docID lists with galloping search."""
        out: list[int] = []
        lo = 0
        n = len(long)
        for doc in short:
            # Gallop: exponentially grow the window starting at lo.
            step = 1
            hi = lo
            while hi < n and long[hi] < doc:
                lo = hi
                hi += step
                step <<= 1
            pos = bisect.bisect_left(long, doc, lo, min(hi + 1, n))
            if pos < n and long[pos] == doc:
                out.append(doc)
                lo = pos + 1
            else:
                lo = pos
            if lo >= n:
                break
        return out

    def boolean_and(self, query: str) -> list[int]:
        """Documents containing *all* query terms."""
        terms = normalize_query(query)
        if not terms:
            return []
        lists = [[d for d, _ in self.reader.postings(t)] for t in terms]
        if not all(lists):
            return []
        lists.sort(key=len)  # rarest first: the driver list stays small
        result = lists[0]
        for other in lists[1:]:
            result = self._gallop_intersect(result, other)
            if not result:
                break
        return result

    def boolean_or(self, query: str) -> list[int]:
        """Documents containing *any* query term."""
        terms = normalize_query(query)
        if not terms:
            return []
        return sorted(set.union(*self._doc_sets(terms)))

    def boolean_not(self, query: str, exclude: str) -> list[int]:
        """AND of ``query`` minus documents matching any ``exclude`` term."""
        base = set(self.boolean_and(query))
        if not base:
            return []
        for term in normalize_query(exclude):
            base -= set(d for d, _ in self.reader.postings(term))
        return sorted(base)

    def ranked(self, query: str, k: int = 10) -> list[QueryResult]:
        """Top-k by TF-IDF with sublinear tf scaling."""
        scores: dict[int, float] = {}
        for term in normalize_query(query):
            postings = self.reader.postings(term)
            if not postings or self.num_docs <= 0:
                continue
            df = len(postings)
            idf = math.log((self.num_docs + 1) / (df + 0.5))
            if idf <= 0:
                continue
            for doc, tf in postings:
                scores[doc] = scores.get(doc, 0.0) + (1.0 + math.log(tf)) * idf
        return _top_k(scores, k)

    def ranked_bm25(
        self,
        query: str,
        k: int = 10,
        k1: float = 1.2,
        b: float = 0.75,
    ) -> list[QueryResult]:
        """Top-k by Okapi BM25."""
        lengths = self._doc_lengths()
        if not lengths:
            return []
        avg_len = sum(lengths.values()) / len(lengths)
        scores: dict[int, float] = {}
        for term in normalize_query(query):
            postings = self.reader.postings(term)
            if not postings:
                continue
            df = len(postings)
            idf = math.log(1.0 + (self.num_docs - df + 0.5) / (df + 0.5))
            for doc, tf in postings:
                dl = lengths.get(doc, avg_len)
                denom = tf + k1 * (1.0 - b + b * dl / avg_len)
                scores[doc] = scores.get(doc, 0.0) + idf * tf * (k1 + 1.0) / denom
        return _top_k(scores, k)

    def _doc_lengths(self) -> dict[int, int]:
        """Emitted-token counts per document (computed once, cached)."""
        cached = getattr(self, "_doc_lengths_cache", None)
        if cached is not None:
            return cached
        lengths: dict[int, int] = {}
        for term in self.reader.vocabulary():
            for doc, tf in self.reader.postings(term):
                lengths[doc] = lengths.get(doc, 0) + tf
        self._doc_lengths_cache = lengths
        return lengths

    def ranked_in_range(
        self, query: str, lo_doc: int, hi_doc: int, k: int = 10
    ) -> list[QueryResult]:
        """Ranked retrieval restricted to ``[lo_doc, hi_doc]``."""
        scores: dict[int, float] = {}
        for term in normalize_query(query):
            postings = self.reader.postings_in_range(term, lo_doc, hi_doc)
            if not postings or self.num_docs <= 0:
                continue
            idf = math.log((self.num_docs + 1) / (len(postings) + 0.5))
            for doc, tf in postings:
                scores[doc] = scores.get(doc, 0.0) + (1.0 + math.log(tf)) * max(idf, 0.1)
        return _top_k(scores, k)
