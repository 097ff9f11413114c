"""Boolean, ranked, and phrase retrieval over an index directory."""

from __future__ import annotations

import bisect
import heapq
import math
import re
from dataclasses import dataclass

from repro.parsing.porter import PorterStemmer
from repro.parsing.stopwords import StopWordFilter
from repro.parsing.tokenizer import Tokenizer
from repro.postings.reader import PostingsReader

__all__ = ["SearchEngine", "QueryResult", "normalize_query"]

_stemmer = PorterStemmer()
_stop = StopWordFilter()
_too_long = Tokenizer().too_long
_TOKEN = re.compile(r"[^\W_]+", re.UNICODE)


def normalize_query(query: str, keep_stop_words: bool = False) -> list[str]:
    """Apply the indexing pipeline's normalization to a query string.

    Split on non-alphanumerics, then per token in the parser's order:
    lower-case, drop it if over the tokenizer's byte limit (the parser
    drops it before positions are assigned, so the index never holds
    it), Porter-stem, drop stop words unless ``keep_stop_words``
    (:meth:`SearchEngine.phrase` drops them too: positions in the index
    already skipped them).
    """
    terms = []
    for form in _TOKEN.findall(query):
        token = form.lower()
        if _too_long(token):
            continue
        term = _stemmer.stem(token)
        if not term:
            continue
        if not keep_stop_words and _stop.is_stop(term):
            continue
        terms.append(term)
    return terms


@dataclass(frozen=True)
class QueryResult:
    """One ranked hit."""

    doc_id: int
    score: float


def _top_k(scores: dict[int, float], k: int) -> list[QueryResult]:
    """The ``k`` best hits: highest score first, ties by lowest doc id."""
    best = heapq.nsmallest(k, scores.items(), key=lambda kv: (-kv[1], kv[0]))
    return [QueryResult(doc, score) for doc, score in best]


class SearchEngine:
    """Query layer over a :class:`~repro.postings.reader.PostingsReader`.

    Parameters
    ----------
    index_dir:
        Directory produced by :meth:`repro.core.engine.IndexingEngine.build`.
    num_docs:
        Collection size for IDF; defaults to ``max docID + 1`` inferred
        from the docID-range map.
    """

    def __init__(self, index_dir: str, num_docs: int | None = None) -> None:
        self.reader = PostingsReader(index_dir)
        if num_docs is None:
            highs = [r.max_doc for r in self.reader.range_map.runs if r.max_doc is not None]
            num_docs = (max(highs) + 1) if highs else 0
        self.num_docs = num_docs

    # ------------------------------------------------------------------ #
    # Boolean retrieval
    # ------------------------------------------------------------------ #

    def _doc_sets(self, terms: list[str]) -> list[set[int]]:
        return [set(d for d, _ in self.reader.postings(t)) for t in terms]

    @staticmethod
    def _gallop_intersect(short: list[int], long: list[int]) -> list[int]:
        """Intersect two sorted docID lists with galloping search.

        For each element of the shorter list the probe position in the
        longer one advances by doubling steps then binary search — the
        classic sub-linear conjunctive-query walk, O(s·log(l/s)) instead
        of O(s+l), which matters when one term is rare and the other is a
        near-stop word.
        """
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
        """Documents containing *all* query terms.

        Postings are docID-sorted, so the conjunction intersects lists
        rarest-first with galloping search — results are identical to a
        set intersection, with sub-linear probing on skewed lists.
        """
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

    # ------------------------------------------------------------------ #
    # Ranked retrieval
    # ------------------------------------------------------------------ #

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
        """Top-k by Okapi BM25.

        Document lengths come from summing tf over the vocabulary once
        (cached); absent a stored length table this is exact for the
        emitted-token stream the index actually contains.
        """
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
        """Ranked retrieval restricted to ``[lo_doc, hi_doc]``.

        Only run files overlapping the range are fetched — the §III.F
        "faster search when narrowed down to a range of document IDs".
        """
        scores: dict[int, float] = {}
        for term in normalize_query(query):
            postings = self.reader.postings_in_range(term, lo_doc, hi_doc)
            if not postings or self.num_docs <= 0:
                continue
            idf = math.log((self.num_docs + 1) / (len(postings) + 0.5))
            for doc, tf in postings:
                scores[doc] = scores.get(doc, 0.0) + (1.0 + math.log(tf)) * max(idf, 0.1)
        return _top_k(scores, k)

    # ------------------------------------------------------------------ #
    # Phrase retrieval (positional indexes)
    # ------------------------------------------------------------------ #

    def phrase(self, query: str) -> list[int]:
        """Documents containing the query terms as a contiguous phrase.

        Requires a positional index (``PlatformConfig(positional=True)``).
        Positions are ordinals over the *emitted* token stream — stop
        words were removed before position assignment — so a query phrase
        is matched by its content terms at consecutive emitted positions,
        which also makes "indexing on platforms" match "indexing
        platforms" modulo stop words (the classic stop-worded phrase
        semantics).
        """
        if not self.reader.is_positional:
            raise ValueError(
                "phrase queries need a positional index; build with "
                "PlatformConfig(positional=True)"
            )
        terms = normalize_query(query)
        if not terms:
            return []
        if len(terms) == 1:
            return sorted(d for d, _ in self.reader.postings(terms[0]))

        # doc → positions per term, intersected document-at-a-time.
        per_term = [
            {doc: set(pos) for doc, _, pos in self.reader.positional_postings(t)}
            for t in terms
        ]
        candidates = set(per_term[0])
        for postings in per_term[1:]:
            candidates &= set(postings)
        hits = []
        for doc in candidates:
            first_positions = per_term[0][doc]
            for start in first_positions:
                if all(
                    (start + offset) in per_term[offset][doc]
                    for offset in range(1, len(terms))
                ):
                    hits.append(doc)
                    break
        return sorted(hits)

    def phrase_frequency(self, query: str) -> dict[int, int]:
        """Per-document count of phrase occurrences."""
        if not self.reader.is_positional:
            raise ValueError("phrase queries need a positional index")
        terms = normalize_query(query)
        if not terms:
            return {}
        per_term = [
            {doc: set(pos) for doc, _, pos in self.reader.positional_postings(t)}
            for t in terms
        ]
        candidates = set(per_term[0])
        for postings in per_term[1:]:
            candidates &= set(postings)
        out: dict[int, int] = {}
        for doc in candidates:
            count = sum(
                1
                for start in per_term[0][doc]
                if all(
                    (start + offset) in per_term[offset][doc]
                    for offset in range(1, len(terms))
                )
            )
            if count:
                out[doc] = count
        return out
