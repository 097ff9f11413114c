"""Boolean, ranked, and phrase retrieval over an index directory.

Boolean and ranked queries work on the reader's ``(docs, tfs)`` columns: a
term is scored as a vector, documents are intersected with binary search,
and no per-posting Python loop runs.  Scores are bit-identical to summing
``(1 + ln tf) · idf`` posting by posting: the ``ln`` comes from
``math.log``, and each document's additions happen one term at a time in
query-term order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.parsing.porter import PorterStemmer
from repro.parsing.stopwords import StopWordFilter
from repro.parsing.tokenizer import Tokenizer, split_tokens
from repro.postings.reader import PostingsReader

__all__ = ["SearchEngine", "QueryResult", "normalize_query"]

_stemmer = PorterStemmer()
_stop = StopWordFilter()
_too_long = Tokenizer().too_long

#: ``1 + ln(tf)`` for every tf below the table's length, from ``math.log``
#: (``np.log`` may differ from libm by an ulp); larger tfs are computed
#: one by one.
_LOG_TF = np.array([0.0] + [1.0 + math.log(tf) for tf in range(1, 1024)])


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
    for form in split_tokens(query):
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


def _tf_weights(tfs: np.ndarray) -> np.ndarray:
    """``1 + ln(tf)`` per posting, each as ``math.log`` computes it."""
    weights = _LOG_TF.take(tfs, mode="clip")
    beyond = np.flatnonzero(tfs >= len(_LOG_TF))
    if beyond.size:
        weights[beyond] = [1.0 + math.log(tf) for tf in tfs[beyond].tolist()]
    return weights


def _union_mask(doc_lists: list[np.ndarray]) -> np.ndarray:
    """Boolean mask over document ids: set where any (non-empty) list has one.

    Dense up to the largest id: the engine numbers documents densely, so
    this is at most one entry per document of the collection.
    """
    seen = np.zeros(max(int(docs[-1]) for docs in doc_lists) + 1, dtype=bool)
    for docs in doc_lists:
        seen[docs] = True
    return seen


def _sum_scores(terms: list[tuple[np.ndarray, np.ndarray]]) -> tuple[np.ndarray, np.ndarray]:
    """Each scored document and its summed score.

    ``terms`` holds each query term's (non-empty, sorted) documents and
    weights in query order.  Every document's score starts at ``0.0`` and
    takes one addition per term that holds it, in that order — the floats
    a per-posting loop over a dict makes.
    """
    if not terms:
        return np.empty(0, dtype=np.int64), np.empty(0)
    seen = _union_mask([docs for docs, _ in terms])
    scores = np.zeros(seen.size)
    for docs, weights in terms:
        scores[docs] += weights
    docs = np.flatnonzero(seen)
    return docs, scores[docs]


def _top_hits(docs: np.ndarray, scores: np.ndarray, k: int) -> list[QueryResult]:
    """The ``k`` best hits: highest score first, ties by lowest doc id."""
    if k <= 0 or not docs.size:
        return []
    if k < docs.size:
        # Everything scoring at least the k-th best, ties at the cut included.
        kth = scores[np.argpartition(-scores, k - 1)[k - 1]]
        kept = np.flatnonzero(scores >= kth)
        docs, scores = docs[kept], scores[kept]
    order = np.lexsort((docs, -scores))[:k]
    return [
        QueryResult(doc, score)
        for doc, score in zip(docs[order].tolist(), scores[order].tolist())
    ]


def _member(values: np.ndarray, docs: np.ndarray) -> np.ndarray:
    """Which of ``values`` the sorted ``docs`` holds: one binary search each."""
    if not docs.size:
        return np.zeros(values.size, dtype=bool)
    at = np.minimum(docs.searchsorted(values), docs.size - 1)
    return docs[at] == values


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
        self._lengths: np.ndarray | None = None
        self._doc_lengths_cache: dict[int, int] | None = None

    # ------------------------------------------------------------------ #
    # Boolean retrieval
    # ------------------------------------------------------------------ #

    def _docs(self, term: str) -> np.ndarray:
        return self.reader.postings_columns(term)[0]

    def _conjunction(self, terms: list[str]) -> np.ndarray:
        """Documents holding every term, rarest list first."""
        lists = sorted((self._docs(term) for term in terms), key=len)
        result = lists[0]
        for other in lists[1:]:
            if not result.size:
                break
            result = result[_member(result, other)]
        return result

    def boolean_and(self, query: str) -> list[int]:
        """Documents containing *all* query terms.

        Postings are docID-sorted, so the conjunction intersects lists
        rarest-first by binary search — results are identical to a set
        intersection, with sub-linear probing on skewed lists.
        """
        terms = normalize_query(query)
        if not terms:
            return []
        return self._conjunction(terms).tolist()

    def boolean_or(self, query: str) -> list[int]:
        """Documents containing *any* query term."""
        lists = [docs for docs in map(self._docs, normalize_query(query)) if docs.size]
        if not lists:
            return []
        return np.flatnonzero(_union_mask(lists)).tolist()

    def boolean_not(self, query: str, exclude: str) -> list[int]:
        """AND of ``query`` minus documents matching any ``exclude`` term."""
        terms = normalize_query(query)
        if not terms:
            return []
        base = self._conjunction(terms)
        for term in normalize_query(exclude):
            if not base.size:
                break
            base = base[~_member(base, self._docs(term))]
        return base.tolist()

    # ------------------------------------------------------------------ #
    # Ranked retrieval
    # ------------------------------------------------------------------ #

    def ranked(self, query: str, k: int = 10) -> list[QueryResult]:
        """Top-k by TF-IDF with sublinear tf scaling."""
        terms = []
        for term in normalize_query(query):
            docs, tfs = self.reader.postings_columns(term)
            if not docs.size or self.num_docs <= 0:
                continue
            idf = math.log((self.num_docs + 1) / (docs.size + 0.5))
            if idf <= 0:
                continue
            terms.append((docs, _tf_weights(tfs) * idf))
        return _top_hits(*_sum_scores(terms), k)

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
        lengths = self._length_column()
        documents = np.count_nonzero(lengths)
        if not documents:
            return []
        avg_len = int(lengths.sum()) / documents
        terms = []
        for term in normalize_query(query):
            docs, tfs = self.reader.postings_columns(term)
            if not docs.size:
                continue
            df = docs.size
            idf = math.log(1.0 + (self.num_docs - df + 0.5) / (df + 0.5))
            denom = tfs + k1 * (1.0 - b + b * lengths[docs] / avg_len)
            terms.append((docs, idf * tfs * (k1 + 1.0) / denom))
        return _top_hits(*_sum_scores(terms), k)

    def _length_column(self) -> np.ndarray:
        """Emitted-token count per document id, 0 for none (computed once, cached)."""
        if self._lengths is None:
            columns = [self.reader.postings_columns(t) for t in self.reader.vocabulary().values()]
            docs = np.concatenate([np.empty(0, dtype=np.int32), *(d for d, _ in columns)])
            tfs = np.concatenate([np.empty(0, dtype=np.int32), *(t for _, t in columns)])
            self._lengths = np.bincount(docs, weights=tfs).astype(np.int64)
        return self._lengths

    def _doc_lengths(self) -> dict[int, int]:
        """Emitted-token counts per document (computed once, cached)."""
        if self._doc_lengths_cache is None:
            lengths = self._length_column()
            docs = np.flatnonzero(lengths)
            self._doc_lengths_cache = dict(zip(docs.tolist(), lengths[docs].tolist()))
        return self._doc_lengths_cache

    def ranked_in_range(
        self, query: str, lo_doc: int, hi_doc: int, k: int = 10
    ) -> list[QueryResult]:
        """Ranked retrieval restricted to ``[lo_doc, hi_doc]``.

        Only run files overlapping the range are fetched — the §III.F
        "faster search when narrowed down to a range of document IDs".
        """
        terms = []
        for term in normalize_query(query):
            docs, tfs = self.reader.postings_columns_in_range(term, lo_doc, hi_doc)
            if not docs.size or self.num_docs <= 0:
                continue
            idf = math.log((self.num_docs + 1) / (docs.size + 0.5))
            terms.append((docs, _tf_weights(tfs) * max(idf, 0.1)))
        return _top_hits(*_sum_scores(terms), k)

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
