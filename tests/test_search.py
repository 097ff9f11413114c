"""The query layer: boolean, ranked, phrase, and range retrieval."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import PlatformConfig
from repro.core.engine import IndexingEngine
from repro.corpus.warc import write_packed_file
from repro.corpus.collection import Collection
from repro.search.query import QueryResult, SearchEngine, _member, _top_hits, normalize_query


@pytest.fixture(scope="module")
def handmade_index(tmp_path_factory):
    """A collection with known documents so query results are exact."""
    root = tmp_path_factory.mktemp("searchable")
    docs = [
        # doc 0
        ("u://0", "parallel indexing of inverted files on heterogeneous platforms"),
        # doc 1
        ("u://1", "the indexing pipeline runs parsers and indexers in parallel"),
        # doc 2
        ("u://2", "btree dictionaries with string caches accelerate lookups"),
        # doc 3
        ("u://3", "inverted files map terms to postings lists for retrieval"),
        # doc 4
        ("u://4", "parallel indexing parallel indexing parallel indexing"),
    ]
    path = str(root / "file_00000.warc")
    comp, uncomp = write_packed_file(path, docs, compress=False)
    coll = Collection(
        name="handmade", directory=str(root), files=[path],
        file_segments=["main"], compressed_bytes=comp,
        uncompressed_bytes=uncomp, num_docs=len(docs),
    )
    coll.save_manifest()
    out = str(root / "index")
    result = IndexingEngine(
        PlatformConfig(num_parsers=1, num_cpu_indexers=1, num_gpus=0,
                       sample_fraction=1.0, strip_html=False, positional=True)
    ).build(coll, out)
    return SearchEngine(out, num_docs=result.document_count)


class TestNormalize:
    def test_pipeline_normalization(self):
        assert normalize_query("The Parallel INDEXERS!") == ["parallel", "index"]

    def test_keep_stop_words(self):
        assert "the" in normalize_query("the parser", keep_stop_words=True)

    def test_empty(self):
        assert normalize_query("") == []
        assert normalize_query("the of and") == []


class TestOverlongTokens:
    """A token over the tokenizer's byte limit never reaches the index, so a
    query ignores it instead of asking for a term that cannot exist."""

    LONG = "q" * 70

    def test_normalize_drops_what_the_parser_drops(self):
        from repro.parsing.parser import Parser

        assert normalize_query("apple " + self.LONG) == ["appl"]
        # The limit is in UTF-8 bytes: 32 two-byte letters fit, 33 do not.
        for query in ["apple " + self.LONG, "x" * 64, "x" * 65, "é" * 32, "é" * 33,
                      "Straße " + "É" * 40 + " parsers"]:
            _, metrics = Parser(strip_html=False).parse_texts([query])
            assert len(normalize_query(query)) == metrics.tokens_emitted, query

    def test_boolean_and(self, handmade_index):
        assert handmade_index.boolean_and("parallel indexing " + self.LONG) == [0, 1, 4]

    def test_ranked(self, handmade_index):
        assert handmade_index.ranked("parallel " + self.LONG + " indexing", k=5) == (
            handmade_index.ranked("parallel indexing", k=5))

    def test_phrase(self, handmade_index):
        # Skipped before positions were assigned, like a stop word.
        assert handmade_index.phrase("parallel " + self.LONG + " indexing") == [0, 4]


class TestBoolean:
    def test_and(self, handmade_index):
        assert handmade_index.boolean_and("parallel indexing") == [0, 1, 4]
        assert handmade_index.boolean_and("inverted files") == [0, 3]
        assert handmade_index.boolean_and("parallel btree") == []

    def test_or(self, handmade_index):
        assert handmade_index.boolean_or("btree retrieval") == [2, 3]

    def test_not(self, handmade_index):
        assert handmade_index.boolean_not("parallel indexing", "pipeline") == [0, 4]

    def test_unknown_term(self, handmade_index):
        assert handmade_index.boolean_and("zzzznotaword") == []
        assert handmade_index.boolean_or("") == []


class TestRanked:
    def test_tf_scaling(self, handmade_index):
        results = handmade_index.ranked("parallel indexing", k=5)
        assert results[0].doc_id == 4  # tf=3 for both terms
        assert {r.doc_id for r in results} == {0, 1, 4}
        scores = [r.score for r in results]
        assert scores == sorted(scores, reverse=True)

    def test_k_limits(self, handmade_index):
        assert len(handmade_index.ranked("parallel indexing", k=1)) == 1

    def test_range_restricted(self, handmade_index):
        results = handmade_index.ranked_in_range("parallel indexing", 0, 1, k=5)
        assert {r.doc_id for r in results} == {0, 1}

    @pytest.mark.parametrize("k", [0, 1, 3, 10, 50, 500])
    def test_top_k_is_the_head_of_the_full_sort(self, k):
        """Ties included: equal scores rank by ascending doc id."""
        import random

        rng = random.Random(k)
        scores = {doc: rng.choice([0.5, 1.25, 1.25, 2.0, 7.5]) for doc in rng.sample(range(1000), 200)}
        full = sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))
        docs = np.array(list(scores), dtype=np.int64)
        values = np.array(list(scores.values()))
        assert _top_hits(docs, values, k) == [QueryResult(doc, score) for doc, score in full[:k]]


class TestBM25:
    def test_bm25_orders_by_relevance(self, handmade_index):
        results = handmade_index.ranked_bm25("parallel indexing", k=5)
        assert results
        assert results[0].doc_id == 4  # highest tf for both terms
        scores = [r.score for r in results]
        assert scores == sorted(scores, reverse=True)
        assert all(r.score > 0 for r in results)

    def test_bm25_tf_saturation(self, handmade_index):
        """BM25 saturates tf: doc 4 (tf=3) scores less than 3x doc 0 (tf=1)."""
        results = {r.doc_id: r.score for r in handmade_index.ranked_bm25(
            "parallel indexing", k=5)}
        assert results[4] < 3 * results[0]

    def test_bm25_unknown_term(self, handmade_index):
        assert handmade_index.ranked_bm25("zzznotaword") == []

    def test_doc_lengths_cached(self, handmade_index):
        l1 = handmade_index._doc_lengths()
        l2 = handmade_index._doc_lengths()
        assert l1 is l2
        assert len(l1) == 5
        assert all(v > 0 for v in l1.values())


class TestPhrase:
    def test_exact_phrase(self, handmade_index):
        # "parallel indexing" appears contiguously in docs 0 and 4 but in
        # doc 1 the words are "indexing ... in parallel" (not adjacent).
        assert handmade_index.phrase("parallel indexing") == [0, 4]

    def test_phrase_across_stop_words(self, handmade_index):
        # "parsers and indexers": 'and' is a stop word, removed before
        # positions were assigned, so the content terms are adjacent.
        assert handmade_index.phrase("parsers and indexers") == [1]

    def test_phrase_order_matters(self, handmade_index):
        # Reversed order matches doc 4's repetition and doc 1's
        # "indexers in parallel" ('in' was removed before positions).
        assert handmade_index.phrase("indexing parallel") == [1, 4]
        # Order genuinely matters: docs matching one order but not both.
        assert handmade_index.phrase("parallel indexing") != handmade_index.phrase(
            "indexing parallel"
        )

    def test_single_term_phrase(self, handmade_index):
        assert handmade_index.phrase("btree") == [2]

    def test_phrase_frequency(self, handmade_index):
        freq = handmade_index.phrase_frequency("parallel indexing")
        assert freq == {0: 1, 4: 3}

    def test_phrase_needs_positional_index(self, tmp_path, tiny_collection):
        out = str(tmp_path / "plain")
        result = IndexingEngine(
            PlatformConfig(num_parsers=2, num_cpu_indexers=1, num_gpus=0,
                           sample_fraction=0.3)
        ).build(tiny_collection, out)
        engine = SearchEngine(out, num_docs=result.document_count)
        with pytest.raises(ValueError):
            engine.phrase("any phrase")


class TestInference:
    def test_num_docs_inferred_from_range_map(self, handmade_index):
        inferred = SearchEngine(handmade_index.reader.output_dir)
        assert inferred.num_docs == 5


def _intersect(short: list[int], long: list[int]) -> list[int]:
    """The conjunction's step: keep the docs of ``short`` that ``long`` holds."""
    short_docs = np.asarray(short, dtype=np.int64)
    return short_docs[_member(short_docs, np.asarray(long, dtype=np.int64))].tolist()


class TestGallopingIntersection:
    """The conjunctive walk must equal a naive set intersection."""

    def test_known_lists(self):
        g = _intersect
        assert g([2, 5, 9], [1, 2, 3, 5, 8, 9, 12]) == [2, 5, 9]
        assert g([], [1, 2, 3]) == []
        assert g([1, 2, 3], []) == []
        assert g([4], [1, 2, 3]) == []
        assert g([1, 100], list(range(0, 200, 2))) == [100]

    def test_matches_set_intersection_random(self):
        import random

        rng = random.Random(9)
        for _ in range(200):
            a = sorted(rng.sample(range(500), rng.randint(0, 40)))
            b = sorted(rng.sample(range(500), rng.randint(0, 200)))
            expected = sorted(set(a) & set(b))
            assert _intersect(a, b) == expected, (a, b)

    def test_boolean_and_uses_it_correctly(self, handmade_index):
        # Same results as before the optimization (cross-checked above).
        assert handmade_index.boolean_and("parallel indexing") == [0, 1, 4]
        assert handmade_index.boolean_and("inverted files retrieval") == [3]
