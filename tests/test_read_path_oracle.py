"""The column read path against the object-per-posting oracle.

Seeded multi-run indexes, in plain varbyte and in codecs the reader
decodes list by list, with score ties, term frequencies past one varint
byte and past the engine's log table, empty runs and gaps between runs.
Every reader and engine method must return what ``tests/search_oracle.py``
returns: the same documents, and scores equal to the last bit.
"""

from __future__ import annotations

import os
import tempfile

from hypothesis import given
from hypothesis import strategies as st

from repro.dictionary.dictionary import Dictionary
from repro.dictionary.serialize import save_dictionary
from repro.postings.compression import get_codec
from repro.postings.output import DocRangeMap, RunWriter
from repro.postings.reader import PostingsReader
from repro.search.query import QueryResult, SearchEngine
from tests.postings_oracle import OraclePostingsList, run_of
from tests.search_oracle import OracleReader, OracleSearch

#: Words the query pipeline maps to themselves, so a query can name them.
_WORDS = ("alpha", "beta", "gamma", "delta", "kappa", "omega", "index", "chunk")
#: Not in any index: a query term with no postings.
_ABSENT = "quokka"

_small_tf = st.integers(1, 3)  # few distinct values: many score ties
_tf = st.one_of(_small_tf, st.integers(254, 260), st.integers(1020, 1030), st.integers(1, 1 << 20))
_positional_tf = st.one_of(_small_tf, st.integers(254, 260))


@st.composite
def _indexes(draw):
    """``(codec name, runs, num_docs)``; a run is ``{word: [(doc, tf), ...]}``."""
    codec = draw(st.sampled_from(["varbyte", "gamma", "varbyte-pos"]))
    tf = _positional_tf if codec == "varbyte-pos" else _tf
    runs = []
    base = 0
    for span in draw(st.lists(st.integers(0, 25), min_size=1, max_size=4)):
        lists = {}
        for word in _WORDS:
            docs = draw(st.sets(st.integers(base, base + span - 1), max_size=span)) if span else ()
            if docs:
                lists[word] = [(doc, draw(tf)) for doc in sorted(docs)]
        runs.append(lists)
        base += span + draw(st.integers(0, 3))
    # A small explicit num_docs drives some idf to zero or below.
    num_docs = draw(st.one_of(st.none(), st.integers(1, 3), st.integers(1, base + 3)))
    return codec, runs, num_docs


def _write(out_dir: str, codec_name: str, runs: list[dict]) -> None:
    dictionary = Dictionary()
    term_ids = {word: dictionary.add_term(word)[0] for word in _WORDS}
    codec = get_codec(codec_name)
    writer = RunWriter(out_dir, codec=codec)
    mapping = DocRangeMap()
    for run_id, lists in enumerate(runs):
        plists = {}
        for word, postings in lists.items():
            plist = plists[term_ids[word]] = OraclePostingsList()
            for doc, tf in postings:
                plist.add_posting(doc, tf, list(range(tf)) if codec.positional else None)
        mapping.add(writer.write_run(run_id, run_of(plists)))
    mapping.save(out_dir)
    save_dictionary(dictionary, os.path.join(out_dir, "dictionary.bin"))


def _exact(result):
    """A result with each hit's types and its score's bits spelled out."""
    if isinstance(result, list) and result and isinstance(result[0], QueryResult):
        return [(type(r.doc_id), r.doc_id, type(r.score), r.score.hex()) for r in result]
    return result


def _outcome(method, *args):
    try:
        return _exact(method(*args))
    except ValueError as exc:  # e.g. BM25's log of a negative with a tiny num_docs
        return ValueError, str(exc)


_queries = st.lists(st.sampled_from(_WORDS + (_ABSENT, "the")), max_size=4).map(" ".join)


@given(
    _indexes(),
    st.lists(st.tuples(_queries, _queries), min_size=1, max_size=3),
    st.sampled_from([0, 1, 3, 10, 1000]),
    st.sampled_from([(1.2, 0.75), (0.9, 0.4), (2.0, 0.3)]),
    st.integers(-3, 110),
    st.integers(-3, 110),
)
def test_every_method_equals_the_oracle(index, queries, k, bm25, lo_doc, hi_doc):
    codec, runs, num_docs = index
    with tempfile.TemporaryDirectory() as out_dir:
        _write(out_dir, codec, runs)
        reader, oracle = PostingsReader(out_dir), OracleReader(out_dir)
        for term in (*_WORDS, _ABSENT, 10**6):
            expected = oracle.postings(term)
            assert reader.postings(term) == expected
            docs, tfs = reader.postings_columns(term)
            assert list(zip(docs.tolist(), tfs.tolist())) == oracle.postings(term)
            assert reader.document_frequency(term) == oracle.document_frequency(term)
            assert reader.postings_in_range(term, lo_doc, hi_doc) == (
                oracle.postings_in_range(term, lo_doc, hi_doc))
            if oracle.is_positional:
                assert reader.positional_postings(term) == oracle.positional_postings(term)
        assert reader.partial_fetches == oracle.partial_fetches

        engine, slow = SearchEngine(out_dir, num_docs), OracleSearch(out_dir, num_docs)
        for query, other in queries:
            for name, args in (
                ("ranked", (query, k)),
                ("ranked_bm25", (query, k, *bm25)),
                ("ranked_in_range", (query, lo_doc, hi_doc, k)),
                ("boolean_and", (query,)),
                ("boolean_or", (query,)),
                ("boolean_not", (query, other)),
            ):
                assert _outcome(getattr(engine, name), *args) == (
                    _outcome(getattr(slow, name), *args)), (name, args)
        assert engine._doc_lengths() == slow._doc_lengths()
