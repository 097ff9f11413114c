"""Step-5 regrouping: the paper's cache-locality transform, on columns.

The parent's dict-building ``regroup`` is the oracle
(``tests/parsed_stream_oracles.py``): whatever it produced for a document
stream, the stable sort's spans must hold — same collections, same order
(term ids are allocated in it), same per-collection counts.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.dictionary.trie import TrieTable
from repro.parsing.parser import Parser
from repro.parsing.regroup import ParsedBatch, collection_ranks, regroup
from tests.parsed_stream_oracles import (
    OldParser,
    ParentParser,
    as_nested,
    as_ungrouped,
    assert_same_batch,
    old_regroup,
    stream_columns,
)

doc_streams = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=50),
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=20),
                st.binary(min_size=1, max_size=6),
            ),
            max_size=20,
        ),
    ),
    max_size=15,
).map(lambda docs: [(i, toks) for i, (_, toks) in enumerate(docs)])


def _regrouped(docs, with_positions: bool = False) -> ParsedBatch:
    """``docs`` through the parser's own Step 5."""
    batch, ids, doc_col = stream_columns(docs)
    Parser(positional=with_positions)._assemble(batch, ids, doc_col)
    return batch


class TestRegroup:
    def test_paper_output_shape(self):
        """Trie collection i: (Doc_ID1, term1, term2, ...), (Doc_ID2, ...)"""
        docs = [
            (0, [(5, b"x"), (7, b"y"), (5, b"z")]),
            (1, [(5, b"w")]),
        ]
        batch = _regrouped(docs)
        assert batch.collections[5] == [(0, [b"x", b"z"]), (1, [b"w"])]
        assert batch.collections[7] == [(0, [b"y"])]
        assert batch.tokens_per_collection == {5: 3, 7: 1}
        assert batch.chars_per_collection == {5: 3, 7: 1}
        assert batch.documents.tolist() == [2, 1]
        assert batch.spans.tolist() == [[0, 3], [3, 4]]

    def test_one_stable_sort(self):
        """``regroup`` itself: the permutation and the first-seen counts."""
        # Entries 0..3 lie in collections 5, 7, 9, 7; the tokens' collections
        # are 7, 5, 7, 9, 5, 7.
        entry_cidx = np.array([5, 7, 9, 7], dtype=np.int32)
        ids = np.array([1, 0, 3, 2, 0, 1], dtype=np.int32)
        order, rank = collection_ranks(ids, entry_cidx)
        assert order.tolist() == [7, 5, 9] and rank.tolist() == [0, 1, 0, 2, 1, 0]
        perm, tokens = regroup(rank, order)
        assert perm.tolist() == [0, 2, 5, 1, 4, 3]
        assert list(tokens.items()) == [(7, 3), (5, 2), (9, 1)]

    @pytest.mark.parametrize("k", [1, 256, 257, 65_536, 65_537])
    def test_radix_key_edges(self, k):
        """The sort key narrows to ``uint8`` / ``uint16`` at 256 / 65,536
        collections; above that it is ``uint32`` and the sort is no radix
        sort.  Every width must give the int64 stable sort's permutation."""
        rng = np.random.default_rng(k)
        rank = np.concatenate([np.arange(k), rng.integers(0, k, 3 * k)])
        rng.shuffle(rank)
        order = np.arange(10, 10 + k, dtype=np.int32)
        perm, tokens = regroup(rank, order)
        assert np.array_equal(perm, np.argsort(rank.astype(np.int64), kind="stable"))
        assert list(tokens) == order.tolist() and sum(tokens.values()) == len(rank)
        assert list(tokens.values()) == np.bincount(rank, minlength=k).tolist()

    def test_collection_ranks_of_an_empty_stream(self):
        order, rank = collection_ranks(np.empty(0, np.int32), np.empty(0, np.int32))
        assert order.dtype == np.int32 and len(order) == len(rank) == 0

    def test_document_order_preserved_within_collection(self):
        docs = [(i, [(3, f"t{i}".encode())]) for i in range(10)]
        batch = _regrouped(docs)
        assert [doc for doc, _ in batch.collections[3]] == list(range(10))

    def test_empty_documents_skipped(self):
        batch = _regrouped([(0, []), (1, [(2, b"a")])])
        assert 0 not in {doc for streams in batch.collections.values() for doc, _ in streams}
        assert batch.tokens_per_collection == {2: 1}
        assert batch.num_docs == 2

    @given(doc_streams)
    def test_token_conservation(self, docs):
        """Every (doc, suffix) occurrence survives regrouping exactly once."""
        batch = _regrouped(docs)
        original: list[tuple[int, int, bytes]] = []
        for doc_id, toks in docs:
            for cidx, suffix in toks:
                original.append((cidx, doc_id, suffix))
        regrouped: list[tuple[int, int, bytes]] = []
        for cidx, streams in batch.collections.items():
            for doc_id, suffixes in streams:
                for suffix in suffixes:
                    regrouped.append((cidx, doc_id, suffix))
        assert sorted(original) == sorted(regrouped)
        assert batch.total_tokens == len(original)
        assert batch.total_chars == sum(len(s) for _, _, s in original)

    def test_positions_track_token_ordinals(self):
        docs = [
            (0, [(5, b"x"), (7, b"y"), (5, b"z")]),
            (1, [(7, b"w"), (7, b"v")]),
        ]
        collections, positions = as_nested(_regrouped(docs, with_positions=True))
        assert positions[5] == [[0, 2]]
        assert positions[7] == [[1], [0, 1]]
        # positions[cidx] is parallel to collections[cidx].
        for cidx in collections:
            assert len(positions[cidx]) == len(collections[cidx])
            for (d, sufs), pos in zip(collections[cidx], positions[cidx]):
                assert len(sufs) == len(pos)
                assert pos == sorted(pos)

    def test_positions_none_by_default(self):
        assert _regrouped([(0, [(1, b"a")])]).positions is None

    @given(doc_streams)
    def test_within_doc_order_preserved(self, docs):
        batch = _regrouped(docs)
        for cidx, streams in batch.collections.items():
            for doc_id, suffixes in streams:
                expected = [s for c, s in dict(docs)[doc_id] if c == cidx]
                assert suffixes == expected

    @given(doc_streams, st.booleans())
    def test_columns_equal_the_parent_regroup(self, docs, with_positions):
        """Spans over the sorted columns == the dicts the parent built."""
        collections, tokens, chars, positions = old_regroup(docs, with_positions)
        batch = _regrouped(docs, with_positions)
        new_collections, new_positions = as_nested(batch)
        # ``==`` on dicts ignores order; term ids are allocated in it.
        assert list(new_collections.items()) == list(collections.items())
        assert list(batch.tokens_per_collection.items()) == list(tokens.items())
        assert list(batch.chars_per_collection.items()) == list(chars.items())
        assert new_positions == positions
        assert batch.documents.tolist() == [len(s) for s in collections.values()]
        assert batch.ids.dtype == batch.docs.dtype == np.int32

    @given(doc_streams)
    def test_ablation_is_the_same_columns_without_the_sort(self, docs):
        batch, ids, doc_col = stream_columns(docs)
        Parser(regroup=False)._assemble(batch, ids, doc_col)
        assert not batch.regrouped and len(batch.collections) == 0
        assert as_ungrouped(batch) == docs
        _, tokens, chars, _ = old_regroup(docs)
        assert list(batch.tokens_per_collection.items()) == list(tokens.items())
        assert list(batch.chars_per_collection.items()) == list(chars.items())


class TestParsedBatch:
    def test_totals(self):
        batch = _regrouped([(0, [(1, b"ab"), (2, b"c")])])
        assert batch.total_tokens == 2
        assert batch.total_chars == 3
        assert batch.regrouped

    def test_ungrouped_totals(self):
        docs = [(0, [(1, b"ab")]), (1, [(1, b"c"), (2, b"d")])]
        batch, ids, doc_col = stream_columns(docs)
        Parser(regroup=False)._assemble(batch, ids, doc_col)
        assert batch.total_tokens == 3
        assert not batch.regrouped

    def test_collections_view_is_read_only_and_ordered(self):
        batch = _regrouped([(0, [(9, b"a"), (1, b"b")]), (1, [(1, b"c")])])
        view = batch.collections
        assert list(view) == [9, 1] and len(view) == 2 and 9 in view and 4 not in view
        assert dict(view.items()) == {9: [(0, [b"a"])], 1: [(0, [b"b"]), (1, [b"c"])]}
        assert not hasattr(view, "__setitem__")

    def test_select_shares_the_columns(self):
        batch = _regrouped([(0, [(9, b"a"), (1, b"b"), (4, b"cc")]), (1, [(1, b"c")])])
        sub = batch.select([0, 2])
        assert sub.ids is batch.ids and sub.docs is batch.docs
        assert dict(sub.collections) == {9: [(0, [b"a"])], 4: [(0, [b"cc"])]}
        assert sub.tokens_per_collection == {9: 1, 4: 1} and sub.total_chars == 3


# --------------------------------------------------------------------------- #
# The whole parser against the parent's per-token loop
# --------------------------------------------------------------------------- #

_WORDS = st.sampled_from([
    "parallel", "Parallel", "PARALLEL", "parallelism", "indexers", "Indexer", "the", "The",
    "of", "zé", "Zé", "naïve", "ÉCOLE", "école", "straße", "ǅ", "İstanbul", "ties", "a", "1999",
    "x" * 64, "x" * 65, "é" * 32, "é" * 33, "Q" * 70, "running", "runs", "ran", "_", "co_op",
    "<b>", "&amp;", "apple", "Apple",
])
_DOCS = st.lists(st.lists(_WORDS, max_size=12).map(" ".join), max_size=8)


@given(texts=_DOCS, more=_DOCS, positional=st.booleans(), strip_html=st.booleans())
def test_parser_equals_the_parent_parser(texts, more, positional, strip_html):
    """Two files through one parser: the caches persist across files.

    Empty documents, one-token documents, repeated suffixes, non-ASCII and
    mixed-case forms, over-length tokens, markup, positional on and off.
    """
    new = Parser(strip_html=strip_html, positional=positional)
    old = OldParser(strip_html=strip_html)
    for batch_texts in (texts, more):
        batch, metrics = new.parse_texts(batch_texts)
        doc_streams, old_metrics = old.parse_texts(batch_texts)
        collections, tokens, chars, positions = old_regroup(doc_streams, positional)
        old_metrics.collections_touched = len(tokens)

        new_collections, new_positions = as_nested(batch)
        assert list(new_collections.items()) == list(collections.items())
        assert new_positions == positions
        assert list(batch.tokens_per_collection.items()) == list(tokens.items())
        assert list(batch.chars_per_collection.items()) == list(chars.items())
        assert metrics == old_metrics
        assert batch.num_docs == len(batch_texts)
        # The batch carries exactly the entries it uses.
        assert sorted(set(batch.ids.tolist())) == list(range(len(batch.entry_suffix)))


@given(texts=_DOCS)
def test_ablation_parser_equals_the_parent_parser(texts):
    batch, metrics = Parser(strip_html=False, regroup=False).parse_texts(texts)
    doc_streams, old_metrics = OldParser(strip_html=False).parse_texts(texts)
    assert as_ungrouped(batch) == doc_streams
    old_metrics.collections_touched = len(old_regroup(doc_streams)[1])
    assert metrics == old_metrics


# --------------------------------------------------------------------------- #
# The whole parser against the parent's columnar Step 5
# --------------------------------------------------------------------------- #

_STEP5_WORDS = st.one_of(
    _WORDS,
    st.sampled_from(["the", "THE", "and", "This", "having", "ourselves", "12", "0", "007"]),
    # Random heads spread tokens over many collections at heights 3 and 4.
    st.text(alphabet="abcdefghijklmnopqrstuvwxyzAEZ0159éß", min_size=1, max_size=9),
)
_STEP5_FILES = st.lists(
    st.lists(st.lists(_STEP5_WORDS, max_size=40).map(" ".join), max_size=6),
    min_size=1, max_size=4,
)


@given(
    files=_STEP5_FILES,
    height=st.integers(min_value=1, max_value=4),
    regrouped=st.booleans(),
    positional=st.booleans(),
)
def test_parser_equals_the_parent_step5(files, height, regrouped, positional):
    """A sequence of files through one parser, token cache carried over:
    every batch column (dtypes included) and ``ParseMetrics`` equal the
    parent's ``np.unique`` / ``first_seen`` / memoised-stemmer parser."""
    options = dict(strip_html=False, regroup=regrouped, positional=positional and regrouped)
    new = Parser(trie=TrieTable(height), **options)
    old = ParentParser(trie=TrieTable(height), **options)
    for sequence, texts in enumerate(files):
        batch, metrics = new.parse_texts(texts, sequence=sequence)
        old_batch, old_metrics = old.parse_texts(texts, sequence=sequence)
        assert_same_batch(batch, old_batch)
        assert metrics == old_metrics
