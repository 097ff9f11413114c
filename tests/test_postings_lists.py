"""In-memory postings accumulation."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.postings.lists import PostingsAccumulator, PostingsList


class TestPostingsList:
    def test_occurrences_fold_into_tf(self):
        pl = PostingsList()
        for doc in [1, 1, 1, 5, 9, 9]:
            pl.add_occurrence(doc)
        assert pl.postings() == [(1, 3), (5, 1), (9, 2)]
        assert pl.document_frequency == 3
        assert pl.collection_frequency == 6

    def test_out_of_order_rejected(self):
        pl = PostingsList()
        pl.add_occurrence(5)
        with pytest.raises(ValueError):
            pl.add_occurrence(3)

    def test_add_posting_strictly_increasing(self):
        pl = PostingsList()
        pl.add_posting(1, 2)
        with pytest.raises(ValueError):
            pl.add_posting(1, 1)
        with pytest.raises(ValueError):
            pl.add_posting(2, 0)

    def test_iteration(self):
        pl = PostingsList()
        pl.add_posting(1, 2)
        pl.add_posting(4, 1)
        assert list(pl) == [(1, 2), (4, 1)]
        assert len(pl) == 2

    @given(st.lists(st.integers(min_value=0, max_value=30), max_size=100))
    def test_tf_equals_occurrence_count(self, docs):
        docs = sorted(docs)
        pl = PostingsList()
        for d in docs:
            pl.add_occurrence(d)
        assert pl.collection_frequency == len(docs)
        assert pl.doc_ids == sorted(set(docs))
        for doc, tf in pl:
            assert tf == docs.count(doc)


class TestAccumulator:
    def test_routes_by_term(self):
        acc = PostingsAccumulator()
        acc.add_occurrence(10, 0)
        acc.add_occurrence(20, 0)
        acc.add_occurrence(10, 1)
        assert acc.term_count == 2
        assert acc.posting_count == 3
        assert acc.token_count == 3
        assert acc.lists[10].postings() == [(0, 1), (1, 1)]

    def test_drain_resets(self):
        acc = PostingsAccumulator()
        acc.add_occurrence(1, 0)
        drained = acc.drain()
        assert 1 in drained
        assert len(acc) == 0
        assert acc.token_count == 0
        acc.add_occurrence(1, 5)  # reusable after drain
        assert acc.lists[1].postings() == [(5, 1)]


def _add(acc: PostingsAccumulator, terms, docs, positions=None) -> None:
    """``add_batch`` of (term, doc[, position]) rows through a term table
    in which every term sits in two slots."""
    table = sorted(set(terms)) * 2
    rows = [table.index(t) + (i % 2) * len(table) // 2 for i, t in enumerate(terms)]
    acc.add_batch(
        table, np.array(rows, dtype=np.int32), np.array(docs, dtype=np.int32),
        None if positions is None else np.array(positions, dtype=np.int32),
    )


def _state(acc: PostingsAccumulator):
    lists = {t: (p.doc_ids, p.tfs, p.positions) for t, p in acc.lists.items()}
    return lists, acc.token_count


#: Batches of (term, doc step, position step) rows; documents never go back.
_rows = st.lists(
    st.lists(st.tuples(st.sampled_from([7, 1 << 41, 3, 900]), st.integers(0, 2), st.integers(1, 3)),
             max_size=25),
    max_size=4,
)


class TestAddBatch:
    """Columns in, the lists one ``add_occurrence`` per row would build out."""

    @pytest.mark.parametrize("positional", [False, True])
    @given(batches=_rows)
    def test_equals_one_add_occurrence_per_row(self, positional, batches):
        columns, by_row = PostingsAccumulator(), PostingsAccumulator()
        doc = position = 0
        for rows in batches:
            terms, docs, positions = [], [], []
            for term, doc_step, position_step in rows:
                doc += doc_step
                position += position_step  # ascending throughout, so within any document
                terms.append(term), docs.append(doc), positions.append(position)
                by_row.add_occurrence(term, doc, position if positional else None)
            _add(columns, terms, docs, positions if positional else None)
            assert _state(columns) == _state(by_row)

    @pytest.mark.parametrize("terms, docs, positions", [
        ([5, 9, 5], [3, 0, 2], None),            # term 5: document 2 after 3
        ([5, 5], [3, 3], [4, 4]),                # a position twice in one document
        ([5, 5, 9], [3, 3, 1], [4, 2, 0]),       # ... or going back
    ])
    def test_a_bad_batch_touches_nothing(self, terms, docs, positions):
        acc = PostingsAccumulator()
        _add(acc, [5], [1], None if positions is None else [0])
        before = _state(acc)
        with pytest.raises(ValueError):
            _add(acc, terms, docs, positions)
        assert _state(acc) == before

    def test_mixing_modes_rejected(self):
        acc = PostingsAccumulator()
        _add(acc, [5], [1])
        with pytest.raises(ValueError, match="mix"):
            _add(acc, [5], [2], [0])
        _add(acc, [6], [1], [0])
        with pytest.raises(ValueError, match="requires a position"):
            _add(acc, [6], [2])

    def test_a_new_list_is_keyed_by_the_table_s_own_int(self):
        """The B-tree already holds every term id as an ``int`` object; a
        second copy per term was 0.7 MB on the ``text_bulk`` benchmark."""
        table = [1 << 41, (1 << 41) + 1]
        acc = PostingsAccumulator()
        acc.add_batch(table, np.array([1, 0, 1], dtype=np.int32), np.array([0, 0, 1], dtype=np.int32))
        assert all(any(key is t for t in table) for key in acc.lists)

    def test_seam_with_the_postings_held(self):
        acc = PostingsAccumulator()
        _add(acc, [5, 5], [1, 4], [0, 6])
        _add(acc, [5, 5], [4, 8], [9, 2])  # document 4 goes on
        assert _state(acc) == ({5: ([1, 4, 8], [1, 2, 1], [[0], [6, 9], [2]])}, 4)
        with pytest.raises(ValueError, match="position 1 not after 2 within document 8"):
            _add(acc, [5], [8], [1])
