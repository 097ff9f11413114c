"""In-memory postings accumulation."""

from __future__ import annotations

import copy
import os
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.postings import output
from repro.postings.compression import get_codec
from repro.postings.lists import PostingsAccumulator, PostingsList, RunPostings
from repro.postings.output import RunWriter, run_filename
from tests.postings_oracle import OracleAccumulator, OracleRunWriter


def _one_term(docs) -> PostingsAccumulator:
    acc = PostingsAccumulator()
    for doc in docs:
        acc.add_occurrence(7, doc)
    return acc


class TestPostingsList:
    def test_occurrences_fold_into_tf(self):
        pl = _one_term([1, 1, 1, 5, 9, 9]).lists[7]
        assert pl.postings() == [(1, 3), (5, 1), (9, 2)]
        assert pl.document_frequency == 3
        assert pl.collection_frequency == 6

    def test_out_of_order_rejected(self):
        acc = _one_term([5])
        assert acc.token_count == 1
        acc.add_occurrence(7, 3)
        with pytest.raises(ValueError, match="document 3 arrived after 5"):
            acc.lists
        assert acc.token_count == 1  # the rejected row is dropped

    def test_add_posting_strictly_increasing(self, tmp_path):
        """A run's lists hold strictly increasing documents and tf >= 1;
        the run writer refuses anything else."""
        one = np.array([1])
        for docs, tfs in [([1, 1], [2, 1]), ([1, 2], [2, 0])]:
            run = RunPostings(one, np.array([2]), np.array(docs), np.array(tfs))
            with pytest.raises(ValueError):
                RunWriter(str(tmp_path)).write_run(0, run)
        assert not os.path.exists(tmp_path / run_filename(0))

    def test_iteration(self):
        pl = PostingsList([1, 4], [2, 1])
        assert list(pl) == [(1, 2), (4, 1)]
        assert len(pl) == 2

    @given(st.lists(st.integers(min_value=0, max_value=30), max_size=100))
    def test_tf_equals_occurrence_count(self, docs):
        docs = sorted(docs)
        lists = _one_term(docs).lists
        if not docs:
            assert not lists
            return
        pl = lists[7]
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
    lists = {t: copy.deepcopy((p.doc_ids, p.tfs, p.positions)) for t, p in acc.lists.items()}
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
        columns, by_row = PostingsAccumulator(), OracleAccumulator()
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
        ([1, 2], [7, 3], None),                  # at the seam: term 1 goes on, term 2 goes back
        ([1, 2], [5, 5], [4, 2]),                # ... or to a position document 5 passed
        ([1, 2], [5, 5], [4, 3]),                # ... or to the one it holds
    ])
    def test_a_bad_batch_touches_nothing(self, terms, docs, positions):
        acc = PostingsAccumulator()
        _add(acc, [1, 2, 5], [5, 5, 1], None if positions is None else [3, 3, 0])
        before = _state(acc)
        with pytest.raises(ValueError):
            _add(acc, terms, docs, positions)
        assert _state(acc) == before

    def test_mixing_modes_rejected(self):
        """A run is plain or positional as a whole; the next run may differ."""
        acc = PostingsAccumulator()
        _add(acc, [5], [1])
        with pytest.raises(ValueError, match="mix"):
            _add(acc, [6], [1], [0])
        acc.drain()
        _add(acc, [6], [1], [0])
        with pytest.raises(ValueError, match="requires a position"):
            _add(acc, [5], [2])
        assert _state(acc) == ({6: ([1], [1], [[0]])}, 1)

    def test_seam_with_the_postings_held(self):
        acc = PostingsAccumulator()
        _add(acc, [5, 5], [1, 4], [0, 6])
        _add(acc, [5, 5], [4, 8], [9, 2])  # document 4 goes on
        assert _state(acc) == ({5: ([1, 4, 8], [1, 2, 1], [[0], [6, 9], [2]])}, 4)
        with pytest.raises(ValueError, match="position 1 not after 2 within document 8"):
            _add(acc, [5], [8], [1])


#: One step of a run: a batch through ``add_batch``, or rows through
#: ``add_occurrence``, each ``(term, doc step, position step)``, after the
#: step has moved back by ``(doc, position)``.  A negative step goes back,
#: within a batch or across a seam; a zero doc step continues a document.
_steps = st.lists(
    st.tuples(
        st.sampled_from(["batch", "occurrences"]),
        st.tuples(st.sampled_from([0, 0, 0, 1, 2]), st.sampled_from([0, 0, 1, 2])),
        st.lists(
            st.tuples(st.sampled_from([3, 7, 900, 1 << 41, (1 << 41) + 5]),
                      st.sampled_from([0, 0, 0, 1, 1, 2, 2, -1]),
                      st.sampled_from([1, 1, 1, 2, 3, 0, -1])),
            max_size=10,
        ),
    ),
    max_size=6,
)


def _apply(acc, kind, rows, positional) -> None:
    terms, docs, positions = zip(*rows) if rows else ((), (), ())
    if kind == "batch":
        _add(acc, list(terms), list(docs), list(positions) if positional else None)
        return
    for term, doc, position in rows:
        acc.add_occurrence(term, doc, position if positional else None)


def _written(writer, acc, codec) -> bytes:
    with tempfile.TemporaryDirectory() as out:
        run = writer(out, get_codec(codec)).write_run(0, acc.drain())
        with open(run.path, "rb") as fh:
            return fh.read()


class TestAgainstTheOracle:
    """The parent's per-term lists, verbatim in ``tests/postings_oracle.py``,
    decide what a run of batches must accept, hold and write."""

    @pytest.mark.parametrize("positional", [False, True])
    @given(steps=_steps)
    def test_same_verdicts_lists_and_bytes(self, positional, steps):
        acc, oracle = PostingsAccumulator(), OracleAccumulator()
        doc = position = 100
        for kind, (doc_back, position_back), raw in steps:
            doc, position, rows = doc - doc_back, position - position_back, []
            for term, doc_step, position_step in raw:
                doc, position = doc + doc_step, position + position_step
                rows.append((term, doc, position))
            before, snapshot = _state(acc), copy.deepcopy(oracle)
            try:
                _apply(oracle, kind, rows, positional)
                rejected = False
            except ValueError:
                rejected = True
                oracle = snapshot  # the parent may have half-applied it
            if rejected:
                with pytest.raises(ValueError):
                    _apply(acc, kind, rows, positional)
                    acc.lists  # buffered occurrences are checked here
                assert _state(acc) == before
            else:
                _apply(acc, kind, rows, positional)
                assert _state(acc) == _state(oracle)
        # Blocks of three postings: most runs are cut into several.
        with mock.patch.object(output, "_BLOCK_POSTINGS", 3):
            for codec in ["varbyte-pos", "varbyte"] if positional else ["varbyte", "gamma"]:
                assert _written(RunWriter, copy.deepcopy(acc), codec) == _written(
                    OracleRunWriter, copy.deepcopy(oracle), codec)



def _drained(rows, positional):
    acc = PostingsAccumulator()
    for term, doc, position in rows:
        acc.add_occurrence(term, doc, position if positional else None)
    return acc.drain()


class TestRunPostings:
    @pytest.mark.parametrize("positional", [False, True])
    def test_concat_joins_the_runs_in_shard_order(self, positional):
        a = _drained([(9, 1, 0), (2, 1, 1), (9, 4, 0), (9, 4, 5), (5, 0, 2), (5, 7, 1)], positional)
        b = _drained([(1 << 41, 3, 0), (1 << 40, 7, 3), (1 << 40, 7, 4)], positional)
        run = RunPostings.concat([RunPostings.empty(), a, b])
        assert list(run) == [2, 5, 9, 1 << 40, 1 << 41]
        assert run.posting_count == a.posting_count + b.posting_count == 7
        assert {t: p.postings() for t, p in run.items()} == {
            2: [(1, 1)], 5: [(0, 1), (7, 1)], 9: [(1, 1), (4, 2)],
            1 << 40: [(7, 2)], 1 << 41: [(3, 1)]}
        if positional:
            assert run[9].positions == [[0], [0, 5]] and run[1 << 40].positions == [[3, 4]]

    def test_runs_out_of_order_are_refused(self, tmp_path):
        run = RunPostings.concat([_drained([(5, 0, None)], False), _drained([(4, 1, None)], False)])
        with pytest.raises(ValueError, match="strictly ascending term ids"):
            RunWriter(str(tmp_path)).write_run(0, run)
        assert not os.listdir(tmp_path)

    def test_a_term_held_twice_is_refused(self, tmp_path):
        run = RunPostings.concat([_drained([(4, 0, None)], False), _drained([(4, 1, None)], False)])
        with pytest.raises(ValueError, match="strictly ascending term ids"):
            RunWriter(str(tmp_path)).write_run(0, run)

    def test_modes_do_not_mix(self):
        with pytest.raises(ValueError, match="mix"):
            RunPostings.concat([_drained([(4, 0, 0)], True), _drained([(5, 0, 0)], False)])


@pytest.mark.parametrize("positional", [False, True])
def test_a_build_makes_no_postings_list(tmp_path, monkeypatch, tiny_collection, positional):
    """Postings stay columns from the walk to the run file."""
    from repro.core.config import PlatformConfig
    from repro.core.engine import IndexingEngine

    def refuse(*_args):
        raise AssertionError("a PostingsList on the build path")

    monkeypatch.setattr(PostingsList, "__init__", refuse)
    result = IndexingEngine(
        PlatformConfig(num_parsers=2, num_cpu_indexers=1, num_gpus=1, sample_fraction=0.2,
                       positional=positional, files_per_run=3, telemetry=False)
    ).build(tiny_collection, str(tmp_path / "idx"))
    assert result.posting_count > 0
