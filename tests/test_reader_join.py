"""The joined reader against the reader that spliced at every lookup.

``PostingsReader`` joins every run once, with the merge's window join, and
answers a lookup with two slices.  ``tests/reader_oracle.py`` keeps the
reader it replaced, which spliced each run's columns per lookup.  On
multi-run indexes with random term ids, empty lists, gaps and overlaps
between runs, in ``varbyte``, ``gamma``, ``varbyte-pos`` and a mix of
them, both must return the same lists, document frequencies and
``partial_fetches``, and raise the same ``ValueError`` for the same terms.
"""

from __future__ import annotations

import tempfile
from unittest import mock

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from repro.postings import merge
from repro.postings.compression import get_codec
from repro.postings.reader import PostingsReader
from tests.reader_oracle import SplicingReader
from tests.test_merge_splice import _save_map, _write_raw_run

_CODECS = ("varbyte", "gamma", "varbyte-pos")
_term = st.one_of(st.integers(0, 40), st.integers(7 << 40, (7 << 40) + 40))
#: A term id no run lists.
_ABSENT = 41


@st.composite
def _indexes(draw):
    """``(term ids, runs)``; a run is ``(codec name, {term id: [(doc, tf)]})``.

    A list may be empty.  The next run's documents usually start past this
    run's (far past: a gap) and sometimes inside them (an overlap).
    """
    codecs = draw(st.sampled_from([(name,) for name in _CODECS] + [_CODECS]))
    terms = draw(st.lists(_term, min_size=1, max_size=8, unique=True))
    runs = []
    base = 0
    for _ in range(draw(st.integers(1, 5))):
        lists = {}
        for term in draw(st.lists(st.sampled_from(terms), unique=True)):
            docs = sorted(draw(st.sets(st.integers(base, base + 20), max_size=4)))
            lists[term] = [(doc, draw(st.integers(1, 3))) for doc in docs]
        runs.append((draw(st.sampled_from(codecs)), lists))
        base += draw(st.one_of(st.just(21), st.integers(21, 10_000), st.integers(0, 20)))
    return terms, runs


def _write(out_dir: str, runs: list) -> None:
    files = []
    for run_id, (name, lists) in enumerate(runs):
        codec = get_codec(name)
        encoded = []
        for term, postings in sorted(lists.items()):
            if codec.positional:
                postings = [(doc, tf, tuple(range(tf))) for doc, tf in postings]
            encoded.append((term, codec.encode(postings)))
        docs = [doc for postings in lists.values() for doc, _ in postings] or [0]
        files.append(
            _write_raw_run(out_dir, run_id, encoded, (min(docs), max(docs)), codec=name)
        )
    _save_map(out_dir, files)


def _call(reader: PostingsReader, method: str, term: int):
    try:
        return getattr(reader, method)(term)
    except ValueError as exc:
        return exc


@given(_indexes(), st.sampled_from([1, 64, 1 << 16]))
def test_joined_reader_equals_the_splicing_oracle(index, window):
    terms, runs = index
    with tempfile.TemporaryDirectory() as out_dir, \
            mock.patch.object(merge, "_WINDOW_BYTES", window):
        _write(out_dir, runs)
        joined, oracle = PostingsReader(out_dir), SplicingReader(out_dir)
        for term in [*terms, _ABSENT]:
            for method in ("postings", "postings_columns", "document_frequency"):
                got, want = _call(joined, method, term), _call(oracle, method, term)
                if isinstance(want, ValueError):
                    assert isinstance(got, ValueError) and str(got) == str(want)
                elif method == "postings_columns":
                    assert [column.tolist() for column in got] == [
                        column.tolist() for column in want
                    ]
                    for column in got:
                        assert column.dtype == np.int32 and not column.flags.writeable
                else:
                    assert got == want
                assert joined.partial_fetches == oracle.partial_fetches
        assert not joined._open_runs
