"""Front-coded dictionary persistence ("Dictionary Write")."""

from __future__ import annotations

import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dictionary.dictionary import Dictionary, DictionaryShard
from repro.dictionary.serialize import load_dictionary, save_dictionary
from repro.dictionary.trie import TrieTable

terms = st.text(
    alphabet=st.sampled_from("abcdefghijklmnopqrstuvwxyz0123456789é"),
    min_size=1,
    max_size=10,
)


class TestRoundTrip:
    def test_basic(self, tmp_path):
        d = Dictionary()
        expected = {}
        for t in ["application", "apple", "applied", "zoo", "01", "-80", "a"]:
            tid, _ = d.add_term(t)
            expected[t] = tid
        path = str(tmp_path / "dict.bin")
        nbytes = save_dictionary(d, path)
        assert nbytes == os.path.getsize(path)
        assert load_dictionary(path) == expected

    def test_empty_dictionary(self, tmp_path):
        path = str(tmp_path / "dict.bin")
        save_dictionary(Dictionary(), path)
        assert load_dictionary(path) == {}

    def test_bad_magic_rejected(self, tmp_path):
        path = str(tmp_path / "junk.bin")
        with open(path, "wb") as fh:
            fh.write(b"NOTADICT")
        with pytest.raises(ValueError):
            load_dictionary(path)

    def test_non_default_trie_height(self, tmp_path):
        d = DictionaryShard(TrieTable(height=2))
        d.add_term("application")
        path = str(tmp_path / "h2.bin")
        save_dictionary(d, path)
        assert "application" in load_dictionary(path)

    def test_front_coding_compresses_shared_prefixes(self, tmp_path):
        d = Dictionary()
        # Many shared-prefix terms in one collection.
        for i in range(200):
            d.add_term(f"prefixsharing{i:04d}")
        path = str(tmp_path / "fc.bin")
        nbytes = save_dictionary(d, path)
        raw = sum(len(t) for t, _ in d.terms())
        assert nbytes < raw  # front-coding beats storing full strings

    @settings(max_examples=30)
    @given(st.lists(terms, max_size=150))
    def test_round_trip_random(self, tmp_path_factory, words):
        d = Dictionary()
        for w in words:
            d.add_term(w)
        path = str(tmp_path_factory.mktemp("ser") / "d.bin")
        save_dictionary(d, path)
        assert load_dictionary(path) == dict(d.terms())
