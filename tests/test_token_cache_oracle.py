"""The queue-and-settle token cache against the inline miss path it replaced
(``InlineMissParser`` in ``tests/parsed_stream_oracles.py``).

The parser now queues each new form under a provisional id and stems,
stop-checks and trie-splits the queue as columns once per ``parse_texts``
call.  Over a sequence of files through one parser it must leave exactly
what stemming inside ``__missing__`` left: every batch column, the
``ParseMetrics``, the parser's entry tables and the cache itself, with no
provisional id in it, also when a document raises half-way.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dictionary.trie import TrieTable
from repro.parsing.parser import _TOO_LONG, Parser
from tests.parsed_stream_oracles import InlineMissParser, assert_same_batch
from tests.test_stem_split_oracles import words as rule_words

#: One word, or a cased form then its lower case.
_WORD = st.one_of(
    rule_words,
    rule_words.filter(bool).map(lambda word: f"{word.capitalize()} {word}"),
    st.sampled_from([
        # Stop words, cased and not.
        "the", "The", "THE", "and", "This", "having", "ourselves", "Yourselves",
        # One and two letters.
        "a", "I", "is", "ox", "Y", "7", "42",
        # Non-ASCII, one lowering to ASCII (the Kelvin sign).
        "é", "Zé", "naïve", "Straße", "ÉCOLE", "école", "ǅ", "İstanbul", "Kelvin",
        # Over the 64-byte limit, and at 60 letters.
        "x" * 65, "Q" * 70, "é" * 33, "internationalization" * 3,
    ]),
    st.text(alphabet="abcdefghijklmnopqrstuvwxyzAEY0159éß", min_size=1, max_size=12),
)
_FILES = st.lists(
    st.lists(st.lists(_WORD, max_size=30).map(" ".join), max_size=5),
    min_size=1, max_size=4,
)


def assert_same_parser(new: Parser, old: Parser) -> None:
    """Entry tables, cache contents and counters equal; nothing queued."""
    assert new._entry_cidx == old._entry_cidx
    assert new._entry_suffix == old._entry_suffix
    assert dict(new._token_cache) == dict(old._token_cache)
    assert new._token_cache.misses == old._token_cache.misses
    assert min(new._token_cache.values(), default=0) >= _TOO_LONG
    assert new.tokenizer.chars_scanned == old.tokenizer.chars_scanned


@settings(max_examples=150)
@given(files=_FILES, height=st.integers(min_value=1, max_value=4), strip_html=st.booleans())
def test_settled_cache_equals_the_inline_miss_path(files, height, strip_html):
    new = Parser(trie=TrieTable(height), strip_html=strip_html)
    old = InlineMissParser(trie=TrieTable(height), strip_html=strip_html)
    for sequence, texts in enumerate(files):
        batch, metrics = new.parse_texts(texts, sequence=sequence)
        old_batch, old_metrics = old.parse_texts(texts, sequence=sequence)
        assert_same_batch(batch, old_batch)
        assert metrics == old_metrics
        assert_same_parser(new, old)


@settings(max_examples=60)
@given(files=_FILES, bad=st.integers(min_value=0, max_value=5), strip_html=st.booleans())
def test_a_raising_document_leaves_the_cache_settled(files, bad, strip_html):
    """Document ``bad`` of the first file is not text: both parsers raise
    there with the forms of the documents before it resolved, and then
    parse the file's texts alike."""
    texts = files[0]
    broken: list = texts[:bad] + [None] + texts[bad:]
    new = Parser(strip_html=strip_html)
    old = InlineMissParser(strip_html=strip_html)
    with pytest.raises((AttributeError, TypeError)) as raised:
        new.parse_texts(broken)
    with pytest.raises(raised.type):
        old.parse_texts(broken)
    assert_same_parser(new, old)
    for sequence, texts in enumerate(files):
        batch, metrics = new.parse_texts(texts, sequence=sequence)
        old_batch, old_metrics = old.parse_texts(texts, sequence=sequence)
        assert_same_batch(batch, old_batch)
        assert metrics == old_metrics
    assert_same_parser(new, old)


def test_a_cased_form_first_takes_its_lower_case_entry():
    """``Zebra`` queues ``zebra``; both keys settle to one entry, and a
    form over the limit is never queued."""
    parser = Parser(strip_html=False)
    batch, metrics = parser.parse_texts(["Zebra the " + "x" * 65, "zebra ZEBRA"])
    cache = parser._token_cache
    assert cache["Zebra"] == cache["zebra"] == cache["ZEBRA"] == 0
    assert cache["x" * 65] == _TOO_LONG
    assert metrics.stem_cache_misses == 2  # zebra, the
    assert batch.entry_suffix == [b"ra"] and np.array_equal(batch.ids, [0, 0, 0])
