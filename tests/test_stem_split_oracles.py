"""The pattern-string stemmer and the tuple trie split against the code they
replaced (``tests/porter_oracle.py``): equal on every input, not just on
the published vectors.

The word strategy is weighted toward the rule suffixes — the pieces the
algorithm branches on — and mixes in ``y`` runs (a ``y``'s class depends on
the letter before it), digits and non-ASCII letters (consonants to the
algorithm, special characters to the trie).
"""

from __future__ import annotations

import os
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.corpus.synthetic import generate_collection
from repro.dictionary.trie import TrieTable
from repro.parsing.docio import load_collection_file
from repro.parsing.porter import porter_stem
from repro.parsing.tokenizer import Tokenizer
from tests.porter_oracle import oracle_split, oracle_stem

PERF_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "benchmarks", "perf")
if PERF_DIR not in sys.path:
    sys.path.insert(0, PERF_DIR)

from workloads import WORKLOADS, collection_spec  # noqa: E402

_SUFFIXES = (
    # step 1a / 1b / 1c
    "sses", "ies", "ss", "s", "eed", "ed", "ing", "at", "bl", "iz", "y",
    # step 2
    "ational", "tional", "enci", "anci", "izer", "abli", "alli", "entli", "eli",
    "ousli", "ization", "ation", "ator", "alism", "iveness", "fulness", "ousness",
    "aliti", "iviti", "biliti",
    # step 3
    "icate", "ative", "alize", "iciti", "ical", "ful", "ness",
    # step 4
    "al", "ance", "ence", "er", "ic", "able", "ible", "ant", "ement", "ment",
    "ent", "ion", "ou", "ism", "ate", "iti", "ous", "ive", "ize",
    # step 5
    "e", "ll",
)
_LETTERS = tuple("abcdefghijklmnopqrstuvwxyz")
#: ``y`` runs, the *o exceptions (a vowel then ``w``, ``x`` or ``y``),
#: digits and non-ASCII letters.
_ODD = ("y", "yy", "yyy", "sy", "ay", "ow", "ex", "0", "7", "42", "é", "ß", "ı")
_PIECES = _SUFFIXES + _LETTERS + _ODD
#: A head (often a ``y`` run or an odd character), a body, then usually a
#: rule suffix.
words = st.builds(
    lambda head, body, tail: head + "".join(body) + tail,
    st.sampled_from(("",) + _ODD + _LETTERS),
    st.lists(st.sampled_from(_PIECES), max_size=5),
    st.sampled_from(("",) + _SUFFIXES),
)

_stem = porter_stem


@settings(max_examples=1000)
@given(words)
def test_stem_equals_oracle(word):
    assert _stem(word) == oracle_stem(word)


@given(st.text(max_size=12))
def test_stem_equals_oracle_on_any_text(word):
    assert _stem(word) == oracle_stem(word)


def test_stem_equals_oracle_on_every_short_stem_and_suffix():
    """Exhaustive where random draws are thin: every stem of up to three
    letters from a small alphabet (vowels, ``y``, the *d and *o exception
    letters) before every rule suffix, e.g. ``bay`` + ``ing``."""
    alphabet = "aeiouyblstwx"
    stems = [""] + [a + b + c for a in alphabet for b in [""] + list(alphabet)
                    for c in [""] + list(alphabet) if b or not c]
    mismatches = [
        stem + tail for stem in stems for tail in ("",) + _SUFFIXES
        if _stem(stem + tail) != oracle_stem(stem + tail)
    ]
    assert mismatches == []


@settings(max_examples=1000)
@given(
    st.integers(min_value=1, max_value=4),
    st.text(alphabet=st.sampled_from("abcdefghijklmnopqrstuvwxyz0123456789-éßıA"),
            min_size=1, max_size=10),
)
def test_split_equals_oracle_at_heights_1_to_4(height, term):
    split = TrieTable(height=height).split(term)
    assert (split.index, split.suffix, split.category) == oracle_split(height, term)


@pytest.fixture(scope="module")
def smoke_vocabularies(tmp_path_factory):
    """Every distinct lower-case token form of the benchmark's seeded web
    and text smoke corpora."""
    out = {}
    for name in ("web_serial", "text_bulk"):
        workload = WORKLOADS[name].sized(smoke=True)
        collection = generate_collection(
            collection_spec(workload, 1), str(tmp_path_factory.mktemp(name)))
        tokenizer = Tokenizer(strip_html=workload.config["strip_html"])
        forms: dict[str, None] = {}
        for path in collection.files:
            for text in load_collection_file(path).texts:
                forms.update(dict.fromkeys(tokenizer.tokens(text)))
        out[name] = list(forms)
    return out


@pytest.mark.parametrize("corpus", ["web_serial", "text_bulk"])
def test_corpus_vocabulary_stems_and_splits_as_before(smoke_vocabularies, corpus):
    vocabulary = smoke_vocabularies[corpus]
    assert len(vocabulary) > 1000
    stems = [_stem(form) for form in vocabulary]
    assert stems == [oracle_stem(form) for form in vocabulary]
    trie = TrieTable()
    assert [tuple(trie.split(term)) for term in stems] == [
        oracle_split(trie.height, term) for term in stems
    ]
