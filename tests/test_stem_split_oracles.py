"""The pattern-string stemmer and the tuple trie split against the code they
replaced (``tests/porter_oracle.py``): equal on every input, not just on
the published vectors.  Their columnar forms, ``stem_columns`` and
``TrieTable.split_columns``, equal them over whole lists of words at once.

The word strategy is weighted toward the rule suffixes — the pieces the
algorithm branches on — and mixes in ``y`` runs (a ``y``'s class depends on
the letter before it), digits and non-ASCII letters (consonants to the
algorithm, special characters to the trie).
"""

from __future__ import annotations

import operator
import os
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.corpus.synthetic import generate_collection
from repro.dictionary.trie import TrieTable
from repro.parsing.docio import load_collection_file
from repro.parsing.porter import porter_stem, stem_columns
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


def _rows(letters: np.ndarray, lengths: np.ndarray) -> list[str]:
    """Each row's first ``lengths[i]`` bytes, as ASCII text."""
    return [bytes(row[:n]).decode("ascii") for row, n in zip(letters, lengths.tolist())]


#: One matrix holds rows of very different lengths: mostly rule-suffix
#: words, consonant-only stems (``m = 0``, where a step-2 rule matches and
#: stops the walk, as in ``bization``) before each suffix, any ASCII (NUL,
#: capitals and punctuation are consonants), and ``y`` and vowel runs up to
#: 40 letters.
_ASCII_WORDS = st.one_of(
    words.filter(str.isascii).filter(bool),
    words.filter(str.isascii).filter(bool),
    st.builds(operator.add, st.text(alphabet="bcdfgklmnprstvz", min_size=1, max_size=3),
              st.sampled_from(_SUFFIXES)),
    st.text(alphabet=st.characters(max_codepoint=127), min_size=1, max_size=40),
    st.text(alphabet="aeiouyst", min_size=1, max_size=40),
)


@settings(max_examples=300)
@given(st.lists(_ASCII_WORDS, min_size=1, max_size=40))
def test_stem_columns_equal_the_scalar_stemmer(batch):
    letters, lengths = stem_columns(batch)
    stems = _rows(letters, lengths)
    assert stems == [porter_stem(word) for word in batch]
    assert stems == [oracle_stem(word) for word in batch]
    # Zeros after every stem.
    assert not (letters * (np.arange(letters.shape[1]) >= lengths[:, None])).any()


def test_stem_columns_keep_their_order_and_a_lone_word():
    """The published vectors, one matrix, then each word on its own."""
    batch = ["caresses", "ponies", "ties", "caress", "cats", "feed", "agreed",
             "plastered", "motoring", "sing", "conflated", "troubled", "sized",
             "hopping", "tanned", "falling", "hissing", "fizzed", "failing",
             "filing", "happy", "sky", "relational", "conditional", "rational",
             "valenci", "digitizer", "generalization", "oscillator", "bization",
             "triplicate", "formalize", "electrical", "hopeful", "goodness",
             "revival", "allowance", "adoption", "homologou", "probate", "rate",
             "cease", "controll", "roll", "parallelization", "a", "is"]
    expected = [porter_stem(word) for word in batch]
    assert _rows(*stem_columns(batch)) == expected
    assert [_rows(*stem_columns([word]))[0] for word in batch] == expected
    assert stem_columns([])[0].shape == (0, 0)


def test_stem_columns_count_past_the_16_bit_wrap():
    """``m`` is counted over the whole matrix mod 2**16: 18,000 rows of 72,000
    ``vc`` transitions wrap it once, and every row still reads its own."""
    batch = ["generalizations", "hopping", "conditional"] * 6000
    assert _rows(*stem_columns(batch)) == [porter_stem(word) for word in batch[:3]] * 6000


#: Digits-only, letter, short and special-character terms; any byte of
#: ``-``, a capital or a non-ASCII letter is a special character.
_TERMS = st.one_of(
    st.text(alphabet="0123456789", min_size=1, max_size=16),
    st.text(alphabet="abcdefghijklmnopqrstuvwxyz", min_size=1, max_size=16),
    st.text(alphabet="abcxyz", min_size=1, max_size=4),
    st.text(alphabet=st.sampled_from("abcdefghijklmnopqrstuvwxyz0123456789-éßıA"),
            min_size=1, max_size=16),
)


@settings(max_examples=300)
@given(st.sampled_from((1, 2, 3, 4, 13)), st.lists(_TERMS, max_size=30))
def test_split_columns_equal_split(height, terms):
    trie = TrieTable(height=height)
    raw = [term.encode("utf-8") for term in terms]
    lengths = np.array([len(term) for term in raw], dtype=np.int64)
    letters = np.zeros((len(raw), max(lengths, default=0)), dtype=np.uint8)
    for row, term in zip(letters, raw):
        row[: len(term)] = np.frombuffer(term, dtype=np.uint8)
    index, cut = trie.split_columns(letters, lengths)
    splits = [trie.split(term) for term in terms]
    assert index.tolist() == [split.index for split in splits]
    assert [term[c:] for term, c in zip(raw, cut.tolist())] == [
        split.suffix.encode("utf-8") for split in splits]


def test_split_columns_refuse_an_empty_term():
    with pytest.raises(ValueError, match="empty term"):
        TrieTable().split_columns(np.zeros((2, 3), dtype=np.uint8), np.array([3, 0]))


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
    ascii_forms = [form for form in vocabulary if form.isascii()]
    assert _rows(*stem_columns(ascii_forms)) == [_stem(form) for form in ascii_forms]
    trie = TrieTable()
    assert [tuple(trie.split(term)) for term in stems] == [
        oracle_split(trie.height, term) for term in stems
    ]
