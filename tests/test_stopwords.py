"""Stop-word removal (Step 4 of Fig 3)."""

from __future__ import annotations

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from repro.parsing.porter import stem
from repro.parsing.stopwords import STOP_WORDS, StopWordFilter

_STEMMED = sorted(StopWordFilter().stemmed)
#: Stop words, their prefixes and extensions (``yourselv`` + ``ish`` ties
#: ``yourselves`` on 8 bytes), and other words.
_STEMS = st.one_of(
    st.sampled_from(_STEMMED),
    st.builds(lambda word, cut: word[: max(1, len(word) - cut)],
              st.sampled_from(_STEMMED), st.integers(min_value=1, max_value=3)),
    st.builds(lambda word, tail: word + tail, st.sampled_from(_STEMMED),
              st.text(alphabet="aeisyz", min_size=1, max_size=4)),
    st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789", min_size=1, max_size=12),
)


def _matrix(words: list[str]) -> np.ndarray:
    """``words`` as ``uint8`` rows, each then zeros."""
    width = max(map(len, words), default=1)
    return np.array([word.encode("ascii") for word in words],
                    dtype=f"S{width}").view(np.uint8).reshape(len(words), width)


@given(st.lists(_STEMS, max_size=30))
def test_stop_columns_equal_is_stop(words):
    for filter_ in (StopWordFilter(), StopWordFilter(frozenset({"foo"})),
                    StopWordFilter(frozenset())):
        assert filter_.stop_columns(_matrix(words)).tolist() == [
            filter_.is_stop(word) for word in words]


class TestStopWordFilter:
    def setup_method(self):
        self.filter = StopWordFilter()

    def test_plain_stop_words(self):
        for word in ["the", "to", "and", "of", "in"]:
            assert self.filter.is_stop(word), word

    def test_stemmed_forms_caught(self):
        # The paper stems before removal, so the filter must match the
        # stemmed shape: Porter turns "this" into "thi".
        assert self.filter.is_stop(stem("this"))
        assert self.filter.is_stop(stem("having"))
        assert self.filter.is_stop(stem("ourselves"))

    def test_contraction_fragments(self):
        # Tokenizer splits "aren't" into "aren" + "t".
        assert self.filter.is_stop("aren")
        assert self.filter.is_stop("t")

    def test_content_words_pass(self):
        for word in ["parallel", "index", "gpu", "comput"]:
            assert not self.filter.is_stop(word), word

    def test_contains_protocol(self):
        assert "the" in self.filter
        assert "parallel" not in self.filter

    def test_list_is_reasonably_sized(self):
        assert len(STOP_WORDS) > 100
        # Contraction fragments merge, stemmed variants add: same ballpark.
        assert len(self.filter) > 100

    def test_custom_word_set(self):
        f = StopWordFilter(frozenset({"foo"}))
        assert f.is_stop("foo")
        assert not f.is_stop("the")
