"""The character-walking Porter stemmer and the generator-based trie split,
kept as test oracles.

``repro.parsing.porter`` now computes the measure on a consonant/vowel
pattern string and ``TrieTable.split`` returns a ``NamedTuple``.  The
stemmer they replaced lives on here *verbatim* (the helpers and the
``PorterStemmer`` class body, renamed ``OraclePorterStemmer``), beside the
old ``split`` as a function of the trie height, so the differential tests
can require the new code to return exactly what the old code returned.
"""

from __future__ import annotations

from repro.dictionary.layout import TRIE_TAIL_BASE
from repro.dictionary.trie import TrieCategory

__all__ = ["OraclePorterStemmer", "oracle_stem", "oracle_split"]


# --------------------------------------------------------------------------- #
# Verbatim from the parent: repro/parsing/porter.py
# --------------------------------------------------------------------------- #

_VOWELS = frozenset("aeiou")


def _is_consonant(word: str, i: int) -> bool:
    ch = word[i]
    if ch in _VOWELS:
        return False
    if ch == "y":
        return i == 0 or not _is_consonant(word, i - 1)
    return True


def _measure(stem_: str) -> int:
    """The Porter measure m: number of VC sequences."""
    m = 0
    i = 0
    n = len(stem_)
    # Skip initial consonants [C].
    while i < n and _is_consonant(stem_, i):
        i += 1
    while i < n:
        # Vowel run.
        while i < n and not _is_consonant(stem_, i):
            i += 1
        if i >= n:
            break
        m += 1
        # Consonant run.
        while i < n and _is_consonant(stem_, i):
            i += 1
    return m


def _contains_vowel(stem_: str) -> bool:
    return any(not _is_consonant(stem_, i) for i in range(len(stem_)))


def _ends_double_consonant(word: str) -> bool:
    return (
        len(word) >= 2
        and word[-1] == word[-2]
        and _is_consonant(word, len(word) - 1)
    )


def _ends_cvc(word: str) -> bool:
    if len(word) < 3:
        return False
    if not (
        _is_consonant(word, len(word) - 3)
        and not _is_consonant(word, len(word) - 2)
        and _is_consonant(word, len(word) - 1)
    ):
        return False
    return word[-1] not in "wxy"


class OraclePorterStemmer:
    """Memoized Porter stemmer."""

    def __init__(self) -> None:
        self._cache: dict[str, str] = {}
        #: Tokens stemmed through the slow path (cache misses); the work
        #: metrics report this so the cost model can distinguish cache-hot
        #: from cache-cold stemming.
        self.misses = 0

    def stem(self, word: str) -> str:
        """Stem a lower-case word."""
        cached = self._cache.get(word)
        if cached is not None:
            return cached
        self.misses += 1
        result = self._stem_uncached(word)
        self._cache[word] = result
        return result

    __call__ = stem

    # ------------------------------------------------------------------ #
    # The algorithm proper
    # ------------------------------------------------------------------ #

    def _stem_uncached(self, word: str) -> str:
        if len(word) <= 2:
            return word
        word = self._step1a(word)
        word = self._step1b(word)
        word = self._step1c(word)
        word = self._step2(word)
        word = self._step3(word)
        word = self._step4(word)
        word = self._step5a(word)
        word = self._step5b(word)
        return word

    @staticmethod
    def _step1a(w: str) -> str:
        if w.endswith("sses"):
            return w[:-2]
        if w.endswith("ies"):
            return w[:-2]
        if w.endswith("ss"):
            return w
        if w.endswith("s"):
            return w[:-1]
        return w

    @staticmethod
    def _step1b(w: str) -> str:
        if w.endswith("eed"):
            if _measure(w[:-3]) > 0:
                return w[:-1]
            return w
        flag = False
        if w.endswith("ed") and _contains_vowel(w[:-2]):
            w = w[:-2]
            flag = True
        elif w.endswith("ing") and _contains_vowel(w[:-3]):
            w = w[:-3]
            flag = True
        if flag:
            if w.endswith(("at", "bl", "iz")):
                return w + "e"
            if _ends_double_consonant(w) and not w.endswith(("l", "s", "z")):
                return w[:-1]
            if _measure(w) == 1 and _ends_cvc(w):
                return w + "e"
        return w

    @staticmethod
    def _step1c(w: str) -> str:
        if w.endswith("y") and _contains_vowel(w[:-1]):
            return w[:-1] + "i"
        return w

    _STEP2_RULES = (
        ("ational", "ate"),
        ("tional", "tion"),
        ("enci", "ence"),
        ("anci", "ance"),
        ("izer", "ize"),
        ("abli", "able"),
        ("alli", "al"),
        ("entli", "ent"),
        ("eli", "e"),
        ("ousli", "ous"),
        ("ization", "ize"),
        ("ation", "ate"),
        ("ator", "ate"),
        ("alism", "al"),
        ("iveness", "ive"),
        ("fulness", "ful"),
        ("ousness", "ous"),
        ("aliti", "al"),
        ("iviti", "ive"),
        ("biliti", "ble"),
    )

    @classmethod
    def _step2(cls, w: str) -> str:
        for suffix, replacement in cls._STEP2_RULES:
            if w.endswith(suffix):
                stem_ = w[: -len(suffix)]
                if _measure(stem_) > 0:
                    return stem_ + replacement
                return w
        return w

    _STEP3_RULES = (
        ("icate", "ic"),
        ("ative", ""),
        ("alize", "al"),
        ("iciti", "ic"),
        ("ical", "ic"),
        ("ful", ""),
        ("ness", ""),
    )

    @classmethod
    def _step3(cls, w: str) -> str:
        for suffix, replacement in cls._STEP3_RULES:
            if w.endswith(suffix):
                stem_ = w[: -len(suffix)]
                if _measure(stem_) > 0:
                    return stem_ + replacement
                return w
        return w

    _STEP4_SUFFIXES = (
        "al", "ance", "ence", "er", "ic", "able", "ible", "ant",
        "ement", "ment", "ent", "ion", "ou", "ism", "ate", "iti",
        "ous", "ive", "ize",
    )

    @classmethod
    def _step4(cls, w: str) -> str:
        for suffix in cls._STEP4_SUFFIXES:
            if w.endswith(suffix):
                stem_ = w[: -len(suffix)]
                if _measure(stem_) > 1:
                    if suffix == "ion" and not stem_.endswith(("s", "t")):
                        return w
                    return stem_
                return w
        return w

    @staticmethod
    def _step5a(w: str) -> str:
        if w.endswith("e"):
            stem_ = w[:-1]
            m = _measure(stem_)
            if m > 1:
                return stem_
            if m == 1 and not _ends_cvc(stem_):
                return stem_
        return w

    @staticmethod
    def _step5b(w: str) -> str:
        if _measure(w) > 1 and _ends_double_consonant(w) and w.endswith("l"):
            return w[:-1]
        return w


def oracle_stem(word: str) -> str:
    """One uncached run of the character-walking algorithm."""
    return OraclePorterStemmer()._stem_uncached(word)


# --------------------------------------------------------------------------- #
# Verbatim from the parent: TrieTable.split (repro/dictionary/trie.py), as a
# function of the height, returning ``(index, suffix, category)``
# --------------------------------------------------------------------------- #


def _is_lower(ch: str) -> bool:
    return "a" <= ch <= "z"


def _is_digit(ch: str) -> bool:
    return "0" <= ch <= "9"


def oracle_split(height: int, term: str) -> tuple[int, str, TrieCategory]:
    """Map ``term`` to ``(collection index, stored suffix, category)``."""
    if not term:
        raise ValueError("cannot index an empty term")
    h = height
    first = term[0]
    if _is_digit(first):
        if all(_is_digit(c) for c in term):
            # Pure number: bucket by first digit, strip it.
            return (1 + (ord(first) - ord("0")), term[1:], TrieCategory.PURE_NUMBER)
        return (0, term, TrieCategory.SPECIAL)
    if _is_lower(first):
        head = term[:h]
        if len(term) <= h or not all(_is_lower(c) for c in head):
            # Short term, or a special character inside the prefix
            # window: bucket by first letter, strip it.
            return (11 + (ord(first) - ord("a")), term[1:], TrieCategory.SHORT_OR_SPECIAL)
        rank = 0
        for c in head:
            rank = rank * 26 + (ord(c) - ord("a"))
        return (TRIE_TAIL_BASE + rank, term[h:], TrieCategory.FULL_PREFIX)
    return (0, term, TrieCategory.SPECIAL)
