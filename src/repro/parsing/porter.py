"""The Porter stemming algorithm (M.F. Porter, 1980), complete.

Step 3 of every parser (Fig 3) "performs Porter stemmer".  This is a full
implementation of the original five-step algorithm — the same linguistic
rules the paper describes with the *parallel / parallelize /
parallelization / parallelism → parallel* example, which the test suite
checks verbatim.

The measure ``m`` of a word counts vowel-consonant sequences ``[C](VC)^m[V]``
where a letter is a vowel if it is ``aeiou`` or a ``y`` preceded by a
consonant; every other character, ``a``–``z`` or not, is a consonant.  The
stemmer computes all of it on the word's *pattern*: one ``c`` / ``v`` per
character, built with one ``str.translate`` and a left-to-right pass over
its ``y`` letters.  Stripping a suffix strips the same tail of the pattern (a
letter's class depends only on the letters before it), so the pattern is
rebuilt only where the algorithm appends letters.  On the pattern ``p``,
for a stem of length ``k``:

- ``m`` is ``p.count("vc", 0, k)``;
- ``*v*`` (the stem contains a vowel) is ``"v" in p[:k]``;
- ``*d`` (ends with a double consonant) is ``w[k-1] == w[k-2]`` and
  ``p[k-1] == "c"``;
- ``*o`` (ends consonant-vowel-consonant, the last not ``w``, ``x`` or
  ``y``) is ``p[:k].endswith("cvc")`` plus that check on ``w[k-1]``.

Steps 2, 3 and 4 first test the word against all of their suffixes with one
``str.endswith``; only a word that ends in one of them walks the rule list.
The walk is in the published order and stops at the first rule whose suffix
matches, fired or not: the order is part of the algorithm (``ization`` must
be tried before ``ation``, ``ement`` before ``ment`` before ``ent``).

Because token streams are Zipf-distributed, :class:`PorterStemmer` memoizes
every word; ``misses`` counts the words stemmed through the algorithm.
The parser calls :func:`porter_stem` directly: its token cache already
resolves every distinct word once, so a second memo would never hit.
"""

from __future__ import annotations

__all__ = ["PorterStemmer", "porter_stem", "stem"]


class _ClassTable(dict[int, str]):
    """``str.translate`` table onto the pattern alphabet: ``aeiou`` → ``v``,
    ``y`` → ``y`` (resolved by :func:`_pattern`), anything else → ``c``.
    The ASCII range is stored, so only non-ASCII characters reach
    ``__missing__``."""

    def __missing__(self, key: int) -> str:
        return "c"


_CLASSES = _ClassTable({o: "v" if chr(o) in "aeiou" else "c" for o in range(128)})
_CLASSES[ord("y")] = "y"


def _pattern(word: str) -> str:
    """``word``'s consonant/vowel pattern (see the module docstring)."""
    p = word.translate(_CLASSES)
    i = p.find("y")
    while i != -1:
        # A ``y`` after a consonant is a vowel; first, or after a vowel, it
        # is a consonant.  ``p[i - 1]`` is already resolved.
        p = p[:i] + ("v" if i and p[i - 1] == "c" else "c") + p[i + 1 :]
        i = p.find("y", i + 1)
    return p


def _rules(pairs: tuple[tuple[str, str], ...]) -> tuple[tuple[str, str, str], ...]:
    """``(suffix, replacement, replacement's pattern)``: no replacement has
    a ``y``, so its pattern does not depend on the stem before it."""
    return tuple((suffix, repl, _pattern(repl)) for suffix, repl in pairs)


_STEP2_RULES = _rules((
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
))

_STEP3_RULES = _rules((
    ("icate", "ic"),
    ("ative", ""),
    ("alize", "al"),
    ("iciti", "ic"),
    ("ical", "ic"),
    ("ful", ""),
    ("ness", ""),
))

_STEP4_SUFFIXES = (
    "al", "ance", "ence", "er", "ic", "able", "ible", "ant",
    "ement", "ment", "ent", "ion", "ou", "ism", "ate", "iti",
    "ous", "ive", "ize",
)

_STEP2_ENDINGS = tuple(rule[0] for rule in _STEP2_RULES)
_STEP3_ENDINGS = tuple(rule[0] for rule in _STEP3_RULES)


def _replace_first(
    w: str, p: str, rules: tuple[tuple[str, str, str], ...]
) -> tuple[str, str]:
    """Steps 2 and 3: the first rule whose suffix ``w`` ends with fires if
    the stem before it has ``m > 0``; no later rule is tried either way."""
    for suffix, repl, repl_pattern in rules:
        if w.endswith(suffix):
            k = len(w) - len(suffix)
            if p.count("vc", 0, k):
                return w[:k] + repl, p[:k] + repl_pattern
            break
    return w, p


def porter_stem(word: str) -> str:
    """Stem a lower-case word through the algorithm, unmemoised.

    The five steps over ``(w, p)``: the word and its pattern.
    """
    if len(word) <= 2:
        return word
    w, p = word, _pattern(word)

    # Step 1a: sses → ss, ies → i, ss → ss, s → "".
    if w[-1] == "s":
        if w.endswith(("sses", "ies")):
            w, p = w[:-2], p[:-2]
        elif w[-2] != "s":
            w, p = w[:-1], p[:-1]

    # Step 1b: (m>0) eed → ee; (*v*) ed → "", (*v*) ing → "", then
    # at / bl / iz → +e, *d (not l, s, z) → single letter, m=1 and *o → +e.
    if w.endswith("eed"):
        if p.count("vc", 0, len(w) - 3):
            w, p = w[:-1], p[:-1]
    elif w.endswith(("ed", "ing")):
        k = len(w) - (2 if w[-1] == "d" else 3)
        if "v" in p[:k]:
            w, p = w[:k], p[:k]
            if w.endswith(("at", "bl", "iz")):
                w, p = w + "e", p + "v"
            elif k >= 2 and w[-1] == w[-2] and p[-1] == "c" and w[-1] not in "lsz":
                w, p = w[:-1], p[:-1]
            elif p.count("vc") == 1 and p.endswith("cvc") and w[-1] not in "wxy":
                w, p = w + "e", p + "v"

    # Step 1c: (*v*) y → i.
    if w.endswith("y") and "v" in p[:-1]:
        w, p = w[:-1] + "i", p[:-1] + "v"

    # Step 2 (m>0) and step 3 (m>0): one suffix replaced each.
    if w.endswith(_STEP2_ENDINGS):
        w, p = _replace_first(w, p, _STEP2_RULES)
    if w.endswith(_STEP3_ENDINGS):
        w, p = _replace_first(w, p, _STEP3_RULES)

    # Step 4 (m>1): one suffix removed; ion only after s or t.
    if w.endswith(_STEP4_SUFFIXES):
        for suffix in _STEP4_SUFFIXES:
            if w.endswith(suffix):
                k = len(w) - len(suffix)
                if p.count("vc", 0, k) > 1 and (suffix != "ion" or w[k - 1] in "st"):
                    w, p = w[:k], p[:k]
                break

    # Step 5a: (m>1) e → "", (m=1 and not *o) e → "".
    if w.endswith("e"):
        k = len(w) - 1
        m = p.count("vc", 0, k)
        if m > 1 or (m == 1 and not (p.endswith("cvc", 0, k) and w[k - 1] not in "wxy")):
            w, p = w[:k], p[:k]

    # Step 5b: (m>1 and *d and *l) → single letter.
    if w.endswith("ll") and p.count("vc") > 1:
        w = w[:-1]
    return w


class PorterStemmer:
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
        result = porter_stem(word)
        self._cache[word] = result
        return result

    __call__ = stem


_DEFAULT = PorterStemmer()


def stem(word: str) -> str:
    """Module-level convenience using a shared memoized stemmer."""
    return _DEFAULT.stem(word)
