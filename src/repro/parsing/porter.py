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

:func:`stem_columns` runs the same five steps over many ASCII words at
once, one row each of a ``uint8`` matrix: a suffix test is one compare of
every row's last 8 bytes read as an integer, the pattern is a column of
vowel flags, and ``m`` is a running count of its ``vc`` transitions.  The
parser's token cache queues the new forms of a call and stems the ASCII
ones that way; any other word, a query and the stop list go through
:func:`porter_stem`, the general path and the reference the columns are
tested against.

Because token streams are Zipf-distributed, :class:`PorterStemmer` memoizes
every word; ``misses`` counts the words stemmed through the algorithm.
The parser does not use it: its token cache already resolves every
distinct word once, so a second memo would never hit.
"""

from __future__ import annotations

import numpy as np

__all__ = ["PorterStemmer", "porter_stem", "stem", "stem_columns"]


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


# --------------------------------------------------------------------------- #
# The same five steps over many words at once
# --------------------------------------------------------------------------- #

#: Zero columns in front of every row: a row's last 8 bytes exist for any
#: length, and a word shorter than a suffix ends in zeros, which no suffix
#: holds.
_PAD = 8
_E, _Y = ord("e"), ord("y")


def _ending(suffix: str) -> tuple[np.uint64, np.uint64]:
    """``(mask, value)``: a row whose last 8 bytes, read big-endian, equal
    ``value`` under ``mask`` ends with ``suffix``."""
    raw = suffix.encode("ascii")
    return np.uint64((1 << 8 * len(raw)) - 1), np.uint64(int.from_bytes(raw, "big"))


def _column_rules(
    rules: tuple[tuple[str, str, str], ...],
) -> tuple[tuple[int, np.uint64, np.uint64, bytes, tuple[bool, ...]], ...]:
    """Steps 2 and 3 for :class:`_Words`: ``(suffix length, mask, value,
    replacement, its letters' vowel flags)``."""
    return tuple(
        (len(suffix), *_ending(suffix), repl.encode("ascii"), tuple(c == "v" for c in pattern))
        for suffix, repl, pattern in rules
    )


def _byte_set(letters: str) -> np.ndarray:
    """Byte → whether it is one of ``letters``."""
    table = np.zeros(256, dtype=bool)
    table[np.frombuffer(letters.encode("ascii"), dtype=np.uint8)] = True
    return table


_VOWEL = _byte_set("aeiou")
_STEP2_COLUMNS = _column_rules(_STEP2_RULES)
_STEP3_COLUMNS = _column_rules(_STEP3_RULES)
_STEP4_COLUMNS = tuple((len(suffix), *_ending(suffix), suffix == "ion")
                       for suffix in _STEP4_SUFFIXES)
_STEP2_LAST = _byte_set("".join(suffix[-1] for suffix in _STEP2_ENDINGS))
_STEP3_LAST = _byte_set("".join(suffix[-1] for suffix in _STEP3_ENDINGS))
_STEP4_LAST = _byte_set("".join(suffix[-1] for suffix in _STEP4_SUFFIXES))
_SSES, _IES, _SS, _S = map(_ending, ("sses", "ies", "ss", "s"))
_EED, _ED, _ING, _AT, _BL, _IZ = map(_ending, ("eed", "ed", "ing", "at", "bl", "iz"))
_Y_END, _E_END, _LL = map(_ending, ("y", "e", "ll"))
_LSZ, _WXY, _ST = _byte_set("lsz"), _byte_set("wxy"), _byte_set("st")


class _Words:
    """The words being stemmed by :func:`stem_columns`, a row each.

    The matrix holds row ``i``'s word from column :data:`_PAD` on, zeros
    in front; ``flat`` is the same bytes in one run.  Over them, ``pattern``
    is each letter's vowel flag (the module docstring's ``v``) and ``vc``
    the running count of ``vc`` transitions, mod 2**16: for a stem of ``k``
    letters, ``m`` is the count at its last letter less the count just
    before its row's first, exact for any word under 65,536 letters.  The
    steps work on ``rows`` (the words of three letters or more) and their
    lengths ``k``.  Stripping a suffix only shortens ``k``; a step
    that writes letters refreshes the columns at those letters, and no
    others: a letter's class depends only on the letters before it.
    """

    def __init__(self, letters: np.ndarray, lengths: np.ndarray) -> None:
        flat = self.flat = letters.ravel()
        # Every row's last 8 bytes, as one unaligned big-endian word per
        # byte offset: row ``i``'s ends at ``i * width + k``.
        self._tails = np.ndarray((flat.size - 7,), dtype=">u8", buffer=flat, strides=(1,))
        self.rows = np.flatnonzero(lengths > 2)
        self._offset = self.rows * letters.shape[1]
        self.k = lengths[self.rows]

        pattern = _VOWEL[flat]
        (ys,) = np.nonzero(flat == _Y)
        if len(ys):
            # A run of ``y`` letters alternates from the class of the letter
            # before it, a word's start counting as a vowel.
            joins = np.zeros(len(ys), dtype=bool)
            joins[1:] = ys[1:] == ys[:-1] + 1
            run_start = ys[~joins][np.cumsum(~joins) - 1]
            before = pattern[run_start - 1] | (run_start % letters.shape[1] == _PAD)
            pattern[ys] = before ^ ((ys - run_start) % 2 == 0)
        self.pattern = pattern
        self.vc = np.zeros(flat.size, dtype=np.uint16)
        np.cumsum(pattern[:-1] & ~pattern[1:], dtype=np.uint16, out=self.vc[1:])
        self._vc0 = self.vc[self._offset + _PAD - 1]

    def at(self, sub: np.ndarray | slice, k: np.ndarray) -> np.ndarray:
        """Flat position of letter ``k`` (from 0) of the words ``sub``."""
        return self._offset[sub] + _PAD + k

    def tails(self, sub: np.ndarray | slice = slice(None)) -> np.ndarray:
        """The last 8 bytes of the words ``sub``."""
        return self._tails[self._offset[sub] + self.k[sub]].astype(np.uint64)

    def measure(self, sub: np.ndarray | slice, k: np.ndarray) -> np.ndarray:
        """``m`` of the first ``k`` letters of the words ``sub``."""
        return self.vc[self.at(sub, k - 1)] - self._vc0[sub]

    def has_vowel(self, sub: np.ndarray | slice, k: np.ndarray) -> np.ndarray:
        """``*v*`` of the first ``k`` letters of the words ``sub``: with no
        ``vc`` in them, their pattern is ``c…cv…v``."""
        return (self.measure(sub, k) > 0) | self.pattern[self.at(sub, k - 1)]

    def letter(self, sub: np.ndarray | slice, k: np.ndarray) -> np.ndarray:
        """Letter ``k`` of the words ``sub``."""
        return self.flat[self.at(sub, k)]

    def cvc(self, sub: np.ndarray | slice, k: np.ndarray) -> np.ndarray:
        """``*o`` of the first ``k`` letters of the words ``sub``."""
        at = self.at(sub, k - 1)
        pattern = self.pattern
        return (
            (k >= 3) & ~pattern[at - 2] & pattern[at - 1] & ~pattern[at]
            & ~_WXY[self.flat[at]]
        )

    def write(self, sub: np.ndarray, k: np.ndarray, text: bytes, vowels: tuple[bool, ...]) -> None:
        """Write ``text`` (no ``y``; its letters' classes are ``vowels``)
        as letters ``k``, ``k + 1``, … of the words ``sub``, and make their
        length that far."""
        at = self.at(sub, k)
        for byte, vowel in zip(text, vowels):
            self.flat[at] = byte
            self.pattern[at] = vowel
            self.vc[at] = self.vc[at - 1] + (self.pattern[at - 1] & (not vowel))
            at = at + 1
        self.k[sub] = k + len(text)


def _ends(tails: np.ndarray, ending: tuple[np.uint64, np.uint64]) -> np.ndarray:
    """Which of the rows whose last 8 bytes are ``tails`` end with
    ``ending`` (an :func:`_ending`)."""
    mask, value = ending
    return (tails & mask) == value


def _first_rule(
    words: _Words, last: np.ndarray,
    rules: tuple[tuple[int, np.uint64, np.uint64, bytes, tuple[bool, ...]], ...],
) -> None:
    """Steps 2 and 3 (see :func:`_replace_first`) over every word at once:
    each word walks the rules in order until one's suffix matches."""
    sub = np.flatnonzero(last[words.letter(slice(None), words.k - 1)])
    tails = words.tails(sub)
    for size, mask, value, repl, vowels in rules:
        hit = (tails & mask) == value
        if not hit.any():
            continue
        matched, sub, tails = sub[hit], sub[~hit], tails[~hit]
        k = words.k[matched] - size
        fire = words.measure(matched, k) > 0
        words.write(matched[fire], k[fire], repl, vowels)


def stem_columns(words: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """:func:`porter_stem` of many ASCII words at once.

    Returns a ``uint8`` matrix and a length column: row ``i`` is the stem
    of ``words[i]``, ``lengths[i]`` bytes, then zeros.  Each step is a few
    array operations over every word: a suffix test compares each row's
    last 8 bytes, read as one integer, and ``m`` is a running count of
    ``vc`` transitions (see :class:`_Words`).
    """
    lengths = np.fromiter(map(len, words), dtype=np.int64, count=len(words))
    if not len(words):
        return np.zeros((0, 0), dtype=np.uint8), lengths
    width = int(lengths.max())
    letters = np.zeros((len(words), _PAD + width), dtype=np.uint8)
    letters[:, _PAD:][np.arange(width) < lengths[:, None]] = np.frombuffer(
        "".join(words).encode("ascii"), dtype=np.uint8)
    w = _Words(letters, lengths)
    every = slice(None)

    # Step 1a: sses → ss, ies → i, ss → ss, s → "".
    tails = w.tails()
    w.k -= np.where(_ends(tails, _SSES) | _ends(tails, _IES), 2,
                    _ends(tails, _S) & ~_ends(tails, _SS))

    # Step 1b: (m>0) eed → ee; (*v*) ed / ing → "", then at / bl / iz → +e,
    # *d (not l, s, z) → single letter, m=1 and *o → +e.  The ``e`` goes
    # where the ``e`` of ``ed`` or the ``i`` of ``ing`` was: a vowel, so
    # the pattern columns hold already.
    tails = w.tails()
    eed = _ends(tails, _EED)
    w.k[eed & (w.measure(every, w.k - 3) > 0)] -= 1
    ed = _ends(tails, _ED) & ~eed
    stem = w.k - np.where(ed, 2, 3)
    sub = np.flatnonzero((ed | (_ends(tails, _ING) & ~eed)) & w.has_vowel(every, stem))
    if len(sub):
        k = w.k[sub] = stem[sub]
        tails = w.tails(sub)
        plus_e = _ends(tails, _AT) | _ends(tails, _BL) | _ends(tails, _IZ)
        last = w.letter(sub, k - 1)
        single = ~plus_e & (k >= 2) & (last == w.letter(sub, k - 2))
        single &= ~w.pattern[w.at(sub, k - 1)] & ~_LSZ[last]
        plus_e |= ~single & (w.measure(sub, k) == 1) & w.cvc(sub, k)
        w.flat[w.at(sub[plus_e], k[plus_e])] = _E
        w.k[sub] += plus_e.astype(np.int64) - single

    # Step 1c: (*v*) y → i.  An ``i`` is a vowel: the pattern and ``m``
    # change at that letter only.
    sub = np.flatnonzero(_ends(w.tails(), _Y_END) & w.has_vowel(every, w.k - 1))
    if len(sub):
        w.write(sub, w.k[sub] - 1, b"i", (True,))

    # Steps 2 and 3 (m>0): one suffix replaced each.
    _first_rule(w, _STEP2_LAST, _STEP2_COLUMNS)
    _first_rule(w, _STEP3_LAST, _STEP3_COLUMNS)

    # Step 4 (m>1): one suffix removed; ion only after s or t.
    sub = np.flatnonzero(_STEP4_LAST[w.letter(every, w.k - 1)])
    tails = w.tails(sub)
    for size, mask, value, ion in _STEP4_COLUMNS:
        hit = (tails & mask) == value
        if not hit.any():
            continue
        matched, sub, tails = sub[hit], sub[~hit], tails[~hit]
        k = w.k[matched] - size
        fire = w.measure(matched, k) > 1
        if ion:
            fire &= _ST[w.letter(matched, k - 1)]
        w.k[matched[fire]] = k[fire]

    # Step 5a: (m>1) e → "", (m=1 and not *o) e → "".
    k = w.k - 1
    m = w.measure(every, k)
    w.k -= _ends(w.tails(), _E_END) & ((m > 1) | ((m == 1) & ~w.cvc(every, k)))

    # Step 5b: (m>1 and *d and *l) → single letter.
    w.k -= _ends(w.tails(), _LL) & (w.measure(every, w.k) > 1)

    lengths[w.rows] = w.k
    stems = letters[:, _PAD:]
    stems[np.arange(width) >= lengths[:, None]] = 0
    return stems, lengths


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
