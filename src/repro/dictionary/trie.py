"""The trie-collection index table of Table I.

The paper replaces the top of the dictionary with a trie of fixed height 3.
Because the height is constant, no trie structure is ever built: a term's
first characters are mapped arithmetically to a *trie collection index* and
a flat table maps that index to the root of the collection's B-tree.

The index space for height ``h = 3`` (Table I):

====================  ===========================================  =========
Index                 Term category                                 Count
====================  ===========================================  =========
0                     special — anything not matching below         1
1 .. 10               pure numbers, by first digit '0'..'9'         10
11 .. 36              first char a..z AND (≤h letters OR a           26
                      non-[a-z] char among the first h chars)
37 .. 37+26^h−1       >h letters, first h chars all a..z,            26^h
                      ranked lexicographically ('aaa'..'zzz')
====================  ===========================================  =========

Total for h=3: ``1 + 10 + 26 + 17576 = 17613`` collections.

Terms inside one collection share a prefix (except collection 0), so the
dictionary stores only the *suffix*: the shared first digit/letter for
categories 1–36, or the shared first ``h`` letters for the tail category.
Stripping is bijective within a collection, which the property tests verify.

The height is a constructor parameter (default 3) so the ablation benchmark
can reproduce the paper's §III.B.1 argument that heights 2 and 4 balance
worse.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple

import numpy as np

from repro.dictionary.layout import (
    MAX_TRIE_HEIGHT,
    NUM_TRIE_COLLECTIONS,
    TRIE_HEIGHT,
    TRIE_TAIL_BASE,
)

__all__ = ["TrieTable", "TrieCategory", "NUM_TRIE_COLLECTIONS"]

_LOWER = "abcdefghijklmnopqrstuvwxyz"
_DIGITS = "0123456789"


class TrieCategory(Enum):
    """The four term categories of Table I."""

    SPECIAL = "special"
    PURE_NUMBER = "pure_number"
    SHORT_OR_SPECIAL = "short_or_special"
    FULL_PREFIX = "full_prefix"


class TrieSplit(NamedTuple):
    """Result of mapping a term through the trie table."""

    index: int
    suffix: str
    category: TrieCategory


_new = tuple.__new__
_SPECIAL = TrieCategory.SPECIAL
_PURE_NUMBER = TrieCategory.PURE_NUMBER
_SHORT_OR_SPECIAL = TrieCategory.SHORT_OR_SPECIAL
_FULL_PREFIX = TrieCategory.FULL_PREFIX
#: ``ord(first)`` minus these is the collection of a pure number (1..10)
#: or of a short / special-prefix term (11..36).
_DIGIT_BASE = ord("0") - 1
_LETTER_BASE = ord("a") - 11
_ORD_A = ord("a")


class TrieTable:
    """Arithmetic implementation of the Table I trie.

    Parameters
    ----------
    height:
        Trie height ``1 <= h <= 13``; the paper uses 3.  The tail category
        then has ``26**h`` entries and strips ``h`` characters.
    """

    def __init__(self, height: int = TRIE_HEIGHT) -> None:
        if not 1 <= height <= MAX_TRIE_HEIGHT:
            raise ValueError(f"trie height must be in [1, {MAX_TRIE_HEIGHT}], got {height}")
        self.height = height
        self._tail_base = TRIE_TAIL_BASE
        self._tail_count = 26**height
        self.num_collections = self._tail_base + self._tail_count

    # ------------------------------------------------------------------ #
    # Forward mapping
    # ------------------------------------------------------------------ #

    def split(self, term: str) -> TrieSplit:
        """Map ``term`` to ``(collection index, stored suffix, category)``.

        ``term`` is the post-parsing form: already lower-cased and stemmed.
        Runs once per new surface form of a build, so the result tuple is
        built with ``tuple.__new__`` (no ``TrieSplit.__new__`` frame) and the
        categories are module constants.
        """
        if not term:
            raise ValueError("cannot index an empty term")
        first = term[0]
        if "0" <= first <= "9":
            if not term.strip(_DIGITS):
                # Pure number: bucket by first digit, strip it.
                return _new(TrieSplit, (ord(first) - _DIGIT_BASE, term[1:], _PURE_NUMBER))
            return _new(TrieSplit, (0, term, _SPECIAL))
        if "a" <= first <= "z":
            h = self.height
            head = term[:h]
            if len(term) <= h or head.strip(_LOWER):
                # Short term, or a special character inside the prefix
                # window: bucket by first letter, strip it.
                return _new(TrieSplit, (ord(first) - _LETTER_BASE, term[1:], _SHORT_OR_SPECIAL))
            rank = 0
            for c in head:
                rank = rank * 26 + (ord(c) - _ORD_A)
            return _new(TrieSplit, (self._tail_base + rank, term[h:], _FULL_PREFIX))
        return _new(TrieSplit, (0, term, _SPECIAL))

    def split_columns(
        self, letters: np.ndarray, lengths: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`split` of many terms at once: their collection indices
        and how many leading bytes each strips.

        Row ``i`` of the ``uint8`` matrix ``letters`` begins with term
        ``i``'s ``lengths[i]`` bytes (ASCII, or UTF-8: a non-ASCII
        character is a special one either way, and only a prefix of ASCII
        letters or digits is stripped).  The stored suffix is
        ``letters[i, cut[i]:lengths[i]]``.
        """
        lengths = np.asarray(lengths, dtype=np.int64)
        n = len(lengths)
        if not n:
            return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
        if int(lengths.min()) <= 0:
            raise ValueError("cannot index an empty term")
        h = self.height
        live = np.arange(letters.shape[1]) < lengths[:, None]
        digits = (letters >= ord("0")) & (letters <= ord("9"))
        lower = (letters >= _ORD_A) & (letters <= ord("z"))
        first = letters[:, 0].astype(np.int64)
        number = digits[:, 0] & (digits | ~live).all(axis=1)
        word = lower[:, 0]
        full = word & (lengths > h) & lower[:, :h].all(axis=1)
        index = np.zeros(n, dtype=np.int64)
        cut = np.zeros(n, dtype=np.int64)
        index[number] = first[number] - _DIGIT_BASE
        index[word] = first[word] - _LETTER_BASE
        cut[number | word] = 1
        if full.any():
            # The tail category ranks the first ``h`` letters base 26.
            heads = letters[full, :h].astype(np.int64) - _ORD_A
            index[full] = self._tail_base + heads @ (26 ** np.arange(h - 1, -1, -1))
            cut[full] = h
        return index, cut

    def trie_index(self, term: str) -> int:
        """Collection index only (the hot path used by the tokenizer)."""
        return self.split(term).index

    # ------------------------------------------------------------------ #
    # Inverse mapping
    # ------------------------------------------------------------------ #

    def prefix_for(self, index: int) -> str:
        """The shared prefix stripped from terms in collection ``index``.

        Collection 0 strips nothing, so its "prefix" is the empty string.
        """
        self._check_index(index)
        if index == 0:
            return ""
        if index <= 10:
            return _DIGITS[index - 1]
        if index < self._tail_base:
            return _LOWER[index - 11]
        rank = index - self._tail_base
        chars = []
        for _ in range(self.height):
            rank, rem = divmod(rank, 26)
            chars.append(_LOWER[rem])
        return "".join(reversed(chars))

    def prefix_columns(self, indices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`prefix_for` of many collections at once, as bytes.

        Returns a ``(len(indices), height)`` ``uint8`` matrix whose row
        ``i`` ends with the ASCII prefix of ``indices[i]`` (zero bytes in
        front of a shorter one) and the prefix lengths.
        """
        index = np.asarray(indices, dtype=np.int64)
        if index.size and not 0 <= int(index.min()) <= int(index.max()) < self.num_collections:
            raise IndexError(
                f"trie collection index out of range [0, {self.num_collections})"
            )
        h = self.height
        prefixes = np.zeros((index.size, h), dtype=np.uint8)
        digit = (index >= 1) & (index <= 10)
        letter = (index >= 11) & (index < self._tail_base)
        prefixes[digit, -1] = ord("0") - 1 + index[digit]
        prefixes[letter, -1] = ord("a") - 11 + index[letter]
        tail = index >= self._tail_base
        rank = index[tail] - self._tail_base
        for col in range(h - 1, -1, -1):
            rank, letters = np.divmod(rank, 26)
            prefixes[tail, col] = ord("a") + letters
        lengths = np.where(index == 0, 0, np.where(tail, h, 1))
        return prefixes, lengths

    def reconstruct(self, index: int, suffix: str) -> str:
        """Rebuild the original term from ``(index, suffix)``."""
        return self.prefix_for(index) + suffix

    def category_of(self, index: int) -> TrieCategory:
        """Which Table I category a collection index belongs to."""
        self._check_index(index)
        if index == 0:
            return TrieCategory.SPECIAL
        if index <= 10:
            return TrieCategory.PURE_NUMBER
        if index < self._tail_base:
            return TrieCategory.SHORT_OR_SPECIAL
        return TrieCategory.FULL_PREFIX

    # ------------------------------------------------------------------ #
    # Reporting (Table I benchmark)
    # ------------------------------------------------------------------ #

    def category_ranges(self) -> dict[TrieCategory, tuple[int, int]]:
        """Inclusive index ranges per category, for the Table I report."""
        return {
            TrieCategory.SPECIAL: (0, 0),
            TrieCategory.PURE_NUMBER: (1, 10),
            TrieCategory.SHORT_OR_SPECIAL: (11, 36),
            TrieCategory.FULL_PREFIX: (self._tail_base, self.num_collections - 1),
        }

    def _check_index(self, index: int) -> None:
        if not 0 <= index < self.num_collections:
            raise IndexError(
                f"trie collection index {index} out of range [0, {self.num_collections})"
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TrieTable(height={self.height}, collections={self.num_collections})"
