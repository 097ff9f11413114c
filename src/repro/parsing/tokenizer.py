"""Tokenization (Step 2 of Fig 3) with trie indices as a byproduct.

The paper's tokenizer "scans input document character by character and
hence a trie index can be calculated as a byproduct using a minimal
additional effort".  In C that is a single fused scan; the idiomatic Python
equivalent (vectorize the hot loop) is one C-level pass per document that
yields tokens, after which the trie split is an O(1) arithmetic on each
token's head characters — the same "byproduct" structure, with the
fused-scan cost captured by the parser's work metrics.

A token is a maximal run of alphanumeric characters (``str.isalnum``, the
regex's word characters less the underscore).  :func:`split_tokens` finds
them in a Latin-1 document (no character above U+00FF) with one
``bytes.translate`` that turns every other character into a space, then
``str.split``; a document holding a wider character takes one compiled-regex
pass instead.

Markup handling mirrors the evaluation setup: ClueWeb-style web pages keep
their HTML and the tokenizer drops tags (``strip_markup``), whereas the
Wikipedia01-07 collection "had the HTML tags removed, and the remainder is
just pure text".
"""

from __future__ import annotations

import re
from typing import Iterator

from repro.dictionary.trie import TrieTable

__all__ = ["Tokenizer", "split_tokens", "strip_markup"]

# Tags, comments, script/style blocks; entities become separators.
_TAG_RE = re.compile(r"<script\b.*?</script\s*>|<style\b.*?</style\s*>|<[^>]*>", re.DOTALL | re.IGNORECASE)
_ENTITY_RE = re.compile(r"&[a-zA-Z#0-9]{1,10};")
# A token is a run of unicode letters/digits (underscore excluded).
_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)
# The same class over Latin-1 bytes: a word byte maps to itself, any other to a space.
_LATIN1 = bytes(c if chr(c).isalnum() else 0x20 for c in range(256))


def strip_markup(text: str) -> str:
    """Remove HTML/XML tags and entities, leaving whitespace separators."""
    text = _TAG_RE.sub(" ", text)
    return _ENTITY_RE.sub(" ", text)


def split_tokens(text: str) -> list[str]:
    """The maximal runs of alphanumeric characters in ``text``, in order.

    The one definition of a token, for documents and queries alike.
    """
    try:
        raw = text.encode("latin-1")
    except UnicodeEncodeError:
        return _TOKEN_RE.findall(text)
    return raw.translate(_LATIN1).decode("latin-1").split()


class Tokenizer:
    """Splits documents into lower-case tokens and trie-splits each one.

    Parameters
    ----------
    trie:
        The shared :class:`TrieTable` used for the byproduct split.
    strip_html:
        Drop markup before tokenizing (on for web-crawl collections).
    max_token_bytes:
        Tokens longer than this are discarded as noise (binary junk in web
        crawls); the 255-byte Fig 6 limit is the hard ceiling.
    """

    def __init__(
        self,
        trie: TrieTable | None = None,
        strip_html: bool = True,
        max_token_bytes: int = 64,
    ) -> None:
        self.trie = trie if trie is not None else TrieTable()
        self.strip_html = strip_html
        self.max_token_bytes = min(max_token_bytes, 255)
        #: Characters scanned (post markup strip) — a parser work metric.
        self.chars_scanned = 0
        #: Tokens produced.
        self.tokens_emitted = 0

    def surface_forms(self, text: str) -> list[str]:
        """One document's raw tokens as written (case kept): markup strip
        plus :func:`split_tokens`.  The parser lower-cases, length-checks
        and stems each *distinct* form once, through its token cache."""
        if self.strip_html:
            text = strip_markup(text)
        self.chars_scanned += len(text)
        return split_tokens(text)

    def too_long(self, token: str) -> bool:
        """Over the byte-length limit (a character is at most 4 bytes)."""
        limit = self.max_token_bytes
        return len(token) * 4 > limit and len(token.encode("utf-8")) > limit

    def tokens(self, text: str) -> Iterator[str]:
        """Yield lower-cased raw tokens from one document."""
        too_long = self.too_long
        for token in map(str.lower, self.surface_forms(text)):
            if too_long(token):
                continue
            self.tokens_emitted += 1
            yield token

    def tokens_with_index(self, text: str) -> Iterator[tuple[str, int]]:
        """Yield ``(token, trie collection index)`` pairs.

        This is the paper's fused scan: the index costs one extra arithmetic
        per token.  Note the index here is provisional — stemming (Step 3)
        can change a term's head, so the parser recomputes the split after
        stemming; the tokenizer-level index is still what drives the 5%
        regrouping overhead accounting.
        """
        trie_index = self.trie.trie_index
        for token in self.tokens(text):
            yield token, trie_index(token)
