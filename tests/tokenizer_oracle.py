"""``Tokenizer.surface_forms`` before the Latin-1 path: one ``findall``.

The parser's Step 2 split every document with the compiled regex
``[^\\W_]+``.  :func:`repro.parsing.tokenizer.split_tokens` now splits a
Latin-1 document with one ``bytes.translate`` + ``str.split`` and keeps the
regex only for wider text; this module is the old method, kept verbatim as
the oracle the new one must equal (``tests/test_tokenizer_oracle.py``).
It takes ``self`` so a test can patch it onto :class:`Tokenizer`.
"""

from __future__ import annotations

import re

from repro.parsing.tokenizer import strip_markup

_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)


def surface_forms(self, text: str) -> list[str]:
    """One document's raw tokens as written (case kept): markup strip
    plus one compiled-regex pass.  The parser lower-cases, length-checks
    and stems each *distinct* form once, through its token cache."""
    if self.strip_html:
        text = strip_markup(text)
    self.chars_scanned += len(text)
    return _TOKEN_RE.findall(text)
