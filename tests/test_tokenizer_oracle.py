"""The tokenizer's Latin-1 path against the single-regex oracle.

:func:`repro.parsing.tokenizer.split_tokens` splits a Latin-1 document
with one ``bytes.translate`` + ``str.split`` and falls back to the regex
for any wider document.  ``tests/tokenizer_oracle.py`` keeps the method it
replaced (markup strip + one ``findall``); every test here holds the new
method to it: the same forms in the same order and the same
``chars_scanned``, character by character, for arbitrary text, and for a
whole build.
"""

from __future__ import annotations

import hashlib
import os

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.config import PlatformConfig
from repro.core.engine import IndexingEngine
from repro.corpus.collection import Collection
from repro.corpus.warc import write_packed_file
from repro.obs.schema import METRICS_FILENAME, TRACE_FILENAME
from repro.parsing.parser import Parser
from repro.parsing.tokenizer import _LATIN1, Tokenizer, split_tokens
from repro.robustness.checkpoint import CHECKPOINT_FILENAME, MANIFEST_FILENAME
from tests import tokenizer_oracle
from tests.conftest import deterministic_metric_sections

#: Latin-1 characters on either side of the token class: ``_`` (a regex
#: word character, not a token one), digits and other numerics
#: (``²½``), ordinal letters (``ªº``), ``µ``, the two Latin-1 symbols
#: among the letters (``×÷``), NBSP / soft hyphen / NEL, the two
#: letters without a one-character upper case (``ßÿ``), whitespace, some
#: plain letters, and markup characters for ``strip_html``.
_EDGES = "_09²³¹¼½¾ªºµ×÷\xa0\xad\x85ßÿ \t\naZéÀ<>&;"
_latin1 = st.text(alphabet=st.one_of(st.sampled_from(_EDGES), st.characters(max_codepoint=0xFF)))


@st.composite
def _latin1_and_one_wide(draw) -> str:
    """Latin-1 text with one character above U+00FF at a drawn position,
    so the fast path's encode fails anywhere from the first to the last
    character."""
    text = draw(_latin1)
    at = draw(st.integers(0, len(text)))
    return text[:at] + draw(st.characters(min_codepoint=0x100)) + text[at:]


def _assert_same_forms(text: str) -> None:
    for strip_html in (True, False):
        new, old = Tokenizer(strip_html=strip_html), Tokenizer(strip_html=strip_html)
        assert new.surface_forms(text) == tokenizer_oracle.surface_forms(old, text)
        assert new.chars_scanned == old.chars_scanned


class TestSurfaceForms:
    @given(st.text())
    def test_any_unicode(self, text):
        _assert_same_forms(text)

    @given(_latin1)
    def test_latin1_edges(self, text):
        _assert_same_forms(text)

    @given(_latin1_and_one_wide())
    def test_one_wide_character_anywhere(self, text):
        _assert_same_forms(text)

    def test_every_latin1_code_point(self):
        token = tokenizer_oracle._TOKEN_RE
        for c in range(256):
            ch = chr(c)
            assert _LATIN1[c] == (c if token.fullmatch(ch) else 0x20), hex(c)
            for text in (ch, f"a{ch}b", f"{ch}{ch} 1{ch}"):
                assert split_tokens(text) == token.findall(text), hex(c)


# Latin-1 documents and documents holding wider characters, with markup:
# curly quotes, Greek, Cyrillic, CJK, astral letters / digits / emoji,
# the dotted capital I (its lower case is two characters) and NBSP.
_LATIN1_DOCS = [
    "<p>Café société naïve façade</p> résumé 1999 ²nd ½ price &amp; more",
    "plain\xa0text with\xa0nbsp, straße ß ÿ and µ-metre foo_bar 3×4",
    "The quick brown fox jumps over the lazy dog; the DOG sleeps.",
]
_WIDE_DOCS = [
    "don’t stop believin’ — it’s “quoted” café",
    "<b>Η</b> γρήγορη καφέ αλεπού πηδά πάνω από τον σκύλο",
    "Съешь же ещё этих мягких французских булок, да выпей чаю",
    "東京都の天気は晴れ 東京 京都 2024年",
    "math 𝔘𝔫𝔦 and emoji 😀 party 𝟙𝟚 done",
    "İstanbul İzmir istanbul DİYARBAKIR",
    "price\xa0100\u202fkm — İ\xa0and the quick fox",
]
_BUILD_LOGS = {MANIFEST_FILENAME, CHECKPOINT_FILENAME, METRICS_FILENAME, TRACE_FILENAME}


def _digest(out_dir: str) -> str:
    h = hashlib.sha256()
    for name in sorted(os.listdir(out_dir)):
        if name in _BUILD_LOGS or os.path.isdir(os.path.join(out_dir, name)):
            continue
        h.update(name.encode())
        with open(os.path.join(out_dir, name), "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


@pytest.fixture(scope="module")
def mixed_collection(tmp_path_factory) -> Collection:
    """Four files, each interleaving Latin-1 and wider documents."""
    root = tmp_path_factory.mktemp("mixed")
    docs = [d for pair in zip(_LATIN1_DOCS * 3, _WIDE_DOCS * 2) for d in pair]
    files = []
    for f in range(4):
        path = str(root / f"file_{f:05d}.warc.gz")
        rotated = docs[f:] + docs[:f]
        write_packed_file(path, [(f"u://{f}/{i}", t) for i, t in enumerate(rotated)])
        files.append(path)
    return Collection(name="mixed", directory=str(root), files=files)


class TestBuild:
    """The exec backend is left unset, so a suite run under
    ``REPRO_EXEC_BACKEND=multiprocess`` tokenizes in the parse worker
    (forked after the patch, so it runs the oracle too)."""

    def test_every_file_parses_as_the_oracle_parses(self, mixed_collection, monkeypatch):
        for strip_html in (True, False):
            new = Parser(strip_html=strip_html)
            old = Parser(strip_html=strip_html)
            with monkeypatch.context() as patch:
                patch.setattr(Tokenizer, "surface_forms", tokenizer_oracle.surface_forms)
                expected = [old.parse_file(p).metrics for p in mixed_collection.files]
            got = [new.parse_file(p).metrics for p in mixed_collection.files]
            assert got == expected

    def test_build_equals_the_oracle_build(self, mixed_collection, monkeypatch, tmp_path):
        cfg = PlatformConfig(
            num_parsers=2, num_cpu_indexers=2, num_gpus=1,
            sample_fraction=0.5, files_per_run=2,
        )
        with monkeypatch.context() as patch:
            patch.setattr(Tokenizer, "surface_forms", tokenizer_oracle.surface_forms)
            old = IndexingEngine(cfg).build(mixed_collection, str(tmp_path / "old"))
        new = IndexingEngine(cfg).build(mixed_collection, str(tmp_path / "new"))
        assert _digest(str(tmp_path / "new")) == _digest(str(tmp_path / "old"))
        assert new.file_works == old.file_works
        assert deterministic_metric_sections(str(tmp_path / "new")) == (
            deterministic_metric_sections(str(tmp_path / "old"))
        )
