"""The packed container format and Step-1 loading."""

from __future__ import annotations

import gzip

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.corpus.warc import read_packed_file, uncompressed_size, write_packed_file
from repro.parsing.docio import load_collection_file


class TestContainer:
    def test_round_trip_plain(self, tmp_path):
        path = str(tmp_path / "f.warc")
        docs = [("u://1", "hello world"), ("u://2", "text with\nnewlines")]
        comp, uncomp = write_packed_file(path, docs, compress=False)
        assert comp == uncomp
        loaded = read_packed_file(path)
        assert [(d.uri, d.text) for d in loaded] == docs

    def test_round_trip_gzip(self, tmp_path):
        path = str(tmp_path / "f.warc.gz")
        docs = [("u://1", "compressible " * 100)]
        comp, uncomp = write_packed_file(path, docs, compress=True)
        assert comp < uncomp
        assert read_packed_file(path)[0].text == docs[0][1]
        assert uncompressed_size(path) == uncomp

    def test_unicode_payload(self, tmp_path):
        path = str(tmp_path / "u.warc")
        write_packed_file(path, [("u://x", "café zoé — ünïcode")], compress=False)
        assert read_packed_file(path)[0].text == "café zoé — ünïcode"

    def test_offsets_monotonic(self, tmp_path):
        path = str(tmp_path / "o.warc")
        write_packed_file(path, [("u://a", "x" * 10), ("u://b", "y")], compress=False)
        docs = read_packed_file(path)
        assert docs[0].offset < docs[1].offset

    def test_bad_magic(self, tmp_path):
        path = str(tmp_path / "bad.warc")
        with open(path, "wb") as fh:
            fh.write(b"NOT A CONTAINER")
        with pytest.raises(ValueError):
            read_packed_file(path)

    def test_uri_with_spaces_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_packed_file(str(tmp_path / "x.warc"), [("bad uri", "t")], compress=False)

    def test_gzip_detected_by_magic_not_suffix(self, tmp_path):
        path = str(tmp_path / "noext")
        with gzip.open(path, "wb") as fh:
            fh.write(b"REPROWARC/1\nDOC u://1 2\nhi\n")
        assert read_packed_file(path)[0].text == "hi"

    @settings(max_examples=25)
    @given(
        st.lists(
            st.text(
                alphabet=st.characters(codec="utf-8", exclude_characters="\x00"),
                max_size=200,
            ),
            max_size=10,
        )
    )
    def test_round_trip_random_payloads(self, tmp_path_factory, texts):
        path = str(tmp_path_factory.mktemp("warc") / "r.warc.gz")
        docs = [(f"u://{i}", t) for i, t in enumerate(texts)]
        write_packed_file(path, docs)
        assert [(d.uri, d.text) for d in read_packed_file(path)] == docs


class TestDocIO:
    def test_load_assigns_local_ids(self, tmp_path):
        path = str(tmp_path / "c.warc.gz")
        write_packed_file(path, [(f"u://{i}", f"doc {i}") for i in range(5)])
        loaded = load_collection_file(path)
        assert loaded.num_docs == 5
        assert [e.local_doc_id for e in loaded.doc_table] == list(range(5))
        assert loaded.texts[3] == "doc 3"
        assert loaded.compressed_bytes > 0
        assert loaded.uncompressed_bytes >= sum(len(t) for t in loaded.texts)

    def test_uncompressed_bytes_are_the_utf8_payloads(self, tmp_path):
        # Two-, three- and four-byte characters: the count is bytes, not
        # characters, and it is the size each DOC header states.
        texts = ["plain", "café zoé", "em — dash ’ and 中文", "astral 𝔘 ok", ""]
        path = str(tmp_path / "m.warc.gz")
        write_packed_file(path, [(f"u://{i}", t) for i, t in enumerate(texts)])
        sizes = [len(t.encode("utf-8")) for t in texts]
        assert [d.size for d in read_packed_file(path)] == sizes
        loaded = load_collection_file(path)
        assert loaded.uncompressed_bytes == sum(sizes) > sum(map(len, texts))
        assert {e.source_file for e in loaded.doc_table} == {"m.warc.gz"}
