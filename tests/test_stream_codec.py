"""The compact parsed-stream codec must be lossless and order-preserving.

The multiprocess backend ships every parsed file through
:mod:`repro.parsing.stream_codec` — any field it drops or reorders breaks
the byte-identity guarantee between backends, so these tests pin exact
roundtrips (including the collection table's first-seen order, which *is*
term-id allocation order downstream) and every malformed payload the
decoder must refuse.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.parsing.docio import DocTableEntry
from repro.parsing.parser import ParseMetrics, ParsedFile, Parser
from repro.parsing.regroup import ParsedBatch
from repro.parsing.stream_codec import (
    decode_batch,
    decode_parsed_file,
    encode_batch,
    encode_parsed_file,
)
from tests.parsed_stream_oracles import (
    as_nested,
    as_ungrouped,
    assert_same_batch,
    batch_from_collections,
    stream_columns,
)

_COLLECTIONS = {
    4: [(0, [b"pple", b"xe"]), (2, [b"pple"])],
    0: [(1, [b"", b"zz"])],
}


def _batch(collections=_COLLECTIONS, positions=None, **overrides) -> ParsedBatch:
    fields = dict(
        parser_id=2,
        sequence=7,
        source_file="/corpus/file_00007.warc.gz",
        num_docs=3,
        uncompressed_bytes=4096,
        compressed_bytes=512,
    )
    fields.update(overrides)
    return batch_from_collections(collections, positions, **fields)


def _ungrouped(docs, **meta) -> ParsedBatch:
    batch, ids, doc_col = stream_columns(docs, **meta)
    Parser(regroup=False)._assemble(batch, ids, doc_col)
    return batch


def _parsed_file() -> ParsedFile:
    return ParsedFile(
        batch=_batch(),
        doc_table=[
            DocTableEntry(0, "/corpus/file_00007.warc.gz", "http://a/0", 0),
            DocTableEntry(1, "/corpus/file_00007.warc.gz", "http://a/1", 900),
        ],
        metrics=ParseMetrics(
            compressed_bytes=512, uncompressed_bytes=4096, num_docs=3,
            chars_scanned=4000, tokens_raw=20, tokens_stopped=5,
            tokens_emitted=15, suffix_chars=80, stem_cache_misses=2,
            collections_touched=2,
        ),
    )


class TestBatchRoundtrip:
    def test_grouped_batch_roundtrips_exactly(self):
        batch = _batch()
        out = decode_batch(encode_batch(batch))
        assert_same_batch(out, batch)
        assert dict(out.collections) == _COLLECTIONS
        assert out.tokens_per_collection == {4: 3, 0: 2}
        assert out.chars_per_collection == {4: 10, 0: 2}

    def test_collection_insertion_order_is_preserved(self):
        """Collection order is term-id allocation order — it must survive."""
        batch = _batch({9: [(0, [b"a"])], 1: [(0, [b"b"])]})
        out = decode_batch(encode_batch(batch))
        assert list(out.collections) == [9, 1]
        assert list(out.tokens_per_collection) == [9, 1]

    def test_positional_batch_roundtrips(self):
        positions = {4: [[0, 5], [11]], 0: [[2, 3]]}
        batch = _batch(positions=positions)
        out = decode_batch(encode_batch(batch))
        assert as_nested(out) == (_COLLECTIONS, positions)
        assert_same_batch(out, batch)

    def test_ungrouped_batch_roundtrips(self):
        docs = [(0, [(4, b"pple"), (0, b"zz")]), (1, [(2, b"")])]
        batch = _ungrouped(docs, num_docs=2)
        out = decode_batch(encode_batch(batch))
        assert not out.regrouped and as_ungrouped(out) == docs
        assert_same_batch(out, batch)

    def test_empty_batch(self):
        batch = ParsedBatch(parser_id=0, sequence=0, source_file="f")
        assert_same_batch(decode_batch(encode_batch(batch)), batch)

    def test_large_values_use_multibyte_varints(self):
        batch = _batch(uncompressed_bytes=1 << 40, compressed_bytes=1 << 33,
                       num_docs=300)
        assert_same_batch(decode_batch(encode_batch(batch)), batch)

    def test_sub_batch_is_compacted(self):
        """A selection over shared columns travels as its own tokens and
        entries only, and decodes to the same streams."""
        batch = _batch({9: [(0, [b"a", b"bb"])], 1: [(0, [b"b"]), (2, [b"a"])], 5: [(1, [b"q"])]},
                       positions={9: [[0, 3]], 1: [[1], [0]], 5: [[0]]})
        sub = batch.select([0, 2])
        out = decode_batch(encode_batch(sub))
        assert as_nested(out) == as_nested(sub)
        assert out.entry_suffix == [b"a", b"bb", b"q"] and len(out.ids) == 3
        assert out.spans.tolist() == [[0, 2], [2, 3]]
        assert len(encode_batch(sub)) < len(encode_batch(batch))
        # Compaction is the identity on a parser's own output.
        assert_same_batch(decode_batch(encode_batch(out)), out)

    @given(
        texts=st.lists(st.text(alphabet="abcdeé XYZ<>1", max_size=40), max_size=6),
        positional=st.booleans(),
        regroup=st.booleans(),
    )
    def test_parser_output_roundtrips(self, texts, positional, regroup):
        parser = Parser(strip_html=False, regroup=regroup, positional=positional and regroup)
        batch, _ = parser.parse_texts(texts, source_file="é/f", sequence=3)
        assert_same_batch(decode_batch(encode_batch(batch)), batch)


class TestParsedFileRoundtrip:
    def test_full_parsed_file_roundtrips(self):
        parsed = _parsed_file()
        out = decode_parsed_file(encode_parsed_file(parsed))
        assert_same_batch(out.batch, parsed.batch)
        assert (out.doc_table, out.metrics) == (parsed.doc_table, parsed.metrics)

    def test_metrics_fields_all_survive(self):
        """Every ParseMetrics field rides along (cost model inputs)."""
        parsed = _parsed_file()
        out = decode_parsed_file(encode_parsed_file(parsed))
        for name in ParseMetrics.__dataclass_fields__:
            assert getattr(out.metrics, name) == getattr(parsed.metrics, name)

    def test_doc_table_order_and_fields(self):
        out = decode_parsed_file(encode_parsed_file(_parsed_file()))
        assert [e.local_doc_id for e in out.doc_table] == [0, 1]
        assert out.doc_table[1].offset == 900

    def test_truncated_payload_raises(self):
        data = encode_parsed_file(_parsed_file())
        with pytest.raises(ValueError):
            decode_parsed_file(data[: len(data) // 2])


class TestMalformedPayloads:
    """Every way a payload can be wrong is a ``ValueError``, never a
    short read, an ``IndexError`` later in an indexer, or a wrong batch."""

    def test_every_truncation_raises(self):
        for data, decode in (
            (encode_batch(_batch(positions={4: [[0, 5], [11]], 0: [[2, 3]]})), decode_batch),
            (encode_parsed_file(_parsed_file()), decode_parsed_file),
        ):
            for cut in range(len(data)):
                with pytest.raises(ValueError):
                    decode(data[:cut])

    def test_trailing_bytes_raise(self):
        with pytest.raises(ValueError, match="trailing"):
            decode_batch(encode_batch(_batch()) + b"\0")
        with pytest.raises(ValueError, match="trailing"):
            decode_parsed_file(encode_parsed_file(_parsed_file()) + b"\0")

    def test_bad_magic_raises(self):
        batch, parsed = encode_batch(_batch()), encode_parsed_file(_parsed_file())
        for decode, data in (
            (decode_batch, parsed),  # a file payload is not a batch payload
            (decode_parsed_file, batch),
            (decode_batch, b"\x00" + batch[1:]),
            (decode_parsed_file, parsed[:1] + b"\x00" + parsed[2:]),
        ):
            with pytest.raises(ValueError, match="not a parsed-stream"):
                decode(data)

    def _corrupt(self, **changes) -> bytes:
        return encode_batch(dataclasses.replace(_batch(positions={4: [[0, 5], [11]], 0: [[2, 3]]}),
                                                **changes))

    def test_entry_id_out_of_range(self):
        good = _batch()
        for bad in (len(good.entry_suffix), -1):
            ids = good.ids.copy()
            ids[1] = bad
            with pytest.raises(ValueError, match="entry id"):
                decode_batch(self._corrupt(ids=ids))

    def test_doc_ordinal_out_of_range(self):
        good = _batch()
        for bad in (good.num_docs, -1):
            docs = good.docs.copy()
            docs[-1] = bad
            with pytest.raises(ValueError, match="document ordinal"):
                decode_batch(self._corrupt(docs=docs))

    def test_counts_that_do_not_tile_the_columns(self):
        good = _batch()
        data = encode_batch(good)
        table = np.column_stack((good.order, good.tokens, good.chars, good.documents))
        table = table.astype(np.int32)
        at = data.index(table.tobytes())
        for row, delta in ((0, 1), (1, -1), (1, -3)):
            bad = table.copy()
            bad[row, 1] += delta
            payload = data[:at] + bad.tobytes() + data[at + table.nbytes:]
            with pytest.raises(ValueError, match="tile"):
                decode_batch(payload)

    def test_misaligned_positions_column(self):
        good = _batch(positions={4: [[0, 5], [11]], 0: [[2, 3]]})
        for positions in (good.positions[:-1], np.append(good.positions, 1).astype(np.int32)):
            with pytest.raises(ValueError, match="positions"):
                decode_batch(self._corrupt(positions=positions))

    def test_suffix_lengths_that_do_not_add_up(self):
        """Patch one length in the wire entry table: the suffix bytes no
        longer split where the lengths say."""
        data = bytearray(encode_batch(_batch()))
        lengths = np.array([4, 2, 0, 2], dtype=np.int32).tobytes()  # pple, xe, "", zz
        at = bytes(data).index(lengths)
        data[at] += 1
        with pytest.raises(ValueError, match="suffix"):
            decode_batch(bytes(data))

    def test_negative_header_values_cannot_be_written(self):
        with pytest.raises(ValueError):
            encode_batch(_batch(num_docs=-1))
