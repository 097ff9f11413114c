"""Run files, the docID-range map, and the retrieval path (§III.F)."""

from __future__ import annotations

import os
import tempfile
import tracemalloc
import zlib
from unittest import mock

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.postings import output
from repro.postings.compression import EliasGammaCodec, VarByteCodec, encode_uvarint
from repro.postings.output import DocRangeMap, RunWriter, read_run_table, run_filename
from repro.postings.reader import PostingsReader
from tests.postings_oracle import OraclePostingsList, run_of


def _plist(pairs):
    pl = OraclePostingsList()
    for d, tf in pairs:
        pl.add_posting(d, tf)
    return pl


def _write_three_runs(out_dir: str) -> DocRangeMap:
    """Three runs covering doc ranges [0,9], [10,19], [20,29]."""
    writer = RunWriter(out_dir)
    mapping = DocRangeMap()
    for run_id in range(3):
        base = run_id * 10
        lists = {
            1: _plist([(base + 1, 2), (base + 5, 1)]),
            2: _plist([(base + 3, 4)]),
        }
        if run_id == 1:
            lists[3] = _plist([(base + 7, 1)])  # term only in run 1
        mapping.add(writer.write_run(run_id, run_of(lists)))
    mapping.save(out_dir)
    return mapping


class TestRunWriter:
    def test_header_round_trip(self, tmp_path):
        writer = RunWriter(str(tmp_path))
        run = writer.write_run(7, run_of({42: _plist([(3, 1), (9, 2)])}))
        assert run.filename == run_filename(7) == "run_00007.post"
        with open(run.path, "rb") as fh:
            data = fh.read()
        run_id, codec, min_doc, max_doc, table, _ = read_run_table(data)
        assert (run_id, codec, min_doc, max_doc) == (7, "varbyte", 3, 9)
        [(term_id, offset, length)] = table.tolist()
        assert term_id == 42
        from repro.postings.compression import VarByteCodec

        assert VarByteCodec().decode(data[offset : offset + length]) == [(3, 1), (9, 2)]

    def test_empty_run(self, tmp_path):
        run = RunWriter(str(tmp_path)).write_run(0, run_of({}))
        assert run.min_doc is None and run.max_doc is None
        assert run.entry_count == 0

    def test_alternate_codec_recorded(self, tmp_path):
        writer = RunWriter(str(tmp_path), codec=EliasGammaCodec())
        run = writer.write_run(0, run_of({1: _plist([(2, 1)])}))
        with open(run.path, "rb") as fh:
            _, codec_name, *_ = read_run_table(fh.read())
        assert codec_name == "gamma"

    def test_bad_magic_rejected(self):
        with pytest.raises(ValueError):
            read_run_table(b"GARBAGE!")


def _parent_run_bytes(run_id: int, lists: dict[int, OraclePostingsList]) -> bytes:
    """``RunWriter.write_run`` as it was before the blocked kernel: one
    ``VarByteCodec.encode`` per list, one ``encode_uvarint`` per header value."""
    codec = VarByteCodec()
    kept = [(t, codec.encode(lists[t].postings())) for t in sorted(lists) if lists[t].doc_ids]
    docs = [d for t, _ in kept for d in (lists[t].doc_ids[0], lists[t].doc_ids[-1])]
    out = bytearray(output.RUN_MAGIC)
    encode_uvarint(run_id, out)
    encode_uvarint(len(codec.name), out)
    out += codec.name.encode("ascii")
    encode_uvarint(min(docs) + 1 if docs else 0, out)
    encode_uvarint(max(docs) + 1 if docs else 0, out)
    encode_uvarint(len(kept), out)
    offset = 0
    for term_id, encoded in kept:
        for value in (term_id, offset, len(encoded)):
            encode_uvarint(value, out)
        offset += len(encoded)
    for _, encoded in kept:
        out += encoded
    return bytes(out) + (zlib.crc32(out) & 0xFFFFFFFF).to_bytes(4, "little")


def _raw_list(doc_ids, tfs) -> OraclePostingsList:
    plist = OraclePostingsList()
    plist.doc_ids, plist.tfs = list(doc_ids), list(tfs)
    return plist


#: Gaps past two varint bytes (2^14), tfs past one (128), and empty lists.
_gap = st.one_of(st.integers(1, 200), st.integers(2**14 - 2, 2**14 + 2), st.integers(1, 2**40))
_tf = st.one_of(st.integers(1, 5), st.integers(126, 130), st.integers(1, 2**20))
_run_lists = st.dictionaries(
    st.one_of(st.integers(0, 400), st.integers(100 << 40, (100 << 40) + 400)),
    st.lists(st.tuples(_gap, _tf), max_size=12),
    max_size=30,
)


class TestBlockedVarbyteEncode:
    """``write_run`` on plain varbyte: blocks of lists through one kernel."""

    @given(_run_lists, st.sampled_from([1, 3, 20, 1 << 12]), st.sampled_from([1, 4, 1 << 10]))
    def test_bytes_equal_the_per_list_oracle(self, spec, block_postings, table_rows):
        lists = {}
        for term_id, pairs in spec.items():
            doc, docs = -1, []
            for gap, _ in pairs:
                doc += gap
                docs.append(doc)
            lists[term_id] = _raw_list(docs, [tf for _, tf in pairs])
        with tempfile.TemporaryDirectory() as out_dir, \
                mock.patch.object(output, "_BLOCK_POSTINGS", block_postings), \
                mock.patch.object(output, "_TABLE_BLOCK_ROWS", table_rows):
            run = RunWriter(out_dir).write_run(5, run_of(lists))
            with open(run.path, "rb") as fh:
                data = fh.read()
        assert data == _parent_run_bytes(5, lists)
        assert run.byte_size == len(data)
        assert run.entry_count == sum(1 for plist in lists.values() if plist.doc_ids)

    @pytest.mark.parametrize("bad", [
        _raw_list([4, 4], [1, 1]), _raw_list([4, 3], [1, 1]), _raw_list([-2], [1]),
        _raw_list([4, 9], [1, 0]), _raw_list([4], [-3]),
    ])
    def test_bad_list_raises_before_any_file_exists(self, tmp_path, bad):
        lists = {1: _raw_list([7, 9], [1, 2]), 2: bad, 3: _raw_list([0], [1])}
        with pytest.raises(ValueError):
            VarByteCodec().encode(bad.postings())
        with pytest.raises(ValueError):
            RunWriter(str(tmp_path)).write_run(0, run_of(lists))
        assert os.listdir(tmp_path) == []

    def test_a_later_list_may_start_before_the_previous_one_ends(self, tmp_path):
        lists = {1: _raw_list([7, 900], [1, 2]), 2: _raw_list([0, 3], [1, 1])}
        run = RunWriter(str(tmp_path)).write_run(0, run_of(lists))
        assert (run.min_doc, run.max_doc) == (0, 900)
        with open(run.path, "rb") as fh:
            assert fh.read() == _parent_run_bytes(0, lists)

    def test_temporaries_do_not_grow_with_the_run(self, tmp_path):
        """300 k postings: traced peak stays within the run's own bytes
        (payload, header, the two table columns) plus a fixed budget for one
        block's temporaries -- whole-run arrays would be tens of MB."""
        lists = {
            term_id: _raw_list(range(term_id % 7, 900 + term_id % 7, 3), [1 + term_id % 3] * 300)
            for term_id in range(1000)
        }
        writer, columns = RunWriter(str(tmp_path)), run_of(lists)
        tracemalloc.start()
        try:
            run = writer.write_run(0, columns)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sum(map(len, lists.values())) == 300_000
        assert peak <= 2 * run.byte_size + 16 * run.entry_count + (1 << 20)


class TestDocRangeMap:
    def test_overlap_queries(self, tmp_path):
        mapping = _write_three_runs(str(tmp_path))
        assert [r.run_id for r in mapping.runs_overlapping(0, 9)] == [0]
        assert [r.run_id for r in mapping.runs_overlapping(5, 15)] == [0, 1]
        assert [r.run_id for r in mapping.runs_overlapping(25, 99)] == [2]
        assert mapping.runs_overlapping(100, 200) == []

    def test_save_load_round_trip(self, tmp_path):
        saved = _write_three_runs(str(tmp_path))
        loaded = DocRangeMap.load(str(tmp_path))
        assert [(r.run_id, r.min_doc, r.max_doc) for r in loaded.runs] == [
            (r.run_id, r.min_doc, r.max_doc) for r in saved.runs
        ]


class TestPostingsReader:
    def test_splices_runs_in_order(self, tmp_path):
        _write_three_runs(str(tmp_path))
        reader = PostingsReader(str(tmp_path))
        assert reader.postings(1) == [
            (1, 2), (5, 1), (11, 2), (15, 1), (21, 2), (25, 1),
        ]
        assert reader.postings(3) == [(17, 1)]
        assert reader.postings(99) == []
        assert reader.run_count() == 3

    def test_range_narrowing_touches_fewer_runs(self, tmp_path):
        _write_three_runs(str(tmp_path))
        reader = PostingsReader(str(tmp_path))
        out = reader.postings_in_range(1, 10, 19)
        assert out == [(11, 2), (15, 1)]
        assert reader.partial_fetches == 1  # only run 1 touched

    def test_document_frequency(self, tmp_path):
        _write_three_runs(str(tmp_path))
        reader = PostingsReader(str(tmp_path))
        assert reader.document_frequency(1) == 6
        assert reader.document_frequency(3) == 1

    def test_term_strings_require_dictionary(self, tmp_path):
        _write_three_runs(str(tmp_path))
        reader = PostingsReader(str(tmp_path))
        with pytest.raises(RuntimeError):
            reader.term_id("anything")

    def test_term_strings_with_dictionary(self, tmp_path):
        from repro.dictionary.dictionary import Dictionary
        from repro.dictionary.serialize import save_dictionary

        d = Dictionary()
        tid, _ = d.add_term("parallel")
        writer = RunWriter(str(tmp_path))
        mapping = DocRangeMap()
        mapping.add(writer.write_run(0, run_of({tid: _plist([(4, 2)])})))
        mapping.save(str(tmp_path))
        save_dictionary(d, str(tmp_path / "dictionary.bin"))
        reader = PostingsReader(str(tmp_path))
        assert reader.postings("parallel") == [(4, 2)]
        assert reader.postings("absent") == []
        assert reader.vocabulary() == {"parallel": tid}

    def test_close_frees_the_columns(self, tmp_path):
        _write_three_runs(str(tmp_path))
        reader = PostingsReader(str(tmp_path))
        reader.postings(1)
        assert reader._index is not None
        reader.close()
        assert reader._index is None
        # Reader remains usable: the runs are joined again on demand.
        assert reader.postings(2) == [(3, 4), (13, 4), (23, 4)]
        assert reader._index is not None

    def test_a_full_scan_holds_the_index_once(self, tmp_path):
        """No run is kept decoded beside the joined columns, which hold
        each posting's document and frequency in 4 bytes each."""
        _write_three_runs(str(tmp_path))
        reader = PostingsReader(str(tmp_path))
        postings = sum(len(reader.postings(term)) for term in (1, 2, 3))
        assert postings == 10
        assert not reader._open_runs
        columns = reader._index.docs.nbytes + reader._index.tfs.nbytes
        assert columns == 8 * postings
