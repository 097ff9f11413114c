"""Failure injection: corrupt and inconsistent on-disk artifacts.

A downstream system reads these files long after the build; corruption
must surface as clear errors, never as silently wrong postings.
"""

from __future__ import annotations

import os
import re
import zlib

import pytest

from repro.dictionary.dictionary import SHARD_ID_SPACE_BITS, Dictionary
from repro.dictionary.serialize import DICT_MAGIC, load_dictionary, save_dictionary
from repro.postings.doctable import DocTable
from repro.postings.compression import EliasGammaCodec, encode_uvarint, get_codec
from repro.postings.merge import merge_index
from repro.postings.output import (
    RUN_CRC_BYTES,
    RUN_MAGIC,
    DocRangeMap,
    RunFile,
    RunWriter,
    read_run_table,
)
from repro.postings.reader import PostingsReader
from repro.robustness.errors import ChecksumError
from repro.robustness.verify import verify_index
from tests import dictionary_oracle as oracle
from tests.gamma_oracle import BitWriter, OracleGammaCodec
from tests.postings_oracle import OraclePostingsList, run_of


def _plist(pairs):
    pl = OraclePostingsList()
    for d, tf in pairs:
        pl.add_posting(d, tf)
    return pl


def _refresh_crc(data: bytearray) -> bytes:
    """Recompute a run file's trailing CRC after deliberate tampering."""
    body = bytes(data[:-RUN_CRC_BYTES])
    crc = zlib.crc32(body) & 0xFFFFFFFF
    return body + crc.to_bytes(RUN_CRC_BYTES, "little")


def _varints(*values: int) -> bytes:
    out = bytearray()
    for value in values:
        encode_uvarint(value, out)
    return bytes(out)


def _write_crafted_run(
    out_dir: str, rows: list[tuple[int, int, int]], payload: bytes, codec: str = "varbyte"
) -> None:
    """A one-run index whose mapping table and payload are given verbatim
    (rows are ``(term id, payload offset, length)``), CRC valid."""
    name = codec.encode("ascii")
    data = bytearray(RUN_MAGIC) + _varints(0, len(name)) + name + _varints(1, 1 << 40, len(rows))
    for row in rows:
        data += _varints(*row)
    data += payload
    data += (zlib.crc32(data) & 0xFFFFFFFF).to_bytes(RUN_CRC_BYTES, "little")
    path = os.path.join(out_dir, "run_00000.post")
    with open(path, "wb") as fh:
        fh.write(data)
    mapping = DocRangeMap()
    mapping.add(RunFile(path, 0, 0, (1 << 40) - 1, len(rows), len(data)))
    mapping.save(out_dir)


def _tiled(*lists: bytes) -> tuple[list[tuple[int, int, int]], bytes]:
    """Rows for terms 1, 2, ... whose lists lie back to back."""
    rows, offset = [], 0
    for term_id, encoded in enumerate(lists, start=1):
        rows.append((term_id, offset, len(encoded)))
        offset += len(encoded)
    return rows, b"".join(lists)


_GOOD = _varints(2, 1, 1, 4, 2)  # [(0, 1), (4, 2)]


def _gammas(*values: int) -> bytes:
    writer = BitWriter()
    for value in values:
        OracleGammaCodec._write_gamma(writer, value)
    return writer.getvalue()


_GAMMA_GOOD = _gammas(3, 1, 1, 4, 2)  # [(0, 1), (4, 2)]

#: Runs with a valid CRC whose mapping table or lists are malformed.
_MALFORMED_RUNS = {
    "zero gap": _tiled(_varints(2, 1, 1, 0, 1), _GOOD),
    "zero tf": _tiled(_GOOD, _varints(1, 3, 0)),
    "count over the bytes": _tiled(_varints(3, 1, 1, 2, 1), _GOOD),
    "count under the bytes": _tiled(_varints(1, 1, 1, 2, 1), _GOOD),
    "list ends inside a varint": _tiled(_GOOD[:-1] + b"\x81", _varints(1, 1, 1)),
    "rows share bytes": ([(1, 0, len(_GOOD)), (2, 0, len(_GOOD))], _GOOD),
    "gap between rows": ([(1, 0, len(_GOOD)), (2, len(_GOOD) + 1, len(_GOOD))],
                         _GOOD + b"\x01" + _GOOD),
    "bytes after the last row": ([(1, 0, len(_GOOD))], _GOOD + _varints(1, 1, 1)),
    "term ids descend": ([(2, 0, len(_GOOD)), (1, len(_GOOD), len(_GOOD))], _GOOD * 2),
    "doc beyond int32": _tiled(_GOOD, _varints(2, 1, 1, 1 << 31, 1)),
    "tf beyond int32": _tiled(_varints(1, 1, 1 << 31), _GOOD),
    # γ(count + 1 = 2), then the codes of two postings, (0, 1) and (4, 2).
    "gamma count under the bytes": (*_tiled(_gammas(2, 1, 1, 4, 2), _GAMMA_GOOD), "gamma"),
    "gamma trailing byte": (*_tiled(_GAMMA_GOOD + b"\x00", _GAMMA_GOOD), "gamma"),
}

_READS = {
    "postings": lambda reader: reader.postings(1),
    "postings_columns": lambda reader: reader.postings_columns(1),
    "postings_in_range": lambda reader: reader.postings_in_range(1, 0, 1 << 40),
}


def _write_index(out_dir: str) -> None:
    writer = RunWriter(out_dir)
    mapping = DocRangeMap()
    for run_id in range(2):
        mapping.add(
            writer.write_run(run_id, run_of({1: _plist([(run_id * 10, 1), (run_id * 10 + 3, 2)])}))
        )
    mapping.save(out_dir)


class TestCorruptRunFiles:
    def test_truncated_payload_raises(self, tmp_path):
        _write_index(str(tmp_path))
        path = tmp_path / "run_00000.post"
        data = path.read_bytes()
        path.write_bytes(data[:-2])  # chop the payload tail
        reader = PostingsReader(str(tmp_path))
        # The trailing CRC32 no longer matches, so the checksum check
        # fires before any decode is attempted.
        with pytest.raises(ChecksumError):
            reader.postings(1)

    def test_zeroed_header_raises(self, tmp_path):
        _write_index(str(tmp_path))
        path = tmp_path / "run_00001.post"
        path.write_bytes(b"\x00" * 64)
        reader = PostingsReader(str(tmp_path))
        with pytest.raises(ValueError):
            reader.postings(1)

    def test_unknown_codec_name_raises(self, tmp_path):
        _write_index(str(tmp_path))
        path = tmp_path / "run_00000.post"
        data = bytearray(path.read_bytes())
        # Patch the codec name bytes ("varbyte" follows magic + run_id +
        # name length) to an unregistered name of the same length.
        idx = data.find(b"varbyte")
        data[idx : idx + 7] = b"zzzbyte"
        # Refresh the CRC so the *codec* check is what fires, not the
        # checksum (an attacker-grade consistency failure, not bit rot).
        path.write_bytes(_refresh_crc(data))
        reader = PostingsReader(str(tmp_path))
        with pytest.raises(ValueError, match="codec 'zzzbyte' .*rebuild the index"):
            reader.postings(1)

    def test_overlapping_run_doc_ranges_detected(self, tmp_path):
        # Two runs whose documents interleave: splicing must refuse.
        writer = RunWriter(str(tmp_path))
        mapping = DocRangeMap()
        mapping.add(writer.write_run(0, run_of({1: _plist([(0, 1), (10, 1)])})))
        mapping.add(writer.write_run(1, run_of({1: _plist([(5, 1)])})))
        mapping.save(str(tmp_path))
        reader = PostingsReader(str(tmp_path))
        with pytest.raises(ValueError, match="overlap"):
            reader.postings(1)

    def test_overlapping_run_doc_ranges_detected_in_range(self, tmp_path):
        writer = RunWriter(str(tmp_path))
        mapping = DocRangeMap()
        mapping.add(writer.write_run(0, run_of({1: _plist([(0, 1), (10, 1)])})))
        mapping.add(writer.write_run(1, run_of({1: _plist([(5, 1)])})))
        mapping.save(str(tmp_path))
        reader = PostingsReader(str(tmp_path))
        with pytest.raises(ValueError, match="overlap"):
            reader.postings_in_range(1, 0, 20)
        # A range that touches one run has nothing to splice.
        assert reader.postings_in_range(1, 0, 4) == [(0, 1)]

    @pytest.mark.parametrize("read", sorted(_READS))
    @pytest.mark.parametrize("case", sorted(_MALFORMED_RUNS))
    def test_malformed_run_never_reads(self, tmp_path, case, read):
        _write_crafted_run(str(tmp_path), *_MALFORMED_RUNS[case])
        with pytest.raises((ValueError, EOFError)):
            _READS[read](PostingsReader(str(tmp_path)))

    def test_crafted_run_reads_when_well_formed(self, tmp_path):
        _write_crafted_run(str(tmp_path), *_tiled(_GOOD, _varints(1, 1 << 31, 1)))
        reader = PostingsReader(str(tmp_path))
        assert reader.postings(1) == [(0, 1), (4, 2)]
        assert reader.postings(2) == [((1 << 31) - 1, 1)]

    def test_missing_run_file(self, tmp_path):
        _write_index(str(tmp_path))
        os.remove(tmp_path / "run_00001.post")
        with pytest.raises(FileNotFoundError):
            PostingsReader(str(tmp_path))


class TestMalformedRunsEverywhere:
    """The reader, the merge and ``repro verify`` share one open path and
    one table check, so a run one of them rejects none of them accepts."""

    @pytest.mark.parametrize("case", sorted(_MALFORMED_RUNS))
    def test_verify_flags_every_malformed_run(self, tmp_path, case):
        _write_crafted_run(str(tmp_path), *_MALFORMED_RUNS[case])
        result = verify_index(str(tmp_path), keep_going=True)
        assert not result.ok
        assert [issue.check for issue in result.issues] == ["run-format"]

    @pytest.mark.parametrize("case", sorted(_MALFORMED_RUNS))
    def test_merge_rejects_every_malformed_run(self, tmp_path, case):
        src = tmp_path / "src"
        src.mkdir()
        _write_crafted_run(str(src), *_MALFORMED_RUNS[case])
        with pytest.raises((ValueError, EOFError)):
            merge_index(str(src), str(tmp_path / "dst"))

    def test_well_formed_crafted_runs_verify_and_merge(self, tmp_path):
        for codec in ("varbyte", "gamma"):
            src = tmp_path / codec
            src.mkdir()
            lists = [[(0, 1), (4, 2)], [(3, 1)]]
            encoded = [get_codec(codec).encode(postings) for postings in lists]
            _write_crafted_run(str(src), *_tiled(*encoded), codec=codec)
            assert verify_index(str(src)).ok
            assert merge_index(str(src), str(tmp_path / f"{codec}.merged"))["postings"] == 3

    @pytest.mark.parametrize("codec", ["golomb", "zstd"])
    def test_unknown_codec_header_rejected(self, tmp_path, codec):
        """A header naming a codec that does not exist (``golomb`` is a
        deleted one) is a ``ValueError`` naming it, with a rebuild, from
        the reader, the merge and ``verify`` alike -- not a ``KeyError``."""
        src = tmp_path / "src"
        src.mkdir()
        _write_crafted_run(str(src), *_tiled(_GAMMA_GOOD), codec=codec)
        match = f"codec '{codec}' .*rebuild the index"
        for read in _READS.values():
            with pytest.raises(ValueError, match=match):
                read(PostingsReader(str(src)))
        with pytest.raises(ValueError, match=match):
            merge_index(str(src), str(tmp_path / "dst"))
        issues = verify_index(str(src), keep_going=True).issues
        assert [issue.check for issue in issues] == ["run-format"]
        assert re.search(match, issues[0].detail)

    def test_gamma_rows_that_share_bytes(self, tmp_path):
        """The re-encoding merge used to decode the shared list twice,
        writing 4 postings where the run holds 2."""
        src = tmp_path / "src"
        src.mkdir()
        encoded = EliasGammaCodec().encode([(0, 1), (4, 2)])
        rows = [(1, 0, len(encoded)), (2, 0, len(encoded))]
        _write_crafted_run(str(src), rows, encoded, codec="gamma")
        with pytest.raises(ValueError, match="mapping table"):
            merge_index(str(src), str(tmp_path / "dst"))
        assert [issue.check for issue in verify_index(str(src)).issues] == ["run-format"]
        with pytest.raises(ValueError, match="mapping table"):
            PostingsReader(str(src)).postings(1)


class TestMissingArtifacts:
    def test_missing_runs_map(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            PostingsReader(str(tmp_path))

    def test_corrupt_runs_map_line(self, tmp_path):
        _write_index(str(tmp_path))
        with open(tmp_path / "runs.map", "a") as fh:
            fh.write("not a valid line\n")
        with pytest.raises(ValueError):
            PostingsReader(str(tmp_path))


class TestCorruptDictionary:
    def test_truncated_dictionary(self, tmp_path):
        d = Dictionary()
        for t in ["alpha", "beta", "gamma"]:
            d.add_term(t)
        path = str(tmp_path / "dictionary.bin")
        save_dictionary(d, path)
        data = open(path, "rb").read()
        with open(path, "wb") as fh:
            fh.write(data[: len(data) // 2])
        with pytest.raises(ChecksumError):
            load_dictionary(path)

    def test_flipped_dictionary_byte_raises(self, tmp_path):
        d = Dictionary()
        for t in ["alpha", "beta", "gamma"]:
            d.add_term(t)
        path = str(tmp_path / "dictionary.bin")
        save_dictionary(d, path)
        data = bytearray(open(path, "rb").read())
        data[len(data) // 2] ^= 0x40  # one bit, mid-body
        with open(path, "wb") as fh:
            fh.write(bytes(data))
        with pytest.raises(ChecksumError):
            load_dictionary(path)

    # A body with a valid CRC that the writer could not have written:
    # ``collections`` is ``[(cidx, [(lcp, tail, term_id), ...]), ...]``,
    # all in one block, each collection's shard taken from its first id.
    # ``edit(header, columns)`` may change the block header (counts, then
    # column byte lengths) and the column values before they are written.
    @staticmethod
    def _forged(path, collections, trailing=b"", height=3, edit=None):
        records = [record for _, rs in collections for record in rs]
        cidxs = [cidx for cidx, _ in collections]
        columns = [
            [b - a for a, b in zip([-1, *cidxs], cidxs)],
            [rs[0][2] >> SHARD_ID_SPACE_BITS if rs else 0 for _, rs in collections],
            [len(rs) for _, rs in collections],
            [lcp for lcp, _, _ in records],
            [len(tail) for _, tail, _ in records],
            [term_id & ((1 << SHARD_ID_SPACE_BITS) - 1) for _, _, term_id in records],
        ]

        def varints(values):
            out = bytearray()
            for value in values:
                encode_uvarint(value, out)
            return bytes(out)

        header = [len(collections), len(records), *(len(varints(c)) for c in columns)]
        if edit is not None:
            edit(header, columns)
        body = b"".join(
            [DICT_MAGIC, varints([height, 1]), varints(header), *map(varints, columns)]
            + [tail for _, tail, _ in records]
        )
        body += trailing
        with open(path, "wb") as fh:
            fh.write(body + (zlib.crc32(body) & 0xFFFFFFFF).to_bytes(4, "little"))
        return path

    @staticmethod
    def _overrun(header, columns):
        header[-1] += 100  # the id column runs past the end of the body

    @staticmethod
    def _extra_value(header, columns):
        columns[3].append(0)  # two lcps for one term
        header[2 + 3] += 1

    @staticmethod
    def _missing_value(header, columns):
        columns[1].clear()  # no shard id for the collection
        header[2 + 1] = 0

    @staticmethod
    def _first_gap_zero(header, columns):
        columns[0][0] = 0

    @staticmethod
    def _local_overflow(header, columns):
        columns[5][0] = 1 << SHARD_ID_SPACE_BITS
        header[-1] = 6

    @pytest.mark.parametrize(
        "collections, trailing, edit, reason",
        [
            # A collection's first term shares a prefix with nothing
            # (it used to load as {"abc": 7}).
            ([(0, [(3, b"abc", 7)])], b"", None, "first term shares a prefix"),
            # Trailing bytes after the last collection.
            ([(0, [(0, b"abc", 7)])], b"\x00", None, "trailing bytes"),
            # The same suffix twice (the later id used to win).
            ([(0, [(0, b"abc", 1), (0, b"abc", 2)])], b"", None, "do not strictly ascend"),
            # Suffixes in descending order.
            ([(0, [(0, b"b", 1), (0, b"a", 2)])], b"", None, "do not strictly ascend"),
            # A repeated collection index (a gap of 0 after the first).
            ([(0, [(0, b"abc", 1)]), (0, [(0, b"abd", 2)])], b"", None, "gap of 0"),
            # A collection index beyond the trie (it used to raise IndexError).
            ([(10**6, [(0, b"abc", 1)])], b"", None, "must stay below"),
            # A collection with no terms (the writer skips empty trees).
            ([(0, [])], b"", None, "has no terms"),
            # A column whose byte length overruns its block.
            ([(0, [(0, b"abc", 1)])], b"", _overrun, "overrun"),
            # A column holding more values than its count, and one fewer.
            ([(0, [(0, b"abc", 1)])], b"", _extra_value, "holds 2 values, not 1"),
            ([(0, [(0, b"abc", 1)])], b"", _missing_value, "holds 0 values, not 1"),
            # A first collection-index gap of 0 (index -1).
            ([(0, [(0, b"abc", 1)])], b"", _first_gap_zero, "gap of 0"),
            # A local id at 2**40, beyond the shard's id space.
            ([(0, [(0, b"abc", 1)])], b"", _local_overflow, "beyond the shard's id space"),
            # A shard id at 2**23: ``shard << 40`` overflows int64.
            ([(0, [(0, b"abc", 1 << 63)])], b"", None, "overflow a 64-bit term id"),
            # A block with no collections (the writer writes no empty block).
            ([], b"", None, "no collections"),
        ],
        ids=[
            "first-lcp", "trailing", "duplicate", "descending", "repeated-cidx",
            "cidx-range", "empty-collection", "column-overrun", "extra-value",
            "missing-value", "gap-zero", "local-id-range", "shard-range", "empty-block",
        ],
    )
    def test_malformed_body_with_valid_crc_raises(
        self, tmp_path, collections, trailing, edit, reason
    ):
        path = self._forged(str(tmp_path / "dictionary.bin"), collections, trailing, edit=edit)
        with pytest.raises(ValueError, match=reason) as err:
            load_dictionary(path)
        assert not isinstance(err.value, ChecksumError)

    def test_forged_body_is_well_formed(self, tmp_path):
        """``_forged`` writes what the writer writes, so each case above
        fails on its one defect alone."""
        d = Dictionary()
        d.add_term("-abc")  # collection 0: no prefix
        path = str(tmp_path / "dictionary.bin")
        self._forged(path, [(0, [(0, b"-abc", 0)])])
        assert load_dictionary(path) == {"-abc": 0}
        save_dictionary(d, str(tmp_path / "written.bin"))
        assert open(path, "rb").read() == open(tmp_path / "written.bin", "rb").read()

    def test_version_one_file_asks_for_a_rebuild(self, tmp_path):
        _write_index(str(tmp_path))
        d = Dictionary()
        d.add_term("abc")
        dict_path = str(tmp_path / "dictionary.bin")
        oracle.save_dictionary(d, dict_path)  # a CRC-valid RPRODIC1 file
        with pytest.raises(ValueError, match="rebuild") as err:
            load_dictionary(dict_path)
        assert not isinstance(err.value, ChecksumError)
        assert [i.check for i in verify_index(str(tmp_path)).issues] == ["dictionary-format"]

    def test_body_ending_mid_record_raises_eof(self, tmp_path):
        path = self._forged(str(tmp_path / "dictionary.bin"), [(0, [(0, b"abc", 1)])])
        data = open(path, "rb").read()[:-5]  # drop the last tail byte and the footer
        with open(path, "wb") as fh:
            fh.write(data + (zlib.crc32(data) & 0xFFFFFFFF).to_bytes(4, "little"))
        with pytest.raises(EOFError):
            load_dictionary(path)

    def test_verify_tells_format_from_crc(self, tmp_path):
        _write_index(str(tmp_path))
        dict_path = str(tmp_path / "dictionary.bin")
        self._forged(dict_path, [(0, [(0, b"abc", 1)])], trailing=b"\x00")
        assert [i.check for i in verify_index(str(tmp_path)).issues] == ["dictionary-format"]
        data = bytearray(open(dict_path, "rb").read())
        data[10] ^= 0x01
        with open(dict_path, "wb") as fh:
            fh.write(bytes(data))
        assert [i.check for i in verify_index(str(tmp_path)).issues] == ["dictionary-crc"]

    def test_reader_surfaces_dictionary_corruption(self, tmp_path):
        _write_index(str(tmp_path))
        with open(tmp_path / "dictionary.bin", "wb") as fh:
            fh.write(b"JUNKJUNKJUNK")
        with pytest.raises(ValueError):
            PostingsReader(str(tmp_path))


class TestCorruptDocTable:
    def _table(self, tmp_path) -> str:
        table = DocTable()
        for i in range(5):
            table.add(f"file_{i % 2}.warc.gz", f"doc://{i}", i * 100)
        return table.save(str(tmp_path))

    def test_flipped_doctable_byte_raises(self, tmp_path):
        path = self._table(tmp_path)
        data = bytearray(open(path, "rb").read())
        data[len(data) // 3] ^= 0x01
        with open(path, "wb") as fh:
            fh.write(bytes(data))
        with pytest.raises(ChecksumError):
            DocTable.load(str(tmp_path))

    def test_dropped_doctable_row_raises(self, tmp_path):
        path = self._table(tmp_path)
        lines = open(path, "r").readlines()
        with open(path, "w") as fh:
            fh.writelines(lines[:2] + lines[3:])  # silently lose doc 2
        with pytest.raises(ValueError):
            DocTable.load(str(tmp_path))

    def test_doctable_round_trips(self, tmp_path):
        self._table(tmp_path)
        table = DocTable.load(str(tmp_path))
        assert len(table) == 5
        assert table.lookup(3).uri == "doc://3"


class TestCorruptRunsMap:
    def test_flipped_map_byte_raises(self, tmp_path):
        _write_index(str(tmp_path))
        path = tmp_path / "runs.map"
        data = bytearray(path.read_bytes())
        # Flip a digit inside the body (not in the #crc line).
        idx = data.index(b"\t")
        data[idx + 1] ^= 0x01
        path.write_bytes(bytes(data))
        with pytest.raises(ChecksumError):
            DocRangeMap.load(str(tmp_path))


class TestHeaderParser:
    def test_header_fields_robust(self, tmp_path):
        writer = RunWriter(str(tmp_path))
        run = writer.write_run(3, run_of({9: _plist([(4, 2)])}))
        data = open(run.path, "rb").read()
        run_id, codec, min_doc, max_doc, table, payload_start = read_run_table(data)
        assert run_id == 3 and codec == "varbyte"
        assert (min_doc, max_doc) == (4, 4)
        assert table[:, 0].tolist() == [9]
        assert payload_start < len(data)
