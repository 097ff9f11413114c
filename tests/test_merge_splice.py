"""The merge against the run writer, and against malformed runs.

``merge_index`` decodes each window of every run into columns and
encodes the merged lists again.  Its output must be what
``RunWriter.write_run`` writes of the merged lists — same run file, same
``runs.map`` — and a run whose checksum holds but whose lists are
malformed must raise from it and from the reader: a typed error, never a
wrong answer.
"""

from __future__ import annotations

import hashlib
import os
import random
import zlib

import pytest

from repro.dictionary.dictionary import Dictionary
from repro.dictionary.serialize import save_dictionary
from repro.postings import merge, output
from repro.postings.compression import VarByteCodec, encode_uvarint
from repro.postings.merge import merge_index
from repro.postings.output import RUN_MAGIC, DocRangeMap, RunWriter, run_filename
from repro.postings.reader import PostingsReader
from repro.robustness.errors import ChecksumError
from tests.postings_oracle import OraclePostingsList, run_of

#: Every term id below this appears in every run of a seeded index.
_COMMON_TERMS = 4
_RUNS = 6


def _seeded_index(out_dir: str, seed: int) -> dict[int, list[tuple[int, int]]]:
    """A six-run varbyte index with every shape a merge of lists meets.

    Runs 2 and 4 are empty; terms ``0..3`` are in every other run; every
    other term is in one to three runs; lists have 1 to 60 postings;
    gaps (first gaps included) and tfs fall on both sides of the one-
    and two-byte varint boundaries.  Returns the expected merged lists.
    """
    rng = random.Random(seed)
    writer = RunWriter(out_dir)
    mapping = DocRangeMap()
    expected: dict[int, list[tuple[int, int]]] = {}
    homes = {
        term: rng.sample([0, 1, 3, 5], rng.randint(1, 3))
        for term in range(_COMMON_TERMS, 60)
    }
    base = 0
    for run_id in range(_RUNS):
        lists: dict[int, OraclePostingsList] = {}
        top = base
        if run_id not in (2, 4):
            for term in range(60):
                if term >= _COMMON_TERMS and run_id not in homes[term]:
                    continue
                plist = OraclePostingsList()
                # The first doc of a list sets its first gap from the
                # previous run's last doc: keep some under 128, push some
                # past 16 384.
                doc = base + rng.choice([0, 3, 126, 127, 128, 20_000])
                for _ in range(rng.choice([1, 1, 2, 5, 60])):
                    tf = rng.choice([1, 1, 2, 127, 128, 20_000])
                    plist.add_posting(doc, tf)
                    expected.setdefault(term, []).append((doc, tf))
                    doc += rng.choice([1, 1, 2, 127, 128, 16_383, 16_384, 70_000])
                lists[term] = plist
                top = max(top, plist.doc_ids[-1])
        mapping.add(writer.write_run(run_id, run_of(lists)))
        base = top + rng.choice([1, 100, 130, 17_000])
    mapping.save(out_dir)
    return expected


def _index_files(index_dir: str) -> dict[str, bytes]:
    files = {}
    for name in sorted(os.listdir(index_dir)):
        with open(os.path.join(index_dir, name), "rb") as fh:
            files[name] = fh.read()
    return files


def _digest(index_dir: str) -> str:
    sha = hashlib.sha256()
    for name, data in _index_files(index_dir).items():
        sha.update(name.encode("ascii") + b"\0" + data)
    return sha.hexdigest()


class TestSpliceEqualsReencode:
    """The merge writes what ``RunWriter.write_run`` writes of the merged lists."""

    @pytest.mark.parametrize("window", [1, 64, 1 << 16])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_same_files_and_stats(self, tmp_path, monkeypatch, seed, window):
        src = str(tmp_path / "src")
        expected = _seeded_index(src, seed)
        monkeypatch.setattr(merge, "_WINDOW_BYTES", window)
        stats = merge_index(src, str(tmp_path / "merged"))

        lists = {}
        for term, postings in expected.items():
            plist = lists[term] = OraclePostingsList()
            for doc, tf in postings:
                plist.add_posting(doc, tf)
        written = str(tmp_path / "written")
        mapping = DocRangeMap()
        mapping.add(RunWriter(written).write_run(0, run_of(lists)))
        mapping.save(written)

        assert stats["terms"] == len(expected)
        assert stats["postings"] == sum(map(len, expected.values()))
        assert stats["peak_resident_postings"] == max(map(len, expected.values()))
        merged = _index_files(str(tmp_path / "merged"))
        assert sorted(merged) == ["run_00000.post", "runs.map"]
        assert merged == _index_files(written)
        with PostingsReader(str(tmp_path / "merged")) as reader:
            for term, postings in expected.items():
                assert reader.postings(term) == postings

    def test_no_runs(self, tmp_path):
        src, dst = str(tmp_path / "src"), str(tmp_path / "dst")
        os.makedirs(src)
        DocRangeMap().save(src)
        stats = merge_index(src, dst)
        assert stats["terms"] == stats["postings"] == stats["peak_resident_postings"] == 0
        assert PostingsReader(dst).postings(1) == []

    def test_merged_bytes_are_pinned(self, tmp_path):
        """The digest of the run files the decode → re-encode merge wrote
        before the version-2 dictionary; the dictionary is copied byte for
        byte."""
        src, dst = str(tmp_path / "src"), str(tmp_path / "dst")
        _seeded_index(src, 5)
        dictionary = Dictionary()
        for term in ("alpha", "beta", "gamma"):
            dictionary.add_term(term)
        save_dictionary(dictionary, os.path.join(src, "dictionary.bin"))
        merge_index(src, dst)
        assert sorted(os.listdir(dst)) == ["dictionary.bin", "run_00000.post", "runs.map"]
        assert _index_files(dst)["dictionary.bin"] == _index_files(src)["dictionary.bin"]
        os.remove(os.path.join(dst, "dictionary.bin"))
        assert _digest(dst) == _PINNED_DIGEST


#: ``run_00000.post`` and ``runs.map``, recorded before the version-2
#: dictionary format (which changed only ``dictionary.bin``).
_PINNED_DIGEST = "22fe8db922a20f9f3f4afb2c3398f7e47962038f95a4d00c6c990e40c73c6d1d"


# ---------------------------------------------------------------------- #
# Runs whose checksum holds but whose content is wrong
# ---------------------------------------------------------------------- #


def _write_raw_run(
    index_dir: str,
    run_id: int,
    lists: list[tuple[int, bytes]],
    docs: tuple[int, int],
    table: list[tuple[int, int, int]] | None = None,
    codec: str = "varbyte",
) -> output.RunFile:
    """Hand-write a run file with a valid CRC around arbitrary list bytes.

    ``table`` overrides the ``(term_id, offset, length)`` rows that
    ``lists`` implies; ``codec`` is the header's codec name.
    """
    payload = b"".join(data for _, data in lists)
    if table is None:
        table, offset = [], 0
        for term_id, data in lists:
            table.append((term_id, offset, len(data)))
            offset += len(data)
    header = bytearray(RUN_MAGIC)
    encode_uvarint(run_id, header)
    encode_uvarint(len(codec), header)
    header += codec.encode("ascii")
    encode_uvarint(docs[0] + 1, header)
    encode_uvarint(docs[1] + 1, header)
    encode_uvarint(len(table), header)
    for row in table:
        for value in row:
            encode_uvarint(value, header)
    os.makedirs(index_dir, exist_ok=True)
    path = os.path.join(index_dir, run_filename(run_id))
    body = bytes(header) + payload
    with open(path, "wb") as fh:
        fh.write(body + zlib.crc32(body).to_bytes(4, "little"))
    return output.RunFile(path, run_id, docs[0], docs[1], len(table), len(body) + 4)


def _save_map(index_dir: str, runs: list[output.RunFile]) -> None:
    mapping = DocRangeMap()
    for run in runs:
        mapping.add(run)
    mapping.save(index_dir)


_GOOD = VarByteCodec().encode([(3, 1), (9, 2)])  # 02 04 01 06 02

#: name → (term 7's bytes in run 0, an explicit table or None)
_MALFORMED: dict[str, tuple[bytes, list[tuple[int, int, int]] | None]] = {
    "list ends mid-varint": (b"\x02\x04\x01\x06\x82", None),
    "count too high": (b"\x03\x04\x01\x06\x02", None),
    "count too low": (b"\x01\x04\x01\x06\x02", None),
    "zero gap": (b"\x02\x04\x01\x00\x02", None),
    "zero tf": (b"\x02\x04\x00\x06\x02", None),
    # Term 7's entry stops inside the two-byte gap C8 01; term 8's starts there.
    "table offset inside a varint": (
        b"\x01\xc8\x01\x01" + b"\x01\x05\x01",
        [(7, 0, 2), (8, 2, 5)],
    ),
}


class TestMalformedButChecksummed:
    @pytest.mark.parametrize("case", sorted(_MALFORMED))
    def test_typed_error_from_merge_and_reader(self, tmp_path, case):
        src = str(tmp_path / "src")
        data, table = _MALFORMED[case]
        bad = _write_raw_run(src, 0, [(7, data)], (3, 300), table)
        good = _write_raw_run(
            src, 1, [(7, VarByteCodec().encode([(400, 1)]))], (400, 400)
        )
        _save_map(src, [bad, good])
        with pytest.raises((ValueError, EOFError)) as raised:
            merge_index(src, str(tmp_path / "dst"))
        assert not isinstance(raised.value, ChecksumError)
        with PostingsReader(src) as reader:
            with pytest.raises((ValueError, EOFError)):
                reader.postings(7)

    def test_hand_written_runs_are_otherwise_fine(self, tmp_path):
        """The harness above writes runs both sides accept when well formed."""
        src, dst = str(tmp_path / "src"), str(tmp_path / "dst")
        first = _write_raw_run(src, 0, [(7, _GOOD)], (3, 9))
        second = _write_raw_run(
            src, 1, [(7, VarByteCodec().encode([(400, 1)]))], (400, 400)
        )
        _save_map(src, [first, second])
        assert merge_index(src, dst)["postings"] == 3
        assert PostingsReader(dst).postings(7) == [(3, 1), (9, 2), (400, 1)]

    def test_overlapping_doc_ranges(self, tmp_path):
        src = str(tmp_path / "src")
        first = _write_raw_run(src, 0, [(7, _GOOD)], (3, 9))
        second = _write_raw_run(
            src, 1, [(7, VarByteCodec().encode([(9, 1), (12, 1)]))], (9, 12)
        )
        _save_map(src, [first, second])
        with pytest.raises(ValueError, match="overlap"):
            merge_index(src, str(tmp_path / "dst"))
        with PostingsReader(src) as reader:
            with pytest.raises(ValueError, match="overlap"):
                reader.postings(7)

    @pytest.mark.parametrize(
        "table",
        [
            [(7, 0, 5), (7, 5, 5)],  # the same term twice
            [(8, 0, 5), (7, 5, 5)],  # descending terms
            [(7, 0, 5), (8, 6, 4)],  # a hole between the lists
            [(7, 0, 5), (8, 4, 6)],  # lists that share a byte
            [(7, 0, 5), (8, 5, 4)],  # payload bytes no list owns
            [(7, 0, 5)],  # the same, at the end of the table
        ],
    )
    def test_table_must_tile_the_payload(self, tmp_path, table):
        src = str(tmp_path / "src")
        run = _write_raw_run(src, 0, [(7, _GOOD), (8, _GOOD)], (3, 9), table)
        _save_map(src, [run])
        with pytest.raises(ValueError, match="mapping table"):
            merge_index(src, str(tmp_path / "dst"))

    def test_doc_ids_beyond_64_bits(self, tmp_path):
        src = str(tmp_path / "src")
        huge = bytearray(b"\x02")
        for value in (2**62, 1, 2**62, 1):
            encode_uvarint(value, huge)
        run = _write_raw_run(src, 0, [(7, bytes(huge))], (0, 1))
        _save_map(src, [run])
        with pytest.raises(ValueError, match="beyond int32"):
            merge_index(src, str(tmp_path / "dst"))

    def test_flipped_byte_is_a_checksum_error_before_any_splice(
        self, tmp_path, monkeypatch
    ):
        src = str(tmp_path / "src")
        _seeded_index(src, 6)
        path = os.path.join(src, run_filename(3))
        with open(path, "rb") as fh:
            data = bytearray(fh.read())
        data[len(data) // 2] ^= 0x01
        with open(path, "wb") as fh:
            fh.write(data)
        monkeypatch.setattr(merge, "_merged_blocks", None)  # must not be reached
        with pytest.raises(ChecksumError):
            merge_index(src, str(tmp_path / "dst"))
        with PostingsReader(src) as reader:
            with pytest.raises(ChecksumError):
                reader.postings(0)


class TestHeaderParsing:
    """The one header parser, on bytes or a file, whatever the chunk and block sizes."""

    @pytest.mark.parametrize("chunk", [1, 3, 16, 1 << 16])
    @pytest.mark.parametrize("block_rows", [1, 7, 1 << 10])
    def test_round_trip(self, tmp_path, monkeypatch, chunk, block_rows):
        src = str(tmp_path / "src")
        expected = _seeded_index(src, 7)
        monkeypatch.setattr(output, "_STREAM_CHUNK", chunk)
        monkeypatch.setattr(output, "_TABLE_BLOCK_ROWS", block_rows)
        path = os.path.join(src, run_filename(0))
        with open(path, "rb") as fh:
            data = fh.read()
        with open(path, "rb") as fh:
            *head, rows, payload_start = output.read_run_table_from_file(fh)
        *data_head, data_rows, data_start = output.read_run_table(data)
        assert (head, payload_start) == (data_head, data_start)
        assert rows.tolist() == data_rows.tolist()
        run_id, codec_name, min_doc, max_doc = head
        assert (run_id, codec_name) == (0, "varbyte")
        assert rows.dtype.name == "int64" and rows.shape[1] == 3
        codec = VarByteCodec()
        lists = {t: codec.decode(data[o : o + n]) for t, o, n in rows.tolist()}
        assert lists == {
            term: [p for p in postings if p[0] <= max_doc]
            for term, postings in expected.items()
            if postings[0][0] <= max_doc
        }
        assert list(lists) == sorted(lists)  # file order ascends
        assert min_doc == min(p[0][0] for p in lists.values())
        assert rows[0, 1] == payload_start
        assert rows[-1, 1] + rows[-1, 2] == len(data) - output.RUN_CRC_BYTES

    def test_empty_run(self, tmp_path):
        src = str(tmp_path / "src")
        _seeded_index(src, 7)
        with open(os.path.join(src, run_filename(2)), "rb") as fh:
            *_, rows, start = output.read_run_table_from_file(fh)
        assert rows.shape == (0, 3)
        assert start == os.path.getsize(os.path.join(src, run_filename(2))) - 4

    def test_truncated_header(self, tmp_path):
        src = str(tmp_path / "src")
        _seeded_index(src, 7)
        with open(os.path.join(src, run_filename(0)), "rb") as fh:
            data = fh.read()
        payload_start = output.read_run_table(data)[5]
        for cut in (len(RUN_MAGIC) + 1, payload_start // 2, payload_start - 1):
            with pytest.raises(EOFError):
                output.read_run_table(data[:cut])
            path = tmp_path / f"cut{cut}.post"
            path.write_bytes(data[:cut])
            with open(path, "rb") as fh:
                with pytest.raises(ValueError, match="truncated"):
                    output.read_run_table_from_file(fh)
