"""The optional post-processing merge of partial postings lists."""

from __future__ import annotations

import os

import pytest

from repro.postings.compression import (
    GolombCodec,
    PostingsCodec,
    VarByteCodec,
    VarBytePositionalCodec,
)
from repro.postings.merge import merge_index
from repro.postings.output import DocRangeMap, RunWriter, read_run_table_from_file
from repro.postings.reader import PostingsReader
from tests.postings_oracle import OraclePostingsList, run_of


def _build_multi_run(
    out_dir: str, runs: int = 4, codec: PostingsCodec | None = None
) -> None:
    writer = RunWriter(out_dir, codec=codec)
    mapping = DocRangeMap()
    for run_id in range(runs):
        lists = {}
        for term in range(1, 6):
            pl = OraclePostingsList()
            pl.add_posting(run_id * 100 + term, term)
            pl.add_posting(run_id * 100 + term + 10, 1)
            lists[term] = pl
        mapping.add(writer.write_run(run_id, run_of(lists)))
    mapping.save(out_dir)


def _merged_run_codec_name(index_dir: str) -> str:
    with open(os.path.join(index_dir, "run_00000.post"), "rb") as fh:
        return read_run_table_from_file(fh)[1]


class TestMerge:
    def test_single_monolithic_run(self, tmp_path):
        src, dst = str(tmp_path / "src"), str(tmp_path / "dst")
        _build_multi_run(src)
        stats = merge_index(src, dst)
        assert stats["input_runs"] == 4
        assert stats["terms"] == 5
        merged = PostingsReader(dst)
        assert merged.run_count() == 1

    def test_postings_identical_after_merge(self, tmp_path):
        src, dst = str(tmp_path / "src"), str(tmp_path / "dst")
        _build_multi_run(src)
        merge_index(src, dst)
        before, after = PostingsReader(src), PostingsReader(dst)
        for term in range(1, 6):
            assert before.postings(term) == after.postings(term)

    def test_merge_with_different_codec(self, tmp_path):
        src, dst = str(tmp_path / "src"), str(tmp_path / "dst")
        _build_multi_run(src)
        merge_index(src, dst, codec=GolombCodec())
        assert PostingsReader(dst).postings(3) == PostingsReader(src).postings(3)

    def test_dictionary_copied(self, tmp_path):
        from repro.dictionary.dictionary import Dictionary
        from repro.dictionary.serialize import save_dictionary

        src, dst = str(tmp_path / "src"), str(tmp_path / "dst")
        _build_multi_run(src)
        d = Dictionary()
        d.add_term("alpha")
        save_dictionary(d, f"{src}/dictionary.bin")
        merge_index(src, dst)
        assert (tmp_path / "dst" / "dictionary.bin").exists()


class TestCodecPreservation:
    """Regression: ``codec=None`` must keep the run codec unconditionally.

    The old code only preserved the input codec when it was positional, so
    a golomb-encoded index silently came out varbyte-encoded.
    """

    def test_non_positional_codec_preserved(self, tmp_path):
        src, dst = str(tmp_path / "src"), str(tmp_path / "dst")
        _build_multi_run(src, codec=GolombCodec())
        merge_index(src, dst)
        assert _merged_run_codec_name(dst) == "golomb"
        assert PostingsReader(dst).postings(3) == PostingsReader(src).postings(3)

    def test_positional_codec_still_preserved(self, tmp_path):
        src, dst = str(tmp_path / "src"), str(tmp_path / "dst")
        writer = RunWriter(src, codec=VarBytePositionalCodec())
        mapping = DocRangeMap()
        for run_id in range(3):
            pl = OraclePostingsList()
            pl.add_posting(run_id * 10 + 1, 2, [0, 4])
            pl.add_posting(run_id * 10 + 5, 1, [7])
            mapping.add(writer.write_run(run_id, run_of({1: pl})))
        mapping.save(src)
        merge_index(src, dst)
        assert _merged_run_codec_name(dst) == "varbyte-pos"
        assert PostingsReader(dst).postings(1) == PostingsReader(src).postings(1)

    def test_explicit_codec_still_wins(self, tmp_path):
        src, dst = str(tmp_path / "src"), str(tmp_path / "dst")
        _build_multi_run(src, codec=GolombCodec())
        merge_index(src, dst, codec=VarByteCodec())
        assert _merged_run_codec_name(dst) == "varbyte"

    def test_mixed_codec_run_set_rejected(self, tmp_path):
        src, dst = str(tmp_path / "src"), str(tmp_path / "dst")
        mapping = DocRangeMap()
        for run_id, codec in enumerate([VarByteCodec(), GolombCodec()]):
            writer = RunWriter(src, codec=codec)
            pl = OraclePostingsList()
            pl.add_posting(run_id * 10 + 1, 1)
            mapping.add(writer.write_run(run_id, run_of({1: pl})))
        mapping.save(src)
        with pytest.raises(ValueError, match="mixed codecs"):
            merge_index(src, dst)


class TestStreamingMerge:
    """Regression: the merge must not hold all postings resident at once."""

    def test_peak_resident_bounded_by_largest_term(self, tmp_path):
        src, dst = str(tmp_path / "src"), str(tmp_path / "dst")
        writer = RunWriter(src)
        mapping = DocRangeMap()
        runs, heavy_docs_per_run = 4, 25
        for run_id in range(runs):
            base = run_id * 1000
            heavy = OraclePostingsList()
            for d in range(heavy_docs_per_run):
                heavy.add_posting(base + d, 1)
            lists = {1: heavy}
            for term in range(2, 8):
                pl = OraclePostingsList()
                pl.add_posting(base + term, 1)
                lists[term] = pl
            mapping.add(writer.write_run(run_id, run_of(lists)))
        mapping.save(src)
        stats = merge_index(src, dst)
        # Peak equals the heaviest single term's merged list — never the
        # whole index, which is what the dict-of-everything merge held.
        assert stats["peak_resident_postings"] == runs * heavy_docs_per_run
        assert stats["peak_resident_postings"] < stats["postings"]
        merged = PostingsReader(dst)
        assert len(merged.postings(1)) == runs * heavy_docs_per_run

    def test_header_parse_survives_chunk_boundaries(self, tmp_path, monkeypatch):
        """Regression: a header cut mid-uvarint at the chunk boundary.

        ``read_run_table_from_file`` buffers the file in fixed chunks and
        retries the parse; a chunk ending inside a uvarint raises EOFError
        (not IndexError), which used to escape and crash the merge on any
        run whose header exceeded one chunk.  Shrinking the chunk size
        forces every boundary case through the retry loop.
        """
        from repro.postings import output

        src = str(tmp_path / "src")
        _build_multi_run(src, runs=1)
        path = os.path.join(src, "run_00000.post")
        with open(path, "rb") as fh:
            expected = output.read_run_table(fh.read())
        for chunk in (1, 3, 16):
            monkeypatch.setattr(output, "_STREAM_CHUNK", chunk)
            with open(path, "rb") as fh:
                *head, table, payload_start = output.read_run_table_from_file(fh)
            assert (*head, payload_start) == (*expected[:4], expected[5])
            assert table.tolist() == expected[4].tolist()
