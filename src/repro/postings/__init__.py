"""Postings lists, compression codecs, and the paper's run-output format.

Section II notes that "almost all the above strategies perform compression
on the postings lists": document IDs are sorted inside each list, so gaps
between neighbours are encoded with variable-byte or Elias-γ codes.
Section III.F defines the on-disk layout: one output file per *run* whose
header holds a mapping table from postings pointers to (offset, length)
pairs, plus an auxiliary file mapping document-ID ranges to run files so a
query restricted to a docID range touches only overlapping partial lists.

- :mod:`repro.postings.compression` — gap transform + the codecs, the one
  owner of the list bytes (per list, and blocks of lists as columns).
- :mod:`repro.postings.lists` — in-memory accumulation during a run.
- :mod:`repro.postings.output` — run files with header mapping tables.
- :mod:`repro.postings.reader` — term → merged postings across runs.
- :mod:`repro.postings.merge` — the optional post-processing step that
  joins partial lists into one monolithic list per term.
"""

from repro.postings.compression import (
    CODECS,
    EliasGammaCodec,
    PostingsCodec,
    VarByteCodec,
    VarBytePositionalCodec,
    decode_uvarint,
    encode_uvarint,
    get_codec,
)
from repro.postings.doctable import DocTable, DocTableRow
from repro.postings.lists import PostingsAccumulator, PostingsList, RunPostings
from repro.postings.merge import merge_index
from repro.postings.output import DocRangeMap, RunWriter
from repro.postings.reader import PostingsReader

__all__ = [
    "PostingsCodec",
    "VarByteCodec",
    "VarBytePositionalCodec",
    "EliasGammaCodec",
    "CODECS",
    "get_codec",
    "encode_uvarint",
    "decode_uvarint",
    "PostingsList",
    "PostingsAccumulator",
    "RunPostings",
    "RunWriter",
    "DocRangeMap",
    "DocTable",
    "DocTableRow",
    "PostingsReader",
    "merge_index",
]
