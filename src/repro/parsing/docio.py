"""Step 1 of the parser: file read, decompression, document-ID assignment.

"Step 1 reads files from disk, decompresses them if necessary, assigns a
local document ID to each document, and builds a table containing
``<document ID, document location on disk>`` mapping."

Local IDs are dense integers starting at 0 within one parsed file; the
pipeline later adds the global offset.  The doc table rows keep the source
file and byte offset so the paper's docID→location lookups are possible.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from repro.corpus.warc import read_packed_file

__all__ = ["DocTableEntry", "LoadedFile", "load_collection_file"]


@dataclass(frozen=True)
class DocTableEntry:
    """One row of the ``<document ID, location>`` table."""

    local_doc_id: int
    source_file: str
    uri: str
    offset: int


@dataclass
class LoadedFile:
    """A decompressed collection file ready for tokenization."""

    path: str
    texts: list[str]
    doc_table: list[DocTableEntry]
    compressed_bytes: int
    uncompressed_bytes: int

    @property
    def num_docs(self) -> int:
        return len(self.texts)


def load_collection_file(path: str) -> LoadedFile:
    """Read + decompress one container file and assign local doc IDs."""
    docs = read_packed_file(path)
    source = os.path.basename(path)
    return LoadedFile(
        path=path,
        texts=[doc.text for doc in docs],
        doc_table=[
            DocTableEntry(local_doc_id=i, source_file=source, uri=doc.uri, offset=doc.offset)
            for i, doc in enumerate(docs)
        ],
        compressed_bytes=os.path.getsize(path),
        uncompressed_bytes=sum(doc.size for doc in docs),
    )
