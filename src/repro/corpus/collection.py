"""On-disk collection handle and Table III statistics.

:class:`Collection` wraps a directory of packed container files plus a
manifest; :func:`collection_statistics` computes the paper's Table III rows
(compressed/uncompressed size, documents, distinct terms, tokens) by
actually parsing the collection — terms are counted *post* stemming and
stop-word removal, matching how the paper's numbers are defined.
"""

from __future__ import annotations

import os
import shutil
from dataclasses import dataclass, field

__all__ = [
    "Collection",
    "CollectionStats",
    "collection_statistics",
    "QUARANTINE_DIRNAME",
    "QUARANTINE_LOG",
]

_MANIFEST = "manifest.tsv"
QUARANTINE_DIRNAME = "quarantine"
QUARANTINE_LOG = "quarantine.log"


@dataclass
class Collection:
    """A generated (or loaded) document collection on disk."""

    name: str
    directory: str
    files: list[str]
    file_segments: list[str] = field(default_factory=list)
    compressed_bytes: int = 0
    uncompressed_bytes: int = 0
    num_docs: int = 0
    seed: int = 0
    #: Documents dropped by an ``on_error="skip"`` ingest (reasons).
    ingest_skipped: list[str] = field(default_factory=list)

    @property
    def num_files(self) -> int:
        return len(self.files)

    def segment_of(self, file_index: int) -> str:
        """Segment name of the i-th file ('' when unknown)."""
        if file_index < len(self.file_segments):
            return self.file_segments[file_index]
        return ""

    # ------------------------------------------------------------------ #
    # Quarantine (the ``on_error=quarantine`` build policy)
    # ------------------------------------------------------------------ #

    def quarantine_file(
        self, file_index: int, reason: str, quarantine_dir: str | None = None
    ) -> str:
        """Move a corrupt container aside and log why.

        The file lands in ``<quarantine_dir>/<basename>`` (default:
        ``quarantine/`` inside the collection directory) and a line is
        appended to ``quarantine.log`` there — enough for an operator to
        triage bad inputs without re-reading the collection.  The
        in-memory file list keeps its slot (file indices must stay stable
        for the build's run accounting); the path simply no longer exists
        for future loads.  Returns the destination path.
        """
        src = self.files[file_index]
        dest_dir = quarantine_dir or os.path.join(self.directory, QUARANTINE_DIRNAME)
        os.makedirs(dest_dir, exist_ok=True)
        dest = os.path.join(dest_dir, os.path.basename(src))
        if os.path.exists(src):
            shutil.move(src, dest)
        with open(os.path.join(dest_dir, QUARANTINE_LOG), "a", encoding="utf-8") as fh:
            fh.write(f"{os.path.basename(src)}\t{reason}\n")
        return dest

    # ------------------------------------------------------------------ #
    # Manifest persistence
    # ------------------------------------------------------------------ #

    def save_manifest(self) -> str:
        """Write ``manifest.tsv`` so the collection reloads cheaply."""
        path = os.path.join(self.directory, _MANIFEST)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(
                f"#collection\t{self.name}\t{self.compressed_bytes}\t"
                f"{self.uncompressed_bytes}\t{self.num_docs}\t{self.seed}\n"
            )
            for i, fpath in enumerate(self.files):
                seg = self.segment_of(i)
                fh.write(f"{os.path.basename(fpath)}\t{seg}\n")
        return path

    @classmethod
    def load(cls, name: str, directory: str) -> "Collection":
        """Reload a collection from its manifest."""
        path = os.path.join(directory, _MANIFEST)
        with open(path, "r", encoding="utf-8") as fh:
            header = fh.readline().rstrip("\n").split("\t")
            _, mname, comp, uncomp, ndocs, seed = header
            files: list[str] = []
            segments: list[str] = []
            for line in fh:
                fname, seg = line.rstrip("\n").split("\t")
                files.append(os.path.join(directory, fname))
                segments.append(seg)
        return cls(
            name=mname,
            directory=directory,
            files=files,
            file_segments=segments,
            compressed_bytes=int(comp),
            uncompressed_bytes=int(uncomp),
            num_docs=int(ndocs),
            seed=int(seed),
        )


@dataclass
class CollectionStats:
    """Table III row: the paper's per-collection statistics."""

    name: str
    compressed_bytes: int
    uncompressed_bytes: int
    num_docs: int
    num_terms: int
    num_tokens: int

    @property
    def tokens_per_doc(self) -> float:
        return self.num_tokens / self.num_docs if self.num_docs else 0.0

    @property
    def compression_ratio(self) -> float:
        if not self.compressed_bytes:
            return 0.0
        return self.uncompressed_bytes / self.compressed_bytes


def collection_statistics(collection: Collection, strip_html: bool = True) -> CollectionStats:
    """Parse a collection end-to-end and compute its Table III row.

    Tokens are counted after stop-word removal and terms are distinct
    stemmed forms — the definitions behind the paper's 32.6G tokens /
    84.8M terms for ClueWeb09.
    """
    from repro.parsing.parser import Parser

    parser = Parser(parser_id=0, strip_html=strip_html)
    terms: set[tuple[int, bytes]] = set()
    tokens = 0
    docs = 0
    for seq, path in enumerate(collection.files):
        parsed = parser.parse_file(path, sequence=seq)
        docs += parsed.batch.num_docs
        tokens += parsed.batch.total_tokens
        batch = parsed.batch
        terms.update(zip(batch.entry_cidx.tolist(), batch.entry_suffix))
    return CollectionStats(
        name=collection.name,
        compressed_bytes=collection.compressed_bytes,
        uncompressed_bytes=collection.uncompressed_bytes,
        num_docs=docs,
        num_terms=len(terms),
        num_tokens=tokens,
    )
