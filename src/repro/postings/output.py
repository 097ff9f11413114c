"""Run output files with header mapping tables (Section III.F).

"A separate output file is created for the postings lists generated during a
single run, whose header contains a mapping table indicating the location
and length of each postings list.  This mapping table is indexed by the
pointers to postings lists stored in the dictionary."

On-disk format of one run file::

    magic  b"RPRORUN1"                       8 bytes
    uvarint run_id
    uvarint codec-name length, codec name    (self-describing)
    uvarint min_doc_id + 1, uvarint max_doc_id + 1   (0 when run is empty)
    uvarint n_entries
    n_entries × (uvarint term_id, uvarint offset, uvarint length)
    payload: concatenated codec-encoded postings lists
    footer: CRC32 of everything above, 4 bytes little-endian

Offsets are relative to the payload start so the header can be built after
the payload without back-patching.  The mapping table is a sorted integer
sequence, and three invariants are part of the format: term ids strictly
ascend, every list is at least one byte, and the lists tile the payload —
the first starts at offset 0, each next one where the previous ends, the
last where the footer begins.  :func:`read_run_table` is the one parser of
the header and checks all three, so the postings reader, the merge and
``repro verify`` each get a table they can index by or a ``ValueError``.

The trailing CRC32 covers header and payload;
:class:`~repro.postings.reader.PostingsReader` refuses to serve a run whose
checksum does not match, so a flipped byte anywhere in the file surfaces
as a :class:`~repro.robustness.errors.ChecksumError`, never as silently
wrong postings.  The auxiliary docID→file map the paper describes
("an auxiliary file containing the mapping of document IDs to output file
names") is :class:`DocRangeMap`, stored as ``runs.map`` — one line per
run: ``run_id  min_doc  max_doc  filename``, ending with a ``#crc``
comment line checksumming the map itself.
"""

from __future__ import annotations

import os
import zlib
from array import array
from dataclasses import dataclass
from typing import BinaryIO, Iterable, Iterator, Sequence

import numpy as np

from repro.postings.compression import (
    PostingsCodec,
    VarByteCodec,
    decode_uvarint,
    decode_uvarints,
    encode_uvarint,
    encode_uvarints,
    skip_uvarints,
)
from repro.postings.lists import RunPostings
from repro.robustness.errors import ChecksumError

__all__ = [
    "RunWriter",
    "RunFile",
    "DocRangeMap",
    "RUN_MAGIC",
    "RUN_CRC_BYTES",
    "run_filename",
    "verify_run_bytes",
    "verify_run_file",
    "read_run_table",
    "read_run_table_from_file",
]

RUN_MAGIC = b"RPRORUN1"
MAP_FILENAME = "runs.map"
#: Width of the little-endian CRC32 footer at the end of every run file.
RUN_CRC_BYTES = 4
#: Chunk size for streaming CRC verification / payload copying.
_STREAM_CHUNK = 1 << 16
#: Mapping-table rows encoded or decoded in one step.
_TABLE_BLOCK_ROWS = 1 << 10
#: Postings after which :meth:`RunWriter.write_run` closes a block.  The
#: varbyte encoder's temporaries are a few ``int64`` per value, two values
#: a posting; at this size each stays below the allocator's mmap threshold
#: (unless one list alone is longer), so a large run leaves no large hole.
_BLOCK_POSTINGS = 1 << 12


def run_filename(run_id: int) -> str:
    """Canonical run file name, e.g. ``run_00003.post``."""
    return f"run_{run_id:05d}.post"


#: A stretch of already-encoded lists for
#: :meth:`RunWriter.write_encoded_run`: ``(term ids, each list's byte
#: length, the lists' bytes back to back, lowest doc, highest doc)``.
EncodedBlock = tuple[Sequence[int], Sequence[int], bytes, int, int]


def _encode_header(
    codec_name: str,
    run_id: int,
    min_doc: int | None,
    max_doc: int | None,
    term_ids: Sequence[int],
    lengths: Sequence[int],
) -> bytearray:
    """Everything before the payload; lists lie back to back from offset 0."""
    term_ids = np.asarray(term_ids, dtype=np.int64)
    lengths = np.asarray(lengths, dtype=np.int64)
    descents = np.flatnonzero(term_ids[1:] <= term_ids[:-1])
    if descents.size:
        at = int(descents[0])
        raise ValueError(
            f"a run file needs strictly ascending term ids, "
            f"got {term_ids[at + 1]} after {term_ids[at]}"
        )
    header = bytearray(RUN_MAGIC)
    encode_uvarint(run_id, header)
    name_bytes = codec_name.encode("ascii")
    encode_uvarint(len(name_bytes), header)
    header.extend(name_bytes)
    encode_uvarint(0 if min_doc is None else min_doc + 1, header)
    encode_uvarint(0 if max_doc is None else max_doc + 1, header)
    encode_uvarint(len(term_ids), header)
    offset = 0
    for lo in range(0, len(term_ids), _TABLE_BLOCK_ROWS):
        block = lengths[lo : lo + _TABLE_BLOCK_ROWS]
        ends = offset + np.cumsum(block)
        rows = np.column_stack((term_ids[lo : lo + _TABLE_BLOCK_ROWS], ends - block, block))
        header += encode_uvarints(rows.ravel())[0]
        offset = int(ends[-1])
    return header


class RunWriter:
    """Serializes one run's postings lists into a run file.

    ``num_stripes > 1`` spreads run files round-robin over ``disk0`` …
    ``diskN-1`` subdirectories — the paper's §III.F observation that "the
    output files can be written onto multiple disks", enabling parallel
    reads of the partial postings lists.  The docID-range map references
    stripe-relative paths, so readers need no configuration.
    """

    def __init__(
        self,
        output_dir: str,
        codec: PostingsCodec | None = None,
        num_stripes: int = 1,
    ) -> None:
        if num_stripes < 1:
            raise ValueError(f"need at least one stripe, got {num_stripes}")
        self.output_dir = output_dir
        self.codec = codec if codec is not None else VarByteCodec()
        self.num_stripes = num_stripes
        os.makedirs(output_dir, exist_ok=True)
        self._stripe_dirs = [output_dir]
        if num_stripes > 1:
            self._stripe_dirs = [
                os.path.join(output_dir, f"disk{i}") for i in range(num_stripes)
            ]
            for d in self._stripe_dirs:
                os.makedirs(d, exist_ok=True)

    def stripe_dir(self, run_id: int) -> str:
        """Directory ("disk") that run ``run_id`` lands on."""
        return self._stripe_dirs[run_id % self.num_stripes]

    def write_run(self, run_id: int, run: RunPostings) -> "RunFile":
        """Compress and write a run's lists; return its descriptor.

        The columns go to the codec's :meth:`~PostingsCodec.encode_lists`
        in slices, a block of about :data:`_BLOCK_POSTINGS` postings at a
        time; :meth:`write_encoded_run` writes the file.
        """
        return self.write_encoded_run(run_id, self._blocks(run))

    def _blocks(self, run: RunPostings) -> Iterator[EncodedBlock]:
        ends = np.cumsum(run.counts)
        positions = run.positions if self.codec.positional else None
        lo = first = position = 0
        while lo < len(ends):
            # The list that fills the block closes it.
            hi = min(int(np.searchsorted(ends, first + _BLOCK_POSTINGS)) + 1, len(ends))
            last = int(ends[hi - 1])
            docs, tfs = run.docs[first:last], run.tfs[first:last]
            block_positions = None
            if positions is not None:
                block_positions = positions[position : position + int(tfs.sum())]
                position += len(block_positions)
            data, lengths = self.codec.encode_lists(
                run.counts[lo:hi], docs, tfs, block_positions
            )
            yield (
                run.term_ids[lo:hi].tolist(), lengths.tolist(), data,
                int(docs.min()), int(docs.max()),
            )
            lo, first = hi, last

    def write_encoded_run(
        self, run_id: int, blocks: Iterable[EncodedBlock]
    ) -> "RunFile":
        """Write a run from blocks of lists already in this writer's codec.

        The payload streams into a sibling temp file while the mapping
        table accumulates as two integer columns, then header, payload
        copy and trailing CRC are written in one pass.  Offsets are
        payload-relative (see the module docstring), which is what makes
        the two-pass layout possible without back-patching.  Term ids
        must ascend strictly; a ``ValueError`` says where they do not,
        and no run file is written.
        """
        filename = run_filename(run_id)
        path = os.path.join(self.stripe_dir(run_id), filename)
        tmp_path = path + ".payload.tmp"
        term_ids = array("q")
        lengths = array("q")
        min_doc: int | None = None
        max_doc: int | None = None
        payload_len = 0
        try:
            with open(tmp_path, "wb") as payload_fh:
                for block_ids, block_lengths, payload, lo, hi in blocks:
                    term_ids.extend(block_ids)
                    lengths.extend(block_lengths)
                    payload_fh.write(payload)
                    payload_len += len(payload)
                    min_doc = lo if min_doc is None else min(min_doc, lo)
                    max_doc = hi if max_doc is None else max(max_doc, hi)

            header = _encode_header(
                self.codec.name, run_id, min_doc, max_doc, term_ids, lengths
            )
            crc = zlib.crc32(header)
            with open(path, "wb") as fh:
                fh.write(header)
                with open(tmp_path, "rb") as payload_fh:
                    while True:
                        chunk = payload_fh.read(_STREAM_CHUNK)
                        if not chunk:
                            break
                        crc = zlib.crc32(chunk, crc)
                        fh.write(chunk)
                fh.write((crc & 0xFFFFFFFF).to_bytes(RUN_CRC_BYTES, "little"))
        finally:
            if os.path.exists(tmp_path):
                os.remove(tmp_path)
        return RunFile(
            path=path,
            run_id=run_id,
            min_doc=min_doc,
            max_doc=max_doc,
            entry_count=len(term_ids),
            byte_size=len(header) + payload_len + RUN_CRC_BYTES,
        )


def verify_run_bytes(path: str, data: bytes) -> None:
    """Check a run file's trailing CRC32 over its full bytes.

    Raises :class:`ChecksumError` on mismatch and ``ValueError`` when the
    file is too short to even carry a footer.
    """
    if len(data) < len(RUN_MAGIC) + RUN_CRC_BYTES:
        raise ValueError(f"{path} is too short to be a run file ({len(data)} bytes)")
    stored = int.from_bytes(data[-RUN_CRC_BYTES:], "little")
    actual = zlib.crc32(memoryview(data)[:-RUN_CRC_BYTES]) & 0xFFFFFFFF
    if stored != actual:
        raise ChecksumError(path, stored, actual)


def verify_run_file(path: str) -> int:
    """Streaming equivalent of :func:`verify_run_bytes`: constant memory.

    Reads the file in chunks, never holding more than one chunk resident
    — the merge path uses this so verification cost does not scale with
    run size in memory.  Returns the file's total byte size.
    """
    size = os.path.getsize(path)
    if size < len(RUN_MAGIC) + RUN_CRC_BYTES:
        raise ValueError(f"{path} is too short to be a run file ({size} bytes)")
    crc = 0
    remaining = size - RUN_CRC_BYTES
    with open(path, "rb") as fh:
        while remaining:
            chunk = fh.read(min(_STREAM_CHUNK, remaining))
            if not chunk:
                raise ValueError(f"{path} truncated while verifying")
            crc = zlib.crc32(chunk, crc)
            remaining -= len(chunk)
        stored = int.from_bytes(fh.read(RUN_CRC_BYTES), "little")
    actual = crc & 0xFFFFFFFF
    if stored != actual:
        raise ChecksumError(path, stored, actual)
    return size


@dataclass
class RunFile:
    """Descriptor of a written run file (fed into :class:`DocRangeMap`)."""

    path: str
    run_id: int
    min_doc: int | None
    max_doc: int | None
    entry_count: int
    byte_size: int

    @property
    def filename(self) -> str:
        return os.path.basename(self.path)

    def overlaps(self, lo: int, hi: int) -> bool:
        """Whether this run holds any document in ``[lo, hi]``."""
        if self.min_doc is None or self.max_doc is None:
            return False
        return self.min_doc <= hi and lo <= self.max_doc


class DocRangeMap:
    """The auxiliary docID-range → run-file map."""

    def __init__(self) -> None:
        self.runs: list[RunFile] = []

    def add(self, run: RunFile) -> None:
        self.runs.append(run)

    def runs_overlapping(self, lo: int, hi: int) -> list[RunFile]:
        """Run files that may hold postings for documents in ``[lo, hi]``."""
        return [r for r in self.runs if r.overlaps(lo, hi)]

    def save(self, output_dir: str) -> str:
        """Write ``runs.map`` into the index root.

        Run paths are stored relative to ``output_dir``, so striped
        layouts (runs spread over several "disk" subdirectories, §III.F's
        parallel-reading benefit) round-trip transparently.
        """
        path = os.path.join(output_dir, MAP_FILENAME)
        body = []
        for run in sorted(self.runs, key=lambda r: r.run_id):
            lo = -1 if run.min_doc is None else run.min_doc
            hi = -1 if run.max_doc is None else run.max_doc
            rel = os.path.relpath(run.path, output_dir)
            body.append(f"{run.run_id}\t{lo}\t{hi}\t{rel}\n")
        text = "".join(body)
        crc = zlib.crc32(text.encode("ascii")) & 0xFFFFFFFF
        with open(path, "w", encoding="ascii") as fh:
            fh.write(text)
            fh.write(f"#crc\t{crc:08x}\n")
        return path

    @classmethod
    def load(cls, output_dir: str) -> "DocRangeMap":
        """Read ``runs.map`` back; sizes/entry counts are read lazily.

        The trailing ``#crc`` line (when present) is verified over the
        preceding body, so a damaged map never silently drops a run.
        """
        path = os.path.join(output_dir, MAP_FILENAME)
        mapping = cls()
        with open(path, "r", encoding="ascii") as fh:
            lines = fh.readlines()
        body: list[str] = []
        stored_crc: int | None = None
        for line in lines:
            if line.startswith("#crc"):
                stored_crc = int(line.rstrip("\n").split("\t")[1], 16)
            elif not line.startswith("#"):
                body.append(line)
        if stored_crc is not None:
            actual = zlib.crc32("".join(body).encode("ascii")) & 0xFFFFFFFF
            if actual != stored_crc:
                raise ChecksumError(path, stored_crc, actual)
        for line in body:
            run_id_s, lo_s, hi_s, filename = line.rstrip("\n").split("\t")
            lo, hi = int(lo_s), int(hi_s)
            mapping.add(
                RunFile(
                    path=os.path.join(output_dir, filename),
                    run_id=int(run_id_s),
                    min_doc=None if lo < 0 else lo,
                    max_doc=None if hi < 0 else hi,
                    entry_count=-1,
                    byte_size=os.path.getsize(os.path.join(output_dir, filename)),
                )
            )
        mapping.runs.sort(key=lambda r: r.run_id)
        return mapping


#: A parsed run header: ``(run_id, codec name, min_doc, max_doc, mapping
#: table, payload start)``; see :func:`read_run_table`.
RunTable = tuple[int, str, int | None, int | None, np.ndarray, int]


def _parse_header(data: bytes, payload_end: int) -> RunTable:
    """:func:`read_run_table` of a file whose payload ends at ``payload_end``."""
    if data[: len(RUN_MAGIC)] != RUN_MAGIC:
        raise ValueError("not a run file (bad magic)")
    pos = len(RUN_MAGIC)
    run_id, pos = decode_uvarint(data, pos)
    name_len, pos = decode_uvarint(data, pos)
    codec_name = data[pos : pos + name_len].decode("ascii")
    pos += name_len
    min_plus, pos = decode_uvarint(data, pos)
    max_plus, pos = decode_uvarint(data, pos)
    n_entries, pos = decode_uvarint(data, pos)
    payload_start = skip_uvarints(data, pos, 3 * n_entries)
    table = np.concatenate(
        [np.empty((0, 3), dtype=np.int64), *_table_blocks(data, pos, n_entries, payload_start)]
    )
    term_ids, offsets, lengths = table.T
    if np.any(term_ids[1:] <= term_ids[:-1]):
        raise ValueError("run mapping table term ids do not ascend")
    ends = np.concatenate(([payload_start], offsets + lengths))
    if np.any(lengths < 1) or np.any(offsets != ends[:-1]) or ends[-1] != payload_end:
        raise ValueError("run mapping table does not tile the payload")
    return (
        run_id,
        codec_name,
        min_plus - 1 if min_plus else None,
        max_plus - 1 if max_plus else None,
        table,
        payload_start,
    )


def _table_blocks(
    data: bytes, pos: int, n_entries: int, payload_start: int
) -> Iterator[np.ndarray]:
    """The mapping table at ``pos`` as ``(rows, 3)`` arrays of bounded size.

    Rows are ``(term_id, absolute offset, length)``.  Blocks keep every
    temporary small however long the table is.
    """
    while n_entries:
        rows = min(n_entries, _TABLE_BLOCK_ROWS)
        end = skip_uvarints(data, pos, 3 * rows)
        block = decode_uvarints(memoryview(data)[pos:end]).reshape(rows, 3)
        block[:, 1] += payload_start
        yield block
        pos = end
        n_entries -= rows


def read_run_table(data: bytes) -> RunTable:
    """Parse the header of a whole run file (``data``), its table checked.

    Returns ``(run_id, codec name, min_doc, max_doc, table, payload
    start)``; ``table`` is an ``(n_entries, 3)`` ``int64`` array of
    ``(term_id, absolute offset, length)`` rows in file order, and it
    holds the module docstring's invariants: ``ValueError`` otherwise.
    Raises ``EOFError`` when ``data`` ends before the table does.
    """
    return _parse_header(data, len(data) - RUN_CRC_BYTES)


def read_run_table_from_file(fh: BinaryIO) -> RunTable:
    """:func:`read_run_table` of a run file open at its start.

    Reads the file in growing chunks until the header (whose length is
    only known once its entry table is decoded) parses completely; the
    payload itself is never read.  Offsets are absolute, usable for
    ``seek``/``read`` splicing.
    """
    payload_end = fh.seek(0, os.SEEK_END) - RUN_CRC_BYTES
    fh.seek(0)
    data = bytearray()
    while True:
        piece = fh.read(_STREAM_CHUNK)
        if piece:
            data.extend(piece)
            if len(data) < len(RUN_MAGIC):
                continue  # too short to even check the magic yet
        try:
            return _parse_header(bytes(data), payload_end)
        except EOFError:
            # The header extends past what is buffered so far.
            if not piece:
                raise ValueError("truncated run file header") from None
