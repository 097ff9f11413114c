"""Compact binary encoding of the parsed stream for cross-process handoff.

The multiprocess execution backend (:mod:`repro.core.mp_backend`) parses
in a worker process and indexes in the engine process.  The payload is
the same :class:`~repro.parsing.regroup.ParsedBatch` the
serial loop passes by reference — but across an address-space boundary it
has to travel as bytes.  The batch is columns already, so the codec is a
header plus the columns' own bytes: no code-execution surface, decoding
is ``np.frombuffer`` over the payload, and — the property the engine
actually relies on — it **round-trips exactly**: the collection table
keeps its first-seen order, so an indexer consuming a decoded batch
allocates term ids in the same order as one consuming the original, which
is what keeps the multiprocess backend byte-identical to serial execution.

One batch (``encode_batch`` / ``decode_batch``) is a LEB128-varint header — magic, batch
identity, flags, the array lengths — zero padding to a multiple of 8,
then the collection table (``int32[k, 4]``, first-seen order), the token
columns (``int32[n]`` each), and the entry table (collection indexes,
suffix lengths, suffix bytes back to back); docs/ARCHITECTURE.md has the
byte layout.  Spans are not shipped: the collection rows tile the columns
in order, and a selection over shared columns is compacted first (tokens
gathered, entries renumbered).  ``encode_parsed_file`` /
``decode_parsed_file`` carry one :class:`~repro.parsing.parser.ParsedFile`
— the batch, the doc-table rows, one varint per :class:`ParseMetrics`
field — the unit the parse worker sends back to the engine, and the only
one a build ships (the bare batch functions remain public for the
benchmark harness's codec drive).

The format is internal to one build on one host (both ends run the same
code, same byte order), so there is no versioning beyond the magic byte.
Every malformed payload is a ``ValueError``.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from repro.parsing.docio import DocTableEntry
from repro.parsing.parser import ParsedFile, ParseMetrics
from repro.parsing.regroup import ParsedBatch, tiled_spans

__all__ = [
    "encode_batch",
    "decode_batch",
    "encode_parsed_file",
    "decode_parsed_file",
]

_BATCH_MAGIC = 0xB1
_FILE_MAGIC = 0xF1

#: ``ParseMetrics`` travels as one varint per field, in declaration order.
_METRIC_FIELDS = tuple(ParseMetrics.__dataclass_fields__)


class _Writer:
    """Append-only varint/bytes buffer."""

    __slots__ = ("_parts",)

    def __init__(self) -> None:
        self._parts = bytearray()

    def u(self, value: int) -> None:
        """LEB128 unsigned varint."""
        if value < 0:
            raise ValueError(f"stream codec only carries non-negative ints, got {value}")
        parts = self._parts
        while value > 0x7F:
            parts.append((value & 0x7F) | 0x80)
            value >>= 7
        parts.append(value)

    def raw(self, data: bytes) -> None:
        self.u(len(data))
        self._parts += data

    def s(self, text: str) -> None:
        self.raw(text.encode("utf-8"))

    def arrays(self, *arrays: np.ndarray) -> None:
        """Raw array bytes, the first starting on a multiple of 8."""
        self._parts += bytes(-len(self._parts) % 8)
        for a in arrays:
            self._parts += a.tobytes()

    def getvalue(self) -> bytes:
        return bytes(self._parts)


class _Reader:
    __slots__ = ("_data", "_pos")

    def __init__(self, data: bytes) -> None:
        self._data = data
        self._pos = 0

    def u(self) -> int:
        data, pos = self._data, self._pos
        shift = 0
        value = 0
        while True:
            try:
                byte = data[pos]
            except IndexError:
                raise ValueError("truncated varint in parsed-stream payload") from None
            pos += 1
            value |= (byte & 0x7F) << shift
            if byte < 0x80:
                break
            shift += 7
        self._pos = pos
        return value

    def raw(self) -> bytes:
        n = self.u()
        data = self._data[self._pos : self._pos + n]
        if len(data) != n:
            raise ValueError("truncated bytes field in parsed-stream payload")
        self._pos += n
        return data

    def s(self) -> str:
        return self.raw().decode("utf-8")

    def align(self) -> None:
        self._pos += -self._pos % 8

    def array(self, dtype: type, count: int) -> np.ndarray:
        """``count`` items of ``dtype`` as a read-only view of the payload."""
        try:
            out = np.frombuffer(self._data, dtype=dtype, count=count, offset=self._pos)
        except ValueError:
            raise ValueError("truncated column in parsed-stream payload") from None
        self._pos += out.nbytes
        return out

    def done(self) -> bool:
        return self._pos == len(self._data)


# ---------------------------------------------------------------------- #
# ParsedBatch
# ---------------------------------------------------------------------- #


def _compact(batch: ParsedBatch) -> ParsedBatch:
    """``batch`` with spans that tile its columns and no unused entry.

    The identity for a parser's own output; a sub-batch over shared
    columns has its tokens gathered and its entries renumbered.
    """
    spans, ends = batch.spans, np.cumsum(batch.tokens)
    total = int(batch.tokens.sum())
    if spans is None or (total == len(batch.ids) and np.array_equal(spans[:, 1], ends)):
        return batch
    rows = np.arange(total) + np.repeat(spans[:, 0] - (ends - batch.tokens), batch.tokens)
    used, ids = np.unique(batch.ids[rows], return_inverse=True)
    return replace(
        batch,
        entry_cidx=batch.entry_cidx[used],
        entry_suffix=[batch.entry_suffix[i] for i in used.tolist()],
        ids=ids.astype(np.int32),
        docs=batch.docs[rows],
        positions=None if batch.positions is None else batch.positions[rows],
        spans=tiled_spans(batch.tokens),
    )


def _write_batch(w: _Writer, batch: ParsedBatch) -> None:
    batch = _compact(batch)
    suffixes = b"".join(batch.entry_suffix)
    w.u(_BATCH_MAGIC)
    w.u(batch.parser_id)
    w.u(batch.sequence)
    w.s(batch.source_file)
    for value in (
        batch.num_docs, batch.uncompressed_bytes, batch.compressed_bytes,
        (1 if batch.positions is not None else 0) | (0 if batch.regrouped else 2),
        len(batch.ids), 0 if batch.positions is None else len(batch.positions),
        len(batch.order), len(batch.entry_suffix), len(suffixes),
    ):
        w.u(value)
    # Collection rows in first-seen order — the order indexers iterate,
    # hence the order term ids are allocated.  Never sort here.
    table = np.column_stack((batch.order, batch.tokens, batch.chars, batch.documents))
    if table.max(initial=0) > np.iinfo(np.int32).max:
        raise ValueError("batch too large for the parsed-stream codec")
    w.arrays(
        table.astype(np.int32),
        batch.ids,
        batch.docs,
        *(() if batch.positions is None else (batch.positions,)),
        batch.entry_cidx,
        np.fromiter(map(len, batch.entry_suffix), np.int32, len(batch.entry_suffix)),
        np.frombuffer(suffixes, dtype=np.uint8),
    )


def _read_batch(r: _Reader) -> ParsedBatch:
    if r.u() != _BATCH_MAGIC:
        raise ValueError("not a parsed-stream batch payload")
    parser_id, sequence, source_file = r.u(), r.u(), r.s()
    num_docs, uncompressed, compressed, flags = r.u(), r.u(), r.u(), r.u()
    n, n_positions, k, n_entries, n_suffix_bytes = r.u(), r.u(), r.u(), r.u(), r.u()
    r.align()
    table = r.array(np.int32, 4 * k).reshape(k, 4).astype(np.int64)
    ids = r.array(np.int32, n)
    docs = r.array(np.int32, n)
    positions = r.array(np.int32, n_positions) if flags & 1 else None
    entry_cidx = r.array(np.int32, n_entries)
    ends = np.cumsum(r.array(np.int32, n_entries), dtype=np.int64)
    blob = bytes(r.array(np.uint8, n_suffix_bytes))

    tokens = table[:, 1].copy()
    if (ends[-1] if n_entries else 0) != n_suffix_bytes or np.any(np.diff(ends, prepend=0) < 0):
        raise ValueError("suffix lengths do not add up to the suffix bytes")
    if n and (ids.min() < 0 or ids.max() >= n_entries):
        raise ValueError("entry id outside the entry table")
    if n and (docs.min() < 0 or docs.max() >= num_docs):
        raise ValueError("document ordinal outside the batch")
    if n_positions != (n if flags & 1 else 0):
        raise ValueError("positions column is not aligned with the token columns")
    if tokens.sum() != n or np.any(table < 0):
        raise ValueError("collection rows do not tile the token columns")
    return ParsedBatch(
        parser_id=parser_id, sequence=sequence, source_file=source_file, num_docs=num_docs,
        uncompressed_bytes=uncompressed, compressed_bytes=compressed,
        entry_cidx=entry_cidx,
        entry_suffix=[blob[a:b] for a, b in zip([0, *ends[:-1].tolist()], ends.tolist())],
        ids=ids, docs=docs, positions=positions,
        order=table[:, 0].astype(np.int32),
        spans=None if flags & 2 else tiled_spans(tokens),
        tokens=tokens, chars=table[:, 2].copy(), documents=table[:, 3].copy(),
    )


def encode_batch(batch: ParsedBatch) -> bytes:
    """Serialize one :class:`ParsedBatch` (order-preserving, exact)."""
    w = _Writer()
    _write_batch(w, batch)
    return w.getvalue()


def decode_batch(data: bytes) -> ParsedBatch:
    """Exact inverse of :func:`encode_batch`; rejects trailing bytes."""
    r = _Reader(data)
    batch = _read_batch(r)
    if not r.done():
        raise ValueError("trailing bytes after parsed-stream batch payload")
    return batch


# ---------------------------------------------------------------------- #
# ParsedFile
# ---------------------------------------------------------------------- #


def encode_parsed_file(parsed: ParsedFile) -> bytes:
    """Serialize one :class:`ParsedFile` — batch, doc table, metrics."""
    w = _Writer()
    w.u(_FILE_MAGIC)
    _write_batch(w, parsed.batch)
    w.u(len(parsed.doc_table))
    for entry in parsed.doc_table:
        w.u(entry.local_doc_id)
        w.s(entry.source_file)
        w.s(entry.uri)
        w.u(entry.offset)
    for name in _METRIC_FIELDS:
        w.u(getattr(parsed.metrics, name))
    return w.getvalue()


def decode_parsed_file(data: bytes) -> ParsedFile:
    """Exact inverse of :func:`encode_parsed_file`; checks the magic."""
    r = _Reader(data)
    if r.u() != _FILE_MAGIC:
        raise ValueError("not a parsed-stream file payload")
    batch = _read_batch(r)
    doc_table = [
        DocTableEntry(
            local_doc_id=r.u(), source_file=r.s(), uri=r.s(), offset=r.u()
        )
        for _ in range(r.u())
    ]
    metrics = ParseMetrics(**{name: r.u() for name in _METRIC_FIELDS})
    if not r.done():
        raise ValueError("trailing bytes after parsed-stream file payload")
    return ParsedFile(batch=batch, doc_table=doc_table, metrics=metrics)
