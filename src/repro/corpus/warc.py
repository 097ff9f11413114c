"""Packed collection files — a minimal WARC-like container.

ClueWeb09 ships as ~1,492 gzip-compressed files, each packing thousands of
web pages ("a typical file ... is about 160MB compressed and 1GB
uncompressed").  Our synthetic collections use the same shape: documents
are packed into container files which are gzip-compressed on disk, read
whole, and inflated in memory by the parsers — the exact I/O pattern whose
timing Section IV.A analyzes.

Container layout (uncompressed)::

    REPROWARC/1\n
    DOC <uri> <payload-byte-length>\n
    <payload bytes>\n
    DOC ...

The per-document byte offsets returned by :func:`read_packed_file` feed the
parser's ``<document ID, document location>`` table (Step 1 of Fig 3).

Every corruption the read path can encounter — truncated gzip member,
flipped bytes, a header that does not parse, payload that is not UTF-8 —
surfaces as one exception type, :class:`CorruptContainerError`, carrying
the file path and (where known) the byte offset of the damage, instead of
leaking raw stdlib exceptions with no filename.  The read path also
consults the fault-injection layer (:mod:`repro.robustness.faults`) so
chaos tests can exercise these failure modes on demand.
"""

from __future__ import annotations

import gzip
import os
import zlib
from dataclasses import dataclass
from typing import Iterable

from repro.robustness import faults

__all__ = [
    "PackedDocument",
    "CorruptContainerError",
    "write_packed_file",
    "read_packed_file",
    "MAGIC",
]

MAGIC = b"REPROWARC/1\n"


class CorruptContainerError(ValueError):
    """A container file's bytes cannot be decoded into documents.

    Permanent by definition: re-reading returns the same bytes, so the
    retry layer never retries it — the ``on_error`` policy decides.
    ``offset`` is the byte position of the damage in the *uncompressed*
    stream when known, else ``None`` (e.g. a gzip member that fails CRC).
    """

    def __init__(self, path: str, detail: str, offset: int | None = None) -> None:
        at = f" at byte {offset}" if offset is not None else ""
        super().__init__(f"corrupt container {path}{at}: {detail}")
        self.path = path
        self.offset = offset
        self.detail = detail

    def __reduce__(self) -> "tuple[object, ...]":
        # Default exception pickling replays ``args`` (the formatted
        # message) into ``__init__``; rebuild from the real fields so
        # the error survives the worker→engine process boundary.
        return (type(self), (self.path, self.detail, self.offset))


@dataclass(frozen=True)
class PackedDocument:
    """One document as read from a container file."""

    uri: str
    text: str
    offset: int  # byte offset of the DOC header in the uncompressed stream
    size: int  # payload bytes (UTF-8), as the DOC header states


def write_packed_file(
    path: str,
    docs: Iterable[tuple[str, str]],
    compress: bool = True,
    compresslevel: int = 1,
) -> tuple[int, int]:
    """Write ``(uri, text)`` documents to a container file.

    Returns ``(compressed bytes on disk, uncompressed bytes)``.  With
    ``compress`` the file is gzip-wrapped (level 1: web-crawl distribution
    files favour speed, and it keeps the paper's ~6× compression ratio in
    the right regime for synthetic text).
    """
    body = bytearray(MAGIC)
    for uri, text in docs:
        payload = text.encode("utf-8")
        if "\n" in uri or " " in uri:
            raise ValueError(f"document URI may not contain spaces/newlines: {uri!r}")
        body.extend(f"DOC {uri} {len(payload)}\n".encode("ascii"))
        body.extend(payload)
        body.extend(b"\n")
    raw = bytes(body)
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    if compress:
        with gzip.open(path, "wb", compresslevel=compresslevel) as fh:
            fh.write(raw)
    else:
        with open(path, "wb") as fh:
            fh.write(raw)
    return os.path.getsize(path), len(raw)


def _inflate(path: str) -> bytes:
    """Read a container file, transparently gunzipping.

    Transient I/O faults (real or injected) propagate as ``OSError`` for
    the retry layer; undecodable gzip streams become
    :class:`CorruptContainerError` so no raw ``zlib.error`` ever escapes
    without a filename.
    """
    injector = faults.active()
    if injector is not None:
        injector.before_read(path)
    with open(path, "rb") as fh:
        head = fh.read(2)
        fh.seek(0)
        data = fh.read()
    if injector is not None:
        data = injector.corrupt_raw(path, data)
        head = data[:2]
    if head == b"\x1f\x8b":
        try:
            data = gzip.decompress(data)
        except (gzip.BadGzipFile, EOFError, zlib.error) as exc:
            raise CorruptContainerError(path, f"bad gzip stream ({exc})") from exc
    if injector is not None:
        data = injector.corrupt_inflated(path, data)
    return data


def read_packed_file(path: str) -> list[PackedDocument]:
    """Read and parse a container file into documents."""
    data = _inflate(path)
    if not data.startswith(MAGIC):
        raise CorruptContainerError(path, "not a REPROWARC container", offset=0)
    docs: list[PackedDocument] = []
    pos = len(MAGIC)
    total = len(data)
    while pos < total:
        try:
            nl = data.index(b"\n", pos)
            header = data[pos:nl].decode("ascii")
            tag, uri, length_s = header.split(" ")
            if tag != "DOC":
                raise ValueError(f"bad header {header!r}")
            length = int(length_s)
            payload_start = nl + 1
            payload = data[payload_start : payload_start + length]
            if len(payload) != length:
                raise ValueError(
                    f"payload truncated ({len(payload)} of {length} bytes)"
                )
            text = payload.decode("utf-8")
        except CorruptContainerError:
            raise
        except (ValueError, UnicodeDecodeError) as exc:
            raise CorruptContainerError(path, str(exc), offset=pos) from exc
        docs.append(PackedDocument(uri=uri, text=text, offset=pos, size=length))
        pos = payload_start + length + 1  # skip trailing newline
    return docs


def uncompressed_size(path: str) -> int:
    """Uncompressed byte size of a container file."""
    return len(_inflate(path))
