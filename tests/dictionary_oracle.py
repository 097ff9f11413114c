"""Per-term dictionary code, kept as test oracles.

``repro.dictionary.serialize`` writes and reads ``dictionary.bin``
(``RPRODIC2``) in blocks of columns.  Two oracles check it in
``tests/test_serialize.py``:

- the per-term writer and loader of the version-1 format (``RPRODIC1``,
  one interleaved record per term with its global id), *verbatim*
  (``save_dictionary``, ``_common_prefix_len`` and ``load_dictionary``):
  a forest must load to the same map through either format;
- :func:`read_v2`, a plain per-term reader of the version-2 format that
  rejects exactly what the column loader rejects, so a mutated body must
  load to the same map through both or be refused by both.
"""

from __future__ import annotations

import zlib

from repro.dictionary.dictionary import SHARD_ID_SPACE_BITS, DictionaryShard
from repro.dictionary.layout import MAX_TERM_BYTES
from repro.dictionary.serialize import DICT_CRC_BYTES
from repro.dictionary.trie import TrieTable
from repro.postings.compression import MAX_UVARINT_BYTES, decode_uvarint, encode_uvarint
from repro.robustness.errors import ChecksumError

__all__ = ["save_dictionary", "load_dictionary", "read_v2"]

#: The version-1 magic; the verbatim code below names it ``DICT_MAGIC``.
DICT_MAGIC = b"RPRODIC1"


# --------------------------------------------------------------------------- #
# Verbatim: the per-term version-1 code of repro/dictionary/serialize.py
# --------------------------------------------------------------------------- #


def _common_prefix_len(a: bytes, b: bytes) -> int:
    n = min(len(a), len(b))
    i = 0
    while i < n and a[i] == b[i]:
        i += 1
    return i


def save_dictionary(dictionary: DictionaryShard, path: str) -> int:
    """Serialize to ``path``; returns bytes written."""
    out = bytearray(DICT_MAGIC)
    encode_uvarint(dictionary.trie.height, out)
    nonempty = [cidx for cidx in sorted(dictionary.trees) if len(dictionary.trees[cidx])]
    encode_uvarint(len(nonempty), out)
    for cidx in nonempty:
        tree = dictionary.trees[cidx]
        encode_uvarint(cidx, out)
        encode_uvarint(len(tree), out)
        prev = b""
        for suffix, term_id in tree.items():  # in-order = lexicographic
            lcp = _common_prefix_len(prev, suffix)
            tail = suffix[lcp:]
            encode_uvarint(lcp, out)
            encode_uvarint(len(tail), out)
            out.extend(tail)
            encode_uvarint(term_id, out)
            prev = suffix
    crc = zlib.crc32(out) & 0xFFFFFFFF
    with open(path, "wb") as fh:
        fh.write(out)
        fh.write(crc.to_bytes(DICT_CRC_BYTES, "little"))
    return len(out) + DICT_CRC_BYTES


def load_dictionary(path: str) -> dict[str, int]:
    """Load a serialized dictionary into a ``{term: term_id}`` map."""
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < len(DICT_MAGIC) + DICT_CRC_BYTES:
        raise ValueError(f"{path} is too short to be a dictionary ({len(data)} bytes)")
    stored = int.from_bytes(data[-DICT_CRC_BYTES:], "little")
    data = data[:-DICT_CRC_BYTES]
    actual = zlib.crc32(data) & 0xFFFFFFFF
    if stored != actual:
        raise ChecksumError(path, stored, actual)
    if data[: len(DICT_MAGIC)] != DICT_MAGIC:
        raise ValueError(f"{path} is not a serialized dictionary (bad magic)")
    pos = len(DICT_MAGIC)
    height, pos = decode_uvarint(data, pos)
    trie = TrieTable(height=height)
    n_collections, pos = decode_uvarint(data, pos)
    terms: dict[str, int] = {}
    for _ in range(n_collections):
        cidx, pos = decode_uvarint(data, pos)
        n_terms, pos = decode_uvarint(data, pos)
        prefix = trie.prefix_for(cidx)
        prev = b""
        for _ in range(n_terms):
            lcp, pos = decode_uvarint(data, pos)
            tail_len, pos = decode_uvarint(data, pos)
            if lcp + tail_len > MAX_TERM_BYTES:
                raise ValueError(
                    f"{path}: suffix of {lcp + tail_len} bytes exceeds the "
                    f"{MAX_TERM_BYTES}-byte Fig 6 term limit (corrupt record?)"
                )
            tail = data[pos : pos + tail_len]
            pos += tail_len
            term_id, pos = decode_uvarint(data, pos)
            suffix = prev[:lcp] + tail
            terms[prefix + suffix.decode("utf-8")] = term_id
            prev = suffix
    return terms


# --------------------------------------------------------------------------- #
# A per-term reader of the version-2 format
# --------------------------------------------------------------------------- #

V2_MAGIC = b"RPRODIC2"


def _varint(data: bytes, pos: int, end: int) -> tuple[int, int]:
    """The varint at ``pos``, which must end before ``end``."""
    value = 0
    for k in range(MAX_UVARINT_BYTES):
        if pos >= end:
            raise EOFError("truncated uvarint")
        byte = data[pos]
        pos += 1
        value |= (byte & 0x7F) << (7 * k)
        if not byte & 0x80:
            return value, pos
    raise ValueError(f"uvarint longer than {MAX_UVARINT_BYTES} bytes")


def _column(data: bytes, pos: int, end: int) -> list[int]:
    """Every varint of ``data[pos:end]``."""
    values = []
    while pos < end:
        value, pos = _varint(data, pos, end)
        values.append(value)
    return values


def read_v2(path: str) -> dict[str, int]:
    """Load an ``RPRODIC2`` dictionary one varint and one term at a time."""
    with open(path, "rb") as fh:
        data = fh.read()
    end = len(data) - DICT_CRC_BYTES
    if end < len(V2_MAGIC):
        raise ValueError(f"{path} is too short to be a dictionary")
    stored = int.from_bytes(data[end:], "little")
    actual = zlib.crc32(data[:end]) & 0xFFFFFFFF
    if stored != actual:
        raise ChecksumError(path, stored, actual)
    if data[: len(V2_MAGIC)] != V2_MAGIC:
        raise ValueError(f"{path} is not a version-2 dictionary")
    height, pos = _varint(data, len(V2_MAGIC), end)
    n_blocks, pos = _varint(data, pos, end)
    trie = TrieTable(height=height)
    terms: dict[str, int] = {}
    cidx = -1
    for _ in range(n_blocks):
        n_collections, pos = _varint(data, pos, end)
        n_terms, pos = _varint(data, pos, end)
        lengths = []
        for _ in range(6):
            length, pos = _varint(data, pos, end)
            lengths.append(length)
        if not n_collections:
            raise ValueError("a block has no collections")
        if pos + sum(lengths) > end:
            raise ValueError("a block's columns overrun the body")
        columns = []
        for k, length in enumerate(lengths):
            columns.append(_column(data, pos, pos + length))
            pos += length
            if len(columns[k]) != (n_collections if k < 3 else n_terms):
                raise ValueError(f"column {k} holds the wrong number of values")
        gaps, shards, counts, lcps, tail_lens, local_ids = columns
        if sum(counts) != n_terms:
            raise ValueError("term counts do not add up")
        term = 0
        for gap, shard, count in zip(gaps, shards, counts):
            cidx += gap
            if not gap or cidx >= trie.num_collections:
                raise ValueError("collection indices must ascend inside the trie")
            if shard >> (63 - SHARD_ID_SPACE_BITS):
                raise ValueError("shard id overflows a 64-bit term id")
            if not count:
                raise ValueError("a collection has no terms")
            prefix = trie.prefix_for(cidx)
            prev = None
            for _ in range(count):
                lcp, tail_len, local = lcps[term], tail_lens[term], local_ids[term]
                term += 1
                if local >> SHARD_ID_SPACE_BITS:
                    raise ValueError("local id beyond the shard's id space")
                if lcp + tail_len > MAX_TERM_BYTES:
                    raise ValueError("suffix longer than a Fig 6 term")
                if pos + tail_len > end:
                    raise EOFError("truncated tails")
                tail = data[pos : pos + tail_len]
                pos += tail_len
                if 0 in tail:
                    raise ValueError("NUL byte in a term")
                if prev is None:
                    if lcp:
                        raise ValueError("first term shares a prefix")
                    prev = b""
                elif lcp > len(prev):
                    raise ValueError("lcp longer than the previous suffix")
                elif not tail or (lcp < len(prev) and tail[0] <= prev[lcp]):
                    raise ValueError("suffixes do not strictly ascend")
                suffix = prev[:lcp] + tail
                terms[prefix + suffix.decode("utf-8")] = shard << SHARD_ID_SPACE_BITS | local
                prev = suffix
    if pos != end:
        raise ValueError("trailing bytes")
    return terms
