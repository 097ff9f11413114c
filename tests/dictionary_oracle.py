"""The per-term dictionary writer and loader, kept as test oracles.

``repro.dictionary.serialize`` now encodes ``dictionary.bin`` in blocks of
columns and decodes it with one position scan.  The per-term code it
replaced lives on here *verbatim* (``save_dictionary``,
``_common_prefix_len`` and ``load_dictionary``), so the properties in
``tests/test_serialize.py`` can require the new code to write exactly the
bytes the old code wrote and to load exactly the map it loaded.
"""

from __future__ import annotations

import zlib

from repro.dictionary.dictionary import DictionaryShard
from repro.dictionary.layout import MAX_TERM_BYTES
from repro.dictionary.serialize import DICT_CRC_BYTES, DICT_MAGIC
from repro.dictionary.trie import TrieTable
from repro.postings.compression import decode_uvarint, encode_uvarint
from repro.robustness.errors import ChecksumError

__all__ = ["save_dictionary", "load_dictionary"]


# --------------------------------------------------------------------------- #
# Verbatim from the parent: repro/dictionary/serialize.py
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
