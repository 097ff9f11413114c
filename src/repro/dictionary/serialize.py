"""Dictionary persistence with front-coding ("Dictionary Write", Table VI).

"The dictionary is kept in main memory until the last batch of documents is
processed, after which it is moved to the disk."  Terms inside one trie
collection are written in lexicographic order, so adjacent suffixes tend to
share prefixes; following Heinz & Zobel [4] (cited in Section II) we apply
front-coding: each suffix stores the length of the prefix it shares with
its predecessor plus the differing tail.

On-disk format::

    magic  b"RPRODIC1"                8 bytes
    uvarint trie_height
    uvarint n_nonempty_collections
    per collection (ascending index):
        uvarint collection_index
        uvarint n_terms
        per term (ascending suffix): uvarint lcp, uvarint tail_len,
                                     tail bytes, uvarint term_id
    footer: CRC32 of everything above, 4 bytes little-endian

Both directions work on columns, in blocks of whole collections of about
:data:`_BLOCK_TERMS` terms, which bound the per-byte temporaries.  No
step calls a Python function per term; the load's position scan is the
one per-term loop.  The format is the one the per-term code wrote (kept
as the oracle in ``tests/dictionary_oracle.py``): the bytes are
identical.

*Save.*  Each tree hands over its in-order string pointers and term ids a
node at a time (:meth:`~repro.dictionary.btree.BTree.extend_in_order`).
Per block, the trees' string heaps are joined, the LCPs come from
byte-column compares over the joined heap, lcp / tail length / term id /
collection headers are each one :func:`encode_uvarints` call, and one
gather interleaves them with the tails.

*Load.*  After the CRC and magic checks, one scan walks the records and
keeps only each term's tail position (a multi-byte lcp or tail length
takes a :func:`decode_uvarint` fallback; a varint that is only skipped
ends on the next terminator byte, found by ``bytes.find``).  Per block,
lcps, tail lengths and term ids are then read as arrays, the front-coded
suffixes are rebuilt column by column in a byte matrix behind each
collection's prefix
(:meth:`~repro.dictionary.trie.TrieTable.prefix_columns`), and one UTF-8
decode yields the terms.  The loader rejects, with ``ValueError`` (or
``EOFError`` for a body that ends early), every body that is not one the
writer could have written: a trie height outside 1–13, collection
indices that do not ascend or leave the trie, an empty collection, a
collection's first term sharing a prefix, an lcp longer than the previous
suffix, suffixes that do not strictly ascend, a NUL byte or invalid UTF-8
in a term, a suffix over 255 bytes, a term id or collection index over
nine varint bytes, and trailing bytes.
:class:`~repro.robustness.errors.ChecksumError` (a ``ValueError``)
reports a CRC mismatch.
"""

from __future__ import annotations

import zlib
from array import array

import numpy as np

from repro.dictionary.btree import BTree
from repro.dictionary.dictionary import DictionaryShard
from repro.dictionary.layout import MAX_TERM_BYTES
from repro.dictionary.trie import TrieTable
from repro.postings.compression import (
    MAX_UVARINT_BYTES,
    decode_uvarint,
    encode_uvarints,
)
from repro.robustness.errors import ChecksumError

__all__ = ["save_dictionary", "load_dictionary", "DICT_MAGIC", "DICT_CRC_BYTES"]

DICT_MAGIC = b"RPRODIC1"
#: Width of the little-endian CRC32 footer trailing the dictionary blob.
DICT_CRC_BYTES = 4

#: Terms per block of columns (a block is whole collections, at least
#: this many terms unless the dictionary ends).  Keeps each block's
#: per-byte temporaries near 100 KB.
_BLOCK_TERMS = 2048

#: ``bytes.translate`` table: 0 for a byte that ends a varint, 1 for a
#: continuation byte.
_CONTINUES = bytes(b >> 7 for b in range(256))

#: Zero bytes after a block's joined string heaps, so an LCP compare may
#: read past the last string.
_HEAP_PAD = bytes(MAX_TERM_BYTES)


# ---------------------------------------------------------------------- #
# Save
# ---------------------------------------------------------------------- #


def save_dictionary(dictionary: DictionaryShard, path: str) -> int:
    """Serialize to ``path``; returns bytes written."""
    trees = dictionary.trees
    nonempty = [cidx for cidx in sorted(trees) if trees[cidx].term_count]
    head = DICT_MAGIC + encode_uvarints(np.array([dictionary.trie.height, len(nonempty)]))[0]
    crc = zlib.crc32(head)
    size = len(head)
    with open(path, "wb") as fh:
        fh.write(head)
        start = count = 0
        for i, cidx in enumerate(nonempty):
            count += trees[cidx].term_count
            if count >= _BLOCK_TERMS or i == len(nonempty) - 1:
                block = _encode_block([(c, trees[c]) for c in nonempty[start : i + 1]])
                crc = zlib.crc32(block, crc)
                size += len(block)
                fh.write(block)
                start, count = i + 1, 0
        fh.write((crc & 0xFFFFFFFF).to_bytes(DICT_CRC_BYTES, "little"))
    return size + DICT_CRC_BYTES


def _encode_block(trees: list[tuple[int, BTree]]) -> bytes:
    """The records of whole collections: headers and front-coded terms."""
    string_ptrs: list[int] = []
    term_ids: list[int] = []
    heaps: list[bytes] = []
    headers: list[int] = []  # collection index, term count, …
    for cidx, tree in trees:
        tree.extend_in_order(string_ptrs, term_ids)
        heaps.append(tree.store.raw_bytes())
        headers += (cidx, tree.term_count)
    counts = np.array(headers[1::2], dtype=np.int64)
    heap_sizes = np.fromiter(map(len, heaps), dtype=np.int64, count=len(heaps))
    heap = np.frombuffer(b"".join(heaps) + _HEAP_PAD, dtype=np.uint8)
    n = len(string_ptrs)
    first = np.zeros(n, dtype=bool)
    first[_starts(counts)] = True
    # A string pointer addresses the Fig 6 length byte; the payload follows.
    start = np.array(string_ptrs, dtype=np.int64) + np.repeat(_starts(heap_sizes) + 1, counts)
    length = heap[start - 1].astype(np.int64)

    # LCP with the previous suffix of the same collection, one byte column
    # at a time over the pairs still equal; the pad keeps reads in bounds.
    lcp = np.zeros(n, dtype=np.int64)
    row = np.flatnonzero(~first)
    a, b = start[row - 1], start[row]
    limit = np.minimum(length[row - 1], length[row])
    col = 0
    while row.size:
        same = (limit > col) & (heap[a + col] == heap[b + col])
        row, a, b, limit = row[same], a[same], b[same], limit[same]
        col += 1
        lcp[row] = col
    tail_len = length - lcp

    head_bytes, head_lens = encode_uvarints(np.array(headers, dtype=np.int64))
    lcp_bytes, lcp_lens = encode_uvarints(lcp)
    tail_len_bytes, tail_len_lens = encode_uvarints(tail_len)
    id_bytes, id_lens = encode_uvarints(np.array(term_ids, dtype=np.int64))
    # One source buffer; each term is five segments of it: the collection
    # header (first terms only), lcp, tail length, tail, term id.
    source = np.concatenate(
        [heap]
        + [
            np.frombuffer(varints, dtype=np.uint8)
            for varints in (head_bytes, lcp_bytes, tail_len_bytes, id_bytes)
        ]
    )
    base = np.cumsum([heap.size, len(head_bytes), len(lcp_bytes), len(tail_len_bytes)])
    head_len = np.zeros(n, dtype=np.int64)
    head_src = np.zeros(n, dtype=np.int64)
    head_len[first] = head_lens[0::2] + head_lens[1::2]
    head_src[first] = base[0] + _starts(head_lens)[0::2]
    seg_len = np.stack(
        [head_len, lcp_lens, tail_len_lens, tail_len, id_lens], axis=1, dtype=np.int32
    ).ravel()
    seg_src = np.stack(
        [
            head_src,
            base[1] + _starts(lcp_lens),
            base[2] + _starts(tail_len_lens),
            start + lcp,
            base[3] + _starts(id_lens),
        ],
        axis=1,
        dtype=np.int32,
    ).ravel()
    gather = np.repeat(seg_src - _starts(seg_len), seg_len)
    gather += np.arange(gather.size, dtype=np.int32)
    return source[gather].tobytes()


def _starts(lengths: np.ndarray) -> np.ndarray:
    """Where each of back-to-back pieces of these lengths starts."""
    return np.cumsum(lengths) - lengths


# ---------------------------------------------------------------------- #
# Load
# ---------------------------------------------------------------------- #


def load_dictionary(path: str) -> dict[str, int]:
    """Load a serialized dictionary into a ``{term: term_id}`` map."""
    with open(path, "rb") as fh:
        data = fh.read()
    end = len(data) - DICT_CRC_BYTES
    if end < len(DICT_MAGIC):
        raise ValueError(f"{path} is too short to be a dictionary ({len(data)} bytes)")
    stored = int.from_bytes(data[end:], "little")
    actual = zlib.crc32(memoryview(data)[:end]) & 0xFFFFFFFF
    if stored != actual:
        raise ChecksumError(path, stored, actual)
    if data[: len(DICT_MAGIC)] != DICT_MAGIC:
        raise ValueError(f"{path} is not a serialized dictionary (bad magic)")
    try:
        return _decode(data, end)
    except EOFError as exc:
        raise EOFError(f"{path}: {exc}") from None
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _decode(data: bytes, end: int) -> dict[str, int]:
    """The ``{term: term_id}`` map of the CRC-checked body ``data[:end]``."""
    body = memoryview(data)[:end]
    height, pos = decode_uvarint(body, len(DICT_MAGIC))
    trie = TrieTable(height=height)
    n_collections, pos = decode_uvarint(body, pos)
    cidx_at, counts, tails, slow = _scan(data, body, pos, n_collections)
    if not counts:
        return {}
    raw = np.frombuffer(data, dtype=np.uint8)
    cidxs = _varints_at(raw, np.frombuffer(cidx_at, dtype=np.int32), "collection index")
    if (np.diff(cidxs) <= 0).any() or cidxs[-1] >= trie.num_collections:
        raise ValueError(f"collection indices must strictly ascend below {trie.num_collections}")
    tail_at = np.frombuffer(tails, dtype=np.int32)
    count_col = np.frombuffer(counts, dtype=np.int32)
    ends = np.cumsum(count_col, dtype=np.int64)
    slow_col = np.array(slow, dtype=np.int64).reshape(-1, 3)
    # Blocks of whole collections: a block ends at the collection that
    # reaches the next multiple of the block size.
    edges = [0, *(np.flatnonzero(np.diff(ends // _BLOCK_TERMS)) + 1).tolist(), len(counts)]
    terms: dict[str, int] = {}
    for c0, c1 in zip(edges, edges[1:]):
        lo, hi = int(ends[c0] - count_col[c0]), int(ends[c1 - 1])
        patch = slow_col[(slow_col[:, 0] >= lo) & (slow_col[:, 0] < hi)] - (lo, 0, 0)
        terms.update(
            _decode_block(raw, tail_at[lo:hi], count_col[c0:c1], cidxs[c0:c1], patch, trie)
        )
    return terms


def _scan(
    data: bytes, body: memoryview, pos: int, n_collections: int
) -> tuple[array, array, array, list[tuple[int, int, int]]]:
    """Walk the records once.

    Returns where each collection index starts, each collection's term
    count, each term's tail position, and ``(term, lcp, tail_len)`` for
    the terms whose lcp or tail length is a multi-byte varint.  A varint
    that is only skipped (a collection index or a term id) ends on the
    first terminator byte, which ``bytes.find`` locates in a translated
    copy of ``data``; the copy is gone before the terms are built.
    """
    end = len(body)
    find = data.translate(_CONTINUES).find
    cidx_at, counts, tails = array("i"), array("i"), array("i")
    keep = tails.append
    slow: list[tuple[int, int, int]] = []
    for _ in range(n_collections):
        cidx_at.append(pos)
        pos = find(0, pos, end) + 1
        if not pos:
            raise EOFError("truncated collection header")
        n_terms = data[pos]
        if n_terms & 0x80:
            n_terms, pos = decode_uvarint(body, pos)
        else:
            pos += 1
        if not n_terms:
            raise ValueError("a collection has no terms")
        for _ in range(n_terms):
            tail_len = data[pos + 1]
            if (data[pos] | tail_len) & 0x80:
                lcp, pos = decode_uvarint(body, pos)
                tail_len, pos = decode_uvarint(body, pos)
                if lcp + tail_len > MAX_TERM_BYTES:
                    raise ValueError(
                        f"suffix of {lcp + tail_len} bytes exceeds the "
                        f"{MAX_TERM_BYTES}-byte Fig 6 term limit (corrupt record?)"
                    )
                slow.append((len(tails), lcp, tail_len))
            else:
                pos += 2
            keep(pos)
            pos = find(0, pos + tail_len, end) + 1
            if not pos:
                raise EOFError("truncated term record")
        counts.append(n_terms)
    if pos != end:
        raise ValueError(f"{end - pos} trailing bytes after the last collection")
    return cidx_at, counts, tails, slow


def _varints_at(raw: np.ndarray, at: np.ndarray, what: str) -> np.ndarray:
    """Decode the varint starting at each position, a byte column at a time."""
    byte = raw[at]
    values = (byte & 0x7F).astype(np.int64)
    live = np.flatnonzero(byte >= 0x80)
    at = at[live]
    shift = 7
    while live.size:
        if shift == 7 * MAX_UVARINT_BYTES:
            raise ValueError(f"{what} longer than {MAX_UVARINT_BYTES} varint bytes")
        at += 1
        byte = raw[at]
        values[live] |= (byte & 0x7F).astype(np.int64) << shift
        more = byte >= 0x80
        live, at = live[more], at[more]
        shift += 7
    return values


def _decode_block(
    raw: np.ndarray,
    tail_at: np.ndarray,
    counts: np.ndarray,
    cidxs: np.ndarray,
    slow: np.ndarray,
    trie: TrieTable,
) -> zip:
    """``(term, term_id)`` pairs of whole collections, from their tail
    positions in ``raw``; ``slow`` rows are ``(term, lcp, tail_len)``."""
    m = tail_at.size
    lcp = raw[tail_at - 2].astype(np.int64)
    tail_len = raw[tail_at - 1].astype(np.int64)
    lcp[slow[:, 0]] = slow[:, 1]
    tail_len[slow[:, 0]] = slow[:, 2]
    length = lcp + tail_len
    first = np.zeros(m, dtype=bool)
    first[_starts(counts)] = True
    if lcp[first].any():
        raise ValueError("a collection's first term shares a prefix with no predecessor")
    if (lcp[1:] > length[:-1])[~first[1:]].any():
        raise ValueError("a term shares more bytes than its predecessor has")

    # Term bytes in a matrix: the collection prefix ends at column ``h``,
    # the suffix starts there, a zero byte follows it.
    h = trie.height
    width = h + int(length.max()) + 1
    matrix = np.zeros((m, width), dtype=np.uint8)
    n_tail = int(tail_len.sum())
    skip = _starts(tail_len)
    within = np.arange(n_tail, dtype=np.int32)
    gather = np.repeat((tail_at - skip).astype(np.int32), tail_len)
    gather += within
    tail_bytes = raw[gather]
    if not tail_bytes.all():
        raise ValueError("a term contains a NUL byte")
    rows = np.arange(m)
    scatter = np.repeat((rows * width + h + lcp - skip).astype(np.int32), tail_len)
    scatter += within
    matrix.ravel()[scatter] = tail_bytes
    # Column j of a term that shares more than j bytes comes from the
    # nearest term above whose own tail holds column j.
    for j in range(int(lcp.max())):
        src = np.maximum.accumulate(np.where(lcp <= j, rows, 0))
        matrix[:, h + j] = matrix[src, h + j]
    inner = np.flatnonzero(~first)
    at = h + lcp[inner]
    if (matrix[inner, at] <= matrix[inner - 1, at]).any():
        raise ValueError("the suffixes of a collection do not strictly ascend")
    collection = np.repeat(np.arange(counts.size), counts)
    prefixes, prefix_len = trie.prefix_columns(cidxs)
    matrix[:, :h] = prefixes[collection]
    cols = np.arange(width)
    keep = cols >= (h - prefix_len[collection])[:, None]
    keep &= cols <= (h + length)[:, None]
    keys = matrix[keep].tobytes().decode("utf-8").split("\x00")

    ids = _varints_at(raw, tail_at + tail_len, "term id")
    return zip(keys, ids.tolist())
