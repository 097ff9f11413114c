"""Dictionary persistence with front-coding ("Dictionary Write", Table VI).

"The dictionary is kept in main memory until the last batch of documents is
processed, after which it is moved to the disk."  Terms inside one trie
collection are written in lexicographic order, so adjacent suffixes tend to
share prefixes; following Heinz & Zobel [4] (cited in Section II) we apply
front-coding: each suffix stores the length of the prefix it shares with
its predecessor plus the differing tail.

A term id is ``shard << 40 | local`` (:data:`SHARD_ID_SPACE_BITS`), and
every term of a collection comes from the shard that owns it, so the file
stores the shard once per collection and each term's shard-local id.

On-disk format::

    magic  b"RPRODIC2"                8 bytes
    uvarint trie_height
    uvarint n_blocks
    per block (whole collections, ascending index):
        uvarints n_collections, n_terms and the byte length of each column
        six columns, each its values' uvarints back to back:
            collection-index gap   per collection (the file's first from -1)
            shard id               per collection
            term count             per collection
            lcp                    per term (ascending suffix)
            tail length            per term
            shard-local term id    per term
        the tails, concatenated
    footer: CRC32 of everything above, 4 bytes little-endian

A block holds whole collections, at least :data:`_BLOCK_TERMS` terms unless
the dictionary ends, which bounds the per-byte temporaries.  Each column is
one :func:`encode_uvarints` / :func:`decode_uvarints` call; no step calls a
Python function per term.  The per-term reader of this format is the
oracle in ``tests/dictionary_oracle.py``.

*Save.*  Collections and term counts come from the shards' tables, and
the shards' heaps are joined once.  Each tree hands over its in-order
string pointers and term ids (:meth:`~repro.dictionary.btree.BTree.extend_in_order`);
per block, the pointers are offset into the joined heap, the LCPs come
from byte-column compares over it, and one gather cuts out the tails.  A
collection whose ids span two shards raises ``ValueError``.

*Load.*  After the CRC and magic checks (a version-1 ``RPRODIC1`` file is
refused with a request to rebuild), each block's columns are decoded, the
front-coded suffixes are rebuilt column by column in a byte matrix behind
each collection's prefix
(:meth:`~repro.dictionary.trie.TrieTable.prefix_columns`), and one UTF-8
decode yields the terms.  The loader rejects, with ``ValueError`` (or
``EOFError`` for a body that ends early), every body that is not one the
writer could have written: a trie height outside 1–13, an empty block, a
column that overruns the body or holds more or fewer values than its
count, a collection-index gap of 0, a collection index beyond the trie, a
shard id of 2**23 or more (its ids would overflow ``int64``), an empty
collection, term counts that do not add up to the block's, a local id of
2**40 or more, a collection's first term sharing a prefix, an lcp longer
than the previous suffix, suffixes that do not strictly ascend, a NUL byte
or invalid UTF-8 in a term, a suffix over 255 bytes, a varint over nine
bytes, and trailing bytes.
:class:`~repro.robustness.errors.ChecksumError` (a ``ValueError``)
reports a CRC mismatch.
"""

from __future__ import annotations

import zlib
from itertools import accumulate

import numpy as np

from repro.dictionary.btree import TERMS
from repro.dictionary.dictionary import SHARD_ID_SPACE_BITS, DictionaryShard
from repro.dictionary.layout import MAX_TERM_BYTES
from repro.dictionary.trie import TrieTable
from repro.postings.compression import decode_uvarints, encode_uvarints, skip_uvarints
from repro.robustness.errors import ChecksumError

__all__ = ["save_dictionary", "load_dictionary", "DICT_MAGIC", "DICT_CRC_BYTES"]

DICT_MAGIC = b"RPRODIC2"
#: The magic of the per-term format this one replaced; such a file is
#: refused, not read.
_V1_MAGIC = b"RPRODIC1"
#: Width of the little-endian CRC32 footer trailing the dictionary blob.
DICT_CRC_BYTES = 4

#: Terms per block of columns (a block is whole collections, at least
#: this many terms unless the dictionary ends).  Keeps each block's
#: per-byte temporaries near 100 KB.
_BLOCK_TERMS = 2048

#: Columns per block: three per collection, then three per term.
_COLUMNS = 6

#: A shard id at or above this makes ``shard << 40`` overflow ``int64``.
_SHARD_LIMIT = 1 << (63 - SHARD_ID_SPACE_BITS)
_LOCAL_MASK = (1 << SHARD_ID_SPACE_BITS) - 1

#: Zero bytes after the joined string heaps, so an LCP compare may read
#: past the last string.
_HEAP_PAD = bytes(MAX_TERM_BYTES)


# ---------------------------------------------------------------------- #
# Save
# ---------------------------------------------------------------------- #


def save_dictionary(dictionary: DictionaryShard, path: str) -> int:
    """Serialize to ``path``; returns bytes written."""
    # The forests' heaps back to back; a tree's pointers shift by its forest's heap start.
    forests = dictionary.forests()
    heaps = [forest.store.raw_bytes() for forest in forests]
    heap = np.frombuffer(b"".join(heaps) + _HEAP_PAD, dtype=np.uint8)
    bases = np.repeat(_starts(np.array([len(h) for h in heaps], dtype=np.int64)),
                      [len(forest.collections) for forest in forests])
    cidxs = np.concatenate([np.array(forest.collections, dtype=np.int64) for forest in forests])
    counts = np.concatenate([forest.counts[:, TERMS] for forest in forests])
    order = np.argsort(cidxs, kind="stable")
    order = order[counts[order] > 0]
    cidxs, counts, bases = cidxs[order], counts[order], bases[order]
    blocks = []
    start = count = 0
    for i, terms in enumerate(counts.tolist()):
        count += terms
        if count >= _BLOCK_TERMS or i == len(order) - 1:
            blocks.append(slice(start, i + 1))
            start, count = i + 1, 0
    head = DICT_MAGIC + encode_uvarints(np.array([dictionary.trie.height, len(blocks)]))[0]
    crc = zlib.crc32(head)
    size = len(head)
    trees = dictionary.trees
    with open(path, "wb") as fh:
        fh.write(head)
        prev = -1
        for block in blocks:
            string_ptrs: list[int] = []
            term_ids: list[int] = []
            for cidx in cidxs[block].tolist():
                trees[cidx].extend_in_order(string_ptrs, term_ids)
            encoded = _encode_block(
                cidxs[block], counts[block], bases[block], string_ptrs, term_ids, heap, prev
            )
            prev = int(cidxs[block][-1])
            crc = zlib.crc32(encoded, crc)
            size += len(encoded)
            fh.write(encoded)
        fh.write((crc & 0xFFFFFFFF).to_bytes(DICT_CRC_BYTES, "little"))
    return size + DICT_CRC_BYTES


def _encode_block(cidxs: np.ndarray, counts: np.ndarray, bases: np.ndarray,
                  string_ptrs: list[int], term_ids: list[int], heap: np.ndarray,
                  prev: int) -> bytes:
    """Whole collections after collection ``prev``: header, columns, tails.
    A collection's ``string_ptrs`` address ``heap`` from its ``bases`` on."""
    n = len(string_ptrs)
    firsts = _starts(counts)
    first = np.zeros(n, dtype=bool)
    first[firsts] = True
    # A string pointer addresses the Fig 6 length byte; the payload follows.
    start = np.array(string_ptrs, dtype=np.int64) + np.repeat(bases + 1, counts)
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

    ids = np.array(term_ids, dtype=np.int64)
    shards = ids[firsts] >> SHARD_ID_SPACE_BITS
    if ((ids >> SHARD_ID_SPACE_BITS) != np.repeat(shards, counts)).any():
        raise ValueError("a collection's term ids span two shards")
    tail_at = np.repeat(start + lcp - _starts(tail_len), tail_len)
    tail_at += np.arange(tail_at.size)
    columns = [
        encode_uvarints(column)[0]
        for column in (
            np.diff(cidxs, prepend=prev),
            shards,
            counts,
            lcp,
            tail_len,
            ids & _LOCAL_MASK,
        )
    ]
    header = encode_uvarints(np.array([len(cidxs), n, *map(len, columns)]))[0]
    return b"".join([header, *columns, heap[tail_at].tobytes()])


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
    magic = data[: len(DICT_MAGIC)]
    if magic == _V1_MAGIC:
        raise ValueError(
            f"{path} is a version-1 dictionary ({_V1_MAGIC.decode()}); "
            f"rebuild the index to write {DICT_MAGIC.decode()}"
        )
    if magic != DICT_MAGIC:
        raise ValueError(f"{path} is not a serialized dictionary (bad magic)")
    try:
        return _decode(memoryview(data)[:end])
    except EOFError as exc:
        raise EOFError(f"{path}: {exc}") from None
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _decode(body: memoryview) -> dict[str, int]:
    """The ``{term: term_id}`` map of the CRC-checked ``body``."""
    pos = skip_uvarints(body, len(DICT_MAGIC), 2)
    height, n_blocks = decode_uvarints(body[len(DICT_MAGIC) : pos]).tolist()
    trie = TrieTable(height=height)
    terms: dict[str, int] = {}
    prev = -1
    for _ in range(n_blocks):
        pos, prev = _decode_block(body, pos, prev, trie, terms)
    if pos != len(body):
        raise ValueError(f"{len(body) - pos} trailing bytes after the last block")
    return terms


def _decode_block(
    body: memoryview, pos: int, prev: int, trie: TrieTable, terms: dict[str, int]
) -> tuple[int, int]:
    """Add the terms of the block at ``pos`` to ``terms``; returns where
    the next block starts and the block's last collection index."""
    head_end = skip_uvarints(body, pos, 2 + _COLUMNS)
    n_collections, n_terms, *lengths = decode_uvarints(body[pos:head_end]).tolist()
    if not n_collections:
        raise ValueError("a block has no collections")
    bounds = list(accumulate(lengths, initial=head_end))
    if bounds[-1] > len(body):
        raise ValueError(f"a block's columns overrun the body by {bounds[-1] - len(body)} bytes")
    columns = []
    for i, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
        column = decode_uvarints(body[lo:hi])
        expected = n_collections if i < 3 else n_terms
        if column.size != expected:
            raise ValueError(f"column {i} holds {column.size} values, not {expected}")
        columns.append(column)
    gaps, shards, counts, lcp, tail_len, local = columns

    num = trie.num_collections
    if not gaps.all():
        raise ValueError("a collection-index gap of 0: indices must strictly ascend")
    if int(gaps.max()) > num:
        raise ValueError(f"collection indices must stay below {num}")
    cidxs = prev + np.cumsum(gaps)
    # No gap exceeds ``num``, so a sum that wraps past int64 descends.
    if int(cidxs[-1]) >= num or (np.diff(cidxs) <= 0).any():
        raise ValueError(f"collection indices must stay below {num}")
    if int(shards.max()) >= _SHARD_LIMIT:
        raise ValueError(f"shard id {int(shards.max())} would overflow a 64-bit term id")
    if not counts.all():
        raise ValueError("a collection has no terms")
    if int(counts.max()) > n_terms or int(counts.sum()) != n_terms:
        raise ValueError(f"the term counts do not add up to the block's {n_terms} terms")
    if int(local.max()) > _LOCAL_MASK:
        raise ValueError(f"local term id {int(local.max())} is beyond the shard's id space")
    # Each bounded first, so that their sum cannot overflow.
    longest = max(int(lcp.max()), int(tail_len.max()))
    if longest > MAX_TERM_BYTES or int((lcp + tail_len).max()) > MAX_TERM_BYTES:
        raise ValueError(
            f"a suffix exceeds the {MAX_TERM_BYTES}-byte Fig 6 term limit (corrupt record?)"
        )
    tails_end = bounds[-1] + int(tail_len.sum())
    if tails_end > len(body):
        raise EOFError("the tails end early")
    tails = np.frombuffer(body[bounds[-1] : tails_end], dtype=np.uint8)
    keys = _suffix_terms(tails, lcp, tail_len, counts, cidxs, trie)
    ids = (np.repeat(shards, counts) << SHARD_ID_SPACE_BITS) | local
    terms.update(zip(keys, ids.tolist()))
    return tails_end, int(cidxs[-1])


def _suffix_terms(
    tails: np.ndarray,
    lcp: np.ndarray,
    tail_len: np.ndarray,
    counts: np.ndarray,
    cidxs: np.ndarray,
    trie: TrieTable,
) -> list[str]:
    """The terms of whole collections from their front-coded suffixes."""
    m = lcp.size
    length = lcp + tail_len
    first = np.zeros(m, dtype=bool)
    first[_starts(counts)] = True
    if lcp[first].any():
        raise ValueError("a collection's first term shares a prefix with no predecessor")
    if (lcp[1:] > length[:-1])[~first[1:]].any():
        raise ValueError("a term shares more bytes than its predecessor has")
    if not tails.all():
        raise ValueError("a term contains a NUL byte")

    # Term bytes in a matrix: the collection prefix ends at column ``h``,
    # the suffix starts there, a zero byte follows it.
    h = trie.height
    width = h + int(length.max()) + 1
    matrix = np.zeros((m, width), dtype=np.uint8)
    rows = np.arange(m)
    scatter = np.repeat(rows * width + h + lcp - _starts(tail_len), tail_len)
    scatter += np.arange(tails.size)
    matrix.ravel()[scatter] = tails
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
    return matrix[keep].tobytes().decode("utf-8").split("\x00")
