"""Postings compression: d-gaps + variable-byte and Elias-γ codecs.

A postings list is a docID-sorted sequence of ``(document ID, term
frequency)`` pairs.  Because IDs are sorted, the codecs store the *gap* to
the previous ID (the first entry stores ``docID + 1`` so every encoded gap
is ≥ 1, which is what γ requires).  Term frequencies are ≥ 1 and are
stored with the same integer code as the gaps.

The engine's post-processing step uses variable-byte encoding — the paper's
choice ("compress them with variable bytes encoding") — while γ exists for
the codec ablation benchmark and for parity with the classical
inverted-file literature cited in Section II.

Every codec also encodes and decodes blocks of lists held as integer
columns (:meth:`PostingsCodec.encode_lists` / :meth:`~PostingsCodec.decode_lists`),
the only form the run writer, the reader and the merge use: varbyte does
it with numpy kernels, γ on one ``'0'``/``'1'`` string per block, and the
positional codec by looping its per-list methods.
"""

from __future__ import annotations

from itertools import accumulate
from typing import Sequence

import numpy as np

__all__ = [
    "PostingsCodec",
    "VarByteCodec",
    "EliasGammaCodec",
    "VarBytePositionalCodec",
    "CODECS",
    "get_codec",
    "to_gaps",
    "from_gaps",
    "encode_uvarint",
    "decode_uvarint",
    "encode_uvarints",
    "decode_uvarints",
    "skip_uvarints",
]

Posting = tuple[int, int]
#: ``(doc_id, tf, positions)`` — the positional codec's entry shape.
PositionalPosting = tuple[int, int, tuple[int, ...]]


# ---------------------------------------------------------------------- #
# Varint primitives (shared with the dictionary serializer)
# ---------------------------------------------------------------------- #


def encode_uvarint(value: int, out: bytearray) -> None:
    """Append ``value`` as a little-endian base-128 varint."""
    if value < 0:
        raise ValueError(f"uvarint cannot encode negative value {value}")
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


def decode_uvarint(data: bytes, pos: int) -> tuple[int, int]:
    """Decode a varint at ``pos``; return ``(value, next position)``."""
    value = 0
    shift = 0
    while True:
        if pos >= len(data):
            raise EOFError("truncated uvarint")
        byte = data[pos]
        pos += 1
        value |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return value, pos
        shift += 7


#: Longest varint :func:`decode_uvarints` accepts: 9 × 7 = 63 value bits,
#: the most a non-negative ``int64`` holds.
MAX_UVARINT_BYTES = 9

#: ``value >= UVARINT_LIMITS[k]`` needs more than ``k + 1`` bytes.
UVARINT_LIMITS = 1 << (7 * np.arange(1, MAX_UVARINT_BYTES, dtype=np.int64))


def encode_uvarints(values: np.ndarray) -> tuple[bytes, np.ndarray]:
    """Encode an integer array as varints back to back, all at once.

    The vectorised form of :func:`encode_uvarint` per value: returns the
    bytes and each value's encoded length.  Step ``k`` writes byte ``k`` of
    every varint that has one, so after the first step only values of two
    or more bytes are touched.  Integer dtypes only (the encode path is
    float-free); the caller bounds ``values`` — the temporaries are a few
    ``int64`` per value.
    """
    values = np.asarray(values).astype(np.int64, casting="safe", copy=False)
    if values.size and int(values.min()) < 0:
        raise ValueError(f"uvarint cannot encode negative value {int(values.min())}")
    lengths = np.searchsorted(UVARINT_LIMITS, values, side="right") + 1
    ends = np.cumsum(lengths)
    out = np.empty(int(ends[-1]) if values.size else 0, dtype=np.uint8)
    at, left = ends - lengths, lengths
    while at.size:
        more = left > 1
        out[at] = (values & 0x7F) | (more << 7)
        at, values, left = at[more] + 1, values[more] >> 7, left[more] - 1
    return out.tobytes(), lengths


#: Bytes :func:`decode_uvarints` decodes in one step.  Its temporaries are
#: a few ``int64`` per *byte*; at this size each stays well below the
#: allocator's mmap threshold, so a large buffer leaves no large hole behind.
_KERNEL_BLOCK_BYTES = 1 << 13


def decode_uvarints(buf: bytes | bytearray | memoryview) -> np.ndarray:
    """Decode a buffer that is nothing but varints, all at once.

    The vectorised form of calling :func:`decode_uvarint` until ``buf`` is
    used up (Pibiri & Venturini's mask-and-prefix-sum decode for
    byte-aligned codes): a byte ``< 128`` terminates a varint, every byte
    contributes its low seven bits shifted by seven times its distance
    from the varint's first byte, and ``np.add.reduceat`` sums each
    varint's bytes.  Returns the values as an ``int64`` array.

    Raises ``EOFError`` when the buffer does not end on a terminator (a
    truncated tail) and ``ValueError`` for a varint longer than nine
    bytes, which would not fit an ``int64``.
    """
    data = np.frombuffer(buf, dtype=np.uint8)
    if data.size and data[-1] >= 0x80:
        raise EOFError("truncated uvarint")
    values = np.empty(np.count_nonzero(data < 0x80), dtype=np.int64)
    done = 0
    lo = 0
    while lo < data.size:
        # A block ends on the first terminator at or after its nominal end.
        hi = min(lo + _KERNEL_BLOCK_BYTES, data.size) - 1
        hi += int(np.argmax(data[hi : hi + MAX_UVARINT_BYTES] < 0x80)) + 1
        block = data[lo:hi]
        ends = np.flatnonzero(block < 0x80)
        starts = np.concatenate(([0], ends[:-1] + 1))
        lengths = ends - starts + 1
        if block[-1] >= 0x80 or int(lengths.max()) > MAX_UVARINT_BYTES:
            raise ValueError(
                f"uvarint longer than {MAX_UVARINT_BYTES} bytes does not fit 64 bits"
            )
        shifts = (np.arange(block.size) - np.repeat(starts, lengths)) * 7
        np.add.reduceat(
            (block & 0x7F).astype(np.int64) << shifts,
            starts,
            out=values[done : done + ends.size],
        )
        done += ends.size
        lo = hi
    return values


def skip_uvarints(data: bytes, pos: int, count: int) -> int:
    """Position just past the ``count`` varints that start at ``pos``.

    ``EOFError`` when ``data`` ends first.  Looks at bounded blocks, so
    what lies beyond the varints (a payload, say) costs nothing.
    """
    while count:
        block = np.frombuffer(
            data, dtype=np.uint8, count=min(_KERNEL_BLOCK_BYTES, len(data) - pos), offset=pos
        )
        if not block.size:
            raise EOFError("truncated uvarint sequence")
        ends = np.flatnonzero(block < 0x80)
        if ends.size >= count:
            return pos + int(ends[count - 1]) + 1
        count -= ends.size
        pos += block.size
    return pos


# ---------------------------------------------------------------------- #
# Gap transform
# ---------------------------------------------------------------------- #


def to_gaps(doc_ids: Sequence[int]) -> list[int]:
    """Sorted docIDs → gaps, all ≥ 1 (first entry stores ``docID + 1``)."""
    gaps: list[int] = []
    prev = -1
    for doc_id in doc_ids:
        if doc_id <= prev:
            raise ValueError(
                f"doc ids must be strictly increasing: {doc_id} after {prev}"
            )
        gaps.append(doc_id - prev)
        prev = doc_id
    return gaps


def from_gaps(gaps: Sequence[int]) -> list[int]:
    """Inverse of :func:`to_gaps`."""
    doc_ids: list[int] = []
    prev = -1
    for gap in gaps:
        if gap < 1:
            raise ValueError(f"gaps must be >= 1, got {gap}")
        prev += gap
        doc_ids.append(prev)
    return doc_ids


# ---------------------------------------------------------------------- #
# Codec interface
# ---------------------------------------------------------------------- #


#: ``(counts, docs, tfs, positions)``: list ``i`` holds ``counts[i]``
#: postings, its rows of the ``docs`` and ``tfs`` columns following list
#: ``i - 1``'s; ``positions`` is every posting's ``tf`` positions back to
#: back, or ``None`` for a codec without them.
ListColumns = tuple[np.ndarray, np.ndarray, np.ndarray, "np.ndarray | None"]

_INT32_MAX = int(np.iinfo(np.int32).max)
_BEYOND_INT32 = "document id, term frequency or position beyond int32"


def _int32(values: np.ndarray | Sequence[int]) -> np.ndarray:
    """``values`` as an ``int32`` column; ``ValueError`` past its bound."""
    if len(values) and np.max(values) > _INT32_MAX:
        raise ValueError(_BEYOND_INT32)
    return np.asarray(values, dtype=np.int64).astype(np.int32)


def _check_tiling(payload_size: int, lengths: np.ndarray) -> None:
    if int(np.sum(lengths)) != payload_size:
        raise ValueError(f"lists of {int(np.sum(lengths))} bytes in a payload of {payload_size}")


def _list_values(
    counts: np.ndarray, docs: np.ndarray, tfs: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The integers a block of lists codes, in order: each list's count,
    then its postings' ``(gap, tf)`` pairs (the first gap is ``doc + 1``).
    Returns them as one ``int64`` column and where each count sits;
    ``ValueError`` as :meth:`PostingsCodec.encode` raises it."""
    counts = np.asarray(counts, dtype=np.int64)
    docs = np.asarray(docs, dtype=np.int64)
    tfs = np.asarray(tfs, dtype=np.int64)
    first = np.cumsum(counts) - counts
    gaps = np.diff(docs, prepend=-1)
    starts = first[counts > 0]
    gaps[starts] = docs[starts] + 1
    if gaps.size and int(gaps.min()) < 1:
        raise ValueError("postings must be sorted by strictly increasing docID")
    if tfs.size and int(tfs.min()) < 1:
        raise ValueError(f"term frequency must be >= 1, got {int(tfs.min())}")
    # List j's count sits before its postings' (gap, tf) pairs.
    heads = 2 * first + np.arange(counts.size)
    pairs = 2 * np.arange(docs.size) + np.repeat(np.arange(1, counts.size + 1), counts)
    values = np.empty(counts.size + 2 * docs.size, dtype=np.int64)
    values[heads], values[pairs], values[pairs + 1] = counts, gaps, tfs
    return values, heads


def _columns(counts: np.ndarray, gaps: np.ndarray, tfs: np.ndarray) -> ListColumns:
    """:data:`ListColumns` of lists given as counts, gaps and tfs (each
    list's first gap is its first ``doc + 1``); ``ValueError`` past int32."""
    # A gap past 2^31 alone puts a document past int32 (and could
    # overflow the running sum below).
    if gaps.size and int(gaps.max()) > _INT32_MAX + 1:
        raise ValueError(_BEYOND_INT32)
    docs = np.cumsum(gaps)
    listed = counts > 0
    starts = (np.cumsum(counts) - counts)[listed]
    docs -= np.repeat(docs[starts] - gaps[starts] + 1, counts[listed])
    return counts, _int32(docs), _int32(tfs), None


class PostingsCodec:
    """Encode/decode a docID-sorted postings list, or a block of them.

    :meth:`encode` and :meth:`decode` work on one list of ``(doc, tf)``
    tuples; :meth:`encode_lists` and :meth:`decode_lists` on lists lying
    back to back, held as integer columns (:data:`ListColumns`).  The block
    methods loop the per-list ones unless a codec has kernels for them,
    with the same bytes and verdicts; the run writer, the reader and the
    merge call only the block methods.
    """

    name = "abstract"
    #: Positional codecs carry per-occurrence positions (Ivory-style).
    positional = False

    def encode(self, postings: Sequence[Posting]) -> bytes:
        raise NotImplementedError

    def decode(self, data: bytes) -> list[Posting]:
        raise NotImplementedError

    def encode_lists(
        self,
        counts: np.ndarray,
        docs: np.ndarray,
        tfs: np.ndarray,
        positions: np.ndarray | None = None,
    ) -> tuple[bytes, np.ndarray]:
        """:meth:`encode` of each list, concatenated, and each one's length.

        Only a positional codec reads ``positions``, and it needs them.
        """
        entries: list = list(zip(np.asarray(docs).tolist(), np.asarray(tfs).tolist()))
        if self.positional:
            if positions is None or len(positions) != int(np.sum(tfs)):
                raise ValueError("a positional codec needs tf positions for every posting")
            per_posting = np.split(np.asarray(positions), np.cumsum(tfs)[:-1])
            entries = [(*entry, tuple(p.tolist())) for entry, p in zip(entries, per_posting)]
        sizes = np.asarray(counts).tolist()
        encoded = [self.encode(entries[end - n : end]) for n, end in zip(sizes, accumulate(sizes))]
        return b"".join(encoded), np.array([len(e) for e in encoded], dtype=np.int64)

    def decode_lists(self, payload: bytes | memoryview, lengths: np.ndarray) -> ListColumns:
        """Inverse of :meth:`encode_lists`: ``payload`` is lists of
        ``lengths`` bytes back to back, nothing else.

        As strict as :meth:`decode` on each list, and one bound more: the
        columns are ``int32``, and a value beyond that raises ``ValueError``.
        """
        _check_tiling(len(payload), lengths)
        data = bytes(payload)
        bounds = np.concatenate(([0], np.cumsum(lengths, dtype=np.int64))).tolist()
        lists = [self.decode(data[a:b]) for a, b in zip(bounds, bounds[1:])]
        entries = [entry for decoded in lists for entry in decoded]
        return (
            np.array([len(decoded) for decoded in lists], dtype=np.int64),
            _int32([entry[0] for entry in entries]),
            _int32([entry[1] for entry in entries]),
            _int32([p for entry in entries for p in entry[2]]) if self.positional else None,
        )


class VarByteCodec(PostingsCodec):
    """Byte-aligned base-128 codec — the engine's production choice."""

    name = "varbyte"

    def encode(self, postings: Sequence[Posting]) -> bytes:
        out = bytearray()
        encode_uvarint(len(postings), out)
        prev = -1
        for doc_id, tf in postings:
            if doc_id <= prev:
                raise ValueError("postings must be sorted by strictly increasing docID")
            if tf < 1:
                raise ValueError(f"term frequency must be >= 1, got {tf}")
            encode_uvarint(doc_id - prev, out)
            encode_uvarint(tf, out)
            prev = doc_id
        return bytes(out)

    def decode(self, data: bytes) -> list[Posting]:
        """Inverse of :meth:`encode`, strict about what it is handed.

        ``data`` must be exactly one encoded list: ``EOFError`` when it
        ends inside a varint, ``ValueError`` when the count disagrees
        with the bytes present or a gap / term frequency is zero.
        """
        try:
            count, pos = data[0], 1
            if count & 0x80:
                count, pos = decode_uvarint(data, 0)
            # The encoder never writes a zero byte after the count (a
            # varint ends on its most significant group), so one memchr
            # rules out every zero gap and zero tf -- and non-canonical
            # padding with them.
            if data.find(0, pos) != -1:
                raise ValueError("postings list holds a zero gap or term frequency")
            if count:
                first, body = decode_uvarint(data, pos)
                rest = data[body:]
                if len(rest) == 2 * count - 1 and rest.isascii():
                    # Every tf and every later gap is one byte: the usual case.
                    return list(zip(accumulate(rest[1::2], initial=first - 1), rest[::2]))
            postings: list[Posting] = []
            append = postings.append
            prev = -1
            for _ in range(count):
                gap = data[pos]
                pos += 1
                if gap & 0x80:
                    gap, pos = decode_uvarint(data, pos - 1)
                tf = data[pos]
                pos += 1
                if tf & 0x80:
                    tf, pos = decode_uvarint(data, pos - 1)
                prev += gap
                append((prev, tf))
        except IndexError:
            raise EOFError("truncated postings list") from None
        if pos != len(data):
            raise ValueError(
                f"postings list of {count} postings ends at byte {pos} of {len(data)}"
            )
        return postings

    def encode_lists(
        self,
        counts: np.ndarray,
        docs: np.ndarray,
        tfs: np.ndarray,
        positions: np.ndarray | None = None,
    ) -> tuple[bytes, np.ndarray]:
        """:meth:`PostingsCodec.encode_lists` in one :func:`encode_uvarints`
        call, with :meth:`encode`'s checks; the temporaries are a few
        ``int64`` a posting, so the caller bounds the block."""
        values, heads = _list_values(counts, docs, tfs)
        data, value_lengths = encode_uvarints(values)
        return data, np.add.reduceat(value_lengths, heads)

    def decode_lists(
        self, payload: bytes | memoryview, lengths: np.ndarray
    ) -> ListColumns:
        """:meth:`PostingsCodec.decode_lists` in one :func:`decode_uvarints` call.

        As strict as :meth:`decode` on each list: ``EOFError`` when a list
        ends inside a varint or short of its count's postings,
        ``ValueError`` when it holds more, or a zero byte after its count
        (a zero gap or tf, or non-canonical padding).
        """
        _check_tiling(len(payload), lengths)
        if not len(lengths):
            return super().decode_lists(payload, lengths)
        raw = np.frombuffer(payload, dtype=np.uint8)
        ends = np.cumsum(lengths, dtype=np.int64)
        firsts = ends - lengths
        if int(raw[ends - 1].max()) >= 0x80:
            raise EOFError("truncated postings list")
        values = decode_uvarints(payload)
        # Every list is whole varints: count its terminators to find its values.
        per_list = np.add.reduceat(raw < 0x80, firsts, dtype=np.int64)
        heads = np.cumsum(per_list) - per_list
        counts = values[heads]
        pairs = (per_list - 1) // 2
        bad = np.flatnonzero((counts != pairs) | (per_list % 2 == 0))
        if bad.size:
            i = int(bad[0])
            if counts[i] > pairs[i]:
                raise EOFError("truncated postings list")
            raise ValueError(
                f"postings list of {int(counts[i])} postings holds {int(per_list[i]) - 1} "
                f"values, not {2 * int(counts[i])}"
            )
        zeros = np.flatnonzero(raw == 0)
        if zeros.size:
            # A zero byte may only end a count (of an empty list).
            lists = np.searchsorted(firsts, zeros, side="right") - 1
            count_ends = np.flatnonzero(raw < 0x80)[heads[lists]]
            if np.any(zeros > count_ends):
                raise ValueError("postings list holds a zero gap or term frequency")
        body = np.ones(values.size, dtype=bool)
        body[heads] = False
        values = values[body]
        return _columns(counts, values[0::2], values[1::2])


def _gamma_code(value: int) -> str:
    """γ(``value``) as ``'0'``/``'1'`` characters: as many ones as
    ``value`` has bits after its leading one, a zero, then those bits.
    ``value`` must be an ``int`` >= 1; the callers check."""
    tail = bin(value)[3:]
    return "1" * len(tail) + "0" + tail


#: The codes of the values below 256 (97 % of a text build's), and those
#: values by code string: lookups instead of a call, or an ``int(..., 2)``,
#: a shift and an add, per value.
_GAMMA_CODES = ["", *(_gamma_code(value) for value in range(1, 256))]
_GAMMA_VALUES = {code: value for value, code in enumerate(_GAMMA_CODES) if value}


def _pack(values: list[int], heads: list[int]) -> tuple[bytes, list[int]]:
    """The γ lists of ``values``, list ``i`` from ``values[heads[i]]`` on:
    each list's codes joined and zero-padded to a byte, the lists back to
    back.  Their bytes and each list's length."""
    codes = [_GAMMA_CODES[value] if value < 256 else _gamma_code(value) for value in values]
    bounds = [*heads, len(codes)]
    padded = ["".join(codes[a:b]) for a, b in zip(bounds, bounds[1:])]
    padded = [bits + "0" * (-len(bits) % 8) for bits in padded]
    joined = "".join(padded)
    data = int(joined, 2).to_bytes(len(joined) >> 3, "big") if joined else b""
    return data, [len(bits) >> 3 for bits in padded]


def _read_gammas(bits: str, pos: int, end: int, count: int, out: list[int]) -> int:
    """Append the ``count`` γ values at ``bits[pos:end]`` to ``out``; the
    position past them.  ``EOFError`` when a value runs past ``end``."""
    find = bits.find
    append = out.append
    known = _GAMMA_VALUES.get
    for _ in range(count):
        zero = find("0", pos, end)
        stop = 2 * zero - pos + 1
        if zero < 0 or stop > end:
            raise EOFError("bit stream exhausted")
        append(known(bits[pos:stop]) or int(bits[zero:stop], 2) + (1 << (zero - pos)))
        pos = stop
    return pos


def _read_lists(data: bytes | memoryview, lengths: list[int], out: list[int]) -> list[int]:
    """Decode the γ lists of ``lengths`` bytes that are ``data``, on one
    ``'0'``/``'1'`` string: append their ``(gap, tf)`` values to ``out``
    and return their counts.

    ``EOFError`` when a list ends short of its count's postings,
    ``ValueError`` when anything but under a byte of zero padding follows
    its last one.
    """
    bits = format(int.from_bytes(data, "big"), f"0{8 * len(data)}b")
    counts: list[int] = []
    pos = end = 0
    for length in lengths:
        end += 8 * length
        pos = _read_gammas(bits, pos, end, 1, out)
        count = out.pop() - 1
        pos = _read_gammas(bits, pos, end, 2 * count, out)
        if end - pos >= 8 or bits.find("1", pos, end) != -1:
            raise ValueError(f"{end - pos} bits after the last posting are not the zero padding")
        counts.append(count)
        pos = end
    return counts


class EliasGammaCodec(PostingsCodec):
    """Elias-γ bit codec: unary length prefix + binary remainder.

    A list is γ(count + 1), then γ(gap) and γ(tf) per posting, most
    significant bit first, zero-padded to a byte.  Every method codes on
    ``'0'``/``'1'`` strings: encode joins the values' codes and converts
    them with one ``int(bits, 2)``; decode reads each value off one string
    of the bytes with a ``str.find`` for its unary terminator.
    """

    name = "gamma"

    def encode(self, postings: Sequence[Posting]) -> bytes:
        values = [len(postings) + 1]  # γ needs values >= 1
        prev = -1
        for doc_id, tf in postings:
            if doc_id <= prev:
                raise ValueError("postings must be sorted by strictly increasing docID")
            if tf < 1:
                raise ValueError(f"term frequency must be >= 1, got {tf}")
            values += (doc_id - prev, tf)
            prev = doc_id
        return _pack(values, [0])[0]

    def decode(self, data: bytes) -> list[Posting]:
        """Inverse of :meth:`encode`, as strict as :func:`_read_lists`."""
        values: list[int] = []
        _read_lists(data, [len(data)], values)
        return list(zip((doc - 1 for doc in accumulate(values[0::2])), values[1::2]))

    def encode_lists(
        self,
        counts: np.ndarray,
        docs: np.ndarray,
        tfs: np.ndarray,
        positions: np.ndarray | None = None,
    ) -> tuple[bytes, np.ndarray]:
        """:meth:`PostingsCodec.encode_lists` on one string of codes per
        list, with :meth:`encode`'s checks."""
        values, heads = _list_values(counts, docs, tfs)
        values[heads] += 1  # γ(count + 1), as encode writes it
        data, lengths = _pack(values.tolist(), heads.tolist())
        return data, np.array(lengths, dtype=np.int64)

    def decode_lists(self, payload: bytes | memoryview, lengths: np.ndarray) -> ListColumns:
        """:meth:`PostingsCodec.decode_lists`: as strict as :meth:`decode`
        on each list, and ``ValueError`` past int32."""
        _check_tiling(len(payload), lengths)
        values: list[int] = []
        counts = _read_lists(payload, np.asarray(lengths).tolist(), values)
        if values and max(values) > _INT32_MAX + 1:
            raise ValueError(_BEYOND_INT32)
        column = np.array(values, dtype=np.int64)
        return _columns(np.array(counts, dtype=np.int64), column[0::2], column[1::2])


class VarBytePositionalCodec(PostingsCodec):
    """Variable-byte codec carrying in-document token positions.

    Entry layout per posting: doc gap, tf, then ``tf`` position gaps
    (positions are strictly increasing within a document, so gaps are
    ≥ 1 with the first stored as ``position + 1``).  This is the postings
    shape of positional indexes like Ivory's [9], which the paper's
    comparison section discusses.
    """

    name = "varbyte-pos"
    positional = True

    # The positional entry shape intentionally differs from the base
    # codec's (doc, tf) pairs; the engine selects by `positional` flag.
    def encode(self, postings: Sequence[PositionalPosting]) -> bytes:  # type: ignore[override]
        out = bytearray()
        encode_uvarint(len(postings), out)
        prev = -1
        for doc_id, tf, positions in postings:
            if doc_id <= prev:
                raise ValueError("postings must be sorted by strictly increasing docID")
            if tf < 1:
                raise ValueError(f"term frequency must be >= 1, got {tf}")
            if len(positions) != tf:
                raise ValueError(f"{tf} occurrences but {len(positions)} positions")
            encode_uvarint(doc_id - prev, out)
            encode_uvarint(tf, out)
            prev_pos = -1
            for pos in positions:
                if pos <= prev_pos:
                    raise ValueError("positions must be strictly increasing")
                encode_uvarint(pos - prev_pos, out)
                prev_pos = pos
            prev = doc_id
        return bytes(out)

    def decode(self, data: bytes) -> list[PositionalPosting]:  # type: ignore[override]
        """Inverse of :meth:`encode`, as strict as :meth:`VarByteCodec.decode`.

        ``EOFError`` when ``data`` ends inside a varint or short of the
        promised postings; ``ValueError`` on trailing bytes or a zero doc
        gap, term frequency or position gap.
        """
        count, pos = decode_uvarint(data, 0)
        # As in VarByteCodec.decode: no zero byte follows the count.
        if data.find(0, pos) != -1:
            raise ValueError(
                "positional postings list holds a zero gap, term frequency "
                "or position gap"
            )
        postings: list[PositionalPosting] = []
        prev = -1
        for _ in range(count):
            gap, pos = decode_uvarint(data, pos)
            tf, pos = decode_uvarint(data, pos)
            prev += gap
            prev_pos = -1
            positions = []
            for _ in range(tf):
                pgap, pos = decode_uvarint(data, pos)
                prev_pos += pgap
                positions.append(prev_pos)
            postings.append((prev, tf, tuple(positions)))
        if pos != len(data):
            raise ValueError(
                f"positional postings list of {count} postings ends at byte "
                f"{pos} of {len(data)}"
            )
        return postings


#: Registry used by the engine configuration and the codec ablation bench.
CODECS: dict[str, type[PostingsCodec]] = {
    VarByteCodec.name: VarByteCodec,
    EliasGammaCodec.name: EliasGammaCodec,
    VarBytePositionalCodec.name: VarBytePositionalCodec,
}


def get_codec(name: str) -> PostingsCodec:
    """Instantiate a codec by registry name."""
    try:
        return CODECS[name]()
    except KeyError:
        raise KeyError(f"unknown codec {name!r}; available: {sorted(CODECS)}") from None
