"""Elias-γ before the block codec: one bit at a time through a bit I/O layer.

:class:`repro.postings.compression.EliasGammaCodec` now codes a whole
block of lists on one ``'0'/'1'`` string.  This module is the code it
replaced, kept verbatim as the oracle it must equal
(``tests/test_gamma_oracle.py``): the MSB-first :class:`BitWriter` /
:class:`BitReader` that were ``repro.util.bitio``, and the per-list codec
with its ``_write_gamma`` / ``_read_gamma`` and ``_check_padding``.  Its
block methods are :class:`~repro.postings.compression.PostingsCodec`'s
per-list loop.
"""

from __future__ import annotations

from typing import Sequence

from repro.postings.compression import Posting, PostingsCodec

__all__ = ["BitWriter", "BitReader", "OracleGammaCodec"]


class BitWriter:
    """Accumulates bits MSB-first and renders them as :class:`bytes`.

    The final byte is zero-padded on the right.  Codecs that need an
    unambiguous end must encode their own length or count up front (all of
    ours store the number of entries in a header).
    """

    __slots__ = ("_buf", "_acc", "_nacc")

    def __init__(self) -> None:
        self._buf = bytearray()
        self._acc = 0  # bit accumulator, MSB side is the oldest bit
        self._nacc = 0  # number of valid bits in the accumulator

    def write_bit(self, bit: int) -> None:
        """Append a single bit (0 or 1)."""
        self.write_bits(bit & 1, 1)

    def write_bits(self, value: int, nbits: int) -> None:
        """Append ``nbits`` bits of ``value`` (MSB of the field first)."""
        if nbits < 0:
            raise ValueError(f"nbits must be >= 0, got {nbits}")
        if value < 0:
            raise ValueError(f"value must be >= 0, got {value}")
        if nbits and value >> nbits:
            raise ValueError(f"value {value} does not fit in {nbits} bits")
        self._acc = (self._acc << nbits) | value
        self._nacc += nbits
        # Flush whole bytes out of the accumulator.
        while self._nacc >= 8:
            self._nacc -= 8
            self._buf.append((self._acc >> self._nacc) & 0xFF)
        self._acc &= (1 << self._nacc) - 1

    def write_unary(self, n: int) -> None:
        """Append ``n`` in unary: ``n`` one-bits then a terminating zero."""
        if n < 0:
            raise ValueError(f"unary value must be >= 0, got {n}")
        # Write in chunks so enormous n cannot build a huge accumulator shift.
        remaining = n
        while remaining >= 32:
            self.write_bits(0xFFFFFFFF, 32)
            remaining -= 32
        self.write_bits(((1 << remaining) - 1) << 1, remaining + 1)

    def getvalue(self) -> bytes:
        """Return the packed bytes, zero-padding the trailing partial byte."""
        out = bytes(self._buf)
        if self._nacc:
            out += bytes([(self._acc << (8 - self._nacc)) & 0xFF])
        return out

    @property
    def bit_length(self) -> int:
        """Number of bits written so far (excludes padding)."""
        return len(self._buf) * 8 + self._nacc


class BitReader:
    """Reads bits MSB-first from a :class:`bytes` buffer."""

    __slots__ = ("_data", "_pos")

    def __init__(self, data: bytes) -> None:
        self._data = data
        self._pos = 0  # absolute bit position

    def read_bit(self) -> int:
        """Read one bit; raises :class:`EOFError` past the end."""
        return self.read_bits(1)

    def read_bits(self, nbits: int) -> int:
        """Read ``nbits`` bits as an unsigned integer."""
        if nbits < 0:
            raise ValueError(f"nbits must be >= 0, got {nbits}")
        end = self._pos + nbits
        if end > len(self._data) * 8:
            raise EOFError("bit stream exhausted")
        value = 0
        pos = self._pos
        remaining = nbits
        while remaining:
            byte_index, bit_offset = divmod(pos, 8)
            take = min(8 - bit_offset, remaining)
            chunk = self._data[byte_index] >> (8 - bit_offset - take)
            value = (value << take) | (chunk & ((1 << take) - 1))
            pos += take
            remaining -= take
        self._pos = end
        return value

    def read_unary(self) -> int:
        """Read a unary-coded value (count of one-bits before the zero)."""
        count = 0
        while self.read_bit():
            count += 1
        return count

    @property
    def bit_position(self) -> int:
        """Current absolute bit offset."""
        return self._pos

    @property
    def bits_remaining(self) -> int:
        """Bits left in the buffer (includes any writer padding)."""
        return len(self._data) * 8 - self._pos


def _check_padding(reader: BitReader) -> None:
    """After a bit-coded list's last posting: only the zero padding
    :class:`BitWriter` adds may remain, fewer than eight bits."""
    left = reader.bits_remaining
    if left >= 8 or reader.read_bits(left):
        raise ValueError(f"{left} bits after the last posting are not the zero padding")


class OracleGammaCodec(PostingsCodec):
    """Elias-γ bit codec: unary length prefix + binary remainder."""

    name = "gamma"

    @staticmethod
    def _write_gamma(writer: BitWriter, value: int) -> None:
        if value < 1:
            raise ValueError(f"gamma can only encode integers >= 1, got {value}")
        nbits = value.bit_length()
        writer.write_unary(nbits - 1)
        if nbits > 1:
            writer.write_bits(value - (1 << (nbits - 1)), nbits - 1)

    @staticmethod
    def _read_gamma(reader: BitReader) -> int:
        nbits = reader.read_unary() + 1
        if nbits == 1:
            return 1
        return (1 << (nbits - 1)) | reader.read_bits(nbits - 1)

    def encode(self, postings: Sequence[Posting]) -> bytes:
        writer = BitWriter()
        self._write_gamma(writer, len(postings) + 1)  # γ needs values >= 1
        prev = -1
        for doc_id, tf in postings:
            if doc_id <= prev:
                raise ValueError("postings must be sorted by strictly increasing docID")
            if tf < 1:
                raise ValueError(f"term frequency must be >= 1, got {tf}")
            self._write_gamma(writer, doc_id - prev)
            self._write_gamma(writer, tf)
            prev = doc_id
        return writer.getvalue()

    def decode(self, data: bytes) -> list[Posting]:
        reader = BitReader(data)
        count = self._read_gamma(reader) - 1
        postings: list[Posting] = []
        prev = -1
        for _ in range(count):
            prev += self._read_gamma(reader)
            tf = self._read_gamma(reader)
            postings.append((prev, tf))
        _check_padding(reader)
        return postings
