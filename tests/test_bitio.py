"""Bit-level I/O: the substrate under the per-bit γ oracle (``tests/gamma_oracle.py``)."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tests.gamma_oracle import BitReader, BitWriter


class TestBitWriter:
    def test_empty(self):
        assert BitWriter().getvalue() == b""
        assert BitWriter().bit_length == 0

    def test_single_bits(self):
        w = BitWriter()
        for bit in [1, 0, 1, 1, 0, 0, 0, 1]:
            w.write_bit(bit)
        assert w.getvalue() == bytes([0b10110001])

    def test_partial_byte_zero_padded(self):
        w = BitWriter()
        w.write_bits(0b101, 3)
        assert w.getvalue() == bytes([0b10100000])
        assert w.bit_length == 3

    def test_multibyte_field(self):
        w = BitWriter()
        w.write_bits(0xABCD, 16)
        assert w.getvalue() == b"\xab\xcd"

    def test_field_spanning_bytes(self):
        w = BitWriter()
        w.write_bits(0b1, 1)
        w.write_bits(0xFF, 8)
        assert w.getvalue() == bytes([0b11111111, 0b10000000])

    def test_unary(self):
        w = BitWriter()
        w.write_unary(3)
        assert w.getvalue() == bytes([0b11100000])

    def test_unary_zero(self):
        w = BitWriter()
        w.write_unary(0)
        assert w.getvalue() == bytes([0b00000000])
        assert w.bit_length == 1

    def test_unary_large_crosses_chunks(self):
        w = BitWriter()
        w.write_unary(100)
        r = BitReader(w.getvalue())
        assert r.read_unary() == 100

    def test_value_too_wide_rejected(self):
        with pytest.raises(ValueError):
            BitWriter().write_bits(4, 2)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            BitWriter().write_bits(-1, 4)
        with pytest.raises(ValueError):
            BitWriter().write_unary(-1)
        with pytest.raises(ValueError):
            BitWriter().write_bits(1, -1)


class TestBitReader:
    def test_read_bits(self):
        r = BitReader(b"\xab\xcd")
        assert r.read_bits(4) == 0xA
        assert r.read_bits(8) == 0xBC
        assert r.read_bits(4) == 0xD

    def test_eof(self):
        r = BitReader(b"\xff")
        r.read_bits(8)
        with pytest.raises(EOFError):
            r.read_bit()

    def test_positions(self):
        r = BitReader(b"\x00\x00")
        assert r.bits_remaining == 16
        r.read_bits(5)
        assert r.bit_position == 5
        assert r.bits_remaining == 11

    def test_zero_width_read(self):
        r = BitReader(b"\xff")
        assert r.read_bits(0) == 0
        assert r.bit_position == 0


class TestRoundTrip:
    @given(st.lists(st.tuples(st.integers(min_value=0, max_value=2**40),
                              st.integers(min_value=1, max_value=41)),
                    max_size=50))
    def test_fields_round_trip(self, fields):
        fields = [(v & ((1 << n) - 1), n) for v, n in fields]
        w = BitWriter()
        for value, nbits in fields:
            w.write_bits(value, nbits)
        r = BitReader(w.getvalue())
        for value, nbits in fields:
            assert r.read_bits(nbits) == value

    @given(st.lists(st.integers(min_value=0, max_value=500), max_size=30))
    def test_unary_round_trip(self, values):
        w = BitWriter()
        for v in values:
            w.write_unary(v)
        r = BitReader(w.getvalue())
        for v in values:
            assert r.read_unary() == v

    @given(st.lists(st.booleans(), max_size=100))
    def test_bit_length_tracks_bits(self, bits):
        w = BitWriter()
        for b in bits:
            w.write_bit(int(b))
        assert w.bit_length == len(bits)
        assert len(w.getvalue()) == (len(bits) + 7) // 8
