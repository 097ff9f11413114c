"""Postings codecs: varbyte and Elias-γ over d-gaps."""

from __future__ import annotations

import random
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.postings.compression import (
    CODECS,
    EliasGammaCodec,
    VarByteCodec,
    VarBytePositionalCodec,
    decode_uvarint,
    decode_uvarints,
    encode_uvarint,
    encode_uvarints,
    from_gaps,
    get_codec,
    skip_uvarints,
    to_gaps,
)
from repro.postings.compression import _gamma_code, _read_gammas
from tests.gamma_oracle import BitReader, BitWriter, OracleGammaCodec

postings_lists = st.lists(
    st.tuples(st.integers(min_value=0, max_value=10), st.integers(min_value=1, max_value=50)),
    max_size=60,
).map(
    # Strictly increasing doc ids from cumulative positive gaps.
    lambda pairs: [
        (sum(g for g, _ in pairs[: i + 1]) + i, tf) for i, (_, tf) in enumerate(pairs)
    ]
)

ALL_CODECS = [VarByteCodec(), EliasGammaCodec()]


class TestVarint:
    @given(st.integers(min_value=0, max_value=2**62))
    def test_round_trip(self, n):
        buf = bytearray()
        encode_uvarint(n, buf)
        value, pos = decode_uvarint(bytes(buf), 0)
        assert value == n and pos == len(buf)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            encode_uvarint(-1, bytearray())

    def test_truncated(self):
        with pytest.raises(EOFError):
            decode_uvarint(b"\x80", 0)

    def test_compact_small_values(self):
        buf = bytearray()
        encode_uvarint(127, buf)
        assert len(buf) == 1


def _loop_decode(buf: bytes) -> list[int]:
    """The reference: ``decode_uvarint`` until the buffer is used up."""
    values, pos = [], 0
    while pos < len(buf):
        value, pos = decode_uvarint(buf, pos)
        values.append(value)
    return values


def _random_varints(rng: random.Random, count: int) -> tuple[list[int], bytes]:
    """``count`` values whose encodings are 1 to 9 bytes long, encoded."""
    values = [rng.getrandbits(7 * rng.randint(1, 9)) for _ in range(count)]
    buf = bytearray()
    for value in values:
        encode_uvarint(value, buf)
    return values, bytes(buf)


class TestVectorisedVarints:
    """``decode_uvarints`` against the one-at-a-time loop it replaces."""

    @pytest.fixture(params=[1, 2, 7, 64, 1 << 13])
    def block_bytes(self, request, monkeypatch):
        from repro.postings import compression

        monkeypatch.setattr(compression, "_KERNEL_BLOCK_BYTES", request.param)
        return request.param

    def test_random_buffers_match_the_loop(self, block_bytes):
        rng = random.Random(block_bytes)
        lengths_seen = set()
        for _ in range(60):
            values, buf = _random_varints(rng, rng.randint(1, 80))
            decoded = decode_uvarints(buf)
            assert decoded.dtype.name == "int64"
            assert decoded.tolist() == values == _loop_decode(buf)
            for value in values:
                one = bytearray()
                encode_uvarint(value, one)
                lengths_seen.add(len(one))
        assert lengths_seen == set(range(1, 10))

    def test_accepts_any_buffer(self):
        _, buf = _random_varints(random.Random(3), 20)
        expected = decode_uvarints(buf).tolist()
        assert decode_uvarints(bytearray(buf)).tolist() == expected
        assert decode_uvarints(memoryview(buf)).tolist() == expected

    def test_empty_buffer(self, block_bytes):
        assert decode_uvarints(b"").tolist() == []

    def test_largest_value(self, block_bytes):
        buf = bytearray()
        encode_uvarint(2**63 - 1, buf)
        assert len(buf) == 9
        assert decode_uvarints(bytes(buf)).tolist() == [2**63 - 1]

    @pytest.mark.parametrize("tail", [b"\x80", b"\xff\xff", b"\x81" * 12])
    def test_truncated_tail(self, block_bytes, tail):
        _, buf = _random_varints(random.Random(5), 9)
        with pytest.raises(EOFError):
            decode_uvarints(buf + tail)
        with pytest.raises(EOFError):
            _loop_decode(buf + tail)

    @pytest.mark.parametrize("where", ["first", "middle", "last"])
    def test_ten_byte_varint_rejected(self, block_bytes, where):
        _, buf = _random_varints(random.Random(7), 12)
        too_long = b"\x80" * 9 + b"\x01"
        bad = {"first": too_long + buf, "middle": buf + too_long + buf, "last": buf + too_long}
        with pytest.raises(ValueError, match="64 bits"):
            decode_uvarints(bad[where])

    def test_skip_matches_decode_positions(self, block_bytes):
        rng = random.Random(11)
        _, buf = _random_varints(rng, 50)
        payload = bytes(rng.getrandbits(8) for _ in range(40))
        pos, ends = 0, [0]
        for _ in range(50):
            _, pos = decode_uvarint(buf, pos)
            ends.append(pos)
        for count in (0, 1, 2, 17, 50):
            assert skip_uvarints(buf + payload, 0, count) == ends[count]
            assert skip_uvarints(buf + payload, ends[3], max(count - 3, 0)) == ends[max(count, 3)]
        with pytest.raises(EOFError):
            skip_uvarints(buf, 0, 51)
        with pytest.raises(EOFError):
            skip_uvarints(buf + b"\x80", ends[50], 1)


#: Every encoded length's smallest and largest value, and 2^63 − 1.
_BOUNDARIES = sorted(
    {0, 2**63 - 1} | {(1 << 7 * k) - d for k in range(1, 10) for d in (0, 1) if (1 << 7 * k) - d < 2**63}
)


class TestEncodeKernel:
    """``encode_uvarints`` against ``encode_uvarint`` and ``decode_uvarints``."""

    @given(st.lists(st.one_of(st.sampled_from(_BOUNDARIES), st.integers(0, 2**63 - 1)), max_size=300))
    def test_round_trip_and_lengths_match_the_loop(self, values):
        data, lengths = encode_uvarints(np.array(values, dtype=np.int64))
        loop, loop_lengths = bytearray(), []
        for value in values:
            before = len(loop)
            encode_uvarint(value, loop)
            loop_lengths.append(len(loop) - before)
        assert data == bytes(loop)
        assert lengths.tolist() == loop_lengths
        assert decode_uvarints(data).tolist() == values

    def test_every_boundary(self):
        data, lengths = encode_uvarints(np.array(_BOUNDARIES, dtype=np.int64))
        assert decode_uvarints(data).tolist() == _BOUNDARIES
        # 0 and 2^7k − 1 are the last values of k bytes, 2^7k the first of k + 1.
        assert lengths.tolist() == [1] + [k + d for k in range(1, 9) for d in (0, 1)] + [9]

    def test_empty(self):
        data, lengths = encode_uvarints(np.empty(0, dtype=np.int64))
        assert data == b"" and lengths.tolist() == []

    def test_narrow_and_unsigned_dtypes(self):
        for dtype in (np.uint8, np.int32, np.uint32):
            assert encode_uvarints(np.array([0, 5, 200], dtype=dtype))[0] == b"\x00\x05\xc8\x01"

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            encode_uvarints(np.array([3, -1, 4], dtype=np.int64))

    @pytest.mark.parametrize("values", [np.array([1.0]), np.array([2**63], dtype=np.uint64)])
    def test_not_an_int64_rejected(self, values):
        with pytest.raises(TypeError):
            encode_uvarints(values)


class TestGaps:
    def test_round_trip(self):
        ids = [0, 1, 5, 100]
        assert from_gaps(to_gaps(ids)) == ids

    def test_first_gap_is_doc_plus_one(self):
        assert to_gaps([7]) == [8]

    def test_unsorted_rejected(self):
        with pytest.raises(ValueError):
            to_gaps([5, 5])
        with pytest.raises(ValueError):
            to_gaps([5, 3])

    def test_bad_gap_rejected(self):
        with pytest.raises(ValueError):
            from_gaps([0])


class TestCodecs:
    @pytest.mark.parametrize("codec", ALL_CODECS, ids=lambda c: c.name)
    def test_known_list(self, codec):
        pl = [(0, 3), (5, 1), (6, 2), (100, 9), (100000, 1)]
        assert codec.decode(codec.encode(pl)) == pl

    @pytest.mark.parametrize("codec", ALL_CODECS, ids=lambda c: c.name)
    def test_empty_list(self, codec):
        assert codec.decode(codec.encode([])) == []

    @pytest.mark.parametrize("codec", ALL_CODECS, ids=lambda c: c.name)
    def test_single_posting(self, codec):
        assert codec.decode(codec.encode([(42, 7)])) == [(42, 7)]

    @pytest.mark.parametrize("codec", ALL_CODECS, ids=lambda c: c.name)
    def test_unsorted_rejected(self, codec):
        with pytest.raises(ValueError):
            codec.encode([(5, 1), (5, 1)])

    @pytest.mark.parametrize("codec", ALL_CODECS, ids=lambda c: c.name)
    def test_zero_tf_rejected(self, codec):
        with pytest.raises(ValueError):
            codec.encode([(1, 0)])

    @pytest.mark.parametrize("codec", [EliasGammaCodec()], ids=lambda c: c.name)
    def test_bits_after_the_last_posting_rejected(self, codec):
        """Only the zero padding to a byte, under a byte, may follow."""
        encoded = codec.encode([(0, 1), (4, 2)])
        assert codec.decode(encoded) == [(0, 1), (4, 2)]
        for bad in (encoded + b"\x00", encoded[:-1] + bytes([encoded[-1] | 1])):
            with pytest.raises(ValueError, match="padding"):
                codec.decode(bad)

    @settings(max_examples=60)
    @given(postings_lists, st.sampled_from(["varbyte", "gamma"]))
    def test_round_trip_random(self, postings, name):
        codec = get_codec(name)
        assert codec.decode(codec.encode(postings)) == postings

    def test_registry(self):
        assert set(CODECS) == {"varbyte", "gamma", "varbyte-pos"}
        for name in ("zstd", "golomb"):
            with pytest.raises(KeyError):
                get_codec(name)

    def test_gap_encoding_beats_absolute_for_dense_lists(self):
        dense = [(i, 1) for i in range(0, 2000, 2)]
        encoded = VarByteCodec().encode(dense)
        # Absolute 2-byte+ ids would need >2 bytes per posting; gaps of 2
        # need 1 byte for the gap + 1 for tf.
        assert len(encoded) < len(dense) * 2.5


def _positional(data: bytes, why: str):
    """A strict-decode row for the positional codec (bare bytes rows are
    plain varbyte)."""
    return pytest.param((VarBytePositionalCodec(), data), id=f"positional-{why}")


#: Gaps, term frequencies and position gaps on both sides of the one- and
#: two-byte varint edges.  Every value fits four varint bytes, so no one
#: flipped byte can make a list decode past int32 without breaking it.
_edge = st.one_of(st.sampled_from([1, 2, 127, 128, 16383, 16384]), st.integers(1, 1 << 20))
#: A block of lists (possibly none, possibly empty ones); a posting is
#: ``(doc gap, tf, position gaps)`` and the positional codec's tf is the
#: number of position gaps.
_blocks = st.lists(
    st.lists(st.tuples(_edge, _edge, st.lists(_edge, min_size=1, max_size=3)), max_size=6),
    max_size=8,
)


def _block_lists(codec, spec):
    """``spec`` as the per-list postings ``codec.encode`` takes."""
    lists = []
    for entries in spec:
        doc, postings = -1, []
        for gap, tf, position_gaps in entries:
            doc += gap
            if codec.positional:
                positions = tuple(p - 1 for p in accumulate(position_gaps))
                postings.append((doc, len(positions), positions))
            else:
                postings.append((doc, tf))
        lists.append(postings)
    return lists


def _block_columns(lists):
    """``encode_lists`` arguments for per-list postings."""
    flat = [entry for postings in lists for entry in postings]
    counts = np.array([len(postings) for postings in lists], dtype=np.int64)
    docs = np.array([entry[0] for entry in flat], dtype=np.int64)
    tfs = np.array([entry[1] for entry in flat], dtype=np.int64)
    positions = None
    if flat and len(flat[0]) == 3:
        positions = np.array([p for entry in flat for p in entry[2]], dtype=np.int64)
    return counts, docs, tfs, positions


def _per_list_decode(codec, data, lengths):
    """The reference for ``decode_lists``: ``decode`` list by list, and
    the block's int32 bound on what it returns."""
    lists, at = [], 0
    for length in lengths:
        lists.append(codec.decode(data[at : at + length]))
        at += length
    if any(max(entry[0], entry[1]) > 2**31 - 1 for postings in lists for entry in postings):
        raise ValueError("beyond int32")
    return lists


def _reference(codec):
    """The per-list codec a block method must equal: γ's is the per-bit
    oracle, the others' their own ``encode`` / ``decode``."""
    return OracleGammaCodec() if codec.name == "gamma" else codec


class TestBlockMethods:
    """``encode_lists`` / ``decode_lists`` against the per-list reference."""

    @pytest.mark.parametrize("name", sorted(CODECS))
    @given(spec=_blocks)
    def test_block_equals_per_list(self, name, spec):
        codec = get_codec(name)
        lists = _block_lists(codec, spec)
        encoded = [_reference(codec).encode(postings) for postings in lists]
        counts, docs, tfs, positions = _block_columns(lists)
        if codec.positional and positions is None:
            positions = np.empty(0, dtype=np.int64)
        data, lengths = codec.encode_lists(counts, docs, tfs, positions)
        assert data == b"".join(encoded)
        assert lengths.tolist() == [len(e) for e in encoded]
        got_counts, got_docs, got_tfs, got_positions = codec.decode_lists(data, lengths)
        assert got_docs.dtype == got_tfs.dtype == np.int32
        assert got_counts.tolist() == counts.tolist()
        assert got_docs.tolist() == docs.tolist()
        assert got_tfs.tolist() == tfs.tolist()
        if codec.positional:
            assert got_positions.tolist() == positions.tolist()
        else:
            assert got_positions is None

    @pytest.mark.parametrize("name", ["varbyte", "gamma"])
    @given(spec=_blocks, where=st.integers(0, 1 << 16), mask=st.integers(1, 255))
    def test_flipped_byte_raises_as_per_list_decode(self, name, spec, where, mask):
        codec = get_codec(name)
        lists = _block_lists(codec, spec)
        data, lengths = codec.encode_lists(*_block_columns(lists)[:3])
        if not data:
            return
        flipped = bytearray(data)
        flipped[where % len(data)] ^= mask
        flipped = bytes(flipped)
        try:
            expected = _per_list_decode(_reference(codec), flipped, lengths.tolist())
        except (ValueError, EOFError) as exc:
            with pytest.raises(type(exc)):
                codec.decode_lists(flipped, lengths)
        else:
            got = codec.decode_lists(flipped, lengths)[:3]
            want = _block_columns(expected)[:3]
            assert [column.tolist() for column in got] == [column.tolist() for column in want]

    def test_empty_block(self):
        for name in CODECS:
            codec = get_codec(name)
            positions = np.empty(0, dtype=np.int64) if codec.positional else None
            data, lengths = codec.encode_lists(
                np.empty(0, np.int64), np.empty(0, np.int64), np.empty(0, np.int64), positions
            )
            assert (data, lengths.tolist()) == (b"", [])
            counts, docs, tfs, _ = codec.decode_lists(b"", lengths)
            assert counts.size == docs.size == tfs.size == 0

    def test_payload_must_be_the_lists(self):
        for name in ("varbyte", "gamma"):
            codec = get_codec(name)
            one = codec.encode([(3, 1)])
            with pytest.raises(ValueError, match="payload"):
                codec.decode_lists(one + one, np.array([len(one)]))


class TestVarByteDecodeIsStrict:
    """A list that is not exactly what ``encode`` writes never decodes,
    for the plain and the positional varbyte codec alike."""

    codec = VarByteCodec()

    def _decode(self, data):
        codec, data = data if isinstance(data, tuple) else (self.codec, data)
        return codec.decode(data)

    def test_fast_and_general_path_agree_with_encode(self):
        rng = random.Random(13)
        for _ in range(300):
            doc, postings = -1, []
            for _ in range(rng.randint(1, 40)):
                # Gaps and tfs on both sides of the one-byte boundary.
                doc += rng.choice([1, 2, 90, 127, 128, 129, 16383, 16384, 70000])
                postings.append((doc, rng.choice([1, 1, 1, 3, 127, 128, 300])))
            encoded = self.codec.encode(postings)
            decoded = self.codec.decode(encoded)
            assert decoded == postings
            assert all(type(d) is int and type(tf) is int for d, tf in decoded)

    def test_all_single_byte_list(self):
        postings = [(0, 1), (1, 2), (5, 1), (126, 127)]
        assert self.codec.decode(self.codec.encode(postings)) == postings

    @pytest.mark.parametrize(
        "data",
        [
            b"",  # not even a count
            b"\x02\x05\x01",  # two postings promised, one present
            b"\x02\x05\x01\x03",  # ends where a tf should be
            b"\x01\x85",  # ends inside the gap
            b"\x02\x05\x01\x03\x81",  # ends inside the last tf
            b"\x81",  # ends inside the count
            _positional(b"", "no-count"),
            _positional(b"\x02\x05\x01\x01", "second-posting-missing"),
            _positional(b"\x01\x05\x02\x01", "second-position-missing"),
            _positional(b"\x01\x05\x01\x83", "inside-a-position-gap"),
        ],
    )
    def test_truncated(self, data):
        with pytest.raises(EOFError):
            self._decode(data)

    @pytest.mark.parametrize(
        "data",
        [
            b"\x01\x05\x01\x03\x01",  # one posting promised, two present
            b"\x00\x05\x01",  # none promised, one present
            b"\x01\x85\x01\x01\x07",  # trailing byte after a multi-byte gap
            b"\x02\x05\x01\x00\x01",  # zero gap
            b"\x02\x05\x00\x03\x01",  # zero tf
            b"\x01\x00\x01",  # first gap zero (doc id -1)
            b"\x01\x85\x00\x01",  # non-canonical padding
            _positional(b"\x01\x05\x01\x01\x07", "trailing-byte"),
            _positional(b"\x00\x05", "none-promised-one-present"),
            _positional(b"\x02\x05\x01\x01\x00\x01\x01", "zero-doc-gap"),
            _positional(b"\x01\x05\x00", "zero-tf"),
            _positional(b"\x01\x05\x02\x01\x00", "zero-position-gap"),
        ],
    )
    def test_malformed(self, data):
        with pytest.raises(ValueError):
            self._decode(data)


class TestGamma:
    """The γ code strings against the per-bit oracle's ``_write_gamma``."""

    @staticmethod
    def _oracle_bits(n):
        writer = BitWriter()
        OracleGammaCodec._write_gamma(writer, n)
        return writer

    def test_gamma_code_of_one_is_single_bit(self):
        assert _gamma_code(1) == "0"
        assert self._oracle_bits(1).bit_length == 1

    def test_gamma_lengths(self):
        # γ(n) uses 2⌊log2 n⌋ + 1 bits.
        for n, bits in [(1, 1), (2, 3), (3, 3), (4, 5), (100, 13)]:
            assert len(_gamma_code(n)) == self._oracle_bits(n).bit_length == bits, n

    def test_gamma_rejects_zero(self):
        with pytest.raises(ValueError):
            OracleGammaCodec._write_gamma(BitWriter(), 0)
        # The codec never hands a zero to its code: every value is checked.
        with pytest.raises(ValueError):
            EliasGammaCodec().encode([(0, 0)])
        with pytest.raises(ValueError):
            EliasGammaCodec().encode_lists(np.array([1]), np.array([0]), np.array([0]))

    @given(st.integers(min_value=1, max_value=2**30))
    def test_gamma_round_trip(self, n):
        writer = self._oracle_bits(n)
        data = writer.getvalue()
        bits = format(int.from_bytes(data, "big"), f"0{8 * len(data)}b")
        assert bits[: writer.bit_length] == _gamma_code(n)
        assert OracleGammaCodec._read_gamma(BitReader(data)) == n
        out: list[int] = []
        assert _read_gammas(bits, 0, 8 * len(data), 1, out) == writer.bit_length
        assert out == [n]
