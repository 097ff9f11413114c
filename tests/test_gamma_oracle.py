"""Elias-γ on bit strings against the per-bit oracle (``tests/gamma_oracle.py``).

:class:`EliasGammaCodec` codes a block of lists on one ``'0'``/``'1'``
string; the oracle is the codec it replaced, one bit at a time through a
``BitWriter`` / ``BitReader``, with ``PostingsCodec``'s per-list loop as
its block methods.  Both must write the same bytes, read the same
columns, and refuse a malformed list with the same exception type.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.postings.compression import EliasGammaCodec
from tests.gamma_oracle import BitWriter, OracleGammaCodec

CODEC = EliasGammaCodec()
ORACLE = OracleGammaCodec()

#: Gaps and term frequencies at the code-length edges and past int32.
_value = st.one_of(
    st.sampled_from([1, 2, 3, 4, 7, 8, 255, 256, 2**31 - 1, 2**31, 2**31 + 1]),
    st.integers(1, 1 << 20),
)
#: A block: lists of ``(gap, tf)`` postings, possibly none, possibly empty.
_blocks = st.lists(st.lists(st.tuples(_value, _value), max_size=6), max_size=6)


def _lists(spec):
    """``spec`` as per-list ``(doc, tf)`` postings (each first gap is doc + 1)."""
    lists = []
    for pairs in spec:
        doc, postings = -1, []
        for gap, tf in pairs:
            doc += gap
            postings.append((doc, tf))
        lists.append(postings)
    return lists


def _columns(lists):
    flat = [entry for postings in lists for entry in postings]
    return (
        np.array([len(postings) for postings in lists], dtype=np.int64),
        np.array([doc for doc, _ in flat], dtype=np.int64),
        np.array([tf for _, tf in flat], dtype=np.int64),
    )


def _outcome(decode, *args):
    """What a decode returns, columns as lists, or the type it raises."""
    try:
        got = decode(*args)
    except (ValueError, EOFError) as exc:
        return type(exc)
    if isinstance(got, tuple):
        return [column.tolist() for column in got[:3]], got[3]
    return got


def _oracle_bits(values):
    """The γ codes of ``values`` back to back, zero-padded, by the oracle."""
    writer = BitWriter()
    for value in values:
        OracleGammaCodec._write_gamma(writer, value)
    return writer.getvalue()


def _same_verdicts(lists: list[bytes]) -> None:
    """Every list, and the block of them, decodes or raises as the oracle."""
    for data in lists:
        assert _outcome(CODEC.decode, data) == _outcome(ORACLE.decode, data)
    payload, lengths = b"".join(lists), np.array([len(d) for d in lists], dtype=np.int64)
    assert _outcome(CODEC.decode_lists, payload, lengths) == _outcome(
        ORACLE.decode_lists, payload, lengths
    )


@given(spec=_blocks)
def test_same_bytes_and_columns(spec):
    lists = _lists(spec)
    encoded = [ORACLE.encode(postings) for postings in lists]
    assert [CODEC.encode(postings) for postings in lists] == encoded
    data, lengths = CODEC.encode_lists(*_columns(lists))
    oracle_data, oracle_lengths = ORACLE.encode_lists(*_columns(lists))
    assert data == oracle_data == b"".join(encoded)
    assert lengths.dtype == np.int64
    assert lengths.tolist() == oracle_lengths.tolist() == [len(e) for e in encoded]
    assert [CODEC.decode(e) for e in encoded] == lists
    _same_verdicts(encoded)


def _raw(pairs):
    """A list's γ values: ``count + 1``, then each posting's gap and tf."""
    return [len(pairs) + 1, *(value for pair in pairs for value in pair)]


@pytest.mark.parametrize("edit", ["truncated", "bit-flipped", "over-padded", "oversized-code"])
@given(spec=_blocks.filter(bool), where=st.integers(0, 1 << 16), what=st.integers(0, 1 << 16))
def test_malformed_input_raises_as_the_oracle(edit, spec, where, what):
    """``edit`` applied to one list of a block: the list cut short by one
    to three bytes, one bit flipped, a byte appended, or one value (the
    count too) made 2^31 to 2^71, or ones appended that a value missing
    from the list runs into."""
    raw = [_raw(pairs) for pairs in spec]
    lists = [_oracle_bits(values) for values in raw]
    i = where % len(lists)
    data = lists[i]
    if edit == "truncated":
        lists[i] = data[: max(0, len(data) - 1 - what % 3)]
    elif edit == "bit-flipped":
        flipped = bytearray(data)
        flipped[what % len(data)] ^= 0x80 >> where % 8
        lists[i] = bytes(flipped)
    elif edit == "over-padded":
        lists[i] = data + bytes([what % 3 and what % 256])
    elif what % 4:
        values = raw[i]
        values[what % len(values)] = (1 << (31 + what % 41)) + what % 2
        lists[i] = _oracle_bits(values)
    else:
        values = raw[i]
        values[0] += 1 + what % 2
        lists[i] = _oracle_bits(values) + b"\xff" * (1 + what % 3)
    _same_verdicts(lists)
