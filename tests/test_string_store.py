"""The Fig 6 length-prefixed string heap; ``padded`` reads exactly the
payloads it is asked for, as ``get`` does one at a time, and leaves the heap
free to grow."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.dictionary.string_store import MAX_TERM_BYTES, StringStore


class TestStore:
    def test_add_get(self):
        store = StringStore()
        p = store.add(b"lication")
        assert store.get(p) == b"lication"
        assert store.raw_bytes()[p] == 8  # the Fig 6 length byte

    def test_pointers_are_byte_offsets(self):
        store = StringStore()
        p1 = store.add(b"ab")
        p2 = store.add(b"xyz")
        assert p1 == 0
        assert p2 == 3  # 1 length byte + 2 payload bytes
        assert store.get(p2) == b"xyz"

    def test_empty_string(self):
        store = StringStore()
        p = store.add(b"")
        assert store.get(p) == b""
        assert store.raw_bytes()[p] == 0

    def test_255_byte_limit(self):
        store = StringStore()
        store.add(b"x" * MAX_TERM_BYTES)  # exactly at the limit
        with pytest.raises(ValueError):
            store.add(b"x" * (MAX_TERM_BYTES + 1))

    def test_counters(self):
        store = StringStore()
        store.add(b"ab")
        store.add(b"c")
        assert len(store) == 2
        assert store.byte_size == 5

    @given(st.lists(st.binary(max_size=40), max_size=100))
    def test_round_trip_many(self, payloads):
        store = StringStore()
        ptrs = [store.add(p) for p in payloads]
        for ptr, payload in zip(ptrs, payloads):
            assert store.get(ptr) == payload
        assert len(store) == len(payloads)


@given(
    payloads=st.lists(st.binary(max_size=12), min_size=1, max_size=20),
    picks=st.lists(st.integers(min_value=0), max_size=10),
)
def test_padded_rows_are_the_payloads_zero_padded(payloads, picks):
    store = StringStore()
    ptrs = [store.add(payload) for payload in payloads]
    # Always the last string (its bytes end the heap), then any others.
    chosen = np.array([ptrs[-1]] + [ptrs[i % len(ptrs)] for i in picks], dtype=np.int64)
    rows = store.padded(chosen)
    width = max(len(store.get(ptr)) for ptr in chosen.tolist())
    assert rows.dtype == np.uint8 and rows.shape == (len(chosen), width)
    for row, ptr in zip(rows, chosen.tolist()):
        assert bytes(row) == store.get(ptr).ljust(width, b"\0")
    # A copy, not a view of the heap: the heap still grows.
    store.extend_packed(bytes([2]) + b"zz", 1)
    assert store.get(store.byte_size - 3) == b"zz"


def test_padded_of_no_pointers_is_empty():
    store = StringStore()
    store.add(b"abc")
    assert store.padded(np.zeros(0, dtype=np.int64)).shape == (0, 0)
    assert StringStore().padded(np.zeros(0, dtype=np.int64)).shape == (0, 0)
