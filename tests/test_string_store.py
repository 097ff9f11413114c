"""The Fig 6 length-prefixed string heap."""

from __future__ import annotations

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
