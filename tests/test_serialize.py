"""Front-coded dictionary persistence ("Dictionary Write")."""

from __future__ import annotations

import os
import zlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dictionary import serialize
from repro.dictionary.dictionary import SHARD_ID_SPACE_BITS, Dictionary, DictionaryShard
from repro.dictionary.serialize import load_dictionary, save_dictionary
from repro.dictionary.trie import TrieTable
from repro.postings.compression import decode_uvarint, encode_uvarints
from tests import dictionary_oracle as oracle

terms = st.text(
    alphabet=st.sampled_from("abcdefghijklmnopqrstuvwxyz0123456789é"),
    min_size=1,
    max_size=10,
)


class TestRoundTrip:
    def test_basic(self, tmp_path):
        d = Dictionary()
        expected = {}
        for t in ["application", "apple", "applied", "zoo", "01", "-80", "a"]:
            tid, _ = d.add_term(t)
            expected[t] = tid
        path = str(tmp_path / "dict.bin")
        nbytes = save_dictionary(d, path)
        assert nbytes == os.path.getsize(path)
        assert load_dictionary(path) == expected

    def test_empty_dictionary(self, tmp_path):
        path = str(tmp_path / "dict.bin")
        save_dictionary(Dictionary(), path)
        assert load_dictionary(path) == {}

    def test_bad_magic_rejected(self, tmp_path):
        path = str(tmp_path / "junk.bin")
        with open(path, "wb") as fh:
            fh.write(b"NOTADICT")
        with pytest.raises(ValueError):
            load_dictionary(path)

    def test_non_default_trie_height(self, tmp_path):
        d = DictionaryShard(TrieTable(height=2))
        d.add_term("application")
        path = str(tmp_path / "h2.bin")
        save_dictionary(d, path)
        assert "application" in load_dictionary(path)

    def test_front_coding_compresses_shared_prefixes(self, tmp_path):
        d = Dictionary()
        # Many shared-prefix terms in one collection.
        for i in range(200):
            d.add_term(f"prefixsharing{i:04d}")
        path = str(tmp_path / "fc.bin")
        nbytes = save_dictionary(d, path)
        raw = sum(len(t) for t, _ in d.terms())
        assert nbytes < raw  # front-coding beats storing full strings

    @settings(max_examples=30)
    @given(st.lists(terms, max_size=150))
    def test_round_trip_random(self, tmp_path_factory, words):
        d = Dictionary()
        for w in words:
            d.add_term(w)
        path = str(tmp_path_factory.mktemp("ser") / "d.bin")
        save_dictionary(d, path)
        assert load_dictionary(path) == dict(d.terms())


# --------------------------------------------------------------------------- #
# The column codec against the per-term oracle
# --------------------------------------------------------------------------- #

_LONG_PREFIXES = ("a" * 140, "zebra" * 30, "é" * 70, "9" * 140)

#: Every trie category: pure numbers, short and special-in-prefix letter
#: terms, full-prefix terms, specials (multibyte UTF-8 included), and
#: long terms whose shared prefix or first tail needs a two-byte varint.
_any_term = st.one_of(
    st.text(alphabet="0123456789", min_size=1, max_size=12),
    st.text(alphabet="abcz", min_size=1, max_size=8),
    st.text(alphabet="ab-.é日", min_size=1, max_size=6),
    st.text(alphabet="-_.0aé日ü€", min_size=1, max_size=6),
    st.builds(
        lambda prefix, rest: (prefix + rest).encode("utf-8")[:255].decode("utf-8", "ignore"),
        st.sampled_from(_LONG_PREFIXES),
        st.text(alphabet="abcé", max_size=120),
    ),
)


@st.composite
def forests(draw) -> DictionaryShard:
    """A dictionary shard: trie height 1–4, ids from ``shard << 40``
    (up to nine varint bytes), and some empty trees."""
    d = DictionaryShard(
        TrieTable(height=draw(st.integers(1, 4))),
        shard_id=draw(st.sampled_from([0, 1, 100, 1 << 22])),
    )
    for cidx in draw(st.lists(st.integers(0, 36), max_size=3)):
        d.tree_for(cidx)  # created, never filled
    for term in draw(st.lists(_any_term, max_size=60)):
        d.add_term(term)
    return d


def _pair(tmp_path_factory):
    out = tmp_path_factory.mktemp("codec")
    return str(out / "new.bin"), str(out / "oracle.bin")


class TestAgainstOracle:
    @settings(max_examples=150)
    @given(forest=forests(), block=st.sampled_from([1, 2, 5, 2048]))
    def test_map_equals_the_oracles(self, tmp_path_factory, forest, block):
        """The column format loads to the map the per-term version-1 code
        writes and loads, and the per-term version-2 reader agrees."""
        new, old = _pair(tmp_path_factory)
        with mock.patch.object(serialize, "_BLOCK_TERMS", block):
            nbytes = save_dictionary(forest, new)
            assert nbytes == os.path.getsize(new)
            loaded = load_dictionary(new)
        oracle.save_dictionary(forest, old)
        assert loaded == oracle.load_dictionary(old) == dict(forest.terms())
        assert oracle.read_v2(new) == loaded

    def test_more_terms_than_blocks(self, tmp_path_factory):
        d = DictionaryShard(shard_id=100)
        for i in range(3 * serialize._BLOCK_TERMS):
            d.add_term(f"t{i * 7919 % 100003}")
            d.add_term(f"{i}x")
        new, old = _pair(tmp_path_factory)
        save_dictionary(d, new)
        oracle.save_dictionary(d, old)
        assert load_dictionary(new) == oracle.load_dictionary(old) == dict(d.terms())
        assert oracle.read_v2(new) == dict(d.terms())

    def test_ids_cost_their_local_width(self, tmp_path_factory):
        """A GPU shard's ids (from ``100 << 40``) take one-byte local ids,
        where the version-1 file spent a six-byte global id per term."""
        d = DictionaryShard(shard_id=100)
        for i in range(100):
            d.add_term(f"w{i:03d}")
        new, old = _pair(tmp_path_factory)
        assert save_dictionary(d, new) < oracle.save_dictionary(d, old) - 4 * 100

    def test_a_collection_spanning_two_shards_is_refused(self, tmp_path):
        d = DictionaryShard(shard_id=1)
        d.add_term("apple")
        # The next id is shard 2's.
        d._next_id, d._id_limit = 2 << SHARD_ID_SPACE_BITS, 3 << SHARD_ID_SPACE_BITS
        d.add_term("applied")  # the same collection as "apple"
        with pytest.raises(ValueError, match="span two shards"):
            save_dictionary(d, str(tmp_path / "d.bin"))


def _field_starts(body: bytes) -> list[int]:
    """Where each varint of the headers and columns, and each tail, of a
    valid body starts."""
    starts = []
    pos = len(serialize.DICT_MAGIC)

    def varint() -> int:
        nonlocal pos
        starts.append(pos)
        value, pos = decode_uvarint(body, pos)
        return value

    varint()
    for _ in range(varint()):
        varint()
        varint()
        columns = []
        for length in [varint() for _ in range(6)]:
            column_end = pos + length
            columns.append([])
            while pos < column_end:
                columns[-1].append(varint())
        for tail_len in columns[4]:
            starts.append(pos)
            pos += tail_len
    return starts


def _blocks(body: bytes) -> list[tuple[int, list[int], list[list[int]], int]]:
    """Each block of a valid body: where it starts, its collection and term
    counts, its six columns' values and where it ends."""
    pos = len(serialize.DICT_MAGIC)
    _, pos = decode_uvarint(body, pos)
    n_blocks, pos = decode_uvarint(body, pos)
    blocks = []
    for _ in range(n_blocks):
        start = pos
        header = []
        for _ in range(2 + 6):
            value, pos = decode_uvarint(body, pos)
            header.append(value)
        columns = []
        for length in header[2:]:
            column_end = pos + length
            columns.append([])
            while pos < column_end:
                value, pos = decode_uvarint(body, pos)
                columns[-1].append(value)
        pos += sum(columns[4])  # the tails
        blocks.append((start, header[:2], columns, pos))
    return blocks


#: Values at the loader's bounds: a gap or count of 0, the shard and
#: local-id limits, the largest ``int64``.
_BOUNDARIES = (0, 1, 1 << 23, 1 << 40, (1 << 63) - 1)


def _rewrite(data, blocks: list, body: bytes) -> bytes:
    """Set one value of one block column of ``body`` to a boundary,
    re-encoding the column and the header's column length."""
    start, counts, columns, end = data.draw(st.sampled_from(blocks))
    tails = body[end - sum(columns[4]) : end]
    column = columns[data.draw(st.integers(0, len(columns) - 1))]
    if column:
        column[data.draw(st.integers(0, len(column) - 1))] = data.draw(st.sampled_from(_BOUNDARIES))
    encoded = [encode_uvarints(np.array(values, dtype=np.int64))[0] for values in columns]
    header = encode_uvarints(np.array([*counts, *map(len, encoded)]))[0]
    return body[:start] + header + b"".join(encoded) + tails + body[end:]


def _mutate(data, body: bytes) -> bytes:
    """Truncate, flip, poke (set a byte at or just after a field start to
    a boundary value), splice or rewrite (:func:`_rewrite`) ``body``."""
    n = len(body)
    kind = data.draw(
        st.sampled_from(["truncate", "flip", "poke", "poke", "splice", "rewrite", "rewrite"])
    )
    blocks = _blocks(body)
    if kind == "rewrite" and blocks:
        return _rewrite(data, blocks, body)
    if kind == "poke":
        at = data.draw(st.sampled_from(_field_starts(body) or [n - 1]))
        at = min(at + data.draw(st.integers(0, 2)), n - 1)
        byte = data.draw(st.sampled_from([0, 1, 2, 3, 0x7F, 0x80, 0xFF]))
        return body[:at] + bytes([byte]) + body[at + 1 :]
    at = data.draw(st.integers(0, n - 1))
    if kind == "truncate":
        return body[:at]
    if kind == "flip":
        return body[:at] + bytes([body[at] ^ data.draw(st.integers(1, 255))]) + body[at + 1 :]
    src = data.draw(st.integers(0, n - 1))
    piece = body[src : src + data.draw(st.integers(0, 12))]
    return body[:at] + piece + body[at + data.draw(st.integers(0, 12)) :]


class TestFuzzedBodies:
    @settings(max_examples=500)
    @given(forest=forests(), data=st.data())
    def test_loads_as_the_oracle_or_raises(self, tmp_path_factory, forest, data):
        """A re-CRC'd mutant loads to exactly the per-term reader's map, or
        both raise ``ValueError`` / ``EOFError`` — never a different map,
        never ``IndexError``."""
        path, _ = _pair(tmp_path_factory)
        save_dictionary(forest, path)
        with open(path, "rb") as fh:
            body = _mutate(data, fh.read()[: -serialize.DICT_CRC_BYTES])
        with open(path, "wb") as fh:
            fh.write(body + (zlib.crc32(body) & 0xFFFFFFFF).to_bytes(4, "little"))
        try:
            expected = oracle.read_v2(path)
        except (ValueError, EOFError):
            with pytest.raises((ValueError, EOFError)):
                load_dictionary(path)
            return
        assert load_dictionary(path) == expected
