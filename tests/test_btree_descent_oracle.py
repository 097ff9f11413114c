"""The one descent of ``BTree.insert`` / ``BTree.search`` against the
per-key descent it replaced (``tests/btree_oracle.py``): the same tree,
the same term ids, the same search results and the same ten work
counters on every insert sequence, not just on a corpus.

The key strategy is built to make the padded 4-byte caches tie: a few
shared prefixes (among them the empty key, keys under four bytes and
keys of exactly four) with short tails, drawn from a small pool so that
duplicates are common and, at low degrees, often split a full node on
their way down.  The cache-off ablation runs the same loop with the tie
range set to the whole node, and must match the per-key search too.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dictionary.btree import LOG_ENTRY, BTree
from tests.btree_oracle import OracleBTree

_PREFIXES = (b"", b"a", b"ab", b"abc", b"abcd", b"abce", b"shar", b"share", b"zz\xff")

keys = st.builds(
    lambda prefix, tail: prefix + bytes(tail),
    st.sampled_from(_PREFIXES),
    st.lists(st.sampled_from(b"ab~\xc3"), max_size=3),
)


def _pair(degree: int, mode: str) -> tuple[BTree, OracleBTree, list]:
    """A new tree and an oracle tree, which logs its mutations to a list."""
    cached = mode != "no-cache"
    log: list[bytes] = []
    new = BTree(degree=degree, use_string_cache=cached)
    return new, OracleBTree(degree=degree, use_string_cache=cached, on_mutation=log.append), log


def _logged(tree: BTree) -> list[bytes]:
    """The suffixes in the mutation log of ``tree``'s forest."""
    log, suffixes, pos = tree.forest.mutation_log, [], 0
    while pos < len(log):
        _, length = LOG_ENTRY.unpack_from(log, pos)
        pos += LOG_ENTRY.size + length
        suffixes.append(bytes(log[pos - length : pos]))
    return suffixes


def _assert_same(new: BTree, old: OracleBTree, old_log: list) -> None:
    assert new.stats == old.stats  # all ten fields
    assert new.node_count == old.node_count
    assert new.term_count == old.term_count
    assert list(new.items()) == list(old.items())
    assert _logged(new) == old_log
    new.check_invariants()


@settings(max_examples=150, deadline=None)
@given(
    pool=st.lists(keys, min_size=8, max_size=60),
    picks=st.lists(st.integers(0, 1 << 16), min_size=100, max_size=400),
    degree=st.integers(2, 16),
    mode=st.sampled_from(["fast", "no-cache"]),
)
def test_insert_matches_per_key_descent(pool, picks, degree, mode):
    new, old, old_log = _pair(degree, mode)
    for pick in picks:
        suffix = pool[pick % len(pool)]
        assert new.insert(suffix) == old.insert(suffix)
    _assert_same(new, old, old_log)
    # Hits, misses inside cache ties ("|" is not in the key alphabet) and
    # a NUL, which neither tree can hold.
    for suffix in pool + [suffix + b"|" for suffix in pool] + [b"ab\x00"]:
        assert new.search(suffix) == old.search(suffix)
    assert new.stats == old.stats


@pytest.mark.parametrize("prefix", [b"", b"ab", b"abcd"])
@pytest.mark.parametrize("mode", ["fast", "no-cache"])
def test_duplicates_that_split(mode, prefix):
    # Degree 2 holds three keys a node, and the keys tie on the cache:
    # fully cached below four bytes, fetched from four on.  The repeated
    # "e" splits the full root on its way down and finds itself as the
    # promoted median; the repeated "h" splits the full right child and
    # goes past its median; the repeated "i" splits it again and *is* the
    # median the compare meets.
    new, old, old_log = _pair(2, mode)
    sequence = [prefix + bytes([letter]) for letter in b"aefeghhiji"]
    for suffix in sequence:
        assert new.insert(suffix) == old.insert(suffix)
    _assert_same(new, old, old_log)
    assert new.stats.splits == 3 and new.stats.duplicate_hits == 3
    assert _logged(new) == sequence  # every duplicate changed the tree
