"""The degree-16 B-tree with 4-byte string caches (Table II)."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dictionary.btree import BTree, NODE_SIZE_BYTES, node_layout

suffixes = st.binary(min_size=0, max_size=12).filter(lambda b: 0 not in b)


class TestNodeLayout:
    def test_table2_exact(self):
        layout = node_layout(16)
        assert layout["valid_term_number"] == 4
        assert layout["term_string_pointers"] == 124
        assert layout["leaf_indicator"] == 4
        assert layout["postings_pointers"] == 124
        assert layout["child_pointers"] == 128
        assert layout["string_caches"] == 124
        assert layout["padding"] == 4
        assert layout["total"] == NODE_SIZE_BYTES == 512

    @pytest.mark.parametrize("degree", [2, 4, 8, 16, 32])
    def test_alignment_any_degree(self, degree):
        layout = node_layout(degree)
        assert layout["total"] % 64 == 0  # whole coalesced lines
        assert layout["total"] == sum(v for k, v in layout.items() if k != "total")

    def test_31_keys_match_warp(self):
        tree = BTree(degree=16)
        assert tree.forest.max_keys == 31  # one warp = 32 threads handles a node


class TestBasicOps:
    def test_insert_and_search(self):
        tree = BTree()
        tid, created = tree.insert(b"lication")
        assert created
        assert tree.search(b"lication") == tid
        assert tree.search(b"missing") is None

    def test_duplicate_insert_returns_same_id(self):
        tree = BTree()
        tid1, created1 = tree.insert(b"abc")
        tid2, created2 = tree.insert(b"abc")
        assert (created1, created2) == (True, False)
        assert tid1 == tid2
        assert len(tree) == 1
        assert tree.stats.duplicate_hits == 1

    def test_search_for_a_nul_suffix_finds_nothing(self):
        # b"ab\0" and b"ab" have the same zero-padded cache; no key with a
        # NUL can be stored, so the tie is not a hit.
        tree = BTree()
        tid, _ = tree.insert(b"ab")
        tree.insert(b"")
        assert tree.search(b"ab\x00") is None
        assert tree.search(b"ab\x00\x00") is None
        assert tree.search(b"\x00") is None
        assert tree.search(b"ab") == tid

    def test_empty_suffix_is_a_valid_key(self):
        # Short terms strip to nothing: 'a' in collection 11 stores b"".
        tree = BTree()
        tid, _ = tree.insert(b"")
        assert tree.search(b"") == tid
        tree.insert(b"x")
        assert tree.search(b"") == tid

    def test_items_sorted(self):
        tree = BTree()
        words = [f"w{i:03d}".encode() for i in range(100)]
        random.Random(5).shuffle(words)
        for w in words:
            tree.insert(w)
        assert [k for k, _ in tree.items()] == sorted(words)

    def test_trees_of_a_forest_share_its_id_cursor(self):
        first = BTree()
        second = BTree(forest=first.forest, collection=7)
        assert first.insert(b"a")[0] == 0
        assert second.insert(b"a")[0] == 1
        assert first.insert(b"b")[0] == 2
        assert (first.row, second.row) == (0, 1)
        assert first.forest.collections == [0, 7]
        assert first.term_count == 2 and second.term_count == 1

    def test_invalid_degree(self):
        with pytest.raises(ValueError):
            BTree(degree=1)


class TestSplitsAndGrowth:
    def test_root_splits_after_31_keys(self):
        tree = BTree(degree=16)
        for i in range(31):
            tree.insert(f"k{i:02d}".encode())
        assert tree.height() == 0
        tree.insert(b"k99")
        assert tree.height() == 1
        assert tree.stats.splits == 1

    def test_heights_stay_logarithmic(self):
        tree = BTree(degree=16)
        for i in range(5000):
            tree.insert(f"{i:08d}".encode())
        # Paper: height of an n-key B-tree is at most log_t((n+1)/2).
        import math

        assert tree.height() <= math.ceil(math.log((5000 + 1) / 2, 16))
        tree.check_invariants()

    @pytest.mark.parametrize("degree", [2, 3, 8])
    def test_invariants_across_degrees(self, degree):
        tree = BTree(degree=degree)
        rng = random.Random(degree)
        for _ in range(500):
            tree.insert(bytes([rng.randint(97, 110) for _ in range(rng.randint(1, 6))]))
        tree.check_invariants()

    def test_sequential_vs_random_same_content(self):
        words = [f"t{i:04d}".encode() for i in range(300)]
        seq = BTree()
        rnd = BTree()
        for w in words:
            seq.insert(w)
        shuffled = words[:]
        random.Random(3).shuffle(shuffled)
        for w in shuffled:
            rnd.insert(w)
        assert [k for k, _ in seq.items()] == [k for k, _ in rnd.items()]


class TestStringCache:
    def test_cache_resolves_most_comparisons(self):
        tree = BTree()
        rng = random.Random(11)
        for _ in range(2000):
            tree.insert(bytes(rng.choices(range(97, 123), k=rng.randint(1, 10))))
        assert tree.stats.cache_hit_rate > 0.9

    def test_shared_4byte_prefix_forces_full_fetch(self):
        tree = BTree()
        tree.insert(b"abcdefgh")
        before = tree.stats.full_string_fetches
        tree.insert(b"abcdxyz")  # same first 4 bytes, differs later
        assert tree.stats.full_string_fetches > before

    def test_short_keys_fully_cached(self):
        tree = BTree()
        tree.insert(b"ab")
        before = tree.stats.full_string_fetches
        tree.insert(b"ab")  # equality decidable inside the cache
        assert tree.stats.full_string_fetches == before

    def test_exactly_4_bytes_needs_fetch_on_tie(self):
        # A 4-byte key has no zero pad, so the cache cannot prove equality.
        tree = BTree()
        tree.insert(b"abcd")
        before = tree.stats.full_string_fetches
        tree.insert(b"abcd")
        assert tree.stats.full_string_fetches > before

    def test_cache_disabled_always_fetches(self):
        on = BTree(use_string_cache=True)
        off = BTree(use_string_cache=False)
        words = [f"{i}word{i}".encode() for i in range(200)]
        for w in words:
            on.insert(w)
            off.insert(w)
        assert [k for k, _ in on.items()] == [k for k, _ in off.items()]
        assert off.stats.full_string_fetches == off.stats.key_comparisons
        assert on.stats.full_string_fetches < on.stats.key_comparisons

    def test_prefix_order_correct_with_cache(self):
        # "ab" < "abc" < "abd": padded-cache comparisons must preserve it.
        tree = BTree()
        for w in [b"abd", b"ab", b"abc"]:
            tree.insert(w)
        assert [k for k, _ in tree.items()] == [b"ab", b"abc", b"abd"]


class TestStats:
    def test_depth_accounting(self):
        tree = BTree(degree=2)
        for i in range(50):
            tree.insert(f"{i:03d}".encode())
        assert tree.stats.depth_sum > 0
        assert tree.stats.mean_depth <= tree.height()

    def test_operations_count(self):
        tree = BTree()
        tree.insert(b"a")
        tree.insert(b"a")
        tree.search(b"a")
        assert tree.stats.operations == 3

    def test_merge(self):
        a, b = BTree(), BTree()
        a.insert(b"x")
        b.insert(b"y")
        b.insert(b"y")
        total = a.stats
        total.merge(b.stats)
        assert total.inserts == 2
        assert total.duplicate_hits == 1
        assert a.stats.inserts == 1  # ``stats`` is a copy of the tree's row


class TestPropertyBased:
    @settings(max_examples=60)
    @given(st.lists(suffixes, max_size=300))
    def test_model_equivalence(self, words):
        """The tree behaves like a dict keyed by suffix."""
        tree = BTree()
        model: dict[bytes, int] = {}
        for w in words:
            tid, created = tree.insert(w)
            if w in model:
                assert not created
                assert tid == model[w]
            else:
                assert created
                model[w] = tid
        assert len(tree) == len(model)
        assert [k for k, _ in tree.items()] == sorted(model)
        for w, tid in model.items():
            assert tree.search(w) == tid
        tree.check_invariants()

    @settings(max_examples=30)
    @given(st.lists(suffixes, max_size=200), st.integers(min_value=2, max_value=20))
    def test_invariants_hold_any_degree(self, words, degree):
        tree = BTree(degree=degree)
        for w in words:
            tree.insert(w)
        tree.check_invariants()

    @settings(max_examples=30)
    @given(st.lists(suffixes, min_size=1, max_size=200))
    def test_cache_flag_is_transparent(self, words):
        """Disabling the cache never changes results, only costs."""
        on = BTree(use_string_cache=True)
        off = BTree(use_string_cache=False)
        for w in words:
            r_on = on.insert(w)
            r_off = off.insert(w)
            assert r_on[1] == r_off[1]
        assert [k for k, _ in on.items()] == [k for k, _ in off.items()]
