"""The adaptive burst trie (reference [10])."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.bursttrie import BurstTrie

words = st.binary(min_size=0, max_size=10).filter(lambda b: 0 not in b)


class TestBasics:
    def test_insert_lookup(self):
        bt = BurstTrie()
        tid, created = bt.insert(b"parallel")
        assert created
        assert bt.lookup(b"parallel") == tid
        assert bt.lookup(b"par") is None
        assert bt.lookup(b"parallels") is None

    def test_duplicate(self):
        bt = BurstTrie()
        t1, _ = bt.insert(b"abc")
        t2, created = bt.insert(b"abc")
        assert t1 == t2 and not created
        assert len(bt) == 1
        assert bt.stats.duplicate_hits == 1

    def test_empty_string(self):
        bt = BurstTrie()
        tid, _ = bt.insert(b"")
        assert bt.lookup(b"") == tid

    def test_prefix_terms_coexist(self):
        bt = BurstTrie(burst_threshold=2)
        ids = {w: bt.insert(w)[0] for w in [b"a", b"ab", b"abc", b"abcd", b"b"]}
        for w, tid in ids.items():
            assert bt.lookup(w) == tid

    def test_items_sorted(self):
        bt = BurstTrie(burst_threshold=3)
        ws = [f"w{i:03d}".encode() for i in range(50)]
        import random

        random.Random(2).shuffle(ws)
        for w in ws:
            bt.insert(w)
        assert [k for k, _ in bt.items()] == sorted(ws)

    def test_invalid_threshold(self):
        with pytest.raises(ValueError):
            BurstTrie(burst_threshold=0)


class TestBursting:
    def test_burst_fires_at_threshold(self):
        bt = BurstTrie(burst_threshold=4)
        for i in range(5):
            bt.insert(bytes([97, 97 + i]))  # "aa".."ae": shared first byte
        assert bt.stats.bursts >= 1
        sizes = bt.structure_sizes()
        assert sizes["trie_nodes"] >= 2  # root + burst node

    def test_burst_preserves_content(self):
        bt = BurstTrie(burst_threshold=3)
        ws = [f"shared{i}".encode() for i in range(20)]
        ids = {w: bt.insert(w)[0] for w in ws}
        for w, tid in ids.items():
            assert bt.lookup(w) == tid

    def test_move_to_front_counts(self):
        bt = BurstTrie(burst_threshold=100)
        bt.insert(b"xa")
        bt.insert(b"xb")  # goes to front
        bt.insert(b"xa")  # hit at index 1 → MTF
        assert bt.stats.move_to_fronts == 1

    def test_deeper_structure_after_many_bursts(self):
        small = BurstTrie(burst_threshold=2)
        large = BurstTrie(burst_threshold=1000)
        ws = [f"common{i:04d}".encode() for i in range(300)]
        for w in ws:
            small.insert(w)
            large.insert(w)
        assert small.stats.bursts > 0
        assert large.stats.bursts == 0
        assert (
            small.structure_sizes()["trie_nodes"]
            > large.structure_sizes()["trie_nodes"]
        )
        # Containers stay small after bursting → shorter scans per insert.
        assert small.stats.container_scans < large.stats.container_scans


class TestPropertyBased:
    @settings(max_examples=40)
    @given(st.lists(words, max_size=200), st.integers(min_value=1, max_value=40))
    def test_model_equivalence(self, ws, threshold):
        bt = BurstTrie(burst_threshold=threshold)
        model: dict[bytes, int] = {}
        for w in ws:
            tid, created = bt.insert(w)
            if w in model:
                assert not created and tid == model[w]
            else:
                assert created
                model[w] = tid
        assert len(bt) == len(model)
        assert dict(bt.items()) == model
        for w, tid in model.items():
            assert bt.lookup(w) == tid

    @settings(max_examples=20)
    @given(st.lists(words, max_size=150))
    def test_agrees_with_hybrid_btree_dictionary(self, ws):
        """Burst trie and the paper's B-tree store the same term sets."""
        from repro.dictionary.btree import BTree

        bt = BurstTrie(burst_threshold=5)
        tree = BTree()
        for w in ws:
            bt.insert(w)
            tree.insert(w)
        assert [k for k, _ in bt.items()] == [k for k, _ in tree.items()]
