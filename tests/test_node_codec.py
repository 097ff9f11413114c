"""The binary Table II node layout and device-image search."""

from __future__ import annotations

import random
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dictionary.btree import BTree
from repro.dictionary.node_codec import (
    NULL_POINTER,
    DeviceTreeImage,
    _offsets,
    pack_node,
    unpack_node,
)
from repro.gpusim.memory import SharedMemory

suffixes = st.binary(min_size=0, max_size=10).filter(lambda b: 0 not in b)
# Suffixes that tie on the 4-byte cache: a shared prefix (shorter than the
# cache, or filling it) and a short tail over a small alphabet.
tied = st.builds(
    lambda prefix, tail: prefix + bytes(tail),
    st.sampled_from([b"", b"ab", b"abcd", b"abce"]),
    st.lists(st.sampled_from(b"ab\xff"), max_size=3),
)


class TestFieldOffsets:
    def test_table2_offsets_for_degree_16(self):
        off = _offsets(16)
        assert off["valid_term_number"] == 0
        assert off["term_string_pointers"] == 4
        assert off["leaf_indicator"] == 128
        assert off["postings_pointers"] == 132
        assert off["child_pointers"] == 256
        assert off["string_caches"] == 384
        assert off["padding"] == 508
        assert off["total"] == 512


class TestPackUnpack:
    def _leaf_with(self, words):
        tree = BTree()
        for w in words:
            tree.insert(w)
        assert tree.root.leaf
        return tree

    def test_round_trip_leaf(self):
        tree = self._leaf_with([b"alpha", b"beta", b"zz"])
        raw = pack_node(tree.root, [], 16)
        assert len(raw) == 512
        node = unpack_node(raw, 16)
        assert node.nkeys == 3
        assert node.leaf
        assert node.string_ptrs == tree.root.string_ptrs
        assert node.postings_ptrs == tree.root.postings_ptrs
        assert node.caches == tree.root.caches

    def test_unused_slots_are_null(self):
        tree = self._leaf_with([b"only"])
        raw = pack_node(tree.root, [], 16)
        off = _offsets(16)
        # Slot 30's string pointer must be the null sentinel.
        (val,) = struct.unpack_from("<I", raw, off["term_string_pointers"] + 4 * 30)
        assert val == NULL_POINTER

    def test_internal_node_child_ids(self):
        tree = BTree(degree=2)
        for i in range(10):
            tree.insert(f"{i:02d}".encode())
        assert not tree.root.leaf
        child_ids = list(range(1, len(tree.root.children) + 1))
        raw = pack_node(tree.root, child_ids, 2)
        node = unpack_node(raw, 2)
        assert not node.leaf
        assert node.child_ids == child_ids

    def test_oversized_pointer_rejected(self):
        tree = self._leaf_with([b"x"])
        tree.root.string_ptrs[0] = 1 << 33
        with pytest.raises(ValueError):
            pack_node(tree.root, [], 16)

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            unpack_node(b"\x00" * 100, 16)

    def test_corrupt_key_count_rejected(self):
        raw = bytearray(512)
        struct.pack_into("<I", raw, 0, 99)
        with pytest.raises(ValueError):
            unpack_node(bytes(raw), 16)


class TestDeviceImage:
    def _tree(self, n=500, seed=0):
        rng = random.Random(seed)
        tree = BTree()
        words = {
            bytes(rng.choices(range(97, 123), k=rng.randint(1, 9))) for _ in range(n)
        }
        for w in words:
            tree.insert(w)
        return tree, words

    def test_image_dimensions(self):
        tree, _ = self._tree()
        image = DeviceTreeImage.build(tree)
        assert image.node_count == tree.node_count
        assert len(image.nodes) == tree.node_count * 512
        assert image.heap == tree.forest.store.raw_bytes()

    def test_a_tree_packs_the_same_in_a_shared_heap(self):
        """A shard's trees share one heap; a tree's image holds its own
        strings at the offsets a heap of its own would give them."""
        rng = random.Random(4)
        alone = BTree(degree=2)
        shared = BTree(degree=2)
        neighbour = BTree(forest=shared.forest, collection=1)
        for _ in range(300):
            word = bytes(rng.choices(b"abcdef", k=rng.randint(1, 6)))
            neighbour.insert(word[::-1] + b"z")
            assert shared.insert(word)[1] == alone.insert(word)[1]
        assert shared.root.string_ptrs != alone.root.string_ptrs
        # Remapped, the postings pointers are slots, so every byte agrees.
        mine, theirs = (DeviceTreeImage.build(t, remap_ids=True) for t in (shared, alone))
        assert (mine.nodes, mine.heap) == (theirs.nodes, theirs.heap)
        assert DeviceTreeImage.build(shared).heap == theirs.heap

    def test_byte_search_equals_object_search(self):
        tree, words = self._tree()
        image = DeviceTreeImage.build(tree)
        for w in list(words)[:200]:
            assert image.search(w) == tree.search(w)
        assert image.search(b"absent-term") is None
        assert image.search(b"") == tree.search(b"")

    def test_search_through_shared_memory(self):
        tree, words = self._tree(200, seed=3)
        image = DeviceTreeImage.build(tree)
        shared = SharedMemory()
        for w in list(words)[:50]:
            assert image.search(w, shared=shared) == tree.search(w)
        # Every node visit staged one access pattern through shared memory.
        assert shared.allocated == 512

    def test_heap_string_dereference(self):
        tree = BTree()
        tree.insert(b"lication")
        image = DeviceTreeImage.build(tree)
        ptr = tree.root.string_ptrs[0]
        assert image.heap_string(ptr) == b"lication"

    def test_node_bytes_bounds(self):
        tree, _ = self._tree(10)
        image = DeviceTreeImage.build(tree)
        with pytest.raises(IndexError):
            image.node_bytes(image.node_count)

    @settings(max_examples=25)
    @given(
        words=st.lists(st.one_of(suffixes, tied), min_size=1, max_size=150),
        degree=st.sampled_from([2, 16]),
    )
    def test_image_search_random_trees(self, words, degree):
        tree = BTree(degree=degree)
        ids = {}
        for w in words:
            ids[w], _ = tree.insert(w)
        image = DeviceTreeImage.build(tree)
        for w, tid in ids.items():
            assert image.search(w) == tid
        # The warp compare and reduction over packed nodes (Fig 7) finds
        # the slot the tree's binary search finds, on misses too: every
        # proper prefix of a key and every key with a byte appended, which
        # tie a key's cache or sort right next to it.
        misses = {w[:k] for w in words for k in range(len(w))} | {w + b"\x01" for w in words}
        for q in misses - ids.keys():
            assert tree.search(q) is None and image.search(q) is None


class TestIdRemap:
    def test_engine_shard_tree_needs_remap(self, tiny_collection, tmp_path):
        """GPU shard term ids exceed u32; the remapped image still works."""
        from repro.core.config import PlatformConfig
        from repro.core.engine import IndexingEngine

        out = str(tmp_path / "idx")
        result = IndexingEngine(
            PlatformConfig(num_parsers=2, num_cpu_indexers=0, num_gpus=1,
                           sample_fraction=0.3)
        ).build(tiny_collection, out)
        # Grab the biggest tree of the (only) GPU shard via the combined
        # dictionary the engine returns.
        tree = max(result.dictionary.trees.values(), key=len)
        with pytest.raises(ValueError):
            DeviceTreeImage.build(tree)  # shard ids don't fit u32
        image = DeviceTreeImage.build(tree, remap_ids=True)
        for suffix, term_id in list(tree.items())[:50]:
            device_ptr = image.search(suffix)
            assert device_ptr is not None
            assert image.term_id_of(device_ptr) == term_id
        # The tree itself is untouched by the packing.
        tree.check_invariants()

    def test_remap_without_need_is_identity_compatible(self):
        tree = BTree()
        ids = {w: tree.insert(w)[0] for w in [b"aa", b"bb", b"cc"]}
        image = DeviceTreeImage.build(tree, remap_ids=True)
        for w, tid in ids.items():
            assert image.term_id_of(image.search(w)) == tid
        plain = DeviceTreeImage.build(tree)
        assert plain.term_id_of(plain.search(b"aa")) == ids[b"aa"]
