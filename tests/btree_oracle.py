"""The B-tree descent the one bisect-and-replay loop replaced, kept as a
test oracle.

``BTree.insert`` and ``BTree.search`` now share one descent that finds
each node's slot by bisecting the node's 4-byte caches and replaying the
binary-search probes on integers, with its counters in locals.  The
per-key descent it replaced lives on here *verbatim* — ``_compare``,
``_find_slot``, ``search``, ``insert``, ``_split_child`` and the recursive
``items`` walk from ``repro/dictionary/btree.py`` as they were, on a
subclass of the per-tree ``BTree`` of ``tests/forest_oracle.py`` (whose
counters, heap and ``on_mutation`` they write) — so the differential
tests can require the new descent to leave exactly what the old one
left: every ``BTreeStats`` field, term ids, node counts, items, search
results and the mutation log.
The slot-search hook the old ``_find_slot`` consulted is gone with the
GPU's warp-fidelity mode, so its two lines are dropped.
"""

from __future__ import annotations

from typing import Iterator

from repro.dictionary.btree import BTreeNode
from repro.dictionary.layout import STRING_CACHE_BYTES as _CACHE_BYTES
from tests.forest_oracle import BTree

__all__ = ["OracleBTree"]


# --------------------------------------------------------------------------- #
# Verbatim from the parent: repro/dictionary/btree.py
# --------------------------------------------------------------------------- #


def _pad4(payload: bytes) -> bytes:
    """First four bytes of ``payload``, zero-padded — the cache field."""
    return payload[:_CACHE_BYTES].ljust(_CACHE_BYTES, b"\x00")


class OracleBTree(BTree):
    """:class:`BTree` with the per-key descent it had before the fast path."""

    def _compare(self, query: bytes, query4: bytes, node: BTreeNode, i: int) -> int:
        """Three-way compare of ``query`` against key ``i`` of ``node``.

        Returns negative/zero/positive like C's ``strcmp``.  Uses the 4-byte
        cache when it is conclusive and counts how the comparison resolved.
        """
        self.stats.key_comparisons += 1
        if self.use_string_cache:
            cache = node.caches[i]
            if query4 != cache:
                self.stats.cache_resolved += 1
                return -1 if query4 < cache else 1
            # Padded caches tie.  A zero byte in the cache means the key is
            # shorter than four bytes and therefore fully cached: the tie is
            # a true equality (query must share the padding-zero property).
            if b"\x00" in cache:
                self.stats.cache_resolved += 1
                return 0
            # Key is >= 4 bytes with an identical first-4 prefix: only now
            # pay for the pointer dereference.
        full = self.store.get(node.string_ptrs[i])
        self.stats.full_string_fetches += 1
        if query == full:
            return 0
        return -1 if query < full else 1

    def _find_slot(self, query: bytes, query4: bytes, node: BTreeNode) -> tuple[int, bool]:
        """Index of the first key >= query, plus whether it equals query.

        The CPU indexer walks keys with binary search; the GPU indexer
        compares all 31 keys with one warp (see
        :meth:`repro.indexers.gpu.GPUIndexer`).  Both reduce to this slot.
        """
        lo, hi = 0, node.nkeys
        while lo < hi:
            mid = (lo + hi) // 2
            cmp = self._compare(query, query4, node, mid)
            if cmp == 0:
                return mid, True
            if cmp < 0:
                hi = mid
            else:
                lo = mid + 1
        return lo, False

    def search(self, suffix: bytes) -> int | None:
        """Postings pointer for ``suffix``, or ``None`` if absent."""
        self.stats.searches += 1
        if 0 in suffix:
            # :meth:`insert` stores no key with a NUL, and the zero-padded
            # cache would take one for the end of a shorter key.
            return None
        query4 = _pad4(suffix)
        node = self.root
        depth = 0
        while True:
            self.stats.node_visits += 1
            slot, found = self._find_slot(suffix, query4, node)
            if found:
                self.stats.depth_sum += depth
                return node.postings_ptrs[slot]
            if node.leaf:
                self.stats.depth_sum += depth
                return None
            node = node.children[slot]
            depth += 1

    def insert(self, suffix: bytes) -> tuple[int, bool]:
        """Insert ``suffix`` if new; return ``(postings pointer, created)``.

        Implements the paper's three node operations — *searching*,
        *inserting* (with the right-shift of larger keys) and preemptive
        *splitting* — in a single root-to-leaf pass.

        Keys may not contain NUL bytes: the 4-byte cache pads with zeros
        and relies on real term bytes never being ``0x00`` (true for any
        UTF-8 term text; enforced here so corrupt input fails loudly
        instead of colliding in the cache).
        """
        if 0 in suffix:
            raise ValueError("term suffixes may not contain NUL bytes")
        query4 = _pad4(suffix)
        # Preemptive splits fire on the way down even when the suffix
        # turns out to be present, so a duplicate hit can mutate too.
        split = False
        if self.root.nkeys == self.max_keys:
            old_root = self.root
            self.root = BTreeNode(leaf=False)
            self.root.children.append(old_root)
            self.node_count += 1
            self._split_child(self.root, 0)
            split = True
        node = self.root
        depth = 0
        while True:
            self.stats.node_visits += 1
            slot, found = self._find_slot(suffix, query4, node)
            if found:
                self.stats.duplicate_hits += 1
                self.stats.depth_sum += depth
                if split and self.on_mutation is not None:
                    self.on_mutation(suffix)
                return node.postings_ptrs[slot], False
            if node.leaf:
                term_id = self._alloc()
                ptr = self.store.add(suffix)
                node.caches.insert(slot, _pad4(suffix))
                node.string_ptrs.insert(slot, ptr)
                node.postings_ptrs.insert(slot, term_id)
                # Keys shifted right to open the blank location.
                self.stats.shifts += node.nkeys - 1 - slot
                self.stats.inserts += 1
                self.stats.depth_sum += depth
                self.term_count += 1
                if self.on_mutation is not None:
                    self.on_mutation(suffix)
                return term_id, True
            child = node.children[slot]
            if child.nkeys == self.max_keys:
                self._split_child(node, slot)
                split = True
                cmp = self._compare(suffix, query4, node, slot)
                if cmp == 0:
                    self.stats.duplicate_hits += 1
                    self.stats.depth_sum += depth
                    if self.on_mutation is not None:
                        self.on_mutation(suffix)
                    return node.postings_ptrs[slot], False
                if cmp > 0:
                    slot += 1
                child = node.children[slot]
            node = child
            depth += 1

    def _split_child(self, parent: BTreeNode, index: int) -> None:
        """Split the full child at ``parent.children[index]``.

        Median key moves up into the parent; the upper ``t − 1`` keys move
        into a new right sibling.
        """
        t = self.degree
        child = parent.children[index]
        right = BTreeNode(leaf=child.leaf)
        self.node_count += 1
        self.stats.splits += 1

        right.caches = child.caches[t:]
        right.string_ptrs = child.string_ptrs[t:]
        right.postings_ptrs = child.postings_ptrs[t:]
        median = (child.caches[t - 1], child.string_ptrs[t - 1], child.postings_ptrs[t - 1])
        del child.caches[t - 1 :]
        del child.string_ptrs[t - 1 :]
        del child.postings_ptrs[t - 1 :]
        if not child.leaf:
            right.children = child.children[t:]
            del child.children[t:]

        parent.caches.insert(index, median[0])
        parent.string_ptrs.insert(index, median[1])
        parent.postings_ptrs.insert(index, median[2])
        parent.children.insert(index + 1, right)
        self.stats.shifts += parent.nkeys - 1 - index

    def items(self) -> Iterator[tuple[bytes, int]]:
        """In-order ``(suffix, postings pointer)`` pairs."""
        yield from self._walk(self.root)

    def _walk(self, node: BTreeNode) -> Iterator[tuple[bytes, int]]:
        for i in range(node.nkeys):
            if not node.leaf:
                yield from self._walk(node.children[i])
            yield self.store.get(node.string_ptrs[i]), node.postings_ptrs[i]
        if not node.leaf:
            yield from self._walk(node.children[node.nkeys])
