"""The per-tree forest the shard-level forest replaced, kept as a test
oracle.

A :class:`~repro.dictionary.dictionary.DictionaryShard` now owns one
string heap and one table of per-tree columns, and a collection's
``BTree`` keeps only its root.  The forest it replaced lives on here
*verbatim*: ``BTree`` with the per-tree state it carried (its own
``StringStore``, ``BTreeStats``, node and term counts and the
``on_mutation`` callback) from ``repro/dictionary/btree.py``,
``DictionaryShard`` and ``Dictionary`` (one ``partial`` per tree feeding
``_log_mutation``) from ``repro/dictionary/dictionary.py``, and
``save_dictionary`` / ``_encode_block``, which joined every tree's heap,
from ``repro/dictionary/serialize.py``.  The differential tests require
the shard-level forest to leave exactly what this one leaves: term ids,
per-collection counters, node counts, ``items()``, the mutation log and
the ``dictionary.bin`` bytes.
"""

from __future__ import annotations

import copy
import struct
import zlib
from bisect import bisect_left, bisect_right
from functools import partial
from typing import Callable, Iterable, Iterator

import numpy as np

from repro.dictionary.btree import BTreeNode, BTreeStats
from repro.dictionary.layout import DEFAULT_DEGREE, MAX_TERM_BYTES
from repro.dictionary.layout import STRING_CACHE_BYTES as _CACHE_BYTES
from repro.dictionary.string_store import StringStore
from repro.dictionary.trie import TrieTable
from repro.postings.compression import encode_uvarints

__all__ = ["BTree", "Dictionary", "DictionaryShard", "save_dictionary"]


# --------------------------------------------------------------------------- #
# Verbatim from the parent: repro/dictionary/btree.py
# --------------------------------------------------------------------------- #


def _pad4(payload: bytes) -> bytes:
    """First four bytes of ``payload``, zero-padded — the cache field."""
    return payload[:_CACHE_BYTES].ljust(_CACHE_BYTES, b"\x00")


class BTree:
    """B-tree over suffix byte strings with postings-pointer values.

    Parameters
    ----------
    store:
        Shared :class:`StringStore` holding full suffix strings.
    term_id_allocator:
        Zero-argument callable handing out postings pointers for new terms.
        The :class:`~repro.dictionary.dictionary.Dictionary` passes a global
        allocator; standalone trees default to a local counter.
    degree:
        Minimum degree ``t`` (paper: 16).  Exposed for the ablation bench.
    use_string_cache:
        Disable to reproduce the "no cache" ablation — every comparison then
        dereferences the full string.
    on_mutation:
        Called with the suffix of every :meth:`insert` that changed the
        tree — a new term, or a repeated term whose descent split a full
        node.  Re-inserting exactly those suffixes, in order, into an
        empty tree rebuilds this one node for node (the checkpoint
        journal's replay, see :class:`~repro.dictionary.dictionary.DictionaryShard`).
    """

    __slots__ = (
        "store", "degree", "max_keys", "use_string_cache", "stats", "on_mutation",
        "root", "node_count", "term_count", "_alloc",
    )

    def __init__(
        self,
        store: StringStore | None = None,
        term_id_allocator: Callable[[], int] | None = None,
        degree: int = DEFAULT_DEGREE,
        use_string_cache: bool = True,
        on_mutation: Callable[[bytes], None] | None = None,
    ) -> None:
        if degree < 2:
            raise ValueError(f"B-tree degree must be >= 2, got {degree}")
        self.store = store if store is not None else StringStore()
        self.degree = degree
        self.max_keys = 2 * degree - 1
        self.use_string_cache = use_string_cache
        self.stats = BTreeStats()
        self.on_mutation = on_mutation
        self.root = BTreeNode(leaf=True)
        self.node_count = 1
        self.term_count = 0
        if term_id_allocator is None:
            counter = iter(range(1 << 62))
            term_id_allocator = lambda: next(counter)  # noqa: E731
        self._alloc = term_id_allocator

    # ------------------------------------------------------------------ #
    # Search and insert
    # ------------------------------------------------------------------ #

    def search(self, suffix: bytes) -> int | None:
        """Postings pointer for ``suffix``, or ``None`` if absent."""
        stats = self.stats
        stats.searches += 1
        if 0 in suffix:
            # :meth:`insert` stores no key with a NUL, and the zero-padded
            # cache would take one for the end of a shorter key.
            return None
        term_id, _, depth, comparisons, fetches, _, _ = self._descend(suffix, False)
        stats.node_visits += depth + 1
        stats.key_comparisons += comparisons
        stats.cache_resolved += comparisons - fetches
        stats.full_string_fetches += fetches
        stats.depth_sum += depth
        return term_id

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
        term_id, created, depth, comparisons, fetches, splits, shifts = self._descend(suffix, True)
        stats = self.stats
        stats.node_visits += depth + 1
        stats.key_comparisons += comparisons
        stats.cache_resolved += comparisons - fetches
        stats.full_string_fetches += fetches
        stats.depth_sum += depth
        if created:
            stats.inserts += 1
        else:
            stats.duplicate_hits += 1
        if shifts:
            stats.shifts += shifts
        if splits:
            stats.splits += splits
        return term_id, created  # type: ignore[return-value]

    def _descend(
        self, suffix: bytes, create: bool
    ) -> tuple[int | None, bool, int, int, int, int, int]:
        """One root-to-leaf pass and what it cost.

        Returns ``(postings pointer, created, depth, key comparisons,
        full-string fetches, splits, shifts)``: the depth reached (node
        visits are one more), the probes of the binary search and the
        fetches among them, the nodes split on the way down and the keys
        shifted right by those splits and by the insert.  The descent
        writes no counter: :meth:`insert` and :meth:`search` fold the
        counts into :attr:`stats`, and the indexers' walk folds a whole
        span's (:func:`repro.indexers.base._walk`).

        Each node's slot is found by bisecting its caches and replaying
        the binary-search probes on integers (see the module docstring).
        With ``create`` a suffix holding a NUL raises ``ValueError``, full
        nodes split on the way down and an absent suffix is inserted;
        without it nothing changes and an absent suffix gives ``None``.
        """
        if create and 0 in suffix:
            raise ValueError("term suffixes may not contain NUL bytes")
        cached = self.use_string_cache
        query4 = suffix[:_CACHE_BYTES].ljust(_CACHE_BYTES, b"\x00")  # _pad4, inlined
        short = cached and len(suffix) < _CACHE_BYTES
        max_keys = self.max_keys
        comparisons = fetches = splits = shifts = 0
        # Preemptive splits fire on the way down even when the suffix
        # turns out to be present, so a duplicate hit can mutate too.
        if create and len(self.root.caches) == max_keys:
            old_root = self.root
            self.root = BTreeNode(leaf=False)
            self.root.children.append(old_root)
            self.node_count += 1
            shifts += self._split_child(self.root, 0)
            splits += 1
        node = self.root
        depth = 0
        term_id: int | None
        while True:
            # Probes left of the tie range compare greater, right of it
            # smaller, on the cache alone; inside it they are equal if the
            # query is short, else a full-string fetch.
            caches = node.caches
            lo, hi = 0, len(caches)
            if cached:
                below = bisect_left(caches, query4)
                above = bisect_right(caches, query4, below)
            else:
                below, above = lo, hi
            found = False
            while lo < hi:
                slot = (lo + hi) // 2
                comparisons += 1
                if slot < below:
                    lo = slot + 1
                elif slot >= above:
                    hi = slot
                elif short:
                    found = True
                    break
                else:
                    fetches += 1
                    full = self.store.get(node.string_ptrs[slot])
                    if suffix == full:
                        found = True
                        break
                    if suffix < full:
                        hi = slot
                    else:
                        lo = slot + 1
            if found:
                term_id = node.postings_ptrs[slot]
                break
            slot = lo
            if node.leaf:
                if not create:
                    term_id = None
                    break
                term_id = self._alloc()
                node.caches.insert(slot, query4)
                node.string_ptrs.insert(slot, self.store.add(suffix))
                node.postings_ptrs.insert(slot, term_id)
                break
            child = node.children[slot]
            if len(child.caches) == max_keys and create:
                shifts += self._split_child(node, slot)
                splits += 1
                # The median just moved up into ``slot``: one compare
                # decides whether the query is it, or which half to take.
                comparisons += 1
                cache = node.caches[slot]
                if cached and query4 != cache:
                    cmp = -1 if query4 < cache else 1
                elif short:
                    cmp = 0
                else:
                    fetches += 1
                    full = self.store.get(node.string_ptrs[slot])
                    cmp = 0 if suffix == full else -1 if suffix < full else 1
                if cmp == 0:
                    found = True
                    term_id = node.postings_ptrs[slot]
                    break
                if cmp > 0:
                    slot += 1
                child = node.children[slot]
            node = child
            depth += 1
        if not create:
            return term_id, False, depth, comparisons, fetches, 0, 0
        created = not found
        if created:
            # Keys shifted right to open the blank location.
            shifts += len(node.caches) - 1 - slot
            self.term_count += 1
        if (splits or created) and self.on_mutation is not None:
            self.on_mutation(suffix)
        return term_id, created, depth, comparisons, fetches, splits, shifts

    def _split_child(self, parent: BTreeNode, index: int) -> int:
        """Split the full child at ``parent.children[index]``.

        Median key moves up into the parent; the upper ``t − 1`` keys move
        into a new right sibling.  Returns the parent's keys shifted right.
        """
        t = self.degree
        child = parent.children[index]
        right = BTreeNode(leaf=child.leaf)
        self.node_count += 1

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
        return len(parent.caches) - 1 - index

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    def items(self) -> Iterator[tuple[bytes, int]]:
        """In-order ``(suffix, postings pointer)`` pairs."""
        string_ptrs: list[int] = []
        postings_ptrs: list[int] = []
        self.extend_in_order(string_ptrs, postings_ptrs)
        get = self.store.get
        return ((get(ptr), term_id) for ptr, term_id in zip(string_ptrs, postings_ptrs))

    def extend_in_order(
        self, string_ptrs: list[int], postings_ptrs: list[int], node: BTreeNode | None = None
    ) -> None:
        """Append every key's string and postings pointer, in key order.

        The column form of :meth:`items` (the dictionary writer's input):
        a leaf extends both lists with its whole pointer lists, so only
        the keys of inner nodes are appended one at a time.  ``node``
        (default: the root) limits the walk to one subtree.
        """
        if node is None:
            node = self.root
        if node.leaf:
            string_ptrs += node.string_ptrs
            postings_ptrs += node.postings_ptrs
            return
        for child, string_ptr, postings_ptr in zip(
            node.children, node.string_ptrs, node.postings_ptrs
        ):
            self.extend_in_order(string_ptrs, postings_ptrs, child)
            string_ptrs.append(string_ptr)
            postings_ptrs.append(postings_ptr)
        self.extend_in_order(string_ptrs, postings_ptrs, node.children[-1])

    def height(self) -> int:
        """Edge-count height of the tree (a lone root has height 0)."""
        h = 0
        node = self.root
        while not node.leaf:
            node = node.children[0]
            h += 1
        return h

    def check_invariants(self) -> None:
        """Raise :class:`AssertionError` on any structural violation.

        Checked: key ordering (globally sorted in-order walk), per-node key
        bounds, uniform leaf depth, child counts, and cache fields matching
        the stored strings.  Used heavily by the hypothesis tests.
        """
        leaf_depths: set[int] = set()

        def recurse(node: BTreeNode, depth: int, lo: bytes | None, hi: bytes | None) -> None:
            assert node.nkeys <= self.max_keys, "node overflow"
            if node is not self.root:
                assert node.nkeys >= self.degree - 1, "node underflow"
            keys = [self.store.get(p) for p in node.string_ptrs]
            assert keys == sorted(keys), "keys out of order inside a node"
            assert len(set(keys)) == len(keys), "duplicate keys inside a node"
            for key, cache in zip(keys, node.caches):
                assert cache == _pad4(key), "cache field desynchronized"
            if lo is not None and keys:
                assert keys[0] > lo, "subtree violates lower bound"
            if hi is not None and keys:
                assert keys[-1] < hi, "subtree violates upper bound"
            if node.leaf:
                assert not node.children, "leaf with children"
                leaf_depths.add(depth)
            else:
                assert len(node.children) == node.nkeys + 1, "child count mismatch"
                bounds = [lo] + keys + [hi]
                for i, child in enumerate(node.children):
                    recurse(child, depth + 1, bounds[i], bounds[i + 1])

        recurse(self.root, 0, None, None)
        assert len(leaf_depths) <= 1, "leaves at differing depths"

    def __len__(self) -> int:
        """Number of distinct terms."""
        return self.term_count

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"BTree(degree={self.degree}, terms={self.term_count}, "
            f"nodes={self.node_count}, height={self.height()})"
        )


# --------------------------------------------------------------------------- #
# Verbatim from the parent: repro/dictionary/dictionary.py
# --------------------------------------------------------------------------- #

#: Each shard allocates term ids in ``[shard_id << 40, (shard_id+1) << 40)``.
SHARD_ID_SPACE_BITS = 40

#: Mutation-log entry header: collection index, suffix length; the suffix
#: bytes follow.
_LOG_ENTRY = struct.Struct("<IH")


class DictionaryShard:
    """The part of the dictionary owned by a single indexer.

    Parameters
    ----------
    trie:
        The shared :class:`TrieTable`; all shards must use the same table.
    shard_id:
        Disambiguates term-id spaces between indexers.
    owned_collections:
        Trie-collection indices this shard may touch, or ``None`` for all
        (used by serial baselines and by :class:`Dictionary` itself).
    degree, use_string_cache:
        Forwarded to each per-collection :class:`BTree`.
    """

    def __init__(
        self,
        trie: TrieTable | None = None,
        shard_id: int = 0,
        owned_collections: Iterable[int] | None = None,
        degree: int = DEFAULT_DEGREE,
        use_string_cache: bool = True,
    ) -> None:
        self.trie = trie if trie is not None else TrieTable()
        self.shard_id = shard_id
        self.owned: frozenset[int] | None = (
            frozenset(owned_collections) if owned_collections is not None else None
        )
        self.degree = degree
        self.use_string_cache = use_string_cache
        self.trees: dict[int, BTree] = {}
        self._next_id = shard_id << SHARD_ID_SPACE_BITS
        self._id_limit = (shard_id + 1) << SHARD_ID_SPACE_BITS
        #: Forest-changing inserts since the last :meth:`take_mutation_log`.
        self.mutation_log = bytearray()

    # ------------------------------------------------------------------ #
    # Term-id allocation
    # ------------------------------------------------------------------ #

    def _alloc_id(self) -> int:
        term_id = self._next_id
        if term_id >= self._id_limit:
            raise OverflowError(f"shard {self.shard_id} exhausted its term-id space")
        self._next_id += 1
        return term_id

    # ------------------------------------------------------------------ #
    # Tree access
    # ------------------------------------------------------------------ #

    def tree_for(self, collection_index: int) -> BTree:
        """The B-tree of a collection, creating it on first touch."""
        tree = self.trees.get(collection_index)
        if tree is None:
            if self.owned is not None and collection_index not in self.owned:
                raise PermissionError(
                    f"shard {self.shard_id} does not own trie collection {collection_index}"
                )
            self.trie._check_index(collection_index)
            tree = BTree(
                store=StringStore(),
                term_id_allocator=self._alloc_id,
                degree=self.degree,
                use_string_cache=self.use_string_cache,
                on_mutation=partial(self._log_mutation, collection_index),
            )
            self.trees[collection_index] = tree
        return tree

    # ------------------------------------------------------------------ #
    # Mutation log (checkpoint journal)
    # ------------------------------------------------------------------ #

    def _log_mutation(self, collection_index: int, suffix: bytes) -> None:
        self.mutation_log += _LOG_ENTRY.pack(collection_index, len(suffix)) + suffix

    def take_mutation_log(self) -> bytes:
        """Hand over the log and start an empty one (one run boundary)."""
        log = bytes(self.mutation_log)
        self.mutation_log.clear()
        return log

    def without_forest(self) -> "DictionaryShard":
        """A copy with this shard's identity and id cursor but no trees.

        What a checkpoint record pickles in place of the shard: the
        forest itself is in the journalled mutation logs.
        """
        stub = copy.copy(self)
        stub.trees = {}
        stub.mutation_log = bytearray()
        return stub

    def apply_log(self, log: bytes) -> None:
        """Replay one mutation log into this forest.

        An insert that is not in a log left its tree untouched, so a
        forest that holds every earlier log becomes node-for-node the
        forest the log was taken from, and hands out the same term ids.
        Replayed inserts change trees, so they are logged again: the
        applied bytes reappear, unchanged, at the end of
        :attr:`mutation_log`.  (The trees' work counters count the
        replay, not the original inserts — every consumer reads them as
        per-batch deltas.)
        """
        pos, end = 0, len(log)
        while pos < end:
            cidx, length = _LOG_ENTRY.unpack_from(log, pos)
            pos += _LOG_ENTRY.size
            self.tree_for(cidx).insert(log[pos : pos + length])
            pos += length

    def rebuild(self, logs: Iterable[bytes]) -> None:
        """Regrow a :meth:`without_forest` copy's trees from its logs.

        Replays every journalled log in order (:meth:`apply_log`) into
        an empty forest; the id cursor must land where the copy
        recorded it.
        """
        expected = self._next_id
        self.trees = {}
        self._next_id = self.shard_id << SHARD_ID_SPACE_BITS
        for log in logs:
            self.apply_log(log)
        self.mutation_log.clear()
        if self._next_id != expected:
            base = self.shard_id << SHARD_ID_SPACE_BITS
            raise ValueError(
                f"shard {self.shard_id}: mutation logs rebuild "
                f"{self._next_id - base} terms, the log's source recorded "
                f"{expected - base}"
            )

    # ------------------------------------------------------------------ #
    # Insertion / lookup
    # ------------------------------------------------------------------ #

    def insert_suffix(self, collection_index: int, suffix: bytes) -> tuple[int, bool]:
        """Insert a pre-split suffix (the indexer hot path)."""
        tree = self.trees.get(collection_index)
        if tree is None:
            tree = self.tree_for(collection_index)
        return tree.insert(suffix)

    def add_term(self, term: str) -> tuple[int, bool]:
        """Split a whole term through the trie and insert it."""
        split = self.trie.split(term)
        return self.insert_suffix(split.index, split.suffix.encode("utf-8"))

    def lookup(self, term: str) -> int | None:
        """Postings pointer for ``term``, or ``None``."""
        split = self.trie.split(term)
        tree = self.trees.get(split.index)
        if tree is None:
            return None
        return tree.search(split.suffix.encode("utf-8"))

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    def terms(self) -> Iterator[tuple[str, int]]:
        """All ``(full term, postings pointer)`` pairs, collection order."""
        for cidx in sorted(self.trees):
            prefix = self.trie.prefix_for(cidx)
            for suffix, term_id in self.trees[cidx].items():
                yield prefix + suffix.decode("utf-8"), term_id

    def term_count(self) -> int:
        """Number of distinct terms across owned collections."""
        return sum(len(t) for t in self.trees.values())

    def stats(self) -> BTreeStats:
        """Aggregate work counters over all trees."""
        total = BTreeStats()
        for tree in self.trees.values():
            total.merge(tree.stats)
        return total

    def string_bytes(self) -> int:
        """Total term-string heap bytes across collections."""
        return sum(t.store.byte_size for t in self.trees.values())

    def check_invariants(self) -> None:
        """Structural validation of every tree (tests only)."""
        for tree in self.trees.values():
            tree.check_invariants()

    def __len__(self) -> int:
        return self.term_count()


class Dictionary(DictionaryShard):
    """The full (combined) dictionary.

    A :class:`Dictionary` is a shard that owns everything; it is what the
    engine hands back after the combine step, and what the serial baselines
    build directly.
    """

    def __init__(
        self,
        trie: TrieTable | None = None,
        degree: int = DEFAULT_DEGREE,
        use_string_cache: bool = True,
    ) -> None:
        super().__init__(
            trie=trie,
            shard_id=0,
            owned_collections=None,
            degree=degree,
            use_string_cache=use_string_cache,
        )

    @classmethod
    def combine(cls, shards: Iterable[DictionaryShard]) -> "Dictionary":
        """Union disjoint shards into one dictionary (Table VI "Combine").

        Shards must share a trie table and own pairwise-disjoint collection
        sets; the combine only moves tree references, which is why it is
        practically free.
        """
        shards = list(shards)
        if not shards:
            return cls()
        trie = shards[0].trie
        combined = cls(
            trie=trie,
            degree=shards[0].degree,
            use_string_cache=shards[0].use_string_cache,
        )
        for shard in shards:
            if shard.trie.height != trie.height:
                raise ValueError("cannot combine shards with different trie heights")
            for cidx, tree in shard.trees.items():
                if cidx in combined.trees:
                    raise ValueError(
                        f"trie collection {cidx} owned by more than one shard; "
                        "shards must be disjoint"
                    )
                combined.trees[cidx] = tree
        return combined


# --------------------------------------------------------------------------- #
# Verbatim from the parent: repro/dictionary/serialize.py
# --------------------------------------------------------------------------- #

DICT_MAGIC = b"RPRODIC2"
#: Width of the little-endian CRC32 footer trailing the dictionary blob.
DICT_CRC_BYTES = 4

#: Terms per block of columns (a block is whole collections, at least
#: this many terms unless the dictionary ends).  Keeps each block's
#: per-byte temporaries near 100 KB.
_BLOCK_TERMS = 2048

_LOCAL_MASK = (1 << SHARD_ID_SPACE_BITS) - 1

#: Zero bytes after a block's joined string heaps, so an LCP compare may
#: read past the last string.
_HEAP_PAD = bytes(MAX_TERM_BYTES)


def save_dictionary(dictionary: DictionaryShard, path: str) -> int:
    """Serialize to ``path``; returns bytes written."""
    nonempty = [(cidx, tree) for cidx, tree in sorted(dictionary.trees.items()) if tree.term_count]
    blocks = []
    start = count = 0
    for i, (_, tree) in enumerate(nonempty):
        count += tree.term_count
        if count >= _BLOCK_TERMS or i == len(nonempty) - 1:
            blocks.append(nonempty[start : i + 1])
            start, count = i + 1, 0
    head = DICT_MAGIC + encode_uvarints(np.array([dictionary.trie.height, len(blocks)]))[0]
    crc = zlib.crc32(head)
    size = len(head)
    with open(path, "wb") as fh:
        fh.write(head)
        prev = -1
        for trees in blocks:
            block = _encode_block(trees, prev)
            prev = trees[-1][0]
            crc = zlib.crc32(block, crc)
            size += len(block)
            fh.write(block)
        fh.write((crc & 0xFFFFFFFF).to_bytes(DICT_CRC_BYTES, "little"))
    return size + DICT_CRC_BYTES


def _encode_block(trees: list[tuple[int, BTree]], prev: int) -> bytes:
    """Whole collections after collection ``prev``: header, columns, tails."""
    string_ptrs: list[int] = []
    term_ids: list[int] = []
    heaps: list[bytes] = []
    counts_list: list[int] = []
    for _, tree in trees:
        tree.extend_in_order(string_ptrs, term_ids)
        heaps.append(tree.store.raw_bytes())
        counts_list.append(tree.term_count)
    cidxs = np.array([cidx for cidx, _ in trees], dtype=np.int64)
    counts = np.array(counts_list, dtype=np.int64)
    heap_sizes = np.fromiter(map(len, heaps), dtype=np.int64, count=len(heaps))
    heap = np.frombuffer(b"".join(heaps) + _HEAP_PAD, dtype=np.uint8)
    n = len(string_ptrs)
    firsts = _starts(counts)
    first = np.zeros(n, dtype=bool)
    first[firsts] = True
    # A string pointer addresses the Fig 6 length byte; the payload follows.
    start = np.array(string_ptrs, dtype=np.int64) + np.repeat(_starts(heap_sizes) + 1, counts)
    length = heap[start - 1].astype(np.int64)

    # LCP with the previous suffix of the same collection, one byte column
    # at a time over the pairs still equal; the pad keeps reads in bounds.
    lcp = np.zeros(n, dtype=np.int64)
    row = np.flatnonzero(~first)
    a, b = start[row - 1], start[row]
    limit = np.minimum(length[row - 1], length[row])
    col = 0
    while row.size:
        same = (limit > col) & (heap[a + col] == heap[b + col])
        row, a, b, limit = row[same], a[same], b[same], limit[same]
        col += 1
        lcp[row] = col
    tail_len = length - lcp

    ids = np.array(term_ids, dtype=np.int64)
    shards = ids[firsts] >> SHARD_ID_SPACE_BITS
    if ((ids >> SHARD_ID_SPACE_BITS) != np.repeat(shards, counts)).any():
        raise ValueError("a collection's term ids span two shards")
    tail_at = np.repeat(start + lcp - _starts(tail_len), tail_len)
    tail_at += np.arange(tail_at.size)
    columns = [
        encode_uvarints(column)[0]
        for column in (
            np.diff(cidxs, prepend=prev),
            shards,
            counts,
            lcp,
            tail_len,
            ids & _LOCAL_MASK,
        )
    ]
    header = encode_uvarints(np.array([len(trees), n, *map(len, columns)]))[0]
    return b"".join([header, *columns, heap[tail_at].tobytes()])


def _starts(lengths: np.ndarray) -> np.ndarray:
    """Where each of back-to-back pieces of these lengths starts."""
    return np.cumsum(lengths) - lengths


