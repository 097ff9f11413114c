"""Degree-16 B-tree with per-key 4-byte string caches (Table II).

One B-tree per trie collection.  The node layout mirrors Table II exactly:
with degree ``t = 16`` a node holds up to ``2t − 1 = 31`` keys — chosen by
the paper to match the CUDA warp size — and occupies 512 bytes::

    valid term number      1 × 4 B
    term string pointers  31 × 4 B
    leaf indicator         1 × 4 B
    postings pointers     31 × 4 B
    child pointers        32 × 4 B
    4-byte string caches  31 × 4 B
    padding                1 × 4 B
    total                     512 B

Keys are the *suffixes* left after the trie prefix strip, stored in a
:class:`~repro.dictionary.string_store.StringStore`; the node keeps only the
string pointer plus a cache of the first four bytes.  A comparison first
looks at the cache: because real term bytes are never ``0x00``, padding the
cache with zeros keeps cached comparison order-consistent with full
lexicographic byte order, and a cache mismatch is always conclusive.  The
full string is dereferenced only when the padded caches tie and the key may
extend past four bytes — the paper's observation that "it is a rare case
that two arbitrary terms share the same long prefix".

Insertion uses single-pass preemptive splitting, matching the paper's
*Splitting* rule ("before accessing a B-Tree node, we check to determine
whether this node is full").

Every descent — :meth:`BTree.insert` and :meth:`BTree.search` alike —
is one loop, :meth:`BTree._descend`, that finds each node's slot as a
binary search over its keys would, but on integers.  A node's sorted keys
have non-decreasing padded caches, so ``bisect_left`` / ``bisect_right``
of the query's cache give the *tie range*: the keys whose cache equals
the query's.  The binary search's probes are then replayed by index
alone.  A probe left of the tie range compares greater and one right of
it smaller, both settled by the cache.  A probe inside it is a
cache-settled hit when the query is shorter than four bytes, and
otherwise the one place the full string is fetched.  With the cache off
the tie range is the whole node, so every probe fetches.
``key_comparisons``, ``cache_resolved`` and ``full_string_fetches`` count
the probes of that binary search.  The GPU's all-keys warp compare and
reduction (Fig 7) gives the same slot; it runs literally in
:func:`repro.gpusim.reduction.warp_find_slot` and
:meth:`repro.dictionary.node_codec.DeviceTreeImage.search`.

A :class:`BTree` is its root; the rest is its :class:`Forest`'s (one per
dictionary shard): the Fig 6 heap, the id cursor, the mutation log and a
table row per tree of node count, heap bytes and the ten
:class:`BTreeStats` counters.  :meth:`BTree.insert` / :meth:`BTree.search`
tally their counts per row until the table is read; the indexers' walk
adds a batch's at once (:meth:`Forest.fold`).  The cost models read the
counters; *depth* is kept because Fig 11's throughput tracks its inverse.

The indexers' walk (:func:`repro.indexers.base._walk`) calls
:meth:`BTree._descend` only for trees that may split in a batch.  A
root leaf that stays under ``max_keys`` is searched for a whole batch
at once, on arrays, with the same probes.  For that the forest keeps the
keys of every one-node tree as three aligned columns (Table II's cache,
string-pointer and postings-pointer arrays, one forest-wide): the cache
as an integer, the string pointer and the term id, in ``(row << 32) |
cache`` order, with a key count per row (:meth:`Forest.leaf_keys`).  The
nodes stay the one storage — :meth:`BTree._descend`, :meth:`BTree.items`,
the dictionary writer, the node codec and the log replay read only them
— and the columns are an index over them: a row's are trusted only while
they hold as many keys as the table counts terms, and a row behind is
read again from its root.  The walk adds a batch's new keys to both
(:meth:`Forest.add_leaf_keys`), and their strings and ids through
:meth:`Forest._alloc_ids` and the heap's
:meth:`~repro.dictionary.string_store.StringStore.extend_packed`.
"""

from __future__ import annotations

import struct
from bisect import bisect_left, bisect_right
from collections import defaultdict
from dataclasses import dataclass
from itertools import chain
from operator import attrgetter
from typing import Callable, Iterable, Iterator

import numpy as np

from repro.dictionary.layout import (
    DEFAULT_DEGREE,
    NODE_SIZE_BYTES,
    STRING_CACHE_BYTES as _CACHE_BYTES,
    node_layout,
)
from repro.dictionary.string_store import StringStore

__all__ = [
    "BTree",
    "BTreeNode",
    "BTreeStats",
    "Forest",
    "DEFAULT_DEGREE",
    "NODE_SIZE_BYTES",
    "node_layout",
]


@dataclass
class BTreeStats:
    """Work counters consumed by the CPU/GPU cost models.

    ``depth_sum`` accumulates the node depth reached by every search/insert
    so the engine can report the average operation depth that shapes the
    Fig 11 curve.
    """

    searches: int = 0
    inserts: int = 0
    duplicate_hits: int = 0
    node_visits: int = 0
    key_comparisons: int = 0
    cache_resolved: int = 0
    full_string_fetches: int = 0
    splits: int = 0
    shifts: int = 0
    depth_sum: int = 0

    def merge(self, other: "BTreeStats") -> None:
        """Fold another tree's counters into this one."""
        self.searches += other.searches
        self.inserts += other.inserts
        self.duplicate_hits += other.duplicate_hits
        self.node_visits += other.node_visits
        self.key_comparisons += other.key_comparisons
        self.cache_resolved += other.cache_resolved
        self.full_string_fetches += other.full_string_fetches
        self.splits += other.splits
        self.shifts += other.shifts
        self.depth_sum += other.depth_sum

    def snapshot(self) -> tuple[int, ...]:
        """The counters in field order; subtract two to get a delta."""
        return _COUNTERS(self)

    @property
    def operations(self) -> int:
        """Searches plus insert attempts."""
        return self.searches + self.inserts + self.duplicate_hits

    @property
    def mean_depth(self) -> float:
        """Average node depth per operation (0 when idle)."""
        ops = self.operations
        return self.depth_sum / ops if ops else 0.0

    @property
    def cache_hit_rate(self) -> float:
        """Fraction of key comparisons resolved inside the 4-byte cache."""
        if not self.key_comparisons:
            return 0.0
        return self.cache_resolved / self.key_comparisons


_COUNTERS = attrgetter(*BTreeStats.__dataclass_fields__)


class BTreeNode:
    """A single 512-byte node.

    Python-level representation keeps parallel lists, mirroring the packed
    arrays of the real layout (:func:`~repro.dictionary.node_codec.pack_node`).
    """

    __slots__ = ("caches", "string_ptrs", "postings_ptrs", "children", "leaf")

    def __init__(self, leaf: bool) -> None:
        self.caches: list[bytes] = []  # 4-byte zero-padded prefixes
        self.string_ptrs: list[int] = []
        self.postings_ptrs: list[int] = []
        self.children: list["BTreeNode"] = []
        self.leaf = leaf

    @property
    def nkeys(self) -> int:
        """The "valid term number" field."""
        return len(self.string_ptrs)


def _pad4(payload: bytes) -> bytes:
    """First four bytes of ``payload``, zero-padded — the cache field."""
    return payload[:_CACHE_BYTES].ljust(_CACHE_BYTES, b"\x00")


#: Mutation-log entry header: collection index, suffix length; the suffix
#: bytes follow.
LOG_ENTRY = struct.Struct("<IH")


def check_log_collections(num_collections: int) -> None:
    """``ValueError`` unless every collection index below ``num_collections``
    fits :data:`LOG_ENTRY`'s 32-bit collection field."""
    if num_collections > 1 << 32:
        raise ValueError(
            f"{num_collections} trie collections overflow the mutation log's 32-bit "
            "collection field (LOG_ENTRY): use a trie height of at most 6"
        )

#: A :class:`Forest` table row: node count, heap bytes (length prefixes
#: included), then the ten :class:`BTreeStats` counters in field order.
#: A tree's term count is its ``inserts`` column.
NODES, HEAP, STATS = 0, 1, 2
_WIDTH = STATS + len(BTreeStats.__dataclass_fields__)
TERMS = STATS + list(BTreeStats.__dataclass_fields__).index("inserts")


def _zero_tally() -> list[int]:
    return [0] * (_WIDTH - HEAP)


_string_ptrs = attrgetter("string_ptrs")
_postings_ptrs = attrgetter("postings_ptrs")


class Forest:
    """The storage B-trees share: string heap, id cursor, log and table.

    :attr:`table` has a row per tree, in creation order.  ``degree`` is
    every tree's ``t`` (paper: 16); ``use_string_cache=False`` is the "no
    cache" ablation.  A :class:`~repro.dictionary.dictionary.DictionaryShard`
    is the forest of its collections; a lone :class:`BTree` has its own.
    """

    def __init__(self, degree: int = DEFAULT_DEGREE, use_string_cache: bool = True) -> None:
        if degree < 2:
            raise ValueError(f"B-tree degree must be >= 2, got {degree}")
        self.degree = degree
        self.max_keys = 2 * degree - 1
        self.use_string_cache = use_string_cache
        self._next_id = 0
        self._id_limit = 1 << 62
        self._clear_forest()

    def _clear_forest(self) -> None:
        self.store = StringStore()
        self.table = np.zeros((0, _WIDTH), dtype=np.int64)
        #: The keys of one-node trees as three aligned columns, in
        #: ``(row << 32) | cache`` order (:meth:`leaf_keys`): the 4-byte
        #: cache as a big-endian integer, the string pointer and the term
        #: id; and, per table row, how many keys the columns hold for it.
        self.leaf_cache = np.zeros(0, dtype=np.uint32)
        self.leaf_string_ptr = np.zeros(0, dtype=np.int64)
        self.leaf_term = np.zeros(0, dtype=np.int64)
        self._leaf_counts = np.zeros(0, dtype=np.int64)
        #: Row → the collection index its tree was planted for.
        self.collections: list[int] = []
        #: :data:`LOG_ENTRY` records of every insert that changed a tree, in
        #: order; replaying them into empty trees rebuilds every tree node
        #: for node (the checkpoint journal).
        self.mutation_log = bytearray()
        #: Row → heap bytes and ten counters (field order) its inserts and
        #: searches added since :attr:`table` was last read.
        self._tallies: defaultdict[int, list[int]] = defaultdict(_zero_tally)

    def _alloc_id(self) -> int:
        term_id = self._next_id
        if term_id >= self._id_limit:
            raise OverflowError(f"{type(self).__name__}: term-id space exhausted at {term_id:#x}")
        self._next_id += 1
        return term_id

    def _alloc_ids(self, count: int) -> int:
        """``count`` consecutive term ids at once; returns the first."""
        first = self._next_id
        if first + count > self._id_limit:
            raise OverflowError(
                f"{type(self).__name__}: term-id space exhausted at {self._id_limit:#x}")
        self._next_id += count
        return first

    def _add_rows(self, collections: list[int]) -> int:
        """Table rows for new trees of ``collections``, in order, each one
        leaf; returns the first.  The table grows at most once, to the
        capacity that doubling it a row at a time would reach."""
        start = len(self.collections)
        end = start + len(collections)
        capacity = len(self.table)
        if end > capacity:
            capacity = max(64, capacity)
            while capacity < end:
                capacity *= 2
            table = np.zeros((capacity, _WIDTH), dtype=np.int64)
            table[:, NODES] = 1
            table[: len(self.table)] = self.table
            self.table = table
            self._leaf_counts = np.append(
                self._leaf_counts, np.zeros(capacity - len(self._leaf_counts), dtype=np.int64))
        self.collections += collections
        return start

    @property
    def counts(self) -> np.ndarray:
        """The rows of the planted trees, every tally added in."""
        if self._tallies:
            tallies, self._tallies = self._tallies, defaultdict(_zero_tally)
            rows = np.fromiter(tallies, dtype=np.intp, count=len(tallies))
            self.fold(rows, np.array(list(tallies.values()), dtype=np.int64))
        return self.table[: len(self.collections)]

    def fold(self, rows: np.ndarray, grown: np.ndarray) -> None:
        """Add ``grown`` (heap bytes, ten counters) into table ``rows``."""
        np.add.at(self.table[:, HEAP:], rows, grown)

    def log_mutations(self, collections: Iterable[int], suffixes: Iterable[bytes]) -> None:
        """Append one log entry per ``(collection, suffix)`` pair."""
        pack = LOG_ENTRY.pack
        self.mutation_log += b"".join([pack(c, len(s)) + s for c, s in zip(collections, suffixes)])

    def leaf_keys(
        self, rows: np.ndarray, roots: Callable[[np.ndarray], Iterable[BTreeNode]]
    ) -> np.ndarray:
        """Where the keys of the one-node trees at table ``rows`` begin in
        the leaf columns (:attr:`leaf_cache`, :attr:`leaf_string_ptr`,
        :attr:`leaf_term`); a row's keys follow in key order, as many as
        its term count.

        The columns index the trees' nodes, which stay the one storage.  A
        row is current when the columns hold as many keys for it as the
        table counts terms: the walk adds its keys to both
        (:meth:`add_leaf_keys`), and a term added any other way —
        :meth:`BTree.insert`, a replayed log — leaves the row behind.  A
        row behind is read again from its root leaf, ``roots(picks)``
        giving the roots of ``rows[picks]``.
        """
        behind = (self._leaf_counts[rows] != self.counts[rows, TERMS]).nonzero()[0]
        if len(behind):
            self._reindex(rows[behind], list(roots(behind)))
        return self._leaf_starts()[rows]

    def _leaf_starts(self) -> np.ndarray:
        """Per table row, where its keys begin in the leaf columns."""
        return self._leaf_counts.cumsum() - self._leaf_counts

    def _reindex(self, rows: np.ndarray, roots: list[BTreeNode]) -> None:
        """Replace the column keys of table ``rows`` with those of their
        root leaves ``roots``."""
        held = self._leaf_counts[rows]
        stale = (self._leaf_starts()[rows] - (held.cumsum() - held)).repeat(held)
        stale += np.arange(len(stale))
        self._leaf_counts[rows] = 0
        kept = [np.delete(column, stale) for column in self._leaf_columns()]
        # The roots come in the caller's order; the columns' is by row.
        order = rows.argsort(kind="stable").tolist()
        rows, roots = rows[order], [roots[i] for i in order]
        sizes = np.fromiter(map(len, map(_string_ptrs, roots)), dtype=np.int64, count=len(roots))
        total = int(sizes.sum())
        added = (
            np.frombuffer(b"".join([b"".join(root.caches) for root in roots]), dtype=">u4"),
            np.fromiter(chain.from_iterable(map(_string_ptrs, roots)), np.int64, total),
            np.fromiter(chain.from_iterable(map(_postings_ptrs, roots)), np.int64, total),
        )
        at = self._leaf_starts()[rows].repeat(sizes)
        self.leaf_cache, self.leaf_string_ptr, self.leaf_term = (
            np.insert(column, at, new) for column, new in zip(kept, added))
        self._leaf_counts[rows] = sizes

    def add_leaf_keys(
        self, rows: np.ndarray, at: np.ndarray, caches: np.ndarray, string_ptrs: np.ndarray,
        terms: np.ndarray,
    ) -> None:
        """Add keys to the leaf columns: key ``i`` to the tree at table row
        ``rows[i]``, after ``at[i]`` of the keys the columns hold for it,
        with its cache (the 4 bytes as a big-endian integer), string
        pointer and term id.  One row's keys come in key order."""
        # Row r's last slot is row r + 1's first: by row, r's keys go first.
        order = rows.argsort(kind="stable")
        rows = rows[order]
        where = self._leaf_starts()[rows] + at[order]
        added = (caches[order], string_ptrs[order], terms[order])
        self.leaf_cache, self.leaf_string_ptr, self.leaf_term = (
            np.insert(column, where, new) for column, new in zip(self._leaf_columns(), added))
        np.add.at(self._leaf_counts, rows, 1)

    def _leaf_columns(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return self.leaf_cache, self.leaf_string_ptr, self.leaf_term


def _column(index: int, doc: str) -> property:
    """A tree's value in one column of its forest's table."""
    return property(lambda tree: int(tree.forest.counts[tree.row, index]), doc=doc)


class BTree:
    """B-tree over suffix byte strings with postings-pointer values.

    A root node and a row of its :class:`Forest`, which holds the strings,
    hands out the postings pointers and keeps the counts.  Without
    ``forest`` the tree gets a forest of its own (``degree``,
    ``use_string_cache``); a shard plants ``collection``'s tree in itself.
    """

    __slots__ = ("forest", "row", "root")

    def __init__(self, degree: int = DEFAULT_DEGREE, use_string_cache: bool = True, *,
                 forest: Forest | None = None, collection: int = 0) -> None:
        forest = forest if forest is not None else Forest(degree, use_string_cache)
        self.forest, self.row, self.root = forest, forest._add_rows([collection]), BTreeNode(True)

    @classmethod
    def _at(cls, forest: Forest, row: int) -> "BTree":
        """The empty tree of a row :meth:`Forest._add_rows` gave out."""
        tree = cls.__new__(cls)
        tree.forest, tree.row, tree.root = forest, row, BTreeNode(True)
        return tree

    node_count = _column(NODES, "Nodes in the tree.")
    term_count = _column(TERMS, "Distinct terms in the tree.")
    heap_bytes = _column(HEAP, "Bytes of the tree's strings in the forest's heap (Fig 6).")

    @property
    def stats(self) -> BTreeStats:
        """A copy of the tree's ten work counters."""
        return BTreeStats(*self.forest.counts[self.row, STATS:].tolist())

    # ------------------------------------------------------------------ #
    # Search and insert
    # ------------------------------------------------------------------ #

    def search(self, suffix: bytes) -> int | None:
        """Postings pointer for ``suffix``, or ``None`` if absent."""
        tally = self.forest._tallies[self.row]
        tally[1] += 1
        if 0 in suffix:
            # :meth:`insert` stores no key with a NUL, and the zero-padded
            # cache would take one for the end of a shorter key.
            return None
        term_id, _, depth, comparisons, fetches, _, _ = self._descend(suffix, False)
        tally[4] += depth + 1
        tally[5] += comparisons
        tally[6] += comparisons - fetches
        tally[7] += fetches
        tally[10] += depth
        return term_id

    def insert(self, suffix: bytes) -> tuple[int, bool]:
        """Insert ``suffix`` if new; return ``(postings pointer, created)``.

        Implements the paper's three node operations — *searching*,
        *inserting* (with the right-shift of larger keys) and preemptive
        *splitting* — in a single root-to-leaf pass.  An insert that
        changed the tree — a new term, or a repeated term whose descent
        split a full node — is logged (:attr:`Forest.mutation_log`).

        Keys may not contain NUL bytes: the 4-byte cache pads with zeros
        and relies on real term bytes never being ``0x00`` (true for any
        UTF-8 term text; enforced here so corrupt input fails loudly
        instead of colliding in the cache).
        """
        term_id, created, depth, comparisons, fetches, splits, shifts = self._descend(suffix, True)
        tally = self.forest._tallies[self.row]
        tally[4] += depth + 1
        tally[5] += comparisons
        tally[6] += comparisons - fetches
        tally[7] += fetches
        tally[10] += depth
        if not (created or splits):  # the common case: a duplicate hit
            tally[3] += 1
            return term_id, created  # type: ignore[return-value]
        tally[3 - created] += 1  # an insert or a duplicate hit
        tally[0] += (len(suffix) + 1) * created
        tally[8] += splits
        tally[9] += shifts
        forest = self.forest
        forest.log_mutations((forest.collections[self.row],), (suffix,))
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
        counts only new nodes; its callers count the rest: :meth:`insert`,
        :meth:`search`, and the indexers' walk for the spans whose tree
        may split (:func:`repro.indexers.base._walk`, which replays a
        one-leaf tree's descents on arrays instead).

        Each node's slot is found by bisecting its caches and replaying
        the binary-search probes on integers (see the module docstring).
        With ``create`` a suffix holding a NUL raises ``ValueError``, full
        nodes split on the way down and an absent suffix is inserted;
        without it nothing changes and an absent suffix gives ``None``.
        """
        if create and 0 in suffix:
            raise ValueError("term suffixes may not contain NUL bytes")
        forest = self.forest
        cached = forest.use_string_cache
        query4 = suffix[:_CACHE_BYTES].ljust(_CACHE_BYTES, b"\x00")  # _pad4, inlined
        short = cached and len(suffix) < _CACHE_BYTES
        max_keys = forest.max_keys
        comparisons = fetches = splits = shifts = 0
        # Preemptive splits fire on the way down even when the suffix
        # turns out to be present, so a duplicate hit can mutate too.
        if create and len(self.root.caches) == max_keys:
            old_root = self.root
            self.root = BTreeNode(leaf=False)
            self.root.children.append(old_root)
            forest.table[self.row, NODES] += 1
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
                    full = forest.store.get(node.string_ptrs[slot])
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
                term_id = forest._alloc_id()
                node.caches.insert(slot, query4)
                node.string_ptrs.insert(slot, forest.store.add(suffix))
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
                    full = forest.store.get(node.string_ptrs[slot])
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
        return term_id, created, depth, comparisons, fetches, splits, shifts

    def _split_child(self, parent: BTreeNode, index: int) -> int:
        """Split the full child at ``parent.children[index]``.

        Median key moves up into the parent; the upper ``t − 1`` keys move
        into a new right sibling.  Returns the parent's keys shifted right.
        """
        t = self.forest.degree
        child = parent.children[index]
        right = BTreeNode(leaf=child.leaf)
        self.forest.table[self.row, NODES] += 1

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
        get = self.forest.store.get
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
        bounds, uniform leaf depth, child counts, cache fields matching
        the stored strings, and the row's node count, term count and heap
        bytes.  Used heavily by the hypothesis tests.
        """
        leaf_depths: set[int] = set()
        seen = [0, 0, 0]  # nodes, keys, heap bytes

        def recurse(node: BTreeNode, depth: int, lo: bytes | None, hi: bytes | None) -> None:
            assert node.nkeys <= self.forest.max_keys, "node overflow"
            if node is not self.root:
                assert node.nkeys >= self.forest.degree - 1, "node underflow"
            keys = [self.forest.store.get(p) for p in node.string_ptrs]
            assert keys == sorted(keys), "keys out of order inside a node"
            assert len(set(keys)) == len(keys), "duplicate keys inside a node"
            for key, cache in zip(keys, node.caches):
                assert cache == _pad4(key), "cache field desynchronized"
            seen[:] = seen[0] + 1, seen[1] + len(keys), seen[2] + len(keys) + sum(map(len, keys))
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
        assert seen == [self.node_count, self.term_count, self.heap_bytes], "row out of step"
        forest, root = self.forest, self.root
        if root.leaf and forest._leaf_counts[self.row] == seen[1]:
            # A current row's leaf columns are the root's three lists.
            start = forest._leaf_starts()[self.row]
            held = slice(start, start + seen[1])
            assert forest.leaf_cache[held].tolist() == [
                int.from_bytes(cache, "big") for cache in root.caches], "leaf column caches"
            assert forest.leaf_string_ptr[held].tolist() == root.string_ptrs, "leaf column strings"
            assert forest.leaf_term[held].tolist() == root.postings_ptrs, "leaf column terms"

    def __len__(self) -> int:
        """Number of distinct terms."""
        return self.term_count
