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

All structural work funnels through :class:`BTreeStats`, which the CPU cost
model and the GPU SIMT simulator consume; the instrumentation records the
*depth* of every operation because Fig 11's declining throughput tracks the
inverse of B-tree depth.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from operator import attrgetter
from typing import Callable, Iterator

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
    arrays of the real layout; ``byte_size`` reports the modeled footprint.
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

    def byte_size(self, degree: int = DEFAULT_DEGREE) -> int:
        """Modeled on-device size of this node (constant per Table II)."""
        return node_layout(degree)["total"]


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
