"""The dictionary forest: one independent B-tree per trie collection.

Section III.B: "terms are mapped into different groups, called trie
collections, followed by building a B-tree for each trie collection".  Each
indexer owns an *exclusive* subset of collections ("every indexer keeps an
independent and exclusive part of the global dictionary"), so the natural
unit here is a :class:`DictionaryShard` owning some collection indices; the
engine's post-run "Dictionary Combine" step (Table VI) unions disjoint
shards into the full :class:`Dictionary`.

Term identifiers double as the paper's "pointers to postings lists":
globally unique integers allocated per shard from disjoint id spaces, so a
combine never needs to renumber anything — exactly why the paper's combine
step costs ~2.5 seconds on a terabyte-scale build.

Each shard also keeps a *mutation log*: the ``(collection, suffix)`` of
every insert that changed its forest, in order, as packed bytes.  The
run-boundary checkpoint (:mod:`repro.robustness.checkpoint`) journals the
log and empties it, so a boundary costs the run's new terms, not the
dictionary so far; :meth:`DictionaryShard.rebuild` replays the logs into
an identical forest with identical term ids.
"""

from __future__ import annotations

import copy
import struct
from functools import partial
from typing import Iterable, Iterator

from repro.dictionary.btree import BTree, BTreeStats
from repro.dictionary.layout import DEFAULT_DEGREE
from repro.dictionary.string_store import StringStore
from repro.dictionary.trie import TrieTable

__all__ = ["Dictionary", "DictionaryShard", "SHARD_ID_SPACE_BITS"]

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
