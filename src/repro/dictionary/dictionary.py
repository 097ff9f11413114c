"""The dictionary forest: one independent B-tree per trie collection.

Section III.B: "terms are mapped into different groups, called trie
collections, followed by building a B-tree for each trie collection".  Each
indexer owns an *exclusive* subset of collections ("every indexer keeps an
independent and exclusive part of the global dictionary"), so the natural
unit here is a :class:`DictionaryShard` owning some collection indices; the
engine's post-run "Dictionary Combine" step (Table VI) unions disjoint
shards into the full :class:`Dictionary`.

A shard is the unit of storage, the :class:`~repro.dictionary.btree.Forest`
of its collections' trees: one Fig 6 heap, and one table row of counts per
tree created.  Term and work counts are column reads, and the combine
keeps every shard's heap and table as they are.

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
from itertools import repeat
from typing import Iterable, Iterator

from repro.dictionary.btree import (
    LOG_ENTRY,
    STATS,
    TERMS,
    BTree,
    BTreeStats,
    Forest,
    check_log_collections,
)
from repro.dictionary.layout import DEFAULT_DEGREE
from repro.dictionary.trie import TrieTable

__all__ = ["Dictionary", "DictionaryShard", "SHARD_ID_SPACE_BITS"]

#: Each shard allocates term ids in ``[shard_id << 40, (shard_id+1) << 40)``.
SHARD_ID_SPACE_BITS = 40


class DictionaryShard(Forest):
    """The part of the dictionary owned by a single indexer.

    ``trie`` is the :class:`TrieTable` all shards share; ``shard_id``
    disambiguates term-id spaces between indexers; ``owned_collections``
    are the trie-collection indices this shard may touch, ``None`` for all
    (serial baselines, :class:`Dictionary`); ``degree`` and
    ``use_string_cache`` are every per-collection :class:`BTree`'s.
    """

    def __init__(
        self,
        trie: TrieTable | None = None,
        shard_id: int = 0,
        owned_collections: Iterable[int] | None = None,
        degree: int = DEFAULT_DEGREE,
        use_string_cache: bool = True,
    ) -> None:
        super().__init__(degree, use_string_cache)
        self.trie = trie if trie is not None else TrieTable()
        check_log_collections(self.trie.num_collections)
        self.shard_id = shard_id
        self.owned: frozenset[int] | None = (
            frozenset(owned_collections) if owned_collections is not None else None
        )
        self._next_id = shard_id << SHARD_ID_SPACE_BITS
        self._id_limit = (shard_id + 1) << SHARD_ID_SPACE_BITS

    def _clear_forest(self) -> None:
        super()._clear_forest()
        self.trees: dict[int, BTree] = {}
        #: The forests of the shards a :meth:`Dictionary.combine` kept.
        self.merged: tuple[Forest, ...] = ()

    # ------------------------------------------------------------------ #
    # Tree access
    # ------------------------------------------------------------------ #

    def tree_for(self, collection_index: int) -> BTree:
        """The B-tree of a collection, creating it on first touch."""
        tree = self.trees.get(collection_index)
        if tree is None:
            self._check_collection(collection_index)
            tree = self.trees[collection_index] = BTree._at(self, self._add_rows([collection_index]))
        return tree

    def plant(self, collections: list[int]) -> list[BTree]:
        """Create the trees of ``collections``, which have none yet, in
        order: their table rows in one pass (one table growth at most).

        A collection this shard does not own raises ``PermissionError``, one
        outside the trie ``IndexError`` — the first in order, as a
        :meth:`tree_for` each would — and a planted or repeated one
        ``ValueError``; nothing is planted then.
        """
        owned, trees, n = self.owned, self.trees, len(collections)
        if n and (
            (owned is not None and not owned.issuperset(collections))
            or min(collections) < 0 or max(collections) >= self.trie.num_collections
        ):
            for cidx in collections:
                self._check_collection(cidx)
        if not trees.keys().isdisjoint(collections) or len(set(collections)) < n:
            raise ValueError(f"shard {self.shard_id}: a collection to plant is repeated or has a tree")
        start = self._add_rows(collections)
        planted = list(map(BTree._at, repeat(self, n), range(start, start + n)))
        trees.update(zip(collections, planted))
        return planted

    def _check_collection(self, collection_index: int) -> None:
        """``PermissionError`` unless this shard owns the collection,
        ``IndexError`` unless the trie has it."""
        if self.owned is not None and collection_index not in self.owned:
            raise PermissionError(
                f"shard {self.shard_id} does not own trie collection {collection_index}"
            )
        self.trie._check_index(collection_index)

    def forests(self) -> tuple[Forest, ...]:
        """This shard's forest and those of the shards it combines."""
        return (self, *self.merged)

    # ------------------------------------------------------------------ #
    # Mutation log (checkpoint journal)
    # ------------------------------------------------------------------ #

    def take_mutation_log(self) -> bytes:
        """Hand over the log and start an empty one (one run boundary)."""
        log = bytes(self.mutation_log)
        self.mutation_log.clear()
        return log

    def without_forest(self) -> "DictionaryShard":
        """A copy with this shard's identity and id cursor but no trees, heap
        or table: what a checkpoint record pickles in place of the shard
        (the forest itself is in the journalled mutation logs)."""
        stub = copy.copy(self)
        stub._clear_forest()
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
            cidx, length = LOG_ENTRY.unpack_from(log, pos)
            pos += LOG_ENTRY.size
            self.tree_for(cidx).insert(log[pos : pos + length])
            pos += length

    def rebuild(self, logs: Iterable[bytes]) -> None:
        """Regrow a :meth:`without_forest` copy's trees from its logs.

        Replays every journalled log in order (:meth:`apply_log`) into
        an empty forest; the id cursor must land where the copy
        recorded it.
        """
        expected = self._next_id
        self._clear_forest()
        self._next_id = self.shard_id << SHARD_ID_SPACE_BITS
        for log in logs:
            self.apply_log(log)
        self.mutation_log.clear()
        if self._next_id != expected:
            base = self.shard_id << SHARD_ID_SPACE_BITS
            raise ValueError(f"shard {self.shard_id}: mutation logs rebuild {self._next_id - base}"
                             f" terms, the log's source recorded {expected - base}")

    # ------------------------------------------------------------------ #
    # Insertion / lookup
    # ------------------------------------------------------------------ #

    def insert_suffix(self, collection_index: int, suffix: bytes) -> tuple[int, bool]:
        """Insert a pre-split suffix: :meth:`add_term`'s second half.

        Builds insert through the indexers' walk
        (:func:`repro.indexers.base._walk`), not through here.
        """
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
        return sum(int(forest.counts[:, TERMS].sum()) for forest in self.forests())

    def stats(self) -> BTreeStats:
        """Aggregate work counters over all trees."""
        total = sum(forest.counts[:, STATS:].sum(axis=0) for forest in self.forests())
        return BTreeStats(*total.tolist())

    def string_bytes(self) -> int:
        """Total term-string heap bytes across collections."""
        return sum(forest.store.byte_size for forest in self.forests())

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
        super().__init__(trie, 0, None, degree, use_string_cache)

    @classmethod
    def combine(cls, shards: Iterable[DictionaryShard]) -> "Dictionary":
        """Union disjoint shards into one dictionary (Table VI "Combine").

        Shards must share a trie table and own pairwise-disjoint collection
        sets; the combine only moves tree references and keeps each
        shard's heap and table as they are (:meth:`forests`), which is why
        it is practically free.
        """
        shards = list(shards)
        if not shards:
            return cls()
        trie = shards[0].trie
        combined = cls(trie, shards[0].degree, shards[0].use_string_cache)
        for shard in shards:
            if shard.trie.height != trie.height:
                raise ValueError("cannot combine shards with different trie heights")
            shared = combined.trees.keys() & shard.trees.keys()
            if shared:
                raise ValueError(
                    f"trie collection {min(shared)} owned by more than one shard; "
                    "shards must be disjoint"
                )
            combined.trees.update(shard.trees)
        combined.merged = tuple(forest for shard in shards for forest in shard.forests())
        return combined
