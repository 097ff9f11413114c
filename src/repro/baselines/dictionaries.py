"""Dictionary ablation baselines: hash table and single global B-tree.

Section III.B argues for the hybrid trie + B-tree forest against two
alternatives:

- a **hash function** "will still require comparisons and searches on
  full strings and hence won't be as effective as the trie" —
  :class:`HashDictionary` counts exactly those full-string comparisons;
- a **single big B-tree** loses the parallelism (every thread contends on
  one root; locks are "extremely high" overhead) and is *taller*: the
  height of an n-key B-tree is ``log_t((n+1)/2)``, so one tree over the
  whole vocabulary is deeper than any per-collection tree —
  :class:`GlobalBTreeDictionary` measures the extra depth and simulates
  lock contention for a given number of writer threads.

Both produce term ids compatible with the engine's postings machinery so
the ablation benchmark can hold everything else constant.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.dictionary.btree import BTree
from repro.dictionary.layout import DEFAULT_DEGREE

__all__ = ["HashDictionary", "GlobalBTreeDictionary"]


@dataclass
class HashStats:
    """Comparison accounting for the hash dictionary."""

    probes: int = 0
    full_string_comparisons: int = 0
    compared_bytes: int = 0


class HashDictionary:
    """Open-addressing hash dictionary over full term strings.

    A real open-addressing table with linear probing (power-of-two
    capacity, 0.7 load factor) so probe sequences and full-string
    comparisons are measured, not modeled.
    """

    def __init__(self, initial_capacity: int = 1 << 10) -> None:
        cap = 1
        while cap < initial_capacity:
            cap <<= 1
        self._keys: list[bytes | None] = [None] * cap
        self._values: list[int] = [0] * cap
        self._count = 0
        self._next_id = 0
        self.stats = HashStats()

    @staticmethod
    def _hash(key: bytes) -> int:
        # FNV-1a, as a stand-in for the paper-era string hashes.
        h = 0xCBF29CE484222325
        for b in key:
            h = ((h ^ b) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
        return h

    def _find_slot(self, key: bytes) -> int:
        mask = len(self._keys) - 1
        i = self._hash(key) & mask
        while True:
            self.stats.probes += 1
            existing = self._keys[i]
            if existing is None:
                return i
            # The hash narrows candidates but equality still needs the
            # full string — the comparison cost the trie avoids.
            self.stats.full_string_comparisons += 1
            self.stats.compared_bytes += min(len(existing), len(key))
            if existing == key:
                return i
            i = (i + 1) & mask

    def insert(self, term: bytes) -> tuple[int, bool]:
        """Insert; returns ``(term id, created)``."""
        if (self._count + 1) * 10 > len(self._keys) * 7:
            self._grow()
        i = self._find_slot(term)
        if self._keys[i] is not None:
            return self._values[i], False
        self._keys[i] = term
        self._values[i] = self._next_id
        self._next_id += 1
        self._count += 1
        return self._values[i], True

    def lookup(self, term: bytes) -> int | None:
        i = self._find_slot(term)
        return self._values[i] if self._keys[i] is not None else None

    def _grow(self) -> None:
        old = [(k, v) for k, v in zip(self._keys, self._values) if k is not None]
        self._keys = [None] * (len(self._keys) * 2)
        self._values = [0] * len(self._keys)
        for k, v in old:
            i = self._find_slot(k)
            self._keys[i] = k
            self._values[i] = v

    def __len__(self) -> int:
        return self._count


@dataclass
class GlobalLockStats:
    """Simulated lock contention for concurrent writers."""

    acquisitions: int = 0
    contended_acquisitions: int = 0


class GlobalBTreeDictionary:
    """One big B-tree over full terms, guarded by a single lock.

    ``writer_threads`` models the paper's contention argument: with ``T``
    concurrent writers hitting one tree, an acquisition is contended with
    probability ``(T − 1)/T`` (hand-over-hand locking of a single hot
    root); the ablation bench converts contended acquisitions into stall
    time.
    """

    def __init__(self, degree: int = DEFAULT_DEGREE, writer_threads: int = 1) -> None:
        if writer_threads < 1:
            raise ValueError("need at least one writer thread")
        self.tree = BTree(degree=degree)
        self.writer_threads = writer_threads
        self.lock_stats = GlobalLockStats()
        self._turn = 0

    def insert(self, term: bytes) -> tuple[int, bool]:
        self.lock_stats.acquisitions += 1
        # Round-robin writer interleaving: all but one acquisition in each
        # round of T writers finds the lock held.
        self._turn = (self._turn + 1) % self.writer_threads
        if self.writer_threads > 1 and self._turn != 0:
            self.lock_stats.contended_acquisitions += 1
        return self.tree.insert(term)

    def lookup(self, term: bytes) -> int | None:
        return self.tree.search(term)

    def height(self) -> int:
        return self.tree.height()

    def __len__(self) -> int:
        return len(self.tree)
