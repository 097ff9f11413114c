"""Dictionary shards, ownership, and the combine step."""

from __future__ import annotations

import copy
import functools
import gc
import pickle
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import PlatformConfig
from repro.dictionary.btree import LOG_ENTRY, BTreeStats
from repro.dictionary.dictionary import SHARD_ID_SPACE_BITS, Dictionary, DictionaryShard
from repro.dictionary.string_store import StringStore
from repro.dictionary.trie import TrieTable

terms = st.text(
    alphabet=st.sampled_from("abcdefghijklmnopqrstuvwxyz0123456789é"),
    min_size=1,
    max_size=10,
)


class TestShard:
    def test_add_and_lookup(self):
        d = Dictionary()
        tid, created = d.add_term("application")
        assert created
        assert d.lookup("application") == tid
        assert d.lookup("nothere") is None

    def test_lookup_with_nul_finds_nothing(self):
        # "xyzab\0" strips to the suffix b"ab\0", whose padded cache is the
        # stored b"ab"'s: the tie must not count as a hit.
        d = Dictionary()
        tid, _ = d.add_term("xyzab")
        assert d.lookup("xyzab\x00") is None
        assert d.lookup("xyzab") == tid

    def test_duplicate_same_id(self):
        d = Dictionary()
        t1, _ = d.add_term("parallel")
        t2, created = d.add_term("parallel")
        assert t1 == t2 and not created

    def test_terms_reconstructed_with_prefix(self):
        d = Dictionary()
        for term in ["application", "apple", "zoo", "01", "-80"]:
            d.add_term(term)
        assert sorted(t for t, _ in d.terms()) == sorted(
            ["application", "apple", "zoo", "01", "-80"]
        )

    def test_ownership_enforced(self):
        trie = TrieTable()
        cidx = trie.trie_index("application")
        shard = DictionaryShard(trie, shard_id=1, owned_collections={cidx})
        shard.add_term("application")
        with pytest.raises(PermissionError):
            shard.add_term("zebra")  # different collection

    def test_shard_id_spaces_disjoint(self):
        trie = TrieTable()
        s0 = DictionaryShard(trie, shard_id=0)
        s1 = DictionaryShard(trie, shard_id=1)
        id0, _ = s0.add_term("aaaa")
        id1, _ = s1.add_term("bbbb")
        assert id0 >> SHARD_ID_SPACE_BITS == 0
        assert id1 >> SHARD_ID_SPACE_BITS == 1

    def test_term_count_and_len(self):
        d = Dictionary()
        for t in ["one", "two", "three", "two"]:
            d.add_term(t)
        assert len(d) == d.term_count() == 3

    def test_string_bytes_counts_heaps(self):
        d = Dictionary()
        d.add_term("application")  # suffix "lication" + length byte
        assert d.string_bytes() == 9

    def test_stats_aggregation(self):
        d = Dictionary()
        d.add_term("aaaa")
        d.add_term("aaab")
        stats = d.stats()
        assert stats.inserts == 2


class TestLogCollectionField:
    """``LOG_ENTRY`` holds a collection index in 32 bits, so a trie with
    more collections is refused before any insert, not at the first one."""

    def test_height_7_is_refused_up_front(self):
        with pytest.raises(ValueError, match="32-bit collection field"):
            DictionaryShard(TrieTable(height=7))
        with pytest.raises(ValueError, match="32-bit collection field"):
            PlatformConfig(trie_height=7)

    def test_height_6_logs_and_replays_its_last_collection(self):
        assert PlatformConfig(trie_height=6).trie_height == 6
        shard = DictionaryShard(TrieTable(height=6))
        last = shard.trie.num_collections - 1
        assert shard.trie.split("zzzzzzzzz").index == last
        term_id, created = shard.add_term("zzzzzzzzz")
        assert created
        log = shard.take_mutation_log()
        assert LOG_ENTRY.unpack_from(log) == (last, len("zzz"))
        stub = shard.without_forest()
        stub.rebuild([log])
        assert stub.lookup("zzzzzzzzz") == term_id


class TestCombine:
    def _two_shards(self):
        trie = TrieTable()
        s0 = DictionaryShard(trie, shard_id=0)
        s1 = DictionaryShard(trie, shard_id=1)
        s0.add_term("application")
        s0.add_term("apple")
        s1.add_term("zebra")
        return trie, s0, s1

    def test_combine_unions_terms(self):
        _, s0, s1 = self._two_shards()
        combined = Dictionary.combine([s0, s1])
        assert combined.term_count() == 3
        assert combined.lookup("zebra") is not None
        assert combined.lookup("apple") is not None

    def test_combine_preserves_term_ids(self):
        _, s0, s1 = self._two_shards()
        tid = s1.lookup("zebra")
        combined = Dictionary.combine([s0, s1])
        assert combined.lookup("zebra") == tid

    def test_combine_rejects_overlap(self):
        trie = TrieTable()
        s0 = DictionaryShard(trie, shard_id=0)
        s1 = DictionaryShard(trie, shard_id=1)
        s0.add_term("zebra")
        s1.add_term("zebu")  # same 'zeb' collection
        with pytest.raises(ValueError):
            Dictionary.combine([s0, s1])

    def test_combine_rejects_mixed_heights(self):
        s0 = DictionaryShard(TrieTable(height=3), shard_id=0)
        s1 = DictionaryShard(TrieTable(height=2), shard_id=1)
        with pytest.raises(ValueError):
            Dictionary.combine([s0, s1])

    def test_combine_empty(self):
        assert Dictionary.combine([]).term_count() == 0

    def test_combine_keeps_every_shard_heap_and_table(self):
        _, s0, s1 = self._two_shards()
        combined = Dictionary.combine([s0, s1])
        assert combined.forests()[1:] == (s0, s1)
        assert combined.trees[s1.trie.split("zebra").index].forest is s1
        assert combined.string_bytes() == s0.string_bytes() + s1.string_bytes()
        assert combined.stats().inserts == 3
        # A second combine keeps the first one's forests too.
        assert Dictionary.combine([combined]).forests()[1:] == (combined, s0, s1)


class TestForest:
    def test_trees_share_the_shard_heap_and_table(self):
        shard = DictionaryShard(TrieTable())
        for term in ("application", "apple", "zebra", "apply"):
            shard.add_term(term)
        assert len(shard.trees) == 2 and len(shard.counts) == 2
        assert {tree.forest for tree in shard.trees.values()} == {shard}
        assert shard.string_bytes() == shard.store.byte_size == sum(
            tree.heap_bytes for tree in shard.trees.values()
        )
        assert shard.term_count() == sum(tree.term_count for tree in shard.trees.values()) == 4
        shard.check_invariants()

    def test_the_checkpoint_stub_drops_the_forest(self):
        """A stub rides in every checkpoint record: what it pickles may not
        grow with the dictionary, only the id cursor's bytes may differ."""
        small = DictionaryShard(TrieTable(), shard_id=3)
        small.add_term("one")
        big = DictionaryShard(TrieTable(), shard_id=3)
        for i in range(10_000):
            big.add_term(f"term{i}")
        assert big.term_count() == 10_000
        stubs = [small.without_forest(), big.without_forest()]
        assert not stubs[1].trees and not stubs[1].store.byte_size and not len(stubs[1].counts)
        same_cursor = copy.copy(stubs[1])
        same_cursor._next_id = stubs[0]._next_id
        assert pickle.dumps(same_cursor) == pickle.dumps(stubs[0])
        assert len(pickle.dumps(stubs[1])) - len(pickle.dumps(stubs[0])) <= 8


class TestPlant:
    """``plant`` creates a batch's new trees in one pass; it must leave what
    a ``tree_for`` per collection would."""

    @staticmethod
    def _fill(shard, collections, round_):
        # Every planted tree gets terms (a batch plants only collections it
        # indexes), inserted in row order as the walk does.
        for cidx in collections:
            tree = shard.trees[cidx]
            for k in range(1 + cidx % 3):
                tree.insert(f"s{cidx}x{round_}y{k}".encode())

    @staticmethod
    def _same(a, b):
        assert a.collections == b.collections
        assert len(a.table) == len(b.table)
        assert (a.counts == b.counts).all()
        assert a.trees.keys() == b.trees.keys()
        for cidx, tree in a.trees.items():
            other = b.trees[cidx]
            assert tree.row == other.row and tree.forest is a and other.forest is b
            assert list(tree.items()) == list(other.items())
        assert a.mutation_log == b.mutation_log

    def test_a_batch_equals_tree_for_one_at_a_time(self):
        trie = TrieTable()
        planted, one_by_one = DictionaryShard(trie), DictionaryShard(trie)
        start = 0
        # Batches of 0-77 new collections, across the 64- and 128-row
        # table growths, with terms added between batches.
        for round_, size in enumerate((3, 70, 0, 77, 1, 40)):
            batch = [trie.num_collections - 1 - 37 * (start + i) for i in range(size)]
            start += size
            trees = planted.plant(batch)
            assert [planted.trees[cidx] for cidx in batch] == trees
            for cidx in batch:
                one_by_one.tree_for(cidx)
            self._fill(planted, batch, round_)
            self._fill(one_by_one, batch, round_)
            self._same(planted, one_by_one)
        assert len(planted.table) == 256
        planted.check_invariants()

    def test_bad_collections_raise_as_tree_for_and_plant_nothing(self):
        trie = TrieTable()
        owned = DictionaryShard(trie, shard_id=2, owned_collections={11, 12, 13})
        owned.plant([11])
        for bad, error in (
            ([12, 99, 13], PermissionError),  # not owned
            ([12, 12], ValueError),  # repeated
            ([13, 11], ValueError),  # planted already
        ):
            with pytest.raises(error) as raised:
                owned.plant(bad)
            if error is PermissionError:
                with pytest.raises(error) as single:
                    owned.tree_for(99)
                assert str(raised.value) == str(single.value)
            assert owned.collections == [11] and owned.trees.keys() == {11}
        everything = Dictionary(trie)
        for bad in ([5, trie.num_collections, 7], [5, -1]):
            with pytest.raises(IndexError) as raised:
                everything.plant(bad)
            with pytest.raises(IndexError) as single:
                everything.tree_for(bad[1])
            assert str(raised.value) == str(single.value)
            assert everything.collections == [] and not everything.trees
            assert len(everything.table) == 0

    def test_growing_the_table_keeps_the_old_rows(self):
        shard = DictionaryShard(TrieTable())
        first = list(range(100, 160))
        shard.plant(first)
        self._fill(shard, first, 0)
        before = shard.counts.copy()
        assert len(shard.table) == 64
        shard.plant(list(range(200, 210)))  # rows 60-69: one growth, to 128
        assert len(shard.table) == 128
        assert (shard.counts[:60] == before).all()
        assert (shard.counts[60:, 0] == 1).all() and not shard.counts[60:, 1:].any()
        assert [shard.trees[c].row for c in first] == list(range(60))

    def test_a_planted_shard_rebuilds_from_its_log(self):
        trie = TrieTable()
        shard = DictionaryShard(trie, shard_id=4)
        logs = []
        for round_, batch in enumerate(([30, 20, 10], list(range(40, 140)), [35, 36])):
            shard.plant(batch)
            self._fill(shard, batch, round_)
            self._fill(shard, [20, batch[-1]], round_ + 10)  # trees planted before
            logs.append(shard.take_mutation_log())
        rebuilt = shard.without_forest()
        rebuilt.rebuild(logs)
        rebuilt.check_invariants()
        assert rebuilt.collections == shard.collections
        assert rebuilt._next_id == shard._next_id
        assert dict(rebuilt.terms()) == dict(shard.terms())
        for cidx, tree in shard.trees.items():
            assert rebuilt.trees[cidx].row == tree.row
            assert list(rebuilt.trees[cidx].items()) == list(tree.items())
            assert rebuilt.trees[cidx].node_count == tree.node_count


def test_a_build_makes_no_per_tree_store(tmp_path, monkeypatch, tiny_collection):
    """A shard's trees share its heap and table: a build constructs no
    ``StringStore`` or ``BTreeStats`` per tree and keeps no
    ``functools.partial`` per tree alive (each tree once had all three)."""
    from repro.core.config import PlatformConfig
    from repro.core.engine import IndexingEngine

    made: Counter[str] = Counter()
    for cls in (StringStore, BTreeStats):

        def counting(self, *args, _init=cls.__init__, _name=cls.__name__, **kwargs):
            made[_name] += 1
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting)

    def partials() -> int:
        gc.collect()
        return sum(isinstance(obj, functools.partial) for obj in gc.get_objects())

    before = partials()
    result = IndexingEngine(
        PlatformConfig(num_parsers=2, num_cpu_indexers=1, num_gpus=1, sample_fraction=0.2,
                       files_per_run=3, telemetry=False)
    ).build(tiny_collection, str(tmp_path / "idx"))
    trees = len(result.dictionary.trees)
    assert trees > 500  # or a store per tree would not stand out
    # A shard, a checkpoint stub or a batch may make one; a tree may not.
    assert made["StringStore"] < trees / 10 and made["BTreeStats"] < trees / 10
    assert partials() - before < trees / 10


class TestProperty:
    @settings(max_examples=40)
    @given(st.lists(terms, max_size=200))
    def test_dictionary_is_a_set_with_ids(self, words):
        d = Dictionary()
        model: dict[str, int] = {}
        for w in words:
            tid, created = d.add_term(w)
            if w in model:
                assert not created and tid == model[w]
            else:
                assert created
                model[w] = tid
        assert dict(d.terms()) == model
        d.check_invariants()
