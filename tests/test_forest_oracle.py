"""The shard-level forest against the per-tree forest it replaced
(``tests/forest_oracle.py``): one heap and one counter table per shard
must leave exactly what a ``StringStore``, ``BTreeStats`` and mutation
callback per tree left.

Two shards split the collections between them, as two indexers do.  Batch
after batch they take pre-split inserts, whole-term ``add_term`` and
``lookup`` calls; at each batch's end the mutation log is taken (a run
boundary) and, when drawn, both shards are rebuilt from their logs (a
resume).  Term ids, per-collection counters, node and term counts,
``items()``, the log bytes and the ``dictionary.bin`` bytes must agree
after every batch, and again after the two shards are combined.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dictionary import dictionary as forest
from repro.dictionary.serialize import save_dictionary
from repro.dictionary.trie import TrieTable
from tests import forest_oracle as oracle

_TRIE = TrieTable(height=1)

#: Short suffixes over a small alphabet: trees of degree 2–3 split, and
#: repeated suffixes find themselves, every few operations.
suffixes = st.lists(st.sampled_from(b"abcz"), max_size=5).map(bytes)
terms = st.text(alphabet="abcz", min_size=1, max_size=6)
operations = st.one_of(
    st.tuples(st.just("insert"), st.sampled_from([3, 11, 12, 40]), suffixes),
    st.tuples(st.just("add"), terms),
    st.tuples(st.just("lookup"), terms),
)


def _shards(module, degree: int, cached: bool) -> list:
    """Shard 0 owns the even collections, shard 5 the odd ones."""
    return [
        module.DictionaryShard(
            _TRIE, shard_id=shard_id, degree=degree, use_string_cache=cached,
            owned_collections=range(parity, _TRIE.num_collections, 2),
        )
        for parity, shard_id in enumerate((0, 5))
    ]


def _apply(shards: list, op: tuple):
    """Run one operation on the shard owning its collection."""
    kind, *args = op
    if kind == "insert":
        cidx, suffix = args
        return shards[cidx % 2].insert_suffix(cidx, suffix)
    shard = shards[_TRIE.split(args[0]).index % 2]
    return shard.add_term(args[0]) if kind == "add" else shard.lookup(args[0])


def _dictionary_bytes(save, shard, path) -> bytes:
    save(shard, str(path))
    return path.read_bytes()


def _assert_same(new, old, tmp_path) -> None:
    assert sorted(new.trees) == sorted(old.trees)
    for cidx, tree in new.trees.items():
        before = old.trees[cidx]
        assert tree.stats == before.stats, cidx  # all ten fields
        assert (tree.node_count, tree.term_count) == (before.node_count, before.term_count)
        assert tree.heap_bytes == before.store.byte_size
        assert list(tree.items()) == list(before.items())  # term ids
        tree.check_invariants()
    assert new.stats() == old.stats()
    assert (new.term_count(), new.string_bytes()) == (old.term_count(), old.string_bytes())
    assert _dictionary_bytes(save_dictionary, new, tmp_path / "new.bin") == _dictionary_bytes(
        oracle.save_dictionary, old, tmp_path / "old.bin"
    )


@settings(max_examples=60)
@given(
    batches=st.lists(
        st.tuples(st.lists(operations, max_size=60), st.booleans()), min_size=1, max_size=4
    ),
    degree=st.integers(2, 3),
    cached=st.booleans(),
)
def test_shard_forest_equals_the_per_tree_forest(tmp_path_factory, batches, degree, cached):
    tmp_path = tmp_path_factory.mktemp("forest")
    new, old = _shards(forest, degree, cached), _shards(oracle, degree, cached)
    logs: list[list[tuple[bytes, bytes]]] = [[], []]
    for ops, resume in batches:
        for op in ops:
            assert _apply(new, op) == _apply(old, op), op
        for i in range(2):
            logs[i].append((new[i].take_mutation_log(), old[i].take_mutation_log()))
            assert logs[i][-1][0] == logs[i][-1][1]
            _assert_same(new[i], old[i], tmp_path)
            if resume:
                new[i] = new[i].without_forest()
                old[i] = old[i].without_forest()
                new[i].rebuild(log for log, _ in logs[i])
                old[i].rebuild(log for _, log in logs[i])
                _assert_same(new[i], old[i], tmp_path)
    _assert_same(forest.Dictionary.combine(new), oracle.Dictionary.combine(old), tmp_path)
