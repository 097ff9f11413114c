"""The batched walk against the token-by-token walk it replaced.

``repro.indexers.base._walk`` descends every span of a one-leaf tree that
cannot split in one numpy pass per call (``_leaf_spans``) and the other
spans token by token; ``tests/walk_oracle.py::descent_walk`` is the walk
before that, every span token by token.  On drawn forests and calls the
two must return the same entry → term id, span records and mutated
entries, and leave the same heap, forest table, mutation log and trees.

The draws aim at what the batched pass computes rather than looks up:
suffixes that tie in the 4-byte cache (``shared%d``, ``abcd``/``abce``),
suffixes under four bytes and the empty one, repeats and second entries
of one suffix, leaves that reach ``max_keys`` inside a span (degree 2, 3
and the production 16), roots that are no longer leaves, the cache-off
ablation, and document-order calls where one tree recurs across
one-token spans.

The walk reads a one-leaf tree's held keys from the forest's leaf
columns, which trust a row only while they hold as many keys as its tree
has terms.  So between calls the draws also change trees behind the
walk's back: a direct ``BTree.insert`` into a tree the next call walks,
enough keys to split a tree, and a ``DictionaryShard.rebuild`` from the
mutation log; and after every call each current row's columns must equal
its leaf's three lists (``BTree.check_invariants``).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dictionary.btree import BTree
from repro.dictionary.dictionary import DictionaryShard
from repro.dictionary.trie import TrieTable
from repro.indexers.base import _leaf_spans, _walk
from tests.walk_oracle import descent_walk

_SHORT = (b"", b"a", b"ab", b"abc", b"abcd", b"abce", b"abcde", b"zz\xff")
_COLLECTIONS = (3, 7, 40, 41)


@st.composite
def _alphabets(draw) -> list[bytes]:
    """``k%d`` keys, ``shared%d`` keys that tie in the cache, and short
    ones; up to 48, so that a degree-16 leaf (31 keys) fills."""
    size = draw(st.integers(4, 40))
    alphabet = [(b"k%d" % i) if i % 3 else (b"shared%d" % i) for i in range(size)]
    return alphabet + draw(st.lists(st.sampled_from(_SHORT), max_size=8, unique=True))


@st.composite
def _walks(draw):
    """A forest's degree and cache flag, the inserts that grow it first,
    and a few walk calls: each a list of ``(collection, [suffix, ...])``
    spans — grouped, one span per collection, or in document order, one
    token a span and collections recurring — and which tokens use a
    second entry of their suffix."""
    degree = draw(st.sampled_from([2, 3, 16]))
    cached = draw(st.booleans())
    suffix = st.sampled_from(draw(_alphabets()))
    collection = st.sampled_from(_COLLECTIONS)
    grown = draw(st.lists(st.tuples(collection, suffix), max_size=80))
    calls = []
    for _ in range(draw(st.integers(1, 3))):
        grouped = draw(st.booleans())
        if grouped:
            spans = [
                (cidx, draw(st.lists(suffix, min_size=1, max_size=40)))
                for cidx in draw(st.lists(collection, min_size=1, max_size=4, unique=True))
            ]
        else:
            tokens = draw(st.lists(st.tuples(collection, suffix), min_size=1, max_size=30))
            spans = [(cidx, [s]) for cidx, s in tokens]
        twins = draw(st.lists(st.booleans(), min_size=1, max_size=50))
        walked = st.sampled_from([cidx for cidx, _ in spans])
        between = draw(st.one_of(
            st.just(("none", [])),
            st.tuples(
                st.just("insert"), st.lists(st.tuples(walked, suffix), min_size=1, max_size=4)),
            st.tuples(st.just("split"), walked.map(lambda cidx: [cidx])),
            st.just(("rebuild", [])),
        ))
        calls.append((spans, twins, grouped, between))
    return degree, cached, grown, calls


def _change_behind_the_walk(
    shard: DictionaryShard, journal: list[bytes], between, call: int
) -> None:
    """What a draw does to a forest between walk calls: no change, direct
    inserts, ``2 * degree`` new keys into one tree (a split), or a rebuild
    from the mutation logs, as a resume does: ``journal`` takes the log
    and the forest is replayed from every log taken."""
    kind, args = between
    if kind == "insert":
        for cidx, suffix in args:
            shard.tree_for(cidx).insert(suffix)
    elif kind == "split":
        (cidx,) = args
        tree = shard.tree_for(cidx)
        nodes = tree.node_count
        for i in range(2 * shard.degree):
            tree.insert(b"split%d.%d" % (call, i))
        assert tree.node_count > nodes
    elif kind == "rebuild":
        journal.append(shard.take_mutation_log())
        shard.rebuild(journal)


class _Call:
    """One walk call's arguments, as ``_index_rows`` (grouped) or
    ``_index_ungrouped`` (document order) hands them over."""

    def __init__(self, spans, twins, grouped) -> None:
        entries: dict[tuple[int, bytes, bool], int] = {}
        self.suffixes: list[bytes] = []
        self.collections: list[int] = []
        ids = []
        for cidx, tokens in spans:
            for suffix in tokens:
                key = (cidx, suffix, twins[len(ids) % len(twins)])
                if key not in entries:
                    entries[key] = len(self.suffixes)
                    self.suffixes.append(suffix)
                    self.collections.append(cidx)
                ids.append(entries[key])
        self.ids = np.array(ids, dtype=np.int32)
        self.span_collections = [cidx for cidx, _ in spans]
        sizes = np.array([len(tokens) for _, tokens in spans], dtype=np.int32)
        self.ends = np.cumsum(sizes, dtype=np.int32)
        self.offsets = self.ends - sizes
        if grouped:
            repeated = np.bincount(self.ids, minlength=len(self.suffixes)) > 1
            repeats = np.zeros(len(ids) + 1, dtype=np.int32)
            np.cumsum(repeated[self.ids], out=repeats[1:])
            self.has_repeats = (repeats[self.ends] > repeats[self.offsets]).tolist()
            self.repeated = repeated.tolist()
        else:
            self.has_repeats, self.repeated = [False] * len(spans), []

    def trees(self, shard: DictionaryShard) -> list[BTree]:
        return [shard.tree_for(cidx) for cidx in self.span_collections]

    def walk(self, shard: DictionaryShard):
        """The batched walk: entry → term id, records and mutated entries."""
        trees = self.trees(shard)
        rows = np.array([tree.row for tree in trees], dtype=np.intp)
        terms, records, mutated = _walk(
            shard, trees, rows, self.offsets, self.ends, self.ids, self.suffixes)
        return terms.tolist(), records.ravel().tolist(), mutated

    def oracle(self, shard: DictionaryShard):
        """The token-by-token walk on the same call."""
        trees = self.trees(shard)
        return descent_walk(
            zip(trees, self.offsets.tolist(), self.ends.tolist(), self.has_repeats),
            memoryview(self.ids), self.suffixes, self.repeated,
        )

    def record(self, shard: DictionaryShard, records: list[int], mutated: list[int]) -> None:
        """What ``BaseIndexer._record`` does with a walk's output."""
        rows = np.array([tree.row for tree in self.trees(shard)], dtype=np.intp)
        shard.fold(rows, np.array(records, dtype=np.int64).reshape(len(rows), -1))
        shard.log_mutations(
            [self.collections[entry] for entry in mutated],
            [self.suffixes[entry] for entry in mutated],
        )


def _shard(degree: int, cached: bool, grown) -> DictionaryShard:
    shard = DictionaryShard(TrieTable(), degree=degree, use_string_cache=cached)
    for cidx, suffix in grown:
        shard.tree_for(cidx).insert(suffix)
    return shard


def _assert_same_forest(new: DictionaryShard, old: DictionaryShard) -> None:
    assert new.store.raw_bytes() == old.store.raw_bytes()
    assert np.array_equal(new.counts, old.counts)  # nodes, heap bytes, ten counters
    assert bytes(new.mutation_log) == bytes(old.mutation_log)
    assert list(new.trees) == list(old.trees)
    for cidx, tree in new.trees.items():
        assert list(tree.items()) == list(old.trees[cidx].items()), cidx
        tree.check_invariants()


@settings(max_examples=250)
@given(walks=_walks())
def test_batched_walk_equals_the_token_walk(walks):
    degree, cached, grown, calls = walks
    new, old = _shard(degree, cached, grown), _shard(degree, cached, grown)
    journals: tuple[list[bytes], list[bytes]] = ([], [])
    for number, (spans, twins, grouped, between) in enumerate(calls):
        _change_behind_the_walk(new, journals[0], between, number)
        _change_behind_the_walk(old, journals[1], between, number)
        _assert_same_forest(new, old)
        call = _Call(spans, twins, grouped)
        terms, records, mutated = call.walk(new)
        expected = call.oracle(old)
        assert terms == expected[0]  # entry → term id
        assert records == expected[1]  # heap bytes and ten counters per span
        assert mutated == expected[2]  # in walk order
        call.record(new, records, mutated)
        call.record(old, *expected[1:])
        _assert_same_forest(new, old)


def _spans_descended(shard: DictionaryShard, call: _Call, monkeypatch) -> list[int]:
    """Which spans of ``call`` the walk sends through ``BTree._descend``."""
    descended: set[int] = set()
    descend = BTree._descend

    def counting(tree, suffix, create):
        descended.add(tree.row)
        return descend(tree, suffix, create)

    monkeypatch.setattr(BTree, "_descend", counting)
    call.walk(shard)
    monkeypatch.undo()
    return [i for i, tree in enumerate(call.trees(shard)) if tree.row in descended]


def test_only_spans_that_may_split_descend_one_by_one(monkeypatch):
    """Degree 2 (three keys a node): collection 3's root is split, 7's leaf
    would fill inside its span, 40's and 41's stay under three keys, and
    in document order a recurring tree goes token by token too."""
    shard = _shard(2, True, [(3, s) for s in (b"a", b"b", b"c", b"d")] + [(41, b"q")])
    assert not shard.trees[3].root.leaf
    grouped = _Call(
        [(3, [b"a"]), (7, [b"x", b"y", b"z"]), (40, [b"m", b"m", b"n"]), (41, [b"q", b"r"])],
        [False], True,
    )
    assert _spans_descended(shard, grouped, monkeypatch) == [0, 1]
    ungrouped = _Call([(40, [b"n"]), (41, [b"q"]), (40, [b"n"])], [False], False)
    assert _spans_descended(shard, ungrouped, monkeypatch) == [0, 2]


def test_a_suffix_the_tree_refuses_raises_as_a_descent_would():
    call = _Call([(3, [b"ok", b"bad\x00byte"])], [False], True)
    with pytest.raises(ValueError, match="NUL"):
        call.walk(_shard(16, True, []))
    call = _Call([(7, [b"x" * 256])], [False], True)
    with pytest.raises(ValueError, match="255-byte limit"):
        call.walk(_shard(16, True, []))


@given(st.lists(st.binary(max_size=12).filter(lambda b: 0 not in b), max_size=40),
       st.integers(12, 20))
def test_zero_padded_fixed_width_order_is_byte_order(suffixes, width):
    """The batched walk's premise: with no NUL in them, suffixes as
    ``S<width>`` strings (and their zero-padded first four bytes, as
    integers) sort as the byte strings do."""
    strings = np.array(suffixes, dtype=f"S{width}")
    order = np.argsort(strings, kind="stable").tolist()
    assert [suffixes[i] for i in order] == sorted(suffixes)
    caches = [int.from_bytes(s[:4].ljust(4, b"\x00"), "big") for s in sorted(suffixes)]
    assert caches == sorted(caches)


def test_leaf_spans_with_no_candidate_is_none():
    shard = _shard(2, True, [(3, s) for s in (b"a", b"b", b"c", b"d")])
    call = _Call([(3, [b"a", b"b"])], [False], True)
    trees = call.trees(shard)
    rows = np.array([tree.row for tree in trees], dtype=np.intp)
    assert _leaf_spans(shard, trees, rows, call.offsets, call.ends, call.ids,
                       call.suffixes) is None
