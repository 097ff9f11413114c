"""Indexer accounting: work counters are outputs, so they are pinned.

B-tree node visits, splits and warp cycles feed ``FileWork``,
``IndexerReport`` and the discrete-event replay, so the paper's simulated
figures move if the bookkeeping around the indexing loop drops or
reorders a charge.  The golden digests below were recorded at the commit
*before* the indexers switched to per-batch accounting (PR 19) and must
not change when the bookkeeping is restructured.  The parent's
per-collection accounting and inner loop are kept here as oracles for the
closed-form cycle charges and the restructured loop; since PR 22 the
indexers walk column slices and build one report per batch, and the old
per-collection ``_index_collection`` exists only here.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import PlatformConfig
from repro.core.engine import IndexingEngine
from repro.corpus.synthetic import CollectionSpec, SegmentSpec, generate_collection
from repro.dictionary.btree import BTreeStats
from repro.dictionary.dictionary import DictionaryShard
from repro.dictionary.layout import DEVICE_CHUNK_BYTES, NODE_SIZE_BYTES
from repro.dictionary.trie import TrieTable
from repro.gpusim.costmodel import TESLA_C1060, GPUSpec
from repro.gpusim.device import Device
from repro.gpusim.kernel import KernelLaunch, WorkItem
from repro.gpusim.warp import WarpCounters, WarpExecutor
from repro.indexers.base import IndexerReport
from repro.indexers.cpu import CPUIndexer
from repro.indexers.gpu import GPUIndexer
from repro.parsing.parser import ParseMetrics, Parser
from repro.parsing.regroup import ParsedBatch
from tests.forest_oracle import DictionaryShard as OracleShard
from tests.parsed_stream_oracles import as_nested, batch_from_collections
from tests.walk_oracle import OracleCPUIndexer, OracleGPUIndexer

_PINNED_SPEC = CollectionSpec(
    name="pinned",
    seed=19,
    segments=(
        SegmentSpec(
            name="main", num_files=3, docs_per_file=40, tokens_per_doc_mean=150,
            vocab_size=30000, zipf_s=1.0, html=True,
        ),
        SegmentSpec(
            name="tail", num_files=2, docs_per_file=25, tokens_per_doc_mean=80,
            vocab_size=9000, zipf_s=0.9, html=True,
        ),
    ),
)


#: Recorded at b7544de (the parent of PR 19), before any source file changed.
_PINNED_AT_PARENT = {
    "indexer_reports": "d58226db962e69ef",
    "file_works": "bf470239952f35ca",
    "report": "2b15ced4050481fe",
    "warp_counters": "30e17b2e319c8c10",
    "device": "51a8468ea4c59ec8",
    "batches": "42b1030197910dd9",
}


def _digest(value: object) -> str:
    """``repr`` keeps every float bit: equal digests mean bit-equal floats."""
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


def test_work_counters_are_pinned(tmp_path, monkeypatch):
    collection = generate_collection(_PINNED_SPEC, str(tmp_path / "corpus"))
    batches: list[tuple[GPUIndexer, object]] = []
    index_batch = GPUIndexer.index_batch

    def recording(self, batch, doc_offset):
        out = index_batch(self, batch, doc_offset)
        batches.append((self, out))
        return out

    monkeypatch.setattr(GPUIndexer, "index_batch", recording)
    config = PlatformConfig(
        num_parsers=2, num_cpu_indexers=1, num_gpus=1, files_per_run=1,
        exec_backend="serial", pipeline_depth=0, telemetry=False,
    )
    result = IndexingEngine(config).build(collection, str(tmp_path / "index"))

    gpus = list({id(ix): ix for ix, _ in batches}.values())
    assert len(gpus) == 1 and len(batches) == 5
    # The pin is only worth something if every charged event occurs.
    gpu_stats = result.indexer_reports["gpu100"].btree
    assert gpu_stats.splits and gpu_stats.full_string_fetches and gpu_stats.inserts

    report = result.report
    digests = {
        "indexer_reports": _digest(sorted(result.indexer_reports.items())),
        "file_works": _digest(result.file_works),
        # The config echoes every knob; the simulated seconds are the output.
        "report": _digest(
            (dataclasses.replace(report.pipeline, config=None),
             report.sampling_s, report.dict_combine_s, report.dict_write_s,
             report.total_terms, report.total_s)
        ),
        "warp_counters": _digest([ix.warp_counters for ix in gpus]),
        "device": _digest(
            [(ix.device.kernel_seconds, ix.device.launches,
              ix.device.transfer_seconds_total) for ix in gpus]
        ),
        "batches": _digest(
            [
                (
                    [(w.key, w.compute_cycles, w.memory_stall_cycles, w.bus_cycles)
                     for w in out.work_items],
                    out.kernel.elapsed_cycles, out.kernel.elapsed_seconds,
                    out.kernel.block_cycles, out.kernel.items_per_block,
                    out.h2d_seconds, out.d2h_seconds,
                    out.report,
                )
                for _, out in batches
            ]
        ),
    }
    assert digests == _PINNED_AT_PARENT


# --------------------------------------------------------------------------- #
# The parent's accounting, kept verbatim as the oracle
# --------------------------------------------------------------------------- #


def _charge_collection(warp: WarpExecutor, delta: BTreeStats, characters: int, tokens: int) -> None:
    """``GPUIndexer._charge_collection`` as it was before PR 19."""
    stream_bytes = characters + tokens  # + length prefixes
    if stream_bytes:
        warp.load_string_chunk(count=-(-stream_bytes // DEVICE_CHUNK_BYTES))
    if delta.node_visits:
        warp.load_node(count=delta.node_visits)
        warp.parallel_compare(count=delta.node_visits)
        warp.reduce(count=delta.node_visits)
    if delta.full_string_fetches:
        warp.fetch_full_string(8, count=delta.full_string_fetches)
    if delta.inserts:
        warp.shift(0, count=delta.inserts)
        warp.writeback_node(count=delta.inserts)
    if delta.splits:
        warp.split(count=delta.splits)
    warp.scalar_op(steps=2 * tokens)


def _index_collection(indexer, cidx, stream, doc_offset, positions=None) -> IndexerReport:
    """``BaseIndexer._index_collection`` as it was before PR 19."""
    tree = indexer.shard.tree_for(cidx)
    before = BTreeStats()
    before.merge(tree.stats)
    terms_before = tree.term_count
    report = IndexerReport(collections=1)
    for i, (local_doc, suffixes) in enumerate(stream):
        report.documents += 1
        doc_positions = positions[i] if positions is not None else None
        for j, suffix in enumerate(suffixes):
            term_id, _ = tree.insert(suffix)
            indexer.accumulator.add_occurrence(
                term_id, doc_offset + local_doc,
                doc_positions[j] if doc_positions is not None else None,
            )
            report.characters += len(suffix)
        report.tokens += len(suffixes)
    report.new_terms = tree.term_count - terms_before
    for name in BTreeStats.__dataclass_fields__:
        setattr(report.btree, name, getattr(tree.stats, name) - getattr(before, name))
    return report


_FIELDS = list(BTreeStats.__dataclass_fields__)


class _ScriptedGPU(GPUIndexer):
    """A GPU indexer whose collection ``i`` 'does' exactly ``script[i]``."""

    def __init__(self, spec: GPUSpec, script) -> None:
        super().__init__(0, DictionaryShard(TrieTable()), device=Device(spec=spec))
        self.script = script

    def _index_rows(self, batch, rows, doc_offset):
        grown = np.array(
            [[getattr(_delta(self.script[i]), name) for name in _FIELDS] for i in rows.tolist()],
            dtype=np.int64,
        ).reshape(-1, len(_FIELDS))
        report = IndexerReport(
            tokens=int(batch.tokens[rows].sum()), characters=int(batch.chars[rows].sum()),
            collections=len(rows), btree=BTreeStats(*grown.sum(axis=0).tolist()),
        )
        return report, [], BTreeStats(*grown.T)


def _scripted_batch(script) -> ParsedBatch:
    """Collection ``i`` carries ``script[i]``'s characters and tokens; the
    token columns are never read (``_index_rows`` is scripted)."""
    k = len(script)
    return ParsedBatch(
        parser_id=0, sequence=0, source_file="f",
        order=np.arange(k, dtype=np.int32), spans=np.zeros((k, 2), dtype=np.int64),
        tokens=np.array([work[1] for work in script], dtype=np.int64),
        chars=np.array([work[0] for work in script], dtype=np.int64),
        documents=np.zeros(k, dtype=np.int64),
    )


def _delta(work) -> BTreeStats:
    _, _, visits, fetches, inserts, splits = work
    return BTreeStats(node_visits=visits, full_string_fetches=fetches,
                      inserts=inserts, splits=splits)


_OTHER_SPEC = GPUSpec(
    name="not a C1060", num_sms=14, clock_hz=1.15e9, mem_latency_cycles=437,
    coalesced_line_bytes=128, peak_bandwidth_bytes=77e9,
)
#: characters, tokens, node visits, cache ties, inserts, splits — zeros
#: included, because the parent skipped a charge whose count was zero.
_collection_work = st.tuples(
    st.integers(0, 10**7), st.integers(0, 10**6), st.integers(0, 10**8),
    st.integers(0, 10**6), st.integers(0, 10**6), st.integers(0, 10**5),
)


@pytest.mark.parametrize("spec", [TESLA_C1060, _OTHER_SPEC], ids=["c1060", "other"])
@given(script=st.lists(_collection_work, min_size=1, max_size=8))
def test_closed_form_equals_the_warp_executor(spec, script):
    gpu = _ScriptedGPU(spec, script)
    out = gpu.index_batch(_scripted_batch(script), 0)

    counters, items, modeled = WarpCounters(), [], 0.0
    for cidx, work in enumerate(script):
        warp = WarpExecutor(spec)
        _charge_collection(warp, _delta(work), characters=work[0], tokens=work[1])
        modeled += spec.seconds(warp.counters.total_cycles)
        counters.merge(warp.counters)
        items.append(WorkItem(
            key=cidx,
            compute_cycles=warp.counters.compute_cycles,
            memory_stall_cycles=warp.counters.memory_stall_cycles,
            bus_cycles=warp.counters.bus_cycles,
        ))
    # ``repr``: 5 == 5.0, but a cycle count that turned from float to int
    # would change every pickled checkpoint and printed report.
    assert repr(out.work_items) == repr(items)
    assert repr(gpu.warp_counters) == repr(counters)
    assert repr(out.report.modeled_seconds) == repr(modeled)
    assert out.kernel.elapsed_cycles == KernelLaunch(spec).run(items).elapsed_cycles


# --------------------------------------------------------------------------- #
# The functional loop: same trees, postings and reports as the parent's
# --------------------------------------------------------------------------- #

_TEXTS = [
    "parallel indexers build inverted files quickly on heterogeneous platforms",
    "the indexers consume parsed streams while parsers produce them parallel parallel",
    "parallel parsing with trie collections groups terms for cache locality",
]


def _postings(indexer):
    return {
        term_id: (plist.doc_ids, plist.tfs, plist.positions)
        for term_id, plist in indexer.accumulator.lists.items()
    }


@pytest.mark.parametrize("positional", [False, True])
@pytest.mark.parametrize("kind", [CPUIndexer, GPUIndexer])
def test_index_collection_matches_the_parent_loop(kind, positional):
    """One walk over the column slices == the parent's loop, collection by
    collection: same report, same postings, same term ids."""
    parser = Parser(strip_html=False, positional=positional)
    batch, _ = parser.parse_texts(_TEXTS)
    assert (batch.positions is not None) == positional
    new = kind(0, DictionaryShard(parser.trie))
    old = kind(0, DictionaryShard(parser.trie))
    out = new.index_batch(batch, 7)
    collections, positions = as_nested(batch)
    expected = IndexerReport()
    for cidx, stream in collections.items():
        # The parent counted tokens, characters and documents itself; the
        # parser's per-collection counts, used now, must say the same.
        expected.merge(
            _index_collection(old, cidx, stream, 7, positions[cidx] if positional else None)
        )
    report = getattr(out, "report", out)
    assert dataclasses.replace(report, modeled_seconds=0.0) == expected
    assert _postings(new) == _postings(old)
    assert any(positions for _, _, positions in _postings(new).values()) == positional
    assert list(new.shard.terms()) == list(old.shard.terms())
    assert list(new.shard.trees) == list(old.shard.trees) == list(collections)


# --------------------------------------------------------------------------- #
# One descent per suffix per unchanged stretch: exact under mutation
# --------------------------------------------------------------------------- #

_KINDS = {
    "cpu": lambda shard: CPUIndexer(0, shard),
    "gpu-fast": lambda shard: GPUIndexer(0, shard),
}


def _parent_index_batch(old, batch: ParsedBatch, doc_offset: int) -> None:
    """The batch through the parent's loop: one descent per token."""
    collections, positions = as_nested(batch)
    for cidx, stream in collections.items():
        _index_collection(old, cidx, stream, doc_offset, positions[cidx] if positions else None)


def _assert_same_state(new, old) -> None:
    assert list(new.shard.trees) == list(old.shard.trees)
    for cidx, tree in new.shard.trees.items():
        assert tree.stats == old.shard.trees[cidx].stats, cidx  # all ten fields
        assert list(tree.items()) == list(old.shard.trees[cidx].items())  # term ids
        tree.check_invariants()
    assert new.shard.take_mutation_log() == old.shard.take_mutation_log()
    assert _postings(new) == _postings(old)
    assert new.accumulator.token_count == old.accumulator.token_count


@st.composite
def _token_streams(draw):
    """Batches of ``{collection: [(doc, [suffix, ...])]}`` over an alphabet
    small enough that a degree-2..3 tree splits, and finds a suffix it
    already holds, every few tokens.  Suffixes shorter and longer than the
    4-byte cache, some sharing it.  Degree 16, the production one, draws
    up to 40 suffixes, so that a 31-key leaf fills inside a span: the
    batched walk's one-leaf spans and its token-by-token ones both run."""
    production = draw(st.booleans())
    alphabet = [
        (b"k%d" % i) if i % 3 else (b"shared%d" % i)
        for i in range(draw(st.integers(10, 40 if production else 30)))
    ]
    suffix = st.sampled_from(alphabet)
    batches = []
    for _ in range(draw(st.integers(1, 4))):
        collections = {}
        for cidx in draw(st.lists(st.sampled_from([3, 40, 41]), min_size=1, max_size=3, unique=True)):
            docs = sorted(draw(st.sets(st.integers(0, 5), min_size=1, max_size=4)))
            collections[cidx] = [
                (doc, draw(st.lists(suffix, min_size=1, max_size=12))) for doc in docs
            ]
        # Two surface forms of one stem: a second entry per (collection, suffix).
        twins = draw(st.lists(st.booleans(), min_size=150, max_size=150))
        batches.append((collections, twins))
    return 16 if production else draw(st.integers(2, 3)), batches


def _columns(collections, twins, positional: bool) -> ParsedBatch:
    positions = None
    if positional:  # a token's ordinal in its document: any strictly ascending ints
        positions = {
            cidx: [list(range(doc, doc + 2 * len(sufs), 2)) for doc, sufs in stream]
            for cidx, stream in collections.items()
        }
    batch = batch_from_collections(collections, positions, num_docs=6)
    n = len(batch.entry_suffix)
    batch.entry_suffix = batch.entry_suffix * 2
    batch.entry_cidx = np.tile(batch.entry_cidx, 2)
    batch.ids = batch.ids + n * np.array(twins[: len(batch.ids)], dtype=np.int32)
    return batch


@pytest.mark.parametrize("positional", [False, True], ids=["plain", "positional"])
@pytest.mark.parametrize("kind", list(_KINDS))
@settings(max_examples=40)
@given(streams=_token_streams())
def test_walk_equals_one_descent_per_token(kind, positional, streams):
    degree, batches = streams
    new = _KINDS[kind](DictionaryShard(TrieTable(), degree=degree))
    old = _KINDS[kind](DictionaryShard(TrieTable(), degree=degree))
    for i, (collections, twins) in enumerate(batches):
        batch = _columns(collections, twins, positional)
        out = new.index_batch(batch, 6 * i)
        before = old.shard.stats()
        _parent_index_batch(old, batch, 6 * i)
        delta = np.array(old.shard.stats().snapshot()) - np.array(before.snapshot())
        assert getattr(out, "report", out).btree == BTreeStats(*delta.tolist())
        _assert_same_state(new, old)


class _Recorded:
    """Keeps what every ``_index_rows`` call returned (shared by copies)."""

    returned: list

    def _index_rows(self, batch, rows, doc_offset):
        out = super()._index_rows(batch, rows, doc_offset)
        self.returned.append(out)
        return out


_PAIRS = {
    "cpu": (type("NewCPU", (_Recorded, CPUIndexer), {}),
            type("OldCPU", (_Recorded, OracleCPUIndexer), {})),
    "gpu": (type("NewGPU", (_Recorded, GPUIndexer), {}),
            type("OldGPU", (_Recorded, OracleGPUIndexer), {})),
}


def _resumed(indexer, logs: list[bytes]):
    """The indexer as a resumed build has it: the forest regrown from its logs."""
    stub = indexer.without_forest()
    stub.shard.rebuild(logs)
    return stub


@pytest.mark.parametrize("positional", [False, True], ids=["plain", "positional"])
@pytest.mark.parametrize("kind", list(_PAIRS))
@settings(max_examples=40)
@given(
    streams=_token_streams(),
    resumes=st.lists(st.booleans(), min_size=4, max_size=4),
    owned=st.sampled_from([None, (3,), (40, 41)]),
)
def test_walk_equals_the_parent_walk(kind, positional, streams, resumes, owned):
    """The walk's own per-span counts against the parent's walk, which read
    every touched tree's counters before and after (``tests/walk_oracle.py``)
    in the per-tree forest (``tests/forest_oracle.py``), batch after batch,
    with a resume from the mutation logs between some."""
    degree, batches = streams
    indexers = []
    for cls, shard in zip(_PAIRS[kind], (DictionaryShard, OracleShard)):
        indexer = cls(0, shard(TrieTable(), owned_collections=owned, degree=degree))
        indexer.returned = []
        indexers.append(indexer)
    new, old = indexers
    new_logs: list[bytes] = []
    old_logs: list[bytes] = []
    for i, ((collections, twins), resume) in enumerate(zip(batches, resumes)):
        batch = _columns(collections, twins, positional)
        # ``repr``: every float bit of the modeled seconds and GPU cycles.
        assert repr(new.index_batch(batch, 6 * i)) == repr(old.index_batch(batch, 6 * i))
        (_, tree_rows, grown), (_, old_trees, old_grown) = new.returned[-1], old.returned[-1]
        owned_rows = new._owned_rows(batch.order)
        trees = list(map(new.shard.trees.get, batch.order[owned_rows].tolist()))
        assert tree_rows.tolist() == [t.row for t in trees]
        assert [t.node_count for t in trees] == [t.node_count for t in old_trees]
        # The per-collection record == the parent's before/after difference.
        assert np.array_equal(
            np.column_stack(grown.snapshot()), np.column_stack(old_grown.snapshot())
        )
        new_logs.append(new.shard.take_mutation_log())
        old_logs.append(old.shard.take_mutation_log())
        assert new_logs[-1] == old_logs[-1]
        _assert_same_state(new, old)  # ten counters and items per tree, postings
        if resume:
            new, old = _resumed(new, new_logs), _resumed(old, old_logs)
            _assert_same_state(new, old)


@pytest.mark.parametrize("degree", [2, 3, 16])
def test_ungrouped_equals_the_parent_loop(degree):
    """The document-order path now walks one-token spans: same term ids,
    postings, counters and modeled seconds as the parent's per-token loop,
    and a report that carries the B-tree work the parent left at zero."""
    # Height 1: few collections, so the small degrees split their trees.
    parser = Parser(strip_html=False, regroup=False, trie=TrieTable(height=1))
    batch, _ = parser.parse_texts(_TEXTS * 2)
    assert not batch.regrouped
    new = CPUIndexer(0, DictionaryShard(parser.trie, degree=degree))
    old = OracleCPUIndexer(0, OracleShard(parser.trie, degree=degree))
    for doc_offset in (0, 10):
        before = old.shard.stats()
        report, old_report = new.index_batch(batch, doc_offset), old.index_batch(batch, doc_offset)
        assert old_report.btree == BTreeStats()
        assert repr(dataclasses.replace(report, btree=BTreeStats())) == repr(old_report)
        delta = np.array(old.shard.stats().snapshot()) - np.array(before.snapshot())
        assert report.btree == BTreeStats(*delta.tolist())
        assert list(new.shard.trees) == list(old.shard.trees)
        for cidx, tree in new.shard.trees.items():
            assert tree.node_count == old.shard.trees[cidx].node_count
        _assert_same_state(new, old)
    if degree < 16:  # the pin is only worth something if nodes split
        assert new.shard.stats().splits


def _one_collection(tokens: list[tuple[int, bytes]], cidx: int = 3) -> ParsedBatch:
    """``(doc, suffix)`` tokens of one collection, one entry per distinct suffix."""
    stream: dict[int, list[bytes]] = {}
    for doc, suffix in tokens:
        stream.setdefault(doc, []).append(suffix)
    return batch_from_collections({cidx: list(stream.items())})


def test_a_duplicate_hit_that_splits_is_a_mutation():
    """Degree 2: ``c`` fills the root, so the next ``b`` finds its suffix *and*
    splits the root.  That descent must be logged, must forget the ``b``
    recorded before ``c`` arrived, and must not be recorded itself."""
    tokens = [(0, s) for s in (b"a", b"b", b"b", b"c", b"b", b"a", b"b", b"b", b"a")]
    new = CPUIndexer(0, DictionaryShard(TrieTable(), degree=2))
    old = CPUIndexer(0, DictionaryShard(TrieTable(), degree=2))
    batch = _one_collection(tokens)
    new.index_batch(batch, 0)
    stats = new.shard.trees[3].stats
    assert (stats.inserts, stats.duplicate_hits, stats.splits) == (3, 6, 1)
    assert new.shard.mutation_log.count(b"b") == 2  # its insert, and the splitting hit
    _parent_index_batch(old, batch, 0)
    _assert_same_state(new, old)


def test_two_entries_of_one_suffix_are_one_term():
    """Postings are grouped by term, not by entry: grouped by entry, document
    0 would arrive again after document 1 and the list would refuse it."""
    batch = _one_collection([(0, b"run"), (0, b"run"), (1, b"run"), (1, b"run")])
    batch.entry_suffix = [b"run", b"run"]
    batch.entry_cidx = np.array([3, 3], dtype=np.int32)
    batch.ids = np.array([0, 1, 0, 1], dtype=np.int32)
    indexer = CPUIndexer(0, DictionaryShard(TrieTable()))
    indexer.index_batch(batch, 10)
    (term_id,) = indexer.accumulator.lists
    assert _postings(indexer) == {term_id: ([10, 11], [2, 2], None)}
    assert indexer.shard.trees[3].stats.duplicate_hits == 3


def test_document_order_across_batches_is_still_checked():
    batch = _one_collection([(0, b"x"), (1, b"x")])
    indexer = CPUIndexer(0, DictionaryShard(TrieTable()))
    indexer.index_batch(batch, 10)
    indexer.index_batch(batch, 11)  # document 11 again: one posting, tf 2
    (plist,) = indexer.accumulator.lists.values()
    assert (plist.doc_ids, plist.tfs) == ([10, 11, 12], [1, 2, 1])
    with pytest.raises(ValueError, match="arrived after"):
        indexer.index_batch(batch, 0)


def test_misaligned_positions_are_rejected():
    parser = Parser(strip_html=False, positional=True)
    batch, _ = parser.parse_texts(_TEXTS)
    batch.positions = batch.positions[:-1]
    indexer = CPUIndexer(0, DictionaryShard(parser.trie))
    with pytest.raises(ValueError):
        indexer.index_batch(batch, 0)
    assert not indexer.accumulator.lists


def test_modeled_seconds_are_added_left_to_right():
    """``sum()`` over floats is compensated from Python 3.12 on; CI runs
    3.10 and 3.12, so the pinned bits need a plain ``+=`` in collection
    order on both indexers."""
    # GPU: forty collections whose seconds lose low bits when added naively.
    script = [
        ((1009 * i**3) % 100003, (1009 * i) % 977 + 1, (1009 * i * i) % 50021, i % 3, i % 5, i % 2)
        for i in range(1, 41)
    ]
    gpu = _ScriptedGPU(TESLA_C1060, script)
    out = gpu.index_batch(_scripted_batch(script), 0)
    seconds = [TESLA_C1060.seconds(item.total_cycles) for item in out.work_items]
    naive = 0.0
    for s in seconds:
        naive += s
    assert naive != math.fsum(seconds)  # or the case proves nothing
    assert repr(out.report.modeled_seconds) == repr(naive)

    # CPU: the per-collection seconds of a real batch.
    parser = Parser(strip_html=False)
    batch, _ = parser.parse_texts(_TEXTS * 3)
    cpu = CPUIndexer(0, DictionaryShard(parser.trie))
    report, tree_rows, grown = cpu._index_rows(batch, np.arange(len(batch.order)), 0)
    seconds = cpu._model_collection_seconds(tree_rows, batch.tokens, grown).tolist()
    naive = 0.0
    for s in seconds:
        naive += s
    assert naive != math.fsum(seconds)
    again = CPUIndexer(0, DictionaryShard(parser.trie))
    assert repr(again.index_batch(batch, 0).modeled_seconds) == repr(naive)
    # ... and each collection's seconds are the scalar formula's, bit for bit.
    cost = cpu.cost
    rows = np.column_stack(grown.snapshot()).tolist()
    trees = list(map(cpu.shard.trees.get, batch.order.tolist()))
    assert tree_rows.tolist() == [tree.row for tree in trees]
    for tree, tokens, row, got in zip(trees, batch.tokens.tolist(), rows, seconds):
        delta = BTreeStats(*row)
        tree_bytes = tree.node_count * NODE_SIZE_BYTES + tree.heap_bytes
        resident = min(1.0, cost.cache_share_bytes / tree_bytes)
        visit = resident * cost.node_visit_hot_s + (1.0 - resident) * cost.node_visit_cold_s
        assert repr(got) == repr(
            tokens * cost.per_token_s + delta.node_visits * visit
            + delta.full_string_fetches * cost.full_fetch_s + delta.splits * cost.split_s
        )


def test_device_memory_check_fires_before_any_tree_changes():
    parser = Parser(strip_html=False)
    batch, _ = parser.parse_texts(_TEXTS)
    tiny = GPUSpec(device_memory_bytes=16)
    gpu = GPUIndexer(0, DictionaryShard(parser.trie), device=Device(spec=tiny))
    with pytest.raises(MemoryError):
        gpu.index_batch(batch, 0)
    assert not gpu.shard.trees and not gpu.accumulator.lists
    assert gpu.warp_counters == WarpCounters() and gpu.total == IndexerReport()


@pytest.mark.parametrize("cls", [BTreeStats, WarpCounters, ParseMetrics])
def test_unrolled_merges_cover_every_field(cls):
    """An explicit field list can forget a field; a reflective loop could not."""
    n = len(cls.__dataclass_fields__)
    total = cls(*range(1, n + 1))
    total.merge(cls(*range(100, 100 + n)))
    assert total == cls(*(101 + 2 * i for i in range(n)))


def test_snapshot_and_scaled_merge():
    stats = BTreeStats(*range(5, 15))
    assert stats.snapshot() == tuple(range(5, 15))
    assert BTreeStats(*stats.snapshot()) == stats
    folded = WarpCounters()
    folded.merge(WarpCounters(*range(1, 13)), 7)
    assert folded == WarpCounters(*range(7, 91, 7))
