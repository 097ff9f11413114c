"""The run-boundary checkpoint journal (docs/ROBUSTNESS.md).

``checkpoint.bin`` is an append-only journal: each run boundary appends
what the run added to the dictionary (the shards' mutation logs) plus one
small state pickle, and resume replays the records.  These tests pin the
properties that design rests on:

* a crash after *any* boundary, under any execution backend, resumes to
  the uninterrupted serial build — bytes and work totals;
* a torn last record is dropped and its run re-indexed; damage to an
  earlier record is a :class:`ChecksumError`, never a wrong index;
* every forest-changing insert is journalled exactly once, however many
  runs the build is cut into (no clock involved: byte counts only);
* a GPU failover before the crash survives the journal;
* every backend leaves the shard logs empty after every boundary.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import shutil

import pytest

from repro.cli import main
from repro.core import engine as engine_module
from repro.core.config import PlatformConfig
from repro.core.engine import IndexingEngine
from repro.dictionary.dictionary import DictionaryShard
from repro.indexers.cpu import CPUIndexer
from repro.indexers.gpu import GPUIndexer
from repro.obs.schema import METRICS_FILENAME, TRACE_FILENAME
from repro.parsing.parser import Parser
from repro.robustness.checkpoint import (
    CHECKPOINT_FILENAME,
    MANIFEST_FILENAME,
    BuildManifest,
    _read_records,
    _split_record,
    load_checkpoint,
)
from repro.robustness.errors import ChecksumError, FatalFault
from repro.robustness.faults import FaultPlan, FaultSpec, inject

BACKENDS = ("serial", "multiprocess")
#: ``tiny_collection`` has six files; one run per file gives six boundaries.
NUM_FILES = 6
_BUILD_LOGS = {MANIFEST_FILENAME, CHECKPOINT_FILENAME,
               METRICS_FILENAME, TRACE_FILENAME}
#: Bytes a record spends on framing: length + CRC.
_FRAME_BYTES = 8


def _cfg(**overrides) -> PlatformConfig:
    defaults = dict(
        num_parsers=3, num_cpu_indexers=2, num_gpus=2,
        sample_fraction=0.2, files_per_run=1, pipeline_depth=0,
    )
    defaults.update(overrides)
    return PlatformConfig(**defaults)


def _digest(out_dir: str) -> str:
    h = hashlib.sha256()
    for name in sorted(os.listdir(out_dir)):
        if name in _BUILD_LOGS or os.path.isdir(os.path.join(out_dir, name)):
            continue
        h.update(name.encode())
        with open(os.path.join(out_dir, name), "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def _crash_before_file(cfg: PlatformConfig, collection, out: str, k: int,
                       *extra: FaultSpec) -> None:
    """Build until file ``k``'s read kills the process: ``k`` runs durable."""
    crash = FaultSpec(kind="fatal", path_substring=f"file_{k:05d}", stage="build")
    with inject(FaultPlan(specs=(*extra, crash))):
        with pytest.raises(FatalFault):
            IndexingEngine(cfg).build(collection, out)


def _journal(out: str) -> str:
    return os.path.join(out, CHECKPOINT_FILENAME)


def _record_offsets(out: str) -> list[int]:
    """Start offset of every record, plus the journal's end."""
    payloads, end = _read_records(_journal(out))
    offsets = [0]
    for payload in payloads:
        offsets.append(offsets[-1] + _FRAME_BYTES + len(payload))
    assert offsets[-1] == end == os.path.getsize(_journal(out))
    return offsets


def _flip(path: str, offset: int) -> None:
    with open(path, "r+b") as fh:
        fh.seek(offset)
        byte = fh.read(1)
        fh.seek(offset)
        fh.write(bytes([byte[0] ^ 0x10]))


@pytest.fixture(scope="module")
def reference(tiny_collection, tmp_path_factory):
    """The uninterrupted serial build every resumed build must equal."""
    out = str(tmp_path_factory.mktemp("journal_ref") / "idx")
    result = IndexingEngine(_cfg(exec_backend="serial")).build(tiny_collection, out)
    assert result.run_count == NUM_FILES
    return result, out


@pytest.fixture()
def keep_journal(monkeypatch):
    """Leave ``checkpoint.bin`` behind when a build completes."""
    monkeypatch.setattr(engine_module, "clear_checkpoint", lambda output_dir: None)


# ---------------------------------------------------------------------- #
# (a) crash after every boundary, under every backend
# ---------------------------------------------------------------------- #


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("k", range(1, NUM_FILES))
def test_resume_after_every_boundary_equals_serial(
        tiny_collection, tmp_path, reference, backend, k):
    ref_result, ref_out = reference
    cfg = _cfg(exec_backend=backend)
    out = str(tmp_path / "idx")
    _crash_before_file(cfg, tiny_collection, out, k)
    state = load_checkpoint(out)
    assert state["run_count"] == k and state["next_file_index"] == k

    result = IndexingEngine(cfg).build(tiny_collection, out, resume=True)
    assert result.robustness.resumed_runs == k
    assert result.run_count == NUM_FILES
    assert _digest(out) == _digest(ref_out)
    assert result.term_count == ref_result.term_count
    assert result.posting_count == ref_result.posting_count
    assert result.indexer_reports == ref_result.indexer_reports
    assert not os.path.exists(_journal(out))


# ---------------------------------------------------------------------- #
# (b) torn tail vs damage
# ---------------------------------------------------------------------- #


class TestTornTail:
    CRASH_AT = 4  # four records in the journal

    @pytest.fixture(scope="class")
    def crashed(self, tiny_collection, tmp_path_factory):
        out = str(tmp_path_factory.mktemp("journal_crash") / "idx")
        _crash_before_file(_cfg(), tiny_collection, out, self.CRASH_AT)
        return out

    def _copy(self, crashed: str, tmp_path) -> str:
        out = str(tmp_path / "idx")
        shutil.copytree(crashed, out)
        return out

    def _resume_reindexes_last_run(self, tiny_collection, out, ref_out):
        result = IndexingEngine(_cfg()).build(tiny_collection, out, resume=True)
        assert result.robustness.resumed_runs == self.CRASH_AT - 1
        counters = result.telemetry.metrics.snapshot()["counters"]
        assert counters["robustness.checkpoint_torn_tails"] == 1
        assert _digest(out) == _digest(ref_out)

    @pytest.mark.parametrize("where", ["first-byte", "mid-header", "payload-start",
                                       "middle", "last-byte"])
    def test_truncated_last_record_is_dropped(
            self, tiny_collection, tmp_path, reference, crashed, where):
        out = self._copy(crashed, tmp_path)
        *_, start, end = _record_offsets(out)
        cut = {
            "first-byte": start + 1,
            "mid-header": start + 5,
            "payload-start": start + _FRAME_BYTES,
            "middle": (start + end) // 2,
            "last-byte": end - 1,
        }[where]
        os.truncate(_journal(out), cut)
        self._resume_reindexes_last_run(tiny_collection, out, reference[1])

    def test_flipped_byte_in_last_record_is_dropped(
            self, tiny_collection, tmp_path, reference, crashed):
        out = self._copy(crashed, tmp_path)
        *_, start, end = _record_offsets(out)
        _flip(_journal(out), (start + end) // 2)
        self._resume_reindexes_last_run(tiny_collection, out, reference[1])

    def test_torn_tail_is_cut_off_the_file(self, tmp_path, crashed):
        out = self._copy(crashed, tmp_path)
        *_, start, end = _record_offsets(out)
        os.truncate(_journal(out), end - 3)
        assert load_checkpoint(out)["run_count"] == self.CRASH_AT - 1
        assert os.path.getsize(_journal(out)) == start

    def test_torn_only_record_is_no_checkpoint(self, tmp_path, crashed):
        out = self._copy(crashed, tmp_path)
        os.truncate(_journal(out), _record_offsets(out)[1] - 1)
        assert load_checkpoint(out) is None

    def test_flipped_byte_in_earlier_record_is_checksum_error(
            self, tiny_collection, tmp_path, crashed):
        out = self._copy(crashed, tmp_path)
        offsets = _record_offsets(out)
        _flip(_journal(out), (offsets[1] + offsets[2]) // 2)
        with pytest.raises(ChecksumError):
            load_checkpoint(out)
        with pytest.raises(ChecksumError):
            IndexingEngine(_cfg()).build(tiny_collection, out, resume=True)

    def test_cli_resume_reports_damage_without_traceback(
            self, tiny_collection, tmp_path, crashed, capsys):
        out = self._copy(crashed, tmp_path)
        offsets = _record_offsets(out)
        _flip(_journal(out), (offsets[0] + offsets[1]) // 2)
        code = main([
            "build", tiny_collection.directory, out, "--resume",
            "--parsers", "3", "--cpu-indexers", "2", "--gpus", "2",
            "--sample-fraction", "0.2", "--files-per-run", "1",
        ])
        captured = capsys.readouterr()
        assert code != 0
        assert "checksum mismatch" in captured.err
        assert CHECKPOINT_FILENAME in captured.err
        assert "Traceback" not in captured.err


# ---------------------------------------------------------------------- #
# (c) + (e) growth is counted in bytes, and the logs are emptied
# ---------------------------------------------------------------------- #


def _journal_accounting(out: str) -> tuple[int, list[int], int]:
    """``(mutation-log bytes, per-record bytes outside the logs, size)``."""
    payloads, size = _read_records(_journal(out))
    log_bytes = 0
    overheads = []
    for payload in payloads:
        logs, blob = _split_record(payload)
        state, indexers = pickle.loads(blob)
        # The forest is in the logs, never in the pickle.
        assert all(not ix.shard.trees for ix in indexers)
        assert all(not ix.shard.mutation_log for ix in indexers)
        record_logs = sum(len(log) for log in logs)
        log_bytes += record_logs
        overheads.append(_FRAME_BYTES + len(payload) - record_logs)
    return log_bytes, overheads, size


@pytest.fixture(scope="module")
def one_run_journal(tiny_collection, tmp_path_factory):
    """Accounting of the same collection built as a single run."""
    out = str(tmp_path_factory.mktemp("journal_one_run") / "idx")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine_module, "clear_checkpoint", lambda output_dir: None)
        result = IndexingEngine(
            _cfg(exec_backend="serial", files_per_run=NUM_FILES)
        ).build(tiny_collection, out)
    assert result.run_count == 1
    return _journal_accounting(out)


@pytest.mark.parametrize("backend", BACKENDS)
def test_journal_grows_with_the_index_not_with_runs(
        tiny_collection, tmp_path, monkeypatch, keep_journal, one_run_journal,
        backend):
    one_logs, (one_overhead,), one_size = one_run_journal

    leftover: list[int] = []
    real_save = engine_module.save_checkpoint

    def save_and_inspect(output_dir, state, indexers):
        path = real_save(output_dir, state, indexers)
        leftover.extend(len(ix.shard.mutation_log) for ix in indexers)
        return path

    monkeypatch.setattr(engine_module, "save_checkpoint", save_and_inspect)
    out = str(tmp_path / "idx")
    result = IndexingEngine(_cfg(exec_backend=backend)).build(tiny_collection, out)
    runs = result.run_count
    assert runs == NUM_FILES

    # (e) every boundary left every shard log empty ...
    assert len(leftover) == runs * 4 and not any(leftover)
    log_bytes, overheads, size = _journal_accounting(out)
    assert len(overheads) == runs
    # ... on the worker side too: a log that survived a boundary would be
    # journalled again by the next.  Every forest-changing insert appears
    # exactly once, so R records carry the bytes of the one-run record.
    assert log_bytes == one_logs > 0
    # (c) what R runs cost over one run is (R - 1) small-state pickles.
    assert size - one_size <= (runs - 1) * max(overheads)
    assert size == log_bytes + sum(overheads)
    assert one_size == one_logs + one_overhead
    counters = result.telemetry.metrics.snapshot()
    assert counters["counters"]["robustness.checkpoint_saves"] == runs
    assert counters["histograms"]["checkpoint.bytes"]["sum"] == size


@pytest.mark.parametrize("kind", [CPUIndexer, GPUIndexer])
def test_indexer_stub_size_does_not_grow_with_batches(kind):
    """A stub rides in every checkpoint record, so nothing in it may keep
    a per-batch history (the device's transfer list did): after 200
    batches only the counters' integers are wider than after 2."""
    parser = Parser(strip_html=False)
    batch, _ = parser.parse_texts(["parallel indexers build inverted files",
                                   "quickly on heterogeneous platforms"])
    indexer = kind(0, DictionaryShard(parser.trie))
    sizes = {}
    for n in range(1, 201):
        indexer.index_batch(batch, doc_offset=n * batch.num_docs)
        indexer.drain_postings()  # what a run boundary does before it pickles
        sizes[n] = len(pickle.dumps(indexer.without_forest()))
    assert 0 <= sizes[200] - sizes[2] <= 32


def test_restarted_worker_does_not_rejournal(tiny_collection, tmp_path,
                                             keep_journal, one_run_journal):
    """A parse worker SIGKILLed after a boundary costs a restart and
    nothing in the journal: every insert is still recorded exactly once."""
    out = str(tmp_path / "idx")
    spec = FaultSpec(kind="worker_crash", path_substring="file_00003", stage="build")
    with inject(FaultPlan(seed=11, specs=(spec,))):
        result = IndexingEngine(_cfg(exec_backend="multiprocess")).build(
            tiny_collection, out
        )
    assert result.supervisor.restarts == 1
    assert _journal_accounting(out)[0] == one_run_journal[0]


def _shape(node):
    """A B-tree node and everything below it, as comparable tuples."""
    return (node.string_ptrs, node.postings_ptrs, [_shape(c) for c in node.children])


def test_replay_rebuilds_the_forest_node_for_node():
    """Duplicate hits split full nodes on the way down (preemptive
    splitting), so the log must carry those inserts too: replay has to
    reproduce the tree's *shape*, which later work counters depend on."""
    import random

    rng = random.Random(3)
    words = [bytes(rng.choices(b"abcdefgh", k=rng.randint(1, 5))) for _ in range(4000)]
    shard = DictionaryShard(shard_id=2, degree=2)
    logs = []
    for i, word in enumerate(words):
        shard.insert_suffix(40 + i % 3, word)
        if i % 500 == 499:
            logs.append(shard.take_mutation_log())
    logs.append(shard.take_mutation_log())

    replayed = shard.without_forest()
    assert not replayed.trees
    replayed.rebuild(logs)
    assert not replayed.mutation_log
    assert sorted(replayed.trees) == sorted(shard.trees)
    for cidx, tree in shard.trees.items():
        assert _shape(replayed.trees[cidx].root) == _shape(tree.root)
        assert replayed.trees[cidx].node_count == tree.node_count
    assert list(replayed.terms()) == list(shard.terms())
    # New terms keep allocating from the same cursor.
    assert replayed.insert_suffix(40, b"zzzz") == shard.insert_suffix(40, b"zzzz")

    with pytest.raises(ValueError, match="mutation logs rebuild"):
        shard.without_forest().rebuild(logs[:-1])


def test_apply_log_extends_a_forest_by_one_run():
    """``rebuild``'s step in isolation: a forest that holds the first k
    logs, given log k + 1, is the forest ``rebuild`` grows from all
    k + 1 — shape, ids, cursor — and the replay logs exactly the bytes
    it applied."""
    import random

    rng = random.Random(5)
    words = [bytes(rng.choices(b"abcdefgh", k=rng.randint(1, 5))) for _ in range(3000)]
    worker = DictionaryShard(shard_id=3, degree=2)
    engine = worker.without_forest()

    def forest(shard):
        return {cidx: _shape(tree.root) for cidx, tree in shard.trees.items()}

    logs = []
    for start in range(0, len(words), 600):
        for i, word in enumerate(words[start : start + 600], start):
            worker.insert_suffix(7 + i % 2, word)
        logs.append(worker.take_mutation_log())
        engine.apply_log(logs[-1])
        assert engine.take_mutation_log() == logs[-1]
        rebuilt = worker.without_forest()
        rebuilt.rebuild(logs)
        assert forest(engine) == forest(rebuilt) == forest(worker)
        assert list(engine.terms()) == list(worker.terms())
    assert engine.insert_suffix(7, b"zzzz") == worker.insert_suffix(7, b"zzzz")


# ---------------------------------------------------------------------- #
# (d) GPU failover, then crash, then resume
# ---------------------------------------------------------------------- #


@pytest.mark.parametrize("backend", BACKENDS)
def test_gpu_failover_survives_the_journal(tiny_collection, tmp_path, backend):
    gpu_dies = FaultSpec(kind="gpu_fail", gpu_index=0, file_index=1)
    cfg = _cfg(exec_backend=backend)
    whole = str(tmp_path / "whole")
    with inject(FaultPlan(specs=(gpu_dies,))):
        expected = IndexingEngine(cfg).build(tiny_collection, whole)

    out = str(tmp_path / "idx")
    _crash_before_file(cfg, tiny_collection, out, 3, gpu_dies)
    state = load_checkpoint(out)
    assert [ix.kind for ix in state["indexers"]] == ["cpu", "cpu", "cpu", "gpu"]

    result = IndexingEngine(cfg).build(tiny_collection, out, resume=True)
    assert sorted(result.indexer_reports) == ["cpu0", "cpu1", "cpu100", "gpu101"]
    assert result.indexer_reports == expected.indexer_reports
    (failover,) = result.robustness.gpu_failovers
    assert failover.gpu_ordinal == 0 and failover.file_index == 1
    assert result.split == expected.split
    assert _digest(out) == _digest(whole)


def test_midrun_gpu_failover_is_journalled_once(tiny_collection, tmp_path,
                                                keep_journal):
    """With two files per run the GPU dies mid-run: file 0's inserts are
    in the shard log but in no record yet, and the CPU fallback adopts
    the shard — the next boundary must journal them once, under either
    backend.  Few, deep, narrow trees make a second copy visible:
    repeated terms split nodes on the way down, and every split is one
    more log entry."""
    gpu_dies = FaultSpec(kind="gpu_fail", gpu_index=0, file_index=1)
    built = {}
    for backend in ("serial", "multiprocess"):
        out = str(tmp_path / backend)
        cfg = _cfg(exec_backend=backend, files_per_run=2,
                   btree_degree=2, trie_height=1)
        with inject(FaultPlan(specs=(gpu_dies,))):
            built[backend] = IndexingEngine(cfg).build(tiny_collection, out), out
    (serial, serial_out), (mp, mp_out) = built["serial"], built["multiprocess"]
    assert len(mp.robustness.gpu_failovers) == 1
    assert _journal_accounting(mp_out)[0] == _journal_accounting(serial_out)[0]
    assert mp.indexer_reports == serial.indexer_reports
    assert mp.file_works == serial.file_works
    assert _digest(mp_out) == _digest(serial_out)
