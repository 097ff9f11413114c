"""When a multiprocess build starts its parse worker, and what stops it.

The open phase starts the worker as soon as the build knows its start
file and no check is left that can refuse the build: a fresh build
before Phase 1 sampling (file 0), a resume after the journal and
manifest checks (the journal's next file).  These tests pin that order
with spies, never a clock, and that a build refused on the way leaves no
process behind.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
import shutil

import pytest

from repro.core import engine as engine_module
from repro.core import mp_backend
from repro.core.engine import IndexingEngine
from repro.corpus.warc import CorruptContainerError
from repro.robustness.checkpoint import load_checkpoint
from repro.robustness.errors import FatalFault
from repro.robustness.faults import FaultPlan, FaultSpec, inject
from tests.test_checkpoint_journal import _crash_before_file
from tests.test_exec_backend import _cfg, _digest

BACKENDS = ("serial", "multiprocess")


@pytest.fixture(scope="module")
def serial_digest(tiny_collection, tmp_path_factory):
    out = str(tmp_path_factory.mktemp("serial") / "idx")
    IndexingEngine(_cfg(exec_backend="serial")).build(tiny_collection, out)
    return _digest(out)


@pytest.fixture
def submitted(monkeypatch):
    """Every ``ParseWorker.submit(k)``, in call order."""
    calls: list[int] = []
    real_submit = mp_backend.ParseWorker.submit

    def spy(self, k):
        calls.append(k)
        return real_submit(self, k)

    monkeypatch.setattr(mp_backend.ParseWorker, "submit", spy)
    return calls


@pytest.fixture
def at_sampling(monkeypatch, submitted):
    """What was running and submitted when the sampler was called."""
    seen: list[tuple[int, list[int]]] = []
    real_sample = engine_module.sample_collection

    def spy(*args, **kwargs):
        seen.append((len(multiprocessing.active_children()), list(submitted)))
        return real_sample(*args, **kwargs)

    monkeypatch.setattr(engine_module, "sample_collection", spy)
    return seen


def _corrupt_copy(collection, tmp_path, k: int):
    """``collection`` copied, with file ``k`` cut to a broken container."""
    root = str(tmp_path / "corrupt")
    shutil.copytree(collection.directory, root)
    files = [os.path.join(root, os.path.relpath(f, collection.directory))
             for f in collection.files]
    os.truncate(files[k], 120)
    return dataclasses.replace(collection, directory=root, files=files)


class TestRefusedBuildLeavesNoWorker:
    """Every way the open phase can refuse a build raises what a serial
    build raises, and stops the worker it may already have started."""

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_fatal_fault_while_sampling(self, tiny_collection, tmp_path, backend):
        plan = FaultPlan(specs=(FaultSpec(kind="fatal", stage="sampling"),))
        with inject(plan), pytest.raises(FatalFault):
            IndexingEngine(_cfg(exec_backend=backend)).build(
                tiny_collection, str(tmp_path / "idx"))
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_corrupt_container_the_sampler_reads(self, tiny_collection, tmp_path,
                                                 backend):
        corrupt = _corrupt_copy(tiny_collection, tmp_path, 3)
        with pytest.raises(CorruptContainerError):
            IndexingEngine(_cfg(exec_backend=backend, on_error="strict")).build(
                corrupt, str(tmp_path / "idx"))
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_resume_against_another_fingerprint(self, tiny_collection, tmp_path,
                                                backend):
        out = str(tmp_path / "idx")
        _crash_before_file(_cfg(exec_backend=backend), tiny_collection, out, 3)
        other = _cfg(exec_backend=backend, files_per_run=3)
        with pytest.raises(ValueError, match="different configuration"):
            IndexingEngine(other).build(tiny_collection, out, resume=True)
        assert multiprocessing.active_children() == []


class TestStartOrder:
    def test_worker_is_parsing_before_the_sampler_runs(
            self, tiny_collection, tmp_path, at_sampling, serial_digest):
        out = str(tmp_path / "idx")
        IndexingEngine(_cfg(exec_backend="multiprocess")).build(tiny_collection, out)
        window = list(range(mp_backend.PARSE_AHEAD_WINDOW))
        assert at_sampling == [(1, window)]
        assert multiprocessing.active_children() == []
        assert _digest(out) == serial_digest

    def test_serial_build_forks_nothing(self, tiny_collection, tmp_path,
                                        at_sampling, submitted):
        IndexingEngine(_cfg(exec_backend="serial")).build(
            tiny_collection, str(tmp_path / "idx"))
        assert at_sampling == [(0, [])]
        assert submitted == []

    def test_each_file_is_submitted_once_in_order(self, tiny_collection, tmp_path,
                                                  submitted):
        IndexingEngine(_cfg(exec_backend="multiprocess")).build(
            tiny_collection, str(tmp_path / "idx"))
        assert submitted == list(range(len(tiny_collection.files)))

    def test_resume_starts_at_the_journals_next_file(
            self, tiny_collection, tmp_path, submitted, at_sampling, serial_digest):
        out = str(tmp_path / "idx")
        cfg = _cfg(exec_backend="multiprocess")
        _crash_before_file(cfg, tiny_collection, out, 3)
        next_file = load_checkpoint(out)["next_file_index"]
        assert next_file > 0
        submitted.clear()
        at_sampling.clear()
        IndexingEngine(cfg).build(tiny_collection, out, resume=True)
        assert at_sampling == []
        assert submitted == list(range(next_file, len(tiny_collection.files)))
        assert _digest(out) == serial_digest

    def test_spawned_worker_matches_serial(self, tiny_collection, tmp_path,
                                           monkeypatch, serial_digest):
        """The early worker pickles only the config and the fault plan."""
        methods: list[str] = []
        real_start = mp_backend.ParseWorker._start_pool

        def spy(self):
            methods.append(self._ctx.get_start_method())
            return real_start(self)

        monkeypatch.setattr(multiprocessing, "get_all_start_methods",
                            lambda: ["spawn"])
        monkeypatch.setattr(mp_backend.ParseWorker, "_start_pool", spy)
        out = str(tmp_path / "idx")
        IndexingEngine(_cfg(exec_backend="multiprocess")).build(tiny_collection, out)
        assert methods == ["spawn"]
        assert _digest(out) == serial_digest
