"""The build's three phases, each called on its own.

``IndexingEngine.build`` is open (fresh *or* resume) → run loop →
finalise over one :class:`~repro.core.engine.RunBoundaryState`.  The
crash harness is ``tests/test_checkpoint_journal.py``'s; what is pinned
here is that each phase is usable alone and that the parse-under-retry
helper both parse paths share classifies outcomes the way the engine's
error policy expects.
"""

from __future__ import annotations

import dataclasses
import filecmp
import os

import pytest

from repro.core import engine as engine_module
from repro.core.engine import IndexingEngine, RunBoundaryState, _parse_under_retry
from repro.corpus.warc import CorruptContainerError
from repro.obs.runtime import Telemetry
from repro.parsing.parser import Parser
from repro.postings.doctable import DOCTABLE_FILENAME
from repro.postings.output import MAP_FILENAME
from repro.robustness.checkpoint import load_checkpoint
from repro.robustness.errors import FatalFault, RetryExhausted
from repro.robustness.faults import FaultPlan, FaultSpec, inject
from tests.test_checkpoint_journal import (
    NUM_FILES,
    _cfg,
    _crash_before_file,
    _digest,
    _journal,
)

_CURSORS = ("doc_offset", "run_count", "next_file_index", "token_count",
            "posting_count")


def _open(cfg, collection, out, resume=False):
    return IndexingEngine(cfg)._open(collection, out, resume, Telemetry.create(False))


@pytest.fixture(scope="module")
def boundary_cursors(tiny_collection, tmp_path_factory):
    """What an uninterrupted serial build journals at each boundary."""
    seen = []
    real_save = engine_module.save_checkpoint

    def save_and_record(output_dir, state, indexers):
        seen.append({name: state[name] for name in _CURSORS})
        return real_save(output_dir, state, indexers)

    out = str(tmp_path_factory.mktemp("phases_ref") / "idx")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine_module, "save_checkpoint", save_and_record)
        IndexingEngine(_cfg(exec_backend="serial")).build(tiny_collection, out)
    assert len(seen) == NUM_FILES
    return seen


class TestOpen:
    def test_fresh_open_is_boundary_zero(self, tiny_collection, tmp_path):
        build = _open(_cfg(), tiny_collection, str(tmp_path / "idx"))
        assert {name: getattr(build.state, name) for name in _CURSORS} == dict.fromkeys(_CURSORS, 0)
        assert build.start_file == 0
        assert [ix.kind for ix in build.state.indexers] == ["cpu", "cpu", "gpu", "gpu"]

    @pytest.mark.parametrize("r", range(1, NUM_FILES))
    def test_resumed_open_is_the_uninterrupted_state_at_r(
            self, tiny_collection, tmp_path, boundary_cursors, r):
        cfg = _cfg(exec_backend="serial")
        out = str(tmp_path / "idx")
        _crash_before_file(cfg, tiny_collection, out, r)
        # One declaration: the journal's keys are the state's fields.
        assert set(load_checkpoint(out)) - {"indexers"} == {
            f.name for f in dataclasses.fields(RunBoundaryState)
        } - {"cpu_indexers", "gpu_indexers"}
        build = _open(cfg, tiny_collection, out, resume=True)
        assert {name: getattr(build.state, name) for name in _CURSORS} == boundary_cursors[r - 1]
        assert build.start_file == r
        assert build.state.robustness.resumed_runs == r
        assert len(build.range_map.runs) == r


def test_finalise_alone_writes_the_epilogue(tiny_collection, tmp_path):
    cfg = _cfg(exec_backend="serial", files_per_run=NUM_FILES)
    whole = str(tmp_path / "whole")
    IndexingEngine(cfg).build(tiny_collection, whole)

    out = str(tmp_path / "idx")
    engine = IndexingEngine(cfg)
    build = engine._open(tiny_collection, out, False, Telemetry.create(False))
    engine._run_loop(build)
    epilogue = ("dictionary.bin", MAP_FILENAME, DOCTABLE_FILENAME)
    assert build.state.run_count == 1 and os.path.exists(_journal(out))
    assert not any(os.path.exists(os.path.join(out, name)) for name in epilogue)

    result = engine._finalise(build)
    for name in epilogue:
        assert filecmp.cmp(os.path.join(out, name), os.path.join(whole, name),
                           shallow=False), name
    assert not os.path.exists(_journal(out))
    assert result.run_count == 1 and result.supervisor is None
    assert _digest(out) == _digest(whole)


def test_each_collection_is_routed_once_per_build(tiny_collection, tmp_path, monkeypatch):
    """``split_batch`` keeps the routes it has asked for: ``bind_unseen``
    scans every owner set, so it sees a collection once, in file order --
    on a resumed build too, whose table refills from the journalled sets."""
    from repro.indexers.assignment import WorkAssignment

    asked: list[int] = []
    bind_unseen = WorkAssignment.bind_unseen

    def recording(self, cidx):
        asked.append(cidx)
        return bind_unseen(self, cidx)

    monkeypatch.setattr(WorkAssignment, "bind_unseen", recording)
    cfg = _cfg(exec_backend="serial")
    whole = str(tmp_path / "whole")
    IndexingEngine(cfg).build(tiny_collection, whole)
    assert len(asked) == len(set(asked)) > 100
    routed = set(asked)

    out = str(tmp_path / "idx")
    _crash_before_file(cfg, tiny_collection, out, 3)
    asked.clear()
    IndexingEngine(cfg).build(tiny_collection, out, resume=True)
    assert len(asked) == len(set(asked)) and set(asked) <= routed
    assert _digest(out) == _digest(whole)


class TestParseUnderRetry:
    """One helper behind the serial stream, the parse worker and the
    multiprocess backend's degraded-parser path."""

    K = 2

    def _parse(self, tiny_collection, *specs):
        cfg = _cfg()
        parser = Parser(strip_html=cfg.strip_html)
        with inject(FaultPlan(specs=specs), sleep=lambda s: None):
            return parser, _parse_under_retry(
                parser, tiny_collection.files[self.K], self.K, cfg
            )

    def _fault(self, kind, **kw):
        return FaultSpec(kind=kind, path_substring=f"file_{self.K:05d}",
                         stage="build", **kw)

    def test_transient_then_ok(self, tiny_collection):
        parser, (parsed, error, outcome) = self._parse(
            tiny_collection, self._fault("transient", times=2)
        )
        assert error is None and parsed.batch.sequence == self.K
        assert outcome.retries == 2 and outcome.backoff_s > 0
        assert parser.parser_id == self.K % _cfg().num_parsers

    @pytest.mark.parametrize("kind, kw, error_type", [
        ("transient", {"times": 99}, RetryExhausted),
        ("truncate", {}, CorruptContainerError),
    ])
    def test_permanent_failures_come_back_as_the_error(
            self, tiny_collection, kind, kw, error_type):
        _, (parsed, error, outcome) = self._parse(
            tiny_collection, self._fault(kind, **kw)
        )
        assert parsed is None and outcome is None
        assert isinstance(error, error_type)

    def test_fatal_fault_propagates(self, tiny_collection):
        with pytest.raises(FatalFault):
            self._parse(tiny_collection, self._fault("fatal"))
