"""Chaos tests for the multiprocess backend: crash, stall, poison, leaks.

Each scenario injects a process-level fault (``worker_crash`` SIGKILLs
the worker from inside, ``worker_stall`` wedges it past the heartbeat
timeout), then asserts the core robustness contract: the build completes
**byte-identical to a serial build**, ``repro verify`` passes, the
supervisor's account of events lands in ``run.metrics.json``, and no
shared-memory segment outlives the build.
"""

from __future__ import annotations

import hashlib
import os

import pytest

from repro.core.config import PlatformConfig
from repro.core.engine import IndexingEngine
from repro.core.shm_ring import SHM_PREFIX, ShmRing, list_repro_segments
from repro.obs.profile_schema import PROFILE_FILENAME
from repro.obs.schema import METRICS_FILENAME, TRACE_FILENAME, load_metrics
from repro.robustness.checkpoint import CHECKPOINT_FILENAME, MANIFEST_FILENAME
from repro.robustness.faults import FaultPlan, FaultSpec, inject
from repro.robustness.supervise import SupervisorPolicy
from repro.robustness.verify import verify_index

pytestmark = pytest.mark.chaos

_BUILD_LOGS = {MANIFEST_FILENAME, CHECKPOINT_FILENAME,
               METRICS_FILENAME, TRACE_FILENAME, PROFILE_FILENAME}

#: Tight supervision so stall detection fits in test time.
_POLICY = SupervisorPolicy(heartbeat_timeout_s=0.4, supervise_interval_s=0.05)


def _cfg(**overrides) -> PlatformConfig:
    defaults = dict(
        num_parsers=3, num_cpu_indexers=2, num_gpus=2,
        sample_fraction=0.2, files_per_run=2, pipeline_depth=0,
        exec_backend="multiprocess", supervisor=_POLICY,
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


@pytest.fixture(scope="module")
def serial_build(tiny_collection, tmp_path_factory):
    out = str(tmp_path_factory.mktemp("chaos_ref") / "idx")
    return IndexingEngine(_cfg(exec_backend="serial")).build(tiny_collection, out), out


@pytest.fixture(scope="module")
def serial_reference(serial_build):
    return serial_build[1]


def _chaos_build(spec: FaultSpec, tiny_collection, out: str):
    with inject(FaultPlan(seed=11, specs=(spec,))):
        return IndexingEngine(_cfg()).build(tiny_collection, out)


def _assert_recovered(out: str, serial_reference: str) -> dict:
    assert _digest(out) == _digest(serial_reference)
    assert verify_index(out).ok
    assert list_repro_segments() == []
    return load_metrics(os.path.join(out, METRICS_FILENAME))["counters"]


def _assert_same_work(result, serial_build) -> None:
    """Recovery after a run boundary continues from a forest the engine
    *replayed*; equal bytes do not show it is node-for-node the worker's,
    equal node visits and splits do."""
    serial = serial_build[0]
    assert result.file_works == serial.file_works
    assert result.indexer_reports == serial.indexer_reports
    assert result.term_count == serial.term_count
    assert result.report.total_s == serial.report.total_s  # simulated seconds


class TestWorkerCrash:
    def test_sigkilled_indexer_is_restarted_and_replayed(
            self, tiny_collection, serial_reference, tmp_path):
        out = str(tmp_path / "idx")
        result = _chaos_build(
            FaultSpec(kind="worker_crash", worker="cpu-0",
                      path_substring="file_00001", stage="build"),
            tiny_collection, out,
        )
        sup = result.supervisor
        assert sup.restarts == 1
        assert sup.requeued >= 1
        assert [f.kind for f in sup.failures] == ["crash"]
        assert [f.action for f in sup.failures] == ["restart"]
        counters = _assert_recovered(out, serial_reference)
        assert counters["supervisor.restarts"] == 1
        assert counters["supervisor.requeued"] >= 1

    def test_sigkilled_gpu_worker_recovers(self, tiny_collection, serial_build,
                                           serial_reference, tmp_path):
        out = str(tmp_path / "idx")
        result = _chaos_build(
            FaultSpec(kind="worker_crash", worker="gpu-1",
                      path_substring="file_00002", stage="build"),
            tiny_collection, out,
        )
        assert result.supervisor.restarts == 1
        _assert_recovered(out, serial_reference)
        # file_00002 opens the second run: the fresh incarnation was
        # seeded from the engine-side indexer after one boundary.
        _assert_same_work(result, serial_build)

    def test_sigkilled_parser_requeues_its_files(self, tiny_collection,
                                                 serial_reference, tmp_path):
        out = str(tmp_path / "idx")
        result = _chaos_build(
            FaultSpec(kind="worker_crash", worker="parser-0",
                      path_substring="file_00003", stage="build"),
            tiny_collection, out,
        )
        sup = result.supervisor
        assert sup.restarts == 1
        assert sup.failures[0].worker == "parser-0"
        _assert_recovered(out, serial_reference)


class TestWorkerStall:
    def test_stalled_parser_trips_heartbeat_and_restarts(
            self, tiny_collection, serial_reference, tmp_path):
        out = str(tmp_path / "idx")
        result = _chaos_build(
            FaultSpec(kind="worker_stall", worker="parser-1", delay_s=1.5,
                      path_substring="file_00001", stage="build"),
            tiny_collection, out,
        )
        sup = result.supervisor
        assert sup.heartbeat_misses == 1
        assert [f.kind for f in sup.failures] == ["stall"]
        counters = _assert_recovered(out, serial_reference)
        assert counters["supervisor.heartbeat_misses"] == 1

    def test_short_stall_under_timeout_is_not_a_failure(
            self, tiny_collection, serial_reference, tmp_path):
        out = str(tmp_path / "idx")
        result = _chaos_build(
            FaultSpec(kind="worker_stall", worker="cpu-1", delay_s=0.05,
                      path_substring="file_00002", stage="build"),
            tiny_collection, out,
        )
        assert result.supervisor.clean
        _assert_recovered(out, serial_reference)


class TestPoison:
    def test_repeat_killer_task_degrades_the_slot(
            self, tiny_collection, serial_build, serial_reference, tmp_path):
        """A sub-batch that kills every incarnation must not loop forever:
        after ``poison_threshold`` kills the slot finishes inline."""
        out = str(tmp_path / "idx")
        result = _chaos_build(
            FaultSpec(kind="worker_crash", worker="cpu-1",
                      path_substring="file_00004", stage="build", times=3),
            tiny_collection, out,
        )
        sup = result.supervisor
        assert sup.poisoned == 1
        assert sup.degraded == 1
        assert sup.degraded_slots == ["cpu-1"]
        assert any(f.action == "degrade" for f in sup.failures)
        counters = _assert_recovered(out, serial_reference)
        assert counters["supervisor.degraded"] == 1
        assert counters["supervisor.poisoned"] == 1
        # file_00004 opens the third run: the slot went inline on the
        # engine-side indexer after two boundaries.
        _assert_same_work(result, serial_build)

    def test_restart_budget_exhaustion_degrades(
            self, tiny_collection, serial_reference, tmp_path):
        """Crashes on *different* tasks exhaust the per-slot budget."""
        out = str(tmp_path / "idx")
        plan = FaultPlan(seed=11, specs=(
            FaultSpec(kind="worker_crash", worker="cpu-0",
                      path_substring="file_00000", stage="build"),
            FaultSpec(kind="worker_crash", worker="cpu-0",
                      path_substring="file_00002", stage="build", times=2),
            FaultSpec(kind="worker_crash", worker="cpu-0",
                      path_substring="file_00004", stage="build", times=3),
        ))
        with inject(plan):
            result = IndexingEngine(
                _cfg(supervisor=SupervisorPolicy(
                    max_restarts=2,
                    heartbeat_timeout_s=_POLICY.heartbeat_timeout_s,
                    supervise_interval_s=_POLICY.supervise_interval_s,
                ))
            ).build(tiny_collection, out)
        sup = result.supervisor
        assert sup.restarts == 2
        assert sup.degraded == 1
        _assert_recovered(out, serial_reference)


class TestRingSanitizer:
    """``REPRO_SANITIZE=ring`` must be invisible except in counters.

    The sanitizer stamps a (sequence, crc32) trailer inside every ring
    frame and strips it on receipt (see ``repro.core.shm_san``); a
    sanitized build therefore has to stay byte-identical to the serial
    reference while ``run.metrics.json`` proves the checks actually ran
    and found nothing.
    """

    _ERROR_COUNTERS = ("shm_san.seq_errors", "shm_san.crc_errors",
                       "shm_san.use_after_unlink",
                       "shm_san.overlapping_writes")

    def test_sanitized_build_is_byte_identical(
            self, tiny_collection, serial_reference, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "ring")
        out = str(tmp_path / "idx")
        result = IndexingEngine(_cfg()).build(tiny_collection, out)
        assert result.supervisor.clean
        counters = _assert_recovered(out, serial_reference)
        assert counters["shm_san.frames_stamped"] > 0
        assert counters["shm_san.frames_verified"] > 0
        for key in self._ERROR_COUNTERS:
            assert counters.get(key, 0) == 0, key

    def test_sanitizer_survives_worker_crash(
            self, tiny_collection, serial_reference, tmp_path, monkeypatch):
        """Ring recreation on restart resets the frame numbering on both
        sides, so replay must not read as a sequence error."""
        monkeypatch.setenv("REPRO_SANITIZE", "ring")
        out = str(tmp_path / "idx")
        result = _chaos_build(
            FaultSpec(kind="worker_crash", worker="cpu-0",
                      path_substring="file_00001", stage="build"),
            tiny_collection, out,
        )
        assert result.supervisor.restarts == 1
        counters = _assert_recovered(out, serial_reference)
        assert counters["shm_san.frames_stamped"] > 0
        for key in self._ERROR_COUNTERS:
            assert counters.get(key, 0) == 0, key

    def test_unsanitized_build_has_no_sanitizer_counters(
            self, tiny_collection, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        out = str(tmp_path / "idx")
        IndexingEngine(_cfg()).build(tiny_collection, out)
        counters = load_metrics(os.path.join(out, METRICS_FILENAME))["counters"]
        assert not [k for k in counters if k.startswith("shm_san.")]


class TestShmLeaks:
    def test_no_segments_after_crashy_build(self, tiny_collection, tmp_path):
        out = str(tmp_path / "idx")
        _chaos_build(
            FaultSpec(kind="worker_crash", worker="cpu-0",
                      path_substring="file_00001", stage="build"),
            tiny_collection, out,
        )
        assert list_repro_segments() == []

    def test_backend_close_is_reentrant_after_abort(self, tiny_collection,
                                                    tmp_path):
        """A build-fatal fault mid-run still reclaims every segment."""
        from repro.robustness.errors import FatalFault

        out = str(tmp_path / "idx")
        plan = FaultPlan(seed=5, specs=(
            FaultSpec(kind="fatal", path_substring="file_00002",
                      stage="build"),
        ))
        with inject(plan):
            with pytest.raises(FatalFault):
                IndexingEngine(_cfg()).build(tiny_collection, out)
        assert list_repro_segments() == []

    def test_verify_check_shm_flags_orphans(self, tiny_collection,
                                            serial_reference, capsys):
        """``repro verify --check-shm`` fails on a dead-pid segment and
        passes once it is gone."""
        from multiprocessing import shared_memory

        from repro.cli import main

        assert main([
            "verify", serial_reference, "--check-shm"
        ]) == 0
        fake = f"{SHM_PREFIX}_999999999_0_ghost"
        seg = shared_memory.SharedMemory(name=fake, create=True, size=64)
        try:
            assert main([
                "verify", serial_reference, "--check-shm"
            ]) == 1
            err = capsys.readouterr().err
            assert "ghost" in err
        finally:
            seg.close()
            seg.unlink()
        assert main(["verify", serial_reference, "--check-shm"]) == 0

    def test_orphans_do_not_fail_verify_without_flag(self, serial_reference):
        from multiprocessing import shared_memory

        from repro.cli import main

        fake = f"{SHM_PREFIX}_999999999_1_ghost2"
        seg = shared_memory.SharedMemory(name=fake, create=True, size=64)
        try:
            assert main(["verify", serial_reference]) == 0
        finally:
            seg.close()
            seg.unlink()


class TestProfileUnderChaos:
    def test_profile_survives_worker_crash_mid_build(
            self, tiny_collection, serial_reference, tmp_path):
        """A SIGKILLed worker takes its unsent samples with it, but the
        merged artifact must stay schema-valid and the build recovered —
        profile deltas ride every reply, so loss is bounded by one task
        and the restarted incarnation's pid joins the same lane."""
        from repro.obs.profile_schema import load_profile

        out = str(tmp_path / "idx")
        with inject(FaultPlan(seed=11, specs=(
                FaultSpec(kind="worker_crash", worker="cpu-0",
                          path_substring="file_00001", stage="build"),))):
            result = IndexingEngine(
                _cfg(profile=True, profile_interval_s=0.002)
            ).build(tiny_collection, out)
        assert result.supervisor.restarts >= 1
        _assert_recovered(out, serial_reference)
        payload = load_profile(os.path.join(out, PROFILE_FILENAME))
        assert "engine" in payload["lanes"]
        for lane, entry in payload["lanes"].items():
            assert entry["samples"] >= 0, lane
