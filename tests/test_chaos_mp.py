"""Chaos tests for the multiprocess backend: crash, stall, poison, leaks.

Each scenario injects a process-level fault into the parse-ahead worker
(``worker_crash`` SIGKILLs it from inside, ``worker_stall`` wedges it
past the stall deadline), then asserts the core robustness contract: the
build completes **byte-identical to a serial build** with the same work
counters, ``repro verify`` passes, the supervisor's account of events
lands in ``run.metrics.json``, and neither a process nor a shared-memory
segment outlives the build.  Outcomes only — no assertion reads a clock.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import os
import subprocess
import sys
import time

import pytest

from repro.core.config import PlatformConfig
from repro.core.engine import IndexingEngine
from repro.core.shm_ring import list_repro_segments
from repro.obs.profile_schema import PROFILE_FILENAME
from repro.obs.schema import METRICS_FILENAME, TRACE_FILENAME, load_metrics
from repro.robustness.checkpoint import CHECKPOINT_FILENAME, MANIFEST_FILENAME
from repro.robustness.errors import FatalFault
from repro.robustness.faults import FaultPlan, FaultSpec, inject
from repro.robustness.supervise import SupervisorPolicy
from repro.robustness.verify import verify_index

pytestmark = pytest.mark.chaos

_BUILD_LOGS = {MANIFEST_FILENAME, CHECKPOINT_FILENAME,
               METRICS_FILENAME, TRACE_FILENAME, PROFILE_FILENAME}

#: A stall deadline far above what parsing a tiny file takes on a loaded
#: box, far below the injected stall: neither verdict rides on timing.
_POLICY = SupervisorPolicy(heartbeat_timeout_s=1.0)
_STALL_S = 30.0


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


@pytest.fixture(autouse=True)
def no_survivors():
    """Whatever a scenario did, it left no process and no segment."""
    segments = list_repro_segments()
    yield
    assert multiprocessing.active_children() == []
    assert list_repro_segments() == segments


def _crash(name: str, **kw) -> FaultSpec:
    return FaultSpec(kind="worker_crash", path_substring=name, stage="build", **kw)


def _chaos_build(tiny_collection, out: str, *specs: FaultSpec, **cfg):
    with inject(FaultPlan(seed=11, specs=specs)):
        return IndexingEngine(_cfg(**cfg)).build(tiny_collection, out)


def _assert_recovered(result, out: str, serial_build) -> dict:
    """Bytes, ``verify_index`` and the work the DES replays all equal the
    serial build's: recovery may cost wall-clock, nothing else."""
    serial, serial_out = serial_build
    assert _digest(out) == _digest(serial_out)
    assert verify_index(out).ok
    assert result.file_works == serial.file_works
    assert result.indexer_reports == serial.indexer_reports
    assert result.term_count == serial.term_count
    assert result.report.total_s == serial.report.total_s  # simulated seconds
    return load_metrics(os.path.join(out, METRICS_FILENAME))["counters"]


class TestWorkerCrash:
    def test_sigkilled_parser_requeues_its_files(self, tiny_collection,
                                                 serial_build, tmp_path):
        out = str(tmp_path / "idx")
        result = _chaos_build(tiny_collection, out, _crash("file_00003"))
        sup = result.supervisor
        assert sup.restarts == 1
        assert sup.requeued >= 1  # file 3, plus whatever was queued behind it
        assert [(f.worker, f.kind, f.action) for f in sup.failures] == [
            ("parser-0", "crash", "restart")
        ]
        counters = _assert_recovered(result, out, serial_build)
        assert counters["supervisor.restarts"] == 1
        assert counters["supervisor.requeued"] == sup.requeued

    def test_crash_on_the_first_file_of_the_build(self, tiny_collection,
                                                  serial_build, tmp_path):
        """The worker dies before it ever answered: the whole window is
        resubmitted to the second incarnation."""
        out = str(tmp_path / "idx")
        result = _chaos_build(tiny_collection, out, _crash("file_00000"))
        assert result.supervisor.restarts == 1
        assert result.supervisor.requeued >= 2
        _assert_recovered(result, out, serial_build)


class TestWorkerStall:
    def test_stalled_parser_trips_heartbeat_and_restarts(
            self, tiny_collection, serial_build, tmp_path):
        out = str(tmp_path / "idx")
        result = _chaos_build(
            tiny_collection, out,
            FaultSpec(kind="worker_stall", delay_s=_STALL_S,
                      path_substring="file_00001", stage="build"),
        )
        sup = result.supervisor
        assert sup.heartbeat_misses >= 1
        assert sup.failures[0].kind == "stall"
        counters = _assert_recovered(result, out, serial_build)
        assert counters["supervisor.heartbeat_misses"] == sup.heartbeat_misses

    def test_short_stall_under_timeout_is_not_a_failure(
            self, tiny_collection, serial_build, tmp_path):
        out = str(tmp_path / "idx")
        result = _chaos_build(
            tiny_collection, out,
            FaultSpec(kind="worker_stall", delay_s=0.05,
                      path_substring="file_00002", stage="build"),
            supervisor=SupervisorPolicy(),  # the default 10 s deadline
        )
        assert result.supervisor.clean
        _assert_recovered(result, out, serial_build)


class TestPoison:
    def test_repeat_killer_task_degrades_the_slot(
            self, tiny_collection, serial_build, tmp_path):
        """A file that kills every incarnation must not loop forever:
        after ``poison_threshold`` kills the engine parses it inline, and
        the worker carries on with the rest."""
        out = str(tmp_path / "idx")
        result = _chaos_build(tiny_collection, out, _crash("file_00004", times=9))
        sup = result.supervisor
        assert sup.poisoned == 1
        (tag,) = sup.poisoned_tasks
        assert "file_00004" in tag
        assert sup.restarts == _POLICY.poison_threshold
        assert sup.degraded == 0
        counters = _assert_recovered(result, out, serial_build)
        assert counters["supervisor.poisoned"] == 1

    def test_restart_budget_exhaustion_degrades(
            self, tiny_collection, serial_build, tmp_path):
        """Crashes on *different* files exhaust the slot's budget; the
        rest of the build is parsed inline."""
        out = str(tmp_path / "idx")
        result = _chaos_build(
            tiny_collection, out,
            _crash("file_00000"), _crash("file_00002", times=2),
            _crash("file_00004", times=3),
            supervisor=SupervisorPolicy(max_restarts=2, heartbeat_timeout_s=1.0),
        )
        sup = result.supervisor
        assert sup.restarts == 2
        assert sup.degraded == 1
        assert sup.failures[-1].action == "degrade"
        counters = _assert_recovered(result, out, serial_build)
        assert counters["supervisor.degraded"] == 1

    def test_zero_budget_degrades_on_the_first_crash(
            self, tiny_collection, serial_build, tmp_path):
        out = str(tmp_path / "idx")
        result = _chaos_build(
            tiny_collection, out, _crash("file_00001"),
            supervisor=SupervisorPolicy(max_restarts=0),
        )
        sup = result.supervisor
        assert (sup.restarts, sup.degraded) == (0, 1)
        assert [f.action for f in sup.failures] == ["degrade"]
        _assert_recovered(result, out, serial_build)


class TestFaultTargets:
    """Which worker incarnations a worker fault kills."""

    def test_times_bounds_the_fault_per_incarnation(
            self, tiny_collection, serial_build, tmp_path):
        """``times=2`` kills incarnations 1 and 2 on that file, not 3:
        with ``poison_threshold=3`` the third incarnation parses it."""
        out = str(tmp_path / "idx")
        result = _chaos_build(
            tiny_collection, out, _crash("file_00002", times=2),
            supervisor=SupervisorPolicy(max_restarts=3, poison_threshold=3),
        )
        sup = result.supervisor
        assert (sup.restarts, sup.poisoned, sup.degraded) == (2, 0, 0)
        assert [f.incarnation for f in sup.failures] == [1, 2]
        _assert_recovered(result, out, serial_build)


class TestShmLeaks:
    """The class name is historical: what must not leak is the worker
    process (the ``no_survivors`` fixture) — a build creates no segment."""

    def test_no_segments_after_crashy_build(self, tiny_collection, tmp_path):
        out = str(tmp_path / "idx")
        _chaos_build(tiny_collection, out, _crash("file_00001"))

    def test_backend_close_is_reentrant_after_abort(self, tiny_collection,
                                                    tmp_path):
        """A build-fatal fault mid-run still stops the worker, which is
        parsing ahead when the engine gives up."""
        out = str(tmp_path / "idx")
        plan = FaultPlan(seed=5, specs=(
            FaultSpec(kind="fatal", path_substring="file_00002", stage="build"),
        ))
        with inject(plan) as injector:
            with pytest.raises(FatalFault):
                IndexingEngine(_cfg()).build(tiny_collection, out)
        # The fault fired in the worker; its count came home with the reply.
        assert injector.counts["fatal"] == 1


class TestOrphan:
    @pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="needs /proc")
    def test_worker_does_not_outlive_a_sigkilled_engine(self, tiny_collection,
                                                        tmp_path):
        """``kill -9`` of the building process: the worker, wedged in a
        long stall, sees its parent gone and exits on its own."""
        script = (
            "import sys\n"
            "from repro.core.config import PlatformConfig\n"
            "from repro.core.engine import IndexingEngine\n"
            "from repro.corpus.collection import Collection\n"
            "from repro.robustness.faults import FaultPlan, FaultSpec, inject\n"
            "name, directory, out = sys.argv[1:]\n"
            "stall = FaultSpec(kind='worker_stall', delay_s=600, stage='build')\n"
            "with inject(FaultPlan(specs=(stall,))):\n"
            "    IndexingEngine(PlatformConfig(sample_fraction=0.2,\n"
            "        exec_backend='multiprocess')).build(\n"
            "        Collection.load(name, directory), out)\n"
        )
        engine = subprocess.Popen(
            [sys.executable, "-c", script, tiny_collection.name,
             tiny_collection.directory, str(tmp_path / "idx")],
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        )

        def children() -> list[int]:
            found = []
            for entry in os.listdir("/proc"):
                try:
                    with open(f"/proc/{entry}/stat", "rb") as fh:
                        fields = fh.read().rsplit(b")", 1)[1].split()
                except (OSError, IndexError):
                    continue
                if int(fields[1]) == engine.pid:
                    found.append(int(entry))
            return found

        try:
            deadline = time.monotonic() + 60.0
            while not children() and time.monotonic() < deadline:
                assert engine.poll() is None, "the build ended before it stalled"
                time.sleep(0.05)
            (worker,) = children()
        finally:
            engine.kill()
            engine.wait()

        def running(pid: int) -> bool:
            try:
                with open(f"/proc/{pid}/stat", "rb") as fh:
                    return fh.read().rsplit(b")", 1)[1].split()[0] != b"Z"
            except OSError:
                return False

        deadline = time.monotonic() + 30.0
        while running(worker) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not running(worker)


class TestProfileUnderChaos:
    def test_profile_survives_worker_crash_mid_build(
            self, tiny_collection, serial_build, tmp_path):
        """A SIGKILLed worker takes its unsent samples with it, but the
        merged artifact must stay schema-valid and the build recovered —
        profile deltas ride every reply, so loss is bounded by one file
        and the restarted incarnation's pid joins the same lane."""
        from repro.obs.profile_schema import load_profile

        out = str(tmp_path / "idx")
        result = _chaos_build(
            tiny_collection, out, _crash("file_00003"),
            profile=True, profile_interval_s=0.002,
        )
        assert result.supervisor.restarts == 1
        _assert_recovered(result, out, serial_build)
        payload = load_profile(os.path.join(out, PROFILE_FILENAME))
        assert {"engine", "parser-0"} <= set(payload["lanes"])
