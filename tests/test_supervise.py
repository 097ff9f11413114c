"""Supervision policy and bookkeeping (no processes involved).

The mechanism (restart, replay, degrade) is exercised end-to-end in
``test_chaos_mp.py``; here the *decisions* are pinned: restart budgets
count the one worker slot's restarts, backoff is deterministic and grows, poison counting crosses the
threshold exactly once, and every record_* call lands in both the
report and the metrics registry.
"""

from __future__ import annotations

import pytest

from repro.obs import runtime as obs_runtime
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import NullTracer
from repro.robustness.retry import RetryPolicy
from repro.robustness.supervise import (
    Supervisor,
    SupervisorPolicy,
    SupervisorReport,
    WorkerFailure,
)


class TestPolicyValidation:
    def test_defaults_are_valid(self):
        policy = SupervisorPolicy()
        assert policy.max_restarts == 2
        assert policy.poison_threshold == 2

    @pytest.mark.parametrize("kwargs", [
        {"max_restarts": -1},
        {"heartbeat_timeout_s": 0.0},
        {"poison_threshold": 0},
        {"ring_capacity_bytes": 16},
    ])
    def test_bad_values_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SupervisorPolicy(**kwargs)


class TestRestartBudget:
    def test_budget_is_per_worker(self):
        sup = Supervisor(SupervisorPolicy(max_restarts=1))
        assert sup.allow_restart()
        sup.record_restart(requeued=0)
        assert not sup.allow_restart()

    def test_zero_budget_never_restarts(self):
        sup = Supervisor(SupervisorPolicy(max_restarts=0))
        assert not sup.allow_restart()

    def test_backoff_is_deterministic_and_grows(self):
        flat = SupervisorPolicy(
            max_restarts=5,
            restart_backoff=RetryPolicy(base_delay_s=0.01, max_delay_s=0.03, jitter=0.0),
        )
        sup = Supervisor(flat)
        delays = []
        for _ in range(4):
            delays.append(sup.restart_delay_s())
            sup.record_restart(requeued=0)
        assert delays == [0.01, 0.02, 0.03, 0.03]

        # With jitter the delay is still a pure function of the restart
        # ordinal: two fresh supervisors agree after the same history.
        a, b = Supervisor(SupervisorPolicy()), Supervisor(SupervisorPolicy())
        for sup in (a, b):
            sup.record_restart(requeued=0)
        assert a.restart_delay_s() == b.restart_delay_s()


class TestPoison:
    def test_threshold_crossing(self):
        sup = Supervisor(SupervisorPolicy(poison_threshold=2))
        assert not sup.note_task_crash("file.gz::cpu-0")
        assert sup.note_task_crash("file.gz::cpu-0")

    def test_tags_count_independently(self):
        sup = Supervisor(SupervisorPolicy(poison_threshold=2))
        assert not sup.note_task_crash("a::cpu-0")
        assert not sup.note_task_crash("b::cpu-0")

    def test_threshold_one_is_immediate(self):
        sup = Supervisor(SupervisorPolicy(poison_threshold=1))
        assert sup.note_task_crash("a::cpu-0")


class TestRecording:
    @pytest.fixture
    def registry(self):
        reg = MetricsRegistry()
        obs_runtime.install(obs_runtime.Telemetry(tracer=NullTracer(), metrics=reg))
        yield reg
        obs_runtime.uninstall()

    def test_restart_counts_into_report_and_registry(self, registry):
        sup = Supervisor(SupervisorPolicy())
        sup.record_restart(requeued=3)
        assert sup.report.restarts == 1
        assert sup.report.requeued == 3
        counters = registry.snapshot()["counters"]
        assert counters["supervisor.restarts"] == 1
        assert counters["supervisor.requeued"] == 3

    def test_stall_counts_heartbeat_miss(self, registry):
        sup = Supervisor(SupervisorPolicy())
        sup.record_failure(WorkerFailure(
            worker="parser-1", kind="stall", incarnation=1, action="restart"
        ))
        assert sup.report.heartbeat_misses == 1
        assert registry.snapshot()["counters"]["supervisor.heartbeat_misses"] == 1
        assert not sup.report.clean

    def test_crash_does_not_count_heartbeat_miss(self, registry):
        sup = Supervisor(SupervisorPolicy())
        sup.record_failure(WorkerFailure(
            worker="cpu-0", kind="crash", incarnation=1, action="restart"
        ))
        assert sup.report.heartbeat_misses == 0

    def test_degrade_and_poison_bookkeeping(self, registry):
        sup = Supervisor(SupervisorPolicy())
        sup.record_poisoned("bad.gz::cpu-1")
        sup.record_degraded(requeued=2)
        assert sup.report.degraded == 1
        assert sup.report.poisoned_tasks == ["bad.gz::cpu-1"]
        counters = registry.snapshot()["counters"]
        assert counters["supervisor.degraded"] == 1
        assert counters["supervisor.poisoned"] == 1
        assert counters["supervisor.requeued"] == 2

    def test_recording_safe_without_telemetry(self):
        obs_runtime.uninstall()
        sup = Supervisor(SupervisorPolicy())
        sup.record_restart(requeued=1)  # must not raise
        assert sup.report.restarts == 1

    def test_clean_report(self):
        assert SupervisorReport().clean
