"""Smoke test of the benchmark harness itself.

    PYTHONPATH=src python -m pytest benchmarks/perf -q

Not part of tier-1 (``testpaths = ["tests"]``).  Runs every workload at
``--smoke`` size (two files, one rep) and checks the contract between
``BENCHMARK.json`` and what ``run.py`` prints, that the output check and
the rep timeout really fire, and that nothing — process, shared-memory
segment, temp directory — outlives a run.
"""

from __future__ import annotations

import glob
import json
import os
import re
import signal
import subprocess
import sys
import time

import pytest

PERF_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(PERF_DIR))
sys.path[:0] = [PERF_DIR, os.path.join(ROOT, "src")]

import ops  # noqa: E402
import procs  # noqa: E402
import run as harness  # noqa: E402
from repro.core.shm_ring import list_repro_segments  # noqa: E402
from repro.corpus.synthetic import generate_collection  # noqa: E402
from repro.util.timing import now  # noqa: E402
from workloads import WORKLOADS, collection_spec  # noqa: E402

RUN_PY = os.path.join(PERF_DIR, "run.py")
NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")

with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as _fh:
    BENCH = json.load(_fh)


def _rep_processes() -> dict[int, str]:
    """Live processes running the harness's child script: pid -> command line."""
    found = {}
    for pid in (int(name) for name in os.listdir("/proc") if name.isdigit()):
        try:
            with open(f"/proc/{pid}/cmdline", "rb") as fh:
                cmdline = fh.read().replace(b"\0", b" ").decode("utf-8", "replace")
        except OSError:
            continue
        if os.path.join(PERF_DIR, "child.py") in cmdline:
            found[pid] = cmdline
    return found


@pytest.fixture(autouse=True)
def nothing_left_behind():
    segments = set(list_repro_segments())
    yield
    assert set(list_repro_segments()) <= segments
    assert procs.live_descendants(set()) == []
    assert _rep_processes() == {}
    assert glob.glob(os.path.join(harness.OUT_DIR, "tmp-*")) == []


def _run(*args: str) -> tuple[dict, dict]:
    """Run the harness; return (full document, last-line summary)."""
    proc = subprocess.run(
        [sys.executable, RUN_PY, *args], capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def _check_summary(summary: dict, declared: list[dict]) -> None:
    assert set(summary) == {"correct", "attempted", "failed", "metrics"}
    assert summary["correct"] is True
    assert summary["attempted"] >= 1 and summary["failed"] == 0
    assert set(summary["metrics"]) == {spec["name"] for spec in declared}
    for spec in declared:
        assert NAME_RE.fullmatch(spec["name"])
        metric = summary["metrics"][spec["name"]]
        assert metric["unit"] == spec["unit"]
        assert isinstance(metric["value"], (int, float))


@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_every_declared_metric_is_reported(workload: str) -> None:
    assert workload in WORKLOADS
    document, summary = _run("--workload", workload, "--seed", "3", "--smoke")
    _check_summary(summary, BENCH["end_to_end"])
    assert all(m["value"] > 0 for m in summary["metrics"].values())
    assert document["ops_failed"] == 0 and document["machine"]["nproc"] >= 1

    document, summary = _run("--workload", workload, "--seed", "3", "--smoke", "--trace", "1")
    _check_summary(summary, BENCH["per_layer"])
    assert document["warnings"] == []
    assert summary["metrics"]["engine.coverage"]["value"] > 0.5
    assert os.path.exists(os.path.join(harness.OUT_DIR, f"{workload}.trace.json"))


def test_digest_check_fires_on_a_corrupted_run_file(tmp_path) -> None:
    workload = WORKLOADS["web_serial"].sized(smoke=True)
    collection = generate_collection(collection_spec(workload, 5), str(tmp_path / "corpus"))
    index_dir = str(tmp_path / "index")
    ops.run_build(collection.directory, collection.name, workload.config, index_dir)
    digest = ops.index_digest(index_dir)
    assert ops.check_index(index_dir, digest) == []

    run_file = sorted(glob.glob(os.path.join(index_dir, "run_*.post")))[0]
    with open(run_file, "r+b") as fh:
        fh.seek(os.path.getsize(run_file) // 2)
        byte = fh.read(1)
        fh.seek(-1, os.SEEK_CUR)
        fh.write(bytes([byte[0] ^ 0xFF]))
    problems = ops.check_index(index_dir, digest)
    assert any("digest" in p for p in problems)
    assert any("run-crc" in p for p in problems)


def test_rep_timeout_is_a_failed_op_and_is_reaped() -> None:
    args = harness.parse_args(["--workload", "web_mp", "--seed", "4", "--smoke"])
    run = harness.Run(WORKLOADS["web_mp"].sized(smoke=True), args)
    os.makedirs(run.tmp)
    try:
        run.setup()
        assert run.rep(0) is not None
        args.rep_timeout_s = 0.05
        assert run.rep(1) is None
        assert (run.attempted, run.failed) == (2, 1)
        assert any("timed out" in failure for failure in run.failures)
    finally:
        run.cleanup()


def test_sigterm_mid_run_cleans_up() -> None:
    proc = subprocess.Popen(
        [sys.executable, RUN_PY, "--workload", "web_mp", "--seed", "6", "--smoke"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        # The rep leads its own session, so its pid is the session id of
        # every process it starts, whoever their parent is by now.  Wait
        # until it is running its workers.
        deadline = now() + 120
        members: list[int] = []
        while len(members) < 2:
            assert proc.poll() is None and now() < deadline
            time.sleep(0.02)
            reps = [pid for pid in _rep_processes()
                    if (procs._stat_fields(pid) or (0, 0))[0] == proc.pid]
            members = procs._session_members(reps[0]) if reps else []
        (session,) = reps
        proc.send_signal(signal.SIGTERM)
        stdout, _ = proc.communicate(timeout=60)
    finally:
        proc.kill()
        proc.wait()
    assert proc.returncode == 128 + signal.SIGTERM
    assert stdout == ""  # no result for an interrupted run
    assert procs._session_members(session) == []
